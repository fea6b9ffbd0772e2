"""A tiny DAG language for smooth scalar programs.

An :class:`Expr` is a list of nodes in topological order; node ids are
positions in the list, so sharing is explicit and evaluation is a single
pass.  Supported operations::

    input(i)   const(c)   add  sub  mul  div  neg
    pow_int(k) exp  log  sin  cos  sqrt

Evaluation maps towers to towers, so the same program yields values,
first tangents, or any iterated tangent depending on the order of its
arguments.  Expressions are immutable; building happens through
:class:`ExprBuilder` or the :func:`build` convenience wrapper, both of
which hash-cons nodes so repeated subterms are shared.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError
from .tower import Tower, lift_primitive, pow_int, reciprocal, stack_values

_BINARY_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
               "div": operator.truediv}
_UNARY_PRIMS = ("exp", "log", "sin", "cos", "sqrt")
_ARITY = {"input": 0, "const": 0, "neg": 1, "pow_int": 1}
_ARITY.update({op: 2 for op in _BINARY_OPS})
_ARITY.update({op: 1 for op in _UNARY_PRIMS})


@dataclass(frozen=True)
class Node:
    op: str
    args: tuple[int, ...] = ()
    value: float | None = None   # const payload
    index: int | None = None     # input slot, or pow_int exponent


class Expr:
    """An immutable program with ``n_inputs`` arguments and a tuple of
    output node ids.

    Construction validates the nodes and compiles them, in one pass, into
    a schedule: constant nodes stay floats, nodes whose operands are all
    constant are folded into floats, and every other node becomes a step
    that computes its tower from the values of earlier nodes.
    """

    __slots__ = ("nodes", "n_inputs", "outputs", "_consts", "_slots",
                 "_lifted", "_steps", "_const_outputs")

    def __init__(self, nodes: Sequence[Node], n_inputs: int,
                 outputs: Sequence[int]) -> None:
        nodes = tuple(nodes)
        outputs = tuple(int(i) for i in outputs)
        if n_inputs < 0:
            raise ValueError("n_inputs must be nonnegative")
        consts: list[float | None] = [None] * len(nodes)
        slots, lifted, steps = [], set(), []
        for nid, node in enumerate(nodes):
            if node.op not in _ARITY:
                raise ValueError(f"node {nid}: unknown op {node.op!r}")
            if len(node.args) != _ARITY[node.op]:
                raise ValueError(f"node {nid}: op {node.op!r} takes "
                                 f"{_ARITY[node.op]} args, got {len(node.args)}")
            args_const = True
            for a in node.args:
                if not 0 <= a < nid:
                    raise ValueError(f"node {nid}: arg {a} not topologically "
                                     "earlier")
                if consts[a] is None:
                    args_const = False
            if node.op == "input":
                if node.index is None or not 0 <= node.index < n_inputs:
                    raise ValueError(f"node {nid}: input slot {node.index} out "
                                     f"of range for {n_inputs} inputs")
                slots.append((nid, node.index))
                continue
            if node.op == "const":
                if node.value is None:
                    raise ValueError(f"node {nid}: const without value")
                consts[nid] = float(node.value)
                continue
            if node.op == "pow_int" and node.index is None:
                raise ValueError(f"node {nid}: pow_int without exponent")
            step = _step(node, consts)
            if args_const:
                consts[nid] = _fold(*step, consts)
                if consts[nid] is not None:
                    continue
                # not folded: it runs at evaluate, on constant towers of
                # the evaluation's order and batch shape
                lifted.update(node.args)
            elif node.op == "div" and consts[node.args[1]] == 0.0:
                lifted.add(node.args[1])  # so recip raises, as for a tower
            steps.append((nid, *step))
        for o in outputs:
            if not 0 <= o < len(nodes):
                raise ValueError(f"output id {o} out of range")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "n_inputs", n_inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "_consts", tuple(consts))
        object.__setattr__(self, "_slots", tuple(slots))
        object.__setattr__(self, "_lifted", tuple(sorted(lifted)))
        object.__setattr__(self, "_steps", tuple(steps))
        object.__setattr__(self, "_const_outputs", tuple(sorted(
            {o for o in outputs if consts[o] is not None} - lifted)))

    def __setattr__(self, name, value):
        raise AttributeError("Expr instances are immutable")

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    def __repr__(self) -> str:
        return (f"Expr({self.n_inputs} -> {self.n_outputs}, "
                f"{len(self.nodes)} nodes)")

    # -- evaluation ---------------------------------------------------

    def evaluate(self, inputs: Sequence[Tower], order: int | None = None,
                 batch_shape: tuple | None = None) -> list[Tower]:
        """Run the program on tower arguments.

        ``order`` and ``batch_shape`` seed constants when there are no
        inputs to infer them from (zero-dimensional charts).
        """
        inputs = list(inputs)
        if len(inputs) != self.n_inputs:
            raise ValueError(f"expected {self.n_inputs} inputs, got {len(inputs)}")
        if inputs:
            orders = {t.order for t in inputs}
            if len(orders) != 1:
                raise ValueError(f"mixed input orders {sorted(orders)}")
            order = orders.pop() if order is None else order
            if order != inputs[0].order:
                raise ValueError("explicit order disagrees with the inputs")
            batch_shape = np.broadcast_shapes(*[t.batch_shape for t in inputs])
        else:
            order = 0 if order is None else order
            batch_shape = () if batch_shape is None else tuple(batch_shape)

        def constant(c: float) -> Tower:
            return Tower.constant(np.full(batch_shape, c), order)

        vals = list(self._consts)
        for nid, slot in self._slots:
            vals[nid] = inputs[slot]
        for nid in self._lifted:
            vals[nid] = constant(vals[nid])
        try:
            for nid, fn, a, b in self._steps:
                vals[nid] = fn(vals[a], vals[b])
        except DomainError as err:
            raise DomainError(f"node {nid} ({self.nodes[nid].op}): {err}") from err
        for nid in self._const_outputs:
            vals[nid] = constant(vals[nid])
        return [vals[i] for i in self.outputs]

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Order-0 evaluation on an array of shape (n_inputs, ...)."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 0 or points.shape[0] != self.n_inputs:
            raise ValueError(f"expected leading axis {self.n_inputs}, got "
                             f"shape {points.shape}")
        batch = points.shape[1:]
        towers = [Tower.constant(points[i]) for i in range(self.n_inputs)]
        return stack_values(self.evaluate(towers, batch_shape=batch), batch)

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        nodes = []
        for node in self.nodes:
            entry: dict = {"op": node.op, "args": list(node.args)}
            if node.value is not None:
                entry["value"] = node.value
            if node.index is not None:
                entry["index"] = node.index
            nodes.append(entry)
        return {"inputs": self.n_inputs, "outputs": list(self.outputs),
                "nodes": nodes}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Expr":
        try:
            nodes = [Node(op=str(n["op"]), args=tuple(int(a) for a in n.get("args", ())),
                          value=(float(n["value"]) if "value" in n else None),
                          index=(int(n["index"]) if "index" in n else None))
                     for n in data["nodes"]]
            return cls(nodes, int(data["inputs"]), data["outputs"])
        except (KeyError, TypeError) as err:
            raise ValueError(f"malformed expression AST: {err}") from err


def _unary(prim: str) -> Callable:
    def step(x, _):
        return lift_primitive(prim, x)
    return step


def _const_over(c, t):
    return c * reciprocal(t)


_UNARY_OPS = {prim: _unary(prim) for prim in _UNARY_PRIMS}
_UNARY_OPS["neg"] = lambda x, _: -x


def _step(node: Node, consts: Sequence[float | None]) -> tuple:
    """``(fn, a, b)``: ``fn(value of a, value of b)`` computes ``node``.

    A constant operand is a float, so a node with one takes Tower's scalar
    paths.  ``tower_mul``, ``lift_primitive`` and ``pow_int`` are looked
    up when a step runs, not bound here.  Unary steps ignore ``b``.
    """
    op, args = node.op, node.args
    a = b = args[0]
    if op in _BINARY_OPS:
        b = args[1]
        if op == "div" and (consts[a] is None) != (consts[b] is None):
            if consts[a] is not None:
                return _const_over, a, b
            if consts[b] != 0.0:
                # the bits of t * recip(c), which t / c would not keep
                inv = 1.0 / consts[b]
                return (lambda x, _: x * inv), a, b
        return _BINARY_OPS[op], a, b
    if op == "pow_int":
        k = node.index
        return (lambda x, _: pow_int(x, k)), a, b
    return _UNARY_OPS[op], a, b


def _fold(fn: Callable, a: int, b: int,
          consts: Sequence[float | None]) -> float | None:
    """The float ``fn`` gives on the constants ``a`` and ``b``, or None if
    it raises a domain error or is not finite there.

    A non-finite value is left to the constant towers of the evaluation:
    above order 0, an infinite derivative makes the derivative slots of a
    constant tower NaN (0 * inf), which a float constant would not give;
    its value slot keeps the order-0 value.
    """
    x, y = (Tower.constant(np.full(1, consts[i])) for i in (a, b))
    try:
        with np.errstate(all="ignore"):
            value = float(fn(x, y).coeffs[0, 0])
    except DomainError:
        return None
    return value if math.isfinite(value) else None


# -- building ---------------------------------------------------------

class Handle:
    """A reference to a node inside a builder, with operator sugar."""

    __slots__ = ("builder", "id")

    def __init__(self, builder: "ExprBuilder", nid: int) -> None:
        self.builder = builder
        self.id = nid

    def _bin(self, op, other, flip=False):
        other = self.builder.lift(other)
        if other is None:
            return NotImplemented
        a, b = (other, self) if flip else (self, other)
        return self.builder.node(op, (a.id, b.id))

    def __add__(self, other):
        return self._bin("add", other)

    def __radd__(self, other):
        return self._bin("add", other, flip=True)

    def __sub__(self, other):
        return self._bin("sub", other)

    def __rsub__(self, other):
        return self._bin("sub", other, flip=True)

    def __mul__(self, other):
        return self._bin("mul", other)

    def __rmul__(self, other):
        return self._bin("mul", other, flip=True)

    def __truediv__(self, other):
        return self._bin("div", other)

    def __rtruediv__(self, other):
        return self._bin("div", other, flip=True)

    def __neg__(self):
        return self.builder.node("neg", (self.id,))

    def __pow__(self, k):
        if not isinstance(k, (int, np.integer)):
            return NotImplemented
        return self.builder.node("pow_int", (self.id,), index=int(k))


def _handle_prim(op):
    def fn(h: Handle) -> Handle:
        return h.builder.node(op, (h.id,))
    fn.__name__ = op
    return fn

exp = _handle_prim("exp")
log = _handle_prim("log")
sin = _handle_prim("sin")
cos = _handle_prim("cos")
sqrt = _handle_prim("sqrt")


class ExprBuilder:
    """Accumulates hash-consed nodes and freezes them into an Expr."""

    def __init__(self, n_inputs: int) -> None:
        self.n_inputs = n_inputs
        self._nodes: list[Node] = []
        self._memo: dict = {}

    def node(self, op: str, args: tuple[int, ...] = (), value=None,
             index=None) -> Handle:
        # 0.0 == -0.0, so the sign joins the key to keep the two apart
        sign = None if value is None else math.copysign(1.0, value)
        key = (op, args, value, index, sign)
        nid = self._memo.get(key)
        if nid is None:
            nid = len(self._nodes)
            self._nodes.append(Node(op, args, value, index))
            self._memo[key] = nid
        return Handle(self, nid)

    def input(self, slot: int) -> Handle:
        return self.node("input", index=slot)

    def inputs(self) -> list[Handle]:
        return [self.input(i) for i in range(self.n_inputs)]

    def const(self, value: float) -> Handle:
        return self.node("const", value=float(value))

    def lift(self, value) -> Handle | None:
        if isinstance(value, Handle):
            return value
        if isinstance(value, (int, float, np.floating, np.integer)):
            return self.const(float(value))
        return None

    def splice(self, expr: Expr, arguments: Sequence[Handle]) -> list[Handle]:
        """Replay another expression with the given handles as inputs."""
        if len(arguments) != expr.n_inputs:
            raise ValueError(f"expected {expr.n_inputs} arguments, got "
                             f"{len(arguments)}")
        local: list[Handle] = []
        for node in expr.nodes:
            if node.op == "input":
                local.append(arguments[node.index])
            else:
                local.append(self.node(node.op,
                                       tuple(local[a].id for a in node.args),
                                       node.value, node.index))
        return [local[o] for o in expr.outputs]

    def finish(self, outputs: Iterable[Handle]) -> Expr:
        out_ids = []
        for h in outputs:
            h = self.lift(h)
            if h is None or h.builder is not self:
                raise ValueError("output is not a handle of this builder")
            out_ids.append(h.id)
        return Expr(self._nodes, self.n_inputs, out_ids)


def build(n_inputs: int, fn: Callable) -> Expr:
    """Build an expression from a function of input handles.

    ``fn`` receives the list of input handles and returns a sequence of
    handles (or plain numbers) that become the outputs.
    """
    b = ExprBuilder(n_inputs)
    outs = fn(b.inputs())
    if isinstance(outs, Handle):
        outs = [outs]
    return b.finish(list(outs))


# -- graph utilities --------------------------------------------------

def parallel(*exprs: Expr) -> Expr:
    """Run expressions side by side on a concatenated input tuple."""
    total = sum(e.n_inputs for e in exprs)
    b = ExprBuilder(total)
    outs: list[Handle] = []
    offset = 0
    for e in exprs:
        args = [b.input(offset + i) for i in range(e.n_inputs)]
        outs.extend(b.splice(e, args))
        offset += e.n_inputs
    return b.finish(outs)


def reindex_inputs(e: Expr, slot_map: Sequence[int], n_inputs: int) -> Expr:
    """Rewire input slots: old slot ``i`` reads new slot ``slot_map[i]``."""
    b = ExprBuilder(n_inputs)
    args = [b.input(slot_map[i]) for i in range(e.n_inputs)]
    return b.finish(b.splice(e, args))


def tangent_lift(e: Expr) -> Expr:
    """Forward-mode transform.

    The result takes ``(x, dx)`` (all values then all directions) and
    returns ``(e(x), De(x) dx)`` in the same layout.  Applying it twice
    yields the second tangent, and so on.
    """
    b = ExprBuilder(2 * e.n_inputs)
    xs = b.inputs()
    vals, dots = _emit_tangent(b, e, xs[:e.n_inputs], xs[e.n_inputs:])
    return b.finish(vals + dots)


def _emit_tangent(b: ExprBuilder, e: Expr, xs: Sequence[Handle],
                  dxs: Sequence[Handle]) -> tuple[list[Handle], list[Handle]]:
    """Write the forward-mode nodes of ``e`` into ``b``.

    ``xs`` and ``dxs`` are the handles of the values and directions of
    ``e``'s inputs; the result is the values and directions of its
    outputs.
    """
    zero = b.const(0.0)
    vals: list[Handle] = []
    dots: list[Handle] = []
    for node in e.nodes:
        op = node.op
        if op == "input":
            v = xs[node.index]
            d = dxs[node.index]
        elif op == "const":
            v = b.const(node.value)
            d = zero
        else:
            a, da = vals[node.args[0]], dots[node.args[0]]
            if len(node.args) == 2:
                c, dc = vals[node.args[1]], dots[node.args[1]]
            if op == "neg":
                v, d = -a, -da
            elif op == "add":
                v, d = a + c, da + dc
            elif op == "sub":
                v, d = a - c, da - dc
            elif op == "mul":
                v, d = a * c, a * dc + c * da
            elif op == "div":
                v = a / c
                d = (da - v * dc) / c
            elif op == "pow_int":
                k = node.index
                v = a ** k
                if k == 0:
                    d = zero
                elif k == 1:
                    d = da
                else:
                    d = float(k) * (a ** (k - 1)) * da
            elif op == "exp":
                v = exp(a)
                d = v * da
            elif op == "log":
                v = log(a)
                d = da / a
            elif op == "sin":
                v = sin(a)
                d = cos(a) * da
            elif op == "cos":
                v = cos(a)
                d = -sin(a) * da
            elif op == "sqrt":
                v = sqrt(a)
                d = da / (2.0 * v)
            else:  # pragma: no cover - guarded by Expr validation
                raise ValueError(f"unknown op {op!r}")
        vals.append(v)
        dots.append(d)
    return [vals[o] for o in e.outputs], [dots[o] for o in e.outputs]
