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

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError
from .tower import Tower, lift_primitive, pow_int

_BINARY = ("add", "sub", "mul", "div")
_UNARY_PRIMS = ("exp", "log", "sin", "cos", "sqrt")
_ARITY = {"input": 0, "const": 0, "neg": 1, "pow_int": 1}
_ARITY.update({op: 2 for op in _BINARY})
_ARITY.update({op: 1 for op in _UNARY_PRIMS})


@dataclass(frozen=True)
class Node:
    op: str
    args: tuple[int, ...] = ()
    value: float | None = None   # const payload
    index: int | None = None     # input slot, or pow_int exponent


class Expr:
    """An immutable program with ``n_inputs`` arguments and a tuple of
    output node ids."""

    __slots__ = ("nodes", "n_inputs", "outputs")

    def __init__(self, nodes: Sequence[Node], n_inputs: int,
                 outputs: Sequence[int]) -> None:
        nodes = tuple(nodes)
        outputs = tuple(int(i) for i in outputs)
        if n_inputs < 0:
            raise ValueError("n_inputs must be nonnegative")
        for nid, node in enumerate(nodes):
            if node.op not in _ARITY:
                raise ValueError(f"node {nid}: unknown op {node.op!r}")
            if len(node.args) != _ARITY[node.op]:
                raise ValueError(f"node {nid}: op {node.op!r} takes "
                                 f"{_ARITY[node.op]} args, got {len(node.args)}")
            for a in node.args:
                if not 0 <= a < nid:
                    raise ValueError(f"node {nid}: arg {a} not topologically "
                                     "earlier")
            if node.op == "input":
                if node.index is None or not 0 <= node.index < n_inputs:
                    raise ValueError(f"node {nid}: input slot {node.index} out "
                                     f"of range for {n_inputs} inputs")
            elif node.op == "const":
                if node.value is None:
                    raise ValueError(f"node {nid}: const without value")
            elif node.op == "pow_int":
                if node.index is None:
                    raise ValueError(f"node {nid}: pow_int without exponent")
        for o in outputs:
            if not 0 <= o < len(nodes):
                raise ValueError(f"output id {o} out of range")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "n_inputs", n_inputs)
        object.__setattr__(self, "outputs", outputs)

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

        vals: list[Tower] = []
        for nid, node in enumerate(self.nodes):
            try:
                vals.append(self._eval_node(node, vals, inputs, order, batch_shape))
            except DomainError as err:
                raise DomainError(f"node {nid} ({node.op}): {err}") from err
        return [vals[i] for i in self.outputs]

    @staticmethod
    def _eval_node(node, vals, inputs, order, batch_shape):
        op = node.op
        if op == "input":
            return inputs[node.index]
        if op == "const":
            return Tower.constant(np.full(batch_shape, node.value), order)
        a = vals[node.args[0]]
        if op == "neg":
            return -a
        if op == "pow_int":
            return pow_int(a, node.index)
        if op in _UNARY_PRIMS:
            return lift_primitive(op, a)
        b = vals[node.args[1]]
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        return a / b  # div

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Order-0 evaluation on an array of shape (n_inputs, ...)."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 0 or points.shape[0] != self.n_inputs:
            raise ValueError(f"expected leading axis {self.n_inputs}, got "
                             f"shape {points.shape}")
        batch = points.shape[1:]
        towers = [Tower.constant(points[i]) for i in range(self.n_inputs)]
        outs = self.evaluate(towers, batch_shape=batch)
        if not outs:
            return np.zeros((0,) + batch)
        return np.stack([np.broadcast_to(t.coeffs[0], batch) for t in outs])

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
        key = (op, args, value, index)
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

def identity(n: int) -> Expr:
    return build(n, lambda xs: xs)


def select(e: Expr, indices: Sequence[int]) -> Expr:
    """Keep a subset (or reordering) of outputs."""
    return Expr(e.nodes, e.n_inputs, [e.outputs[i] for i in indices])


def compose(outer: Expr, inner: Expr) -> Expr:
    """outer after inner; inner's outputs feed outer's inputs."""
    if inner.n_outputs != outer.n_inputs:
        raise ValueError(f"arity mismatch: inner yields {inner.n_outputs}, "
                         f"outer takes {outer.n_inputs}")
    b = ExprBuilder(inner.n_inputs)
    mid = b.splice(inner, b.inputs())
    return b.finish(b.splice(outer, mid))


def pair(*exprs: Expr) -> Expr:
    """Concatenate outputs of expressions sharing one input tuple."""
    n = exprs[0].n_inputs
    if any(e.n_inputs != n for e in exprs):
        raise ValueError("pair requires a common input arity")
    b = ExprBuilder(n)
    xs = b.inputs()
    outs: list[Handle] = []
    for e in exprs:
        outs.extend(b.splice(e, xs))
    return b.finish(outs)


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
    zero = b.const(0.0)
    vals: list[Handle] = []
    dots: list[Handle] = []
    for node in e.nodes:
        op = node.op
        if op == "input":
            v = b.input(node.index)
            d = b.input(e.n_inputs + node.index)
        elif op == "const":
            v = b.const(node.value)
            d = zero
        else:
            a, da = vals[node.args[0]], dots[node.args[0]]
            if op == "neg":
                v, d = -a, -da
            elif op == "add":
                bb, db = vals[node.args[1]], dots[node.args[1]]
                v, d = a + bb, da + db
            elif op == "sub":
                bb, db = vals[node.args[1]], dots[node.args[1]]
                v, d = a - bb, da - db
            elif op == "mul":
                bb, db = vals[node.args[1]], dots[node.args[1]]
                v, d = a * bb, a * db + bb * da
            elif op == "div":
                bb, db = vals[node.args[1]], dots[node.args[1]]
                v = a / bb
                d = (da - v * db) / bb
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
    outs = [vals[o] for o in e.outputs] + [dots[o] for o in e.outputs]
    return b.finish(outs)
