"""A tiny DAG language for smooth scalar programs.

An :class:`Expr` is a list of nodes in topological order; node ids are
positions in the list, so sharing is explicit and evaluation is a single
pass.  Supported operations::

    input(i)   const(c)   add  sub  mul  div  neg
    pow_int(k) exp  log  sin  cos  sqrt

Evaluation maps towers to towers, so the same program yields values,
first tangents, or any iterated tangent depending on the order of its
arguments; ``Expr.on_blocks`` takes the towers laid side by side in one
array, the layout of a tangent point.  Expressions are immutable;
building happens through :class:`ExprBuilder` or the :func:`build`
convenience wrapper, both of which hash-cons nodes so repeated subterms
are shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError
from .tower import (MAX_ORDER, Tower, _add, _constant, _div, _lift, _mul,
                    _order_of, _pow, _sub)

_UNARY_PRIMS = ("exp", "log", "sin", "cos", "sqrt")
_ARITY = {"input": 0, "const": 0, "neg": 1, "pow_int": 1}
_ARITY.update({op: 2 for op in ("add", "sub", "mul", "div")})
_ARITY.update({op: 1 for op in _UNARY_PRIMS})


@dataclass(frozen=True)
class Node:
    op: str
    args: tuple[int, ...] = ()
    value: float | None = None   # const payload
    index: int | None = None     # input slot, or pow_int exponent


def order_of(blocks: np.ndarray) -> int:
    """The order n of a block array of shape ``(2**n, dim, *batch)``.

    Refuses an array with fewer than two axes, or whose axis 0 is not
    a power of two up to ``2**MAX_ORDER``.
    """
    n = blocks.shape[0] if blocks.ndim >= 2 else 0
    if not (0 < n <= 1 << MAX_ORDER and n & (n - 1) == 0):
        raise ValueError(f"a block array has shape (2**k, dim, ...) with k <= "
                         f"{MAX_ORDER}, got shape {blocks.shape}")
    return n.bit_length() - 1


class Expr:
    """An immutable program with ``n_inputs`` arguments and a tuple of
    output node ids.

    Construction validates every node, marks the nodes that some output
    reads, and compiles only those into a schedule: constant nodes stay
    floats, nodes whose operands are all constant are folded into floats,
    and every other node becomes a step that computes its coefficient
    array from the arrays of earlier nodes.  A node that no output reads
    is validated but never run, so it cannot raise ``DomainError``.
    Arrays live in registers: the input slots first, then one constant
    tower per constant that a step or an output needs as a tower, then
    one per step, in schedule order.  Each step lists the registers it
    reads for the last time, and evaluation drops them as soon as the
    step has run; input and output registers are never dropped.
    """

    __slots__ = ("nodes", "n_inputs", "outputs", "_lifted", "_steps",
                 "_out_regs")

    def __init__(self, nodes: Sequence[Node], n_inputs: int,
                 outputs: Sequence[int]) -> None:
        nodes = tuple(nodes)
        outputs = tuple(int(i) for i in outputs)
        if n_inputs < 0:
            raise ValueError("n_inputs must be nonnegative")
        consts: list[float | None] = [None] * len(nodes)
        reg: dict[int, int] = {}
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
                reg[nid] = node.index
            elif node.op == "const":
                if node.value is None:
                    raise ValueError(f"node {nid}: const without value")
                consts[nid] = float(node.value)
            elif node.op == "pow_int" and node.index is None:
                raise ValueError(f"node {nid}: pow_int without exponent")
        for o in outputs:
            if not 0 <= o < len(nodes):
                raise ValueError(f"output id {o} out of range")
        live = set(outputs)  # the nodes some output reads
        for nid in reversed(range(len(nodes))):
            if nid in live:
                live.update(nodes[nid].args)
        lifted, steps = set(), []
        for nid in sorted(live):
            node = nodes[nid]
            if node.op in ("input", "const"):
                continue
            step = _step(node, consts)
            if all(consts[a] is not None for a in node.args):
                consts[nid] = _fold(*step, consts)
                if consts[nid] is not None:
                    continue
                # not folded: it runs at evaluate, on constant towers of
                # the evaluation's order and batch shape
                lifted.update(node.args)
            elif node.op == "div" and consts[node.args[1]] == 0.0:
                lifted.add(node.args[1])  # so recip raises, as for a tower
            steps.append((nid, *step))
        lifted.update(o for o in outputs if consts[o] is not None)
        lifted = sorted(lifted)
        numbered = lifted + [step[0] for step in steps]
        reg.update((nid, n_inputs + k) for k, nid in enumerate(numbered))
        out_regs = tuple(reg[o] for o in outputs)
        steps = [(nid, fn, reg[a], reg[b]) for nid, fn, a, b in steps]
        last: dict[int, int] = {}  # register -> the step that reads it last
        for k, (_, _, a, b) in enumerate(steps):
            last[a] = last[b] = k
        dead: list[list[int]] = [[] for _ in steps]
        for r, k in last.items():
            if not (r < n_inputs or r in out_regs):
                dead[k].append(r)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "n_inputs", n_inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "_lifted", tuple(consts[i] for i in lifted))
        object.__setattr__(self, "_steps", tuple(
            step + (tuple(d),) for step, d in zip(steps, dead)))
        object.__setattr__(self, "_out_regs", out_regs)

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
        inputs to infer them from (zero-dimensional charts).  The steps
        run on coefficient arrays; each output is wrapped once, and a
        repeated output is one shared tower.
        """
        if len(inputs) != self.n_inputs:
            raise ValueError(f"expected {self.n_inputs} inputs, got {len(inputs)}")
        regs = [t.coeffs for t in inputs]
        if regs:
            shape = regs[0].shape
            batch_shape = shape[1:]
            if any(r.shape != shape for r in regs):
                orders = {t.order for t in inputs}
                if len(orders) != 1:
                    raise ValueError(f"mixed input orders {sorted(orders)}")
                batch_shape = np.broadcast_shapes(*[r.shape[1:] for r in regs])
            if order is not None and order != inputs[0].order:
                raise ValueError("explicit order disagrees with the inputs")
            order = inputs[0].order
        else:
            order = 0 if order is None else order
            batch_shape = () if batch_shape is None else tuple(batch_shape)
        regs = self._run(regs, order, batch_shape)
        towers: dict[int, Tower] = {}
        out = []
        for r in self._out_regs:
            t = towers.get(r)
            if t is None:
                t = towers[r] = (inputs[r] if r < self.n_inputs
                                 else Tower._raw(order, regs[r]))
            out.append(t)
        return out

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Order-0 evaluation on an array of shape (n_inputs, ...)."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 0 or points.shape[0] != self.n_inputs:
            raise ValueError(f"expected leading axis {self.n_inputs}, got "
                             f"shape {points.shape}")
        return self.on_blocks(points[None])[0]

    def on_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Run the program on its inputs' towers laid side by side.

        ``blocks`` has shape ``(2**order, n_inputs, *batch)``: column
        ``i`` holds input ``i``'s coefficients, the layout of a tangent
        point.  The order and batch are read from the shape.  The steps
        run on the views ``blocks[:, i]``, and the result is a fresh
        array of shape ``(2**order, n_outputs, *batch)``.
        """
        blocks = np.asarray(blocks, dtype=float)
        order = order_of(blocks)
        if blocks.shape[1] != self.n_inputs:
            raise ValueError(f"axis 1 must have length {self.n_inputs}, got "
                             f"shape {blocks.shape}")
        batch = blocks.shape[2:]
        regs = self._run([blocks[:, i] for i in range(self.n_inputs)],
                         order, batch)
        out = np.empty((1 << order, self.n_outputs) + batch)
        for j, r in enumerate(self._out_regs):
            out[:, j] = regs[r]
        return out

    def _run(self, regs: list, order: int, batch_shape: tuple) -> list:
        """Run the schedule on the input arrays ``regs``, in place.

        Returns the register list; only the input and output registers
        are sure to still hold their arrays.
        """
        shape = (1 << order,) + tuple(batch_shape)
        for c in self._lifted:
            regs.append(np.zeros(shape))
            regs[-1][0] = c
        try:
            for nid, fn, a, b, dead in self._steps:
                regs.append(fn(regs[a], regs[b]))
                for r in dead:
                    regs[r] = None
        except DomainError as err:
            raise DomainError(f"node {nid} ({self.nodes[nid].op}): {err}") from err
        return regs

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
            nodes = [Node(op=str(n["op"]),
                          args=tuple(json_int(a, "arg") for a in n.get("args", ())),
                          value=(float(n["value"]) if "value" in n else None),
                          index=(json_int(n["index"], "index")
                                 if "index" in n else None))
                     for n in data["nodes"]]
            return cls(nodes, json_int(data["inputs"], "inputs"),
                       [json_int(o, "output") for o in data["outputs"]])
        except (KeyError, TypeError) as err:
            raise ValueError(f"malformed expression AST: {err}") from err


def json_int(value, what: str) -> int:
    """A count or index read from JSON: an integer, and not a bool."""
    if type(value) is not int:  # bool is a subclass of int
        raise ValueError(f"{what} must be an integer, got {value!r:.40}")
    return int(value)


def _unary(prim: str) -> Callable:
    def step(x, _):
        return _lift(prim, x)
    return step


_BINARY_OPS = {"add": _add, "sub": _sub, "mul": _mul, "div": _div}
_UNARY_OPS = {prim: _unary(prim) for prim in _UNARY_PRIMS}
_UNARY_OPS["neg"] = lambda x, _: -x


def _with_const(op: str, c: float, const_left: bool) -> Callable:
    """The step for ``op`` with the constant ``c`` on one side.

    It does Tower's float operations for that operand: ``t + c`` and
    ``c + t`` add the constant tower ``[c, 0, ...]`` to ``t``, so
    ``-0.0 + 0.0`` gives ``+0.0`` above the value slot; ``t * c`` and
    ``t / c`` scale by a float; ``c / t`` is ``recip(t) * c``.
    """
    if op == "add":
        return lambda x, _: _add(x, _constant(c, _order_of(x)))
    if op == "sub":
        if const_left:
            return lambda x, _: _sub(_constant(c, _order_of(x)), x)
        return lambda x, _: _sub(x, _constant(c, _order_of(x)))
    if op == "mul":
        return lambda x, _: x * c
    if const_left:
        return lambda x, _: _lift("recip", x) * c
    inv = 1.0 / c  # the bits of t * recip(c), which t / c would not keep
    return lambda x, _: x * inv


def _step(node: Node, consts: Sequence[float | None]) -> tuple:
    """``(fn, a, b)``: ``fn(array of a, array of b)`` computes ``node``.

    A constant operand is bound into ``fn`` (see ``_with_const``), and
    both indices then name the other operand.  Unary steps ignore ``b``.
    """
    op, args = node.op, node.args
    a = b = args[0]
    if op in _BINARY_OPS:
        b = args[1]
        ca, cb = consts[a], consts[b]
        if (ca is None) == (cb is None) or (op == "div" and cb == 0.0):
            return _BINARY_OPS[op], a, b
        if ca is not None:
            return _with_const(op, ca, True), b, b
        return _with_const(op, cb, False), a, a
    if op == "pow_int":
        k = node.index
        return (lambda x, _: _pow(x, k)), a, b
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
    x, y = (np.full((1, 1), consts[i]) for i in (a, b))
    try:
        with np.errstate(all="ignore"):
            value = float(fn(x, y)[0, 0])
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
    return tangent_chart_map(e, [e.n_inputs], [e.n_outputs])


def tangent_chart_map(e: Expr, in_sizes, out_sizes) -> Expr:
    """Forward-mode transform on doubled charts laid out block by block.

    Each chart block of size s, on the inputs and on the outputs,
    becomes (values, velocities) of size 2s; with one block on each side
    this is :func:`tangent_lift`.
    """
    if e.n_inputs != sum(in_sizes) or e.n_outputs != sum(out_sizes):
        raise ValueError("block sizes do not match the expression arity")
    b = ExprBuilder(2 * e.n_inputs)
    hs = b.inputs()
    xs, dxs = [], []
    pos = 0
    for s in in_sizes:
        xs += hs[pos:pos + s]
        dxs += hs[pos + s:pos + 2 * s]
        pos += 2 * s
    zero = b.const(0.0)
    vals, dots = [], []
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
    outs = []
    pos = 0
    for s in out_sizes:
        outs += [vals[o] for o in e.outputs[pos:pos + s]]
        outs += [dots[o] for o in e.outputs[pos:pos + s]]
        pos += s
    return b.finish(outs)
