"""A tiny DAG language for smooth scalar programs.

An :class:`Expr` is a list of nodes in topological order; node ids are
positions in the list, so sharing is explicit and evaluation is a single
pass.  Supported operations::

    input(i)   const(c)   add  sub  mul  div  neg
    pow_int(k) exp  log  sin  cos  sqrt

Evaluation maps towers to towers, so the same program yields values,
first tangents, or any iterated tangent depending on the order of its
arguments; ``Expr.on_blocks`` takes the towers laid side by side in one
array, the layout of a tangent point, and multiplies only the terms
that the generator sets of its input columns allow (see :class:`Expr`).
Expressions are immutable;
building happens through :class:`ExprBuilder` or the :func:`build`
convenience wrapper, both of which hash-cons nodes so repeated subterms
are shared.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .tower import (_PERIODIC, MAX_ORDER, Tower, _add, _constant, _div, _lift,
                    _mul, _order_of, _periodic_lift, _pow, _sub, sparse_mul)

_UNARY_PRIMS = ("exp", "log", "sin", "cos", "sqrt")
_ARITY = {"input": 0, "const": 0, "neg": 1, "pow_int": 1}
_ARITY.update({op: 2 for op in ("add", "sub", "mul", "div")})
_ARITY.update({op: 1 for op in _UNARY_PRIMS})


class Node(NamedTuple):
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


class _Schedule(NamedTuple):
    """A compiled program: what ``Expr`` runs and how it writes outputs."""
    lifted: tuple     # the constants a step reads as towers
    steps: tuple      # (node id, fn, register a, register b, dead registers)
    out_src: tuple    # each output's input slot, float or step register
    gather: tuple | None     # on_blocks: input columns as one gather
    fill: tuple | None       # on_blocks: float columns and their towers
    step_outs: tuple         # on_blocks: (column, register) of step outputs
    multiplies: bool         # whether a step is a product (``_mul``)
    plans: dict              # on_blocks: input pattern -> steps to run


class Expr:
    """An immutable program with ``n_inputs`` arguments and a tuple of
    output node ids.

    Construction validates every node in one pass.  The first run
    (``evaluate``, ``on_blocks`` or a call) compiles the program into a
    ``_Schedule`` and keeps it: many programs are only spliced into
    larger ones and never run, and they are never compiled.  Compiling
    marks the nodes that some output reads and schedules only those:
    constant nodes stay floats, nodes whose operands are all constant
    are folded into floats, and every other node becomes a step that
    computes its coefficient array from the arrays of earlier nodes.  A
    node that no output reads is validated but never run, so it cannot
    raise ``DomainError``.  Arrays live in registers: the input slots
    first, then one constant tower per constant that a step needs as a
    tower, then one per step, in schedule order.  Each step lists the
    registers it reads for the last time, and evaluation drops them as
    soon as the step has run; input registers and those of outputs are
    never dropped.  An output is an input slot, a float or a step
    register (``out_src``), and ``on_blocks`` writes each kind at once:
    the inputs by one gather, the floats by one write, and only the step
    outputs one by one.

    At orders 2-4, ``on_blocks`` also reads which generators each input
    column depends on, and multiplies only the terms they allow
    (``_steps_for``, ``_sparse_steps``): every column dense runs the
    schedule as compiled, after one test of the top coefficients at the
    first point; other input patterns run a plan of it, kept on the
    schedule per pattern, whose products take ``tower.sparse_mul``;
    quotients and powers run dense.  Results keep the dense layout and
    differ from the dense run only where ``sparse_mul``'s do: in the
    sign of a sum of zeros, or where a skipped zero met an inf or a
    NaN.  At order 1 a skipped term saves one multiply-add of the batch,
    about what reading the sets costs, so order 1, like ``evaluate``,
    always runs dense.

    The schedule carries the memos of its ``sin`` and ``cos`` steps as
    it carries ``plans``: each of those steps keeps the value and slope
    of the last base it lifted, and reuses them on a base with the same
    shape and bits (``tower._periodic_lift``).  A memo is replaced in one
    assignment, as a plan is added in one, and neither is changed in
    place, so a program stays safe to share between threads.
    """

    __slots__ = ("nodes", "n_inputs", "outputs", "_schedule")

    def __init__(self, nodes: Sequence[Node], n_inputs: int,
                 outputs: Sequence[int]) -> None:
        nodes = tuple(nodes)
        outputs = tuple(map(int, outputs))
        if n_inputs < 0:
            raise ValueError("n_inputs must be nonnegative")
        arity_of = _ARITY.get
        for nid, (op, args, value, index) in enumerate(nodes):
            arity = arity_of(op)
            if arity is None:
                raise ValueError(f"node {nid}: unknown op {op!r}")
            if len(args) != arity:
                raise ValueError(f"node {nid}: op {op!r} takes {arity} args, "
                                 f"got {len(args)}")
            for a in args:
                if not 0 <= a < nid:
                    raise ValueError(f"node {nid}: arg {a} not topologically "
                                     "earlier")
            if arity:
                if index is None and op == "pow_int":
                    raise ValueError(f"node {nid}: pow_int without exponent")
            elif op == "input":
                if index is None or not 0 <= index < n_inputs:
                    raise ValueError(f"node {nid}: input slot {index} out "
                                     f"of range for {n_inputs} inputs")
            elif value is None:
                raise ValueError(f"node {nid}: const without value")
            else:
                float(value)  # refuses a value that is not a number
        for o in outputs:
            if not 0 <= o < len(nodes):
                raise ValueError(f"output id {o} out of range")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "n_inputs", n_inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "_schedule", None)

    def _compile(self) -> _Schedule:
        """Compile the program (see the class docstring) and keep it."""
        nodes, n_inputs, outputs = self.nodes, self.n_inputs, self.outputs
        live = [False] * len(nodes)  # whether some output reads the node
        for o in outputs:
            live[o] = True
        for nid in range(len(nodes) - 1, -1, -1):
            if live[nid]:
                for a in nodes[nid][1]:
                    live[a] = True
        consts: list[float | None] = [None] * len(nodes)
        reg: dict[int, int] = {}
        lifted, steps = set(), []
        for nid, node in enumerate(nodes):
            if not live[nid]:
                continue
            op, args, value, index = node
            if not args:
                if op == "input":
                    reg[nid] = index
                else:
                    consts[nid] = float(value)
                continue
            step = _step(op, args, index, consts)
            if consts[args[0]] is not None and consts[args[-1]] is not None:
                consts[nid] = _fold(op, *step, consts, index)
                if consts[nid] is not None:
                    continue
                # not folded: it runs at evaluate, on constant towers of
                # the evaluation's order and batch shape
                lifted.update(args)
            elif op == "div" and consts[args[1]] == 0.0:
                lifted.add(args[1])  # so recip raises, as for a tower
            steps.append((nid, *step))
        lifted = sorted(lifted)
        for k, nid in enumerate(lifted + [step[0] for step in steps]):
            reg[nid] = n_inputs + k
        out_src = tuple(reg[o] if consts[o] is None else consts[o]
                        for o in outputs)
        # backwards, each register a step reads and no later step or
        # output does is dead after it; input registers are never dead
        later = {src for src in out_src if type(src) is not float}
        for k in range(len(steps) - 1, -1, -1):
            nid, fn, a, b = steps[k]
            a, b = reg[a], reg[b]
            dead = ()
            if a >= n_inputs and a not in later:
                dead = (a,)
                later.add(a)
            if b >= n_inputs and b not in later:
                dead += (b,)
                later.add(b)
            steps[k] = (nid, fn, a, b, dead)
        gather, fill, step_outs = [], [], []  # (column, source) by kind
        for j, src in enumerate(out_src):
            if type(src) is float:
                fill.append((j, src))
            elif src < n_inputs:
                gather.append((j, src))
            else:
                step_outs.append((j, src))
        if fill:  # the constant towers of every order, one column each
            block = np.zeros((1 << MAX_ORDER, len(fill)))
            block[0] = [c for _, c in fill]
            fill = (_index([j for j, _ in fill]), block)
        multiplies = any(fn is _mul for _, fn, _, _, _ in steps)
        schedule = _Schedule(
            tuple(consts[i] for i in lifted), tuple(steps), out_src,
            tuple(_index(col) for col in zip(*gather)) if gather else None,
            fill or None, tuple(step_outs), multiplies, {})
        object.__setattr__(self, "_schedule", schedule)
        return schedule

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
        schedule = self._schedule or self._compile()
        if schedule.steps:
            regs = self._run(regs, order, batch_shape)
        towers: dict[int, Tower] = {}
        out = []
        for o, src in zip(self.outputs, schedule.out_src):
            t = towers.get(o)
            if t is None:
                if type(src) is float:
                    arr = np.zeros((1 << order,) + tuple(batch_shape))
                    arr[0] = src
                    t = Tower._raw(order, arr)
                else:
                    t = (inputs[src] if src < self.n_inputs
                         else Tower._raw(order, regs[src]))
                towers[o] = t
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
        n, batch = len(blocks), blocks.shape[2:]
        schedule = self._schedule or self._compile()
        _, steps, _, gather, fill, step_outs, multiplies, _ = schedule
        if steps:  # before ``out`` exists, which would raise the peak
            if multiplies and order > 1 and blocks.size:
                steps = self._steps_for(blocks, schedule)
            regs = self._run(list(blocks.swapaxes(0, 1)), order, batch, steps)
        out = np.empty((n, self.n_outputs) + batch)
        if gather is not None:
            cols, slots = gather
            out[:, cols] = blocks[:, slots]
        if fill is not None:
            cols, block = fill
            out[:, cols] = block[:n].reshape((n, -1) + (1,) * len(batch))
        for j, r in step_outs:
            out[:, j] = regs[r]
        return out

    def _steps_for(self, blocks: np.ndarray, schedule: _Schedule) -> tuple:
        """The steps that run on ``blocks``: the schedule's own when every
        input column depends on every generator, else its plan for the
        columns' generator sets (``_sparse_steps``), kept per pattern.

        A column whose top coefficient is nonzero at the first point
        depends on every generator, so when all are, that is the only
        test.  Otherwise one reduction over the blocks finds the rows
        (mask, column) that are nonzero anywhere; their bytes key
        ``schedule.plans``.
        """
        batch_axes = tuple(range(2, blocks.ndim))
        top = blocks[(-1, slice(None)) + (0,) * len(batch_axes)]
        if 0.0 not in top.tolist():  # cheaper than .all() on a few floats
            return schedule.steps
        nonzero = blocks[1:] != 0.0
        if batch_axes:
            nonzero = nonzero.any(axis=batch_axes)
        key = nonzero.tobytes()
        steps = schedule.plans.get(key)
        if steps is None:
            steps = schedule.plans[key] = self._sparse_steps(nonzero, schedule)
        return steps

    def _sparse_steps(self, nonzero: np.ndarray, schedule: _Schedule) -> tuple:
        """The schedule's steps with generator-sparse products.

        ``nonzero[m - 1, i]`` tells whether mask ``m`` of input ``i`` is
        nonzero somewhere.  An input's generator set is the union of its
        nonzero masks, and the schedule carries the sets: the union of
        the operands' for add, sub, mul and div, and the operand's own for
        neg, constant ops, lifts and powers (whose two register indices
        are one).  Lifted constants count as depending on every
        generator, so their towers stay dense.  Each product whose
        operands miss a generator gets the kernel of ``sparse_mul`` for
        their sets; if none does, these are the schedule's own steps.
        """
        order = len(nonzero).bit_length()
        full = (1 << order) - 1
        masks = np.arange(1, len(nonzero) + 1)[:, None]
        sets = np.bitwise_or.reduce(nonzero * masks, axis=0).tolist()
        sets += [full] * len(schedule.lifted)
        steps, sparse = [], False
        for step in schedule.steps:
            nid, fn, a, b, dead = step
            sa, sb = sets[a], sets[b]
            sets.append(sa | sb)
            if fn is _mul and sa & sb != full:
                step = (nid, sparse_mul(order, sa, sb), a, b, dead)
                sparse = True
            steps.append(step)
        return tuple(steps) if sparse else schedule.steps

    def _run(self, regs: list, order: int, batch_shape: tuple,
             steps: tuple | None = None) -> list:
        """Run the schedule, or ``steps`` in its place, on the input
        arrays ``regs``, in place.

        Returns the register list; only the input and output registers
        are sure to still hold their arrays.
        """
        lifted, default = (self._schedule or self._compile())[:2]
        steps = default if steps is None else steps
        shape = (1 << order,) + tuple(batch_shape)
        for c in lifted:
            regs.append(np.zeros(shape))
            regs[-1][0] = c
        try:
            for nid, fn, a, b, dead in steps:
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
                          value=(json_float(n["value"], "value")
                                 if "value" in n else None),
                          index=(json_int(n["index"], "index")
                                 if "index" in n else None))
                     for n in data["nodes"]]
            return cls(nodes, json_int(data["inputs"], "inputs"),
                       [json_int(o, "output") for o in data["outputs"]])
        except (KeyError, TypeError) as err:
            raise ValueError(f"malformed expression AST: {err}") from err


def _index(seq: Sequence[int]) -> slice | np.ndarray:
    """``seq`` as an index: a slice when it is a run of consecutive
    integers, since basic indexing costs a third of a gather here."""
    first = seq[0]
    if list(seq) == list(range(first, first + len(seq))):
        return slice(first, first + len(seq))
    return np.array(seq)


def json_int(value, what: str) -> int:
    """A count or index read from JSON: an integer, and not a bool."""
    if type(value) is not int:  # bool is a subclass of int
        raise ValueError(f"{what} must be an integer, got {value!r:.40}")
    return int(value)


def json_float(value, what: str) -> float:
    """A number read from JSON: an integer or a float, and not a bool
    or a string."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a number, got {value!r:.40}")
    return float(value)


def _unary(prim: str) -> Callable:
    def step(x, _):
        return _lift(prim, x)
    return step


_BINARY_OPS = {"add": _add, "sub": _sub, "mul": _mul, "div": _div}
# sin and cos are not here: each of their nodes gets a step of its own
_UNARY_OPS = {prim: _unary(prim) for prim in _UNARY_PRIMS
              if prim not in _PERIODIC}
_UNARY_OPS["neg"] = lambda x, _: -x


def _with_const(op: str, c: float, const_left: bool) -> Callable:
    """The step for ``op`` with the constant ``c`` on one side.

    A sum or difference adds the constant tower ``[c, 0, ...]``, so
    ``-0.0 + 0.0`` gives ``+0.0`` above the value slot; ``t * c`` and
    ``t / c`` scale by a float; ``c / t`` is ``recip(t) * c``.  At
    order 0 the constant tower is ``c`` alone, so a sum or difference
    takes the float directly, the same IEEE operation per entry without
    the tower's allocation and broadcast.
    """
    if op == "add":
        return lambda x, _: (x + c if len(x) == 1
                             else _add(x, _constant(c, _order_of(x))))
    if op == "sub":
        if const_left:
            return lambda x, _: (c - x if len(x) == 1
                                 else _sub(_constant(c, _order_of(x)), x))
        return lambda x, _: (x - c if len(x) == 1
                             else _sub(x, _constant(c, _order_of(x))))
    if op == "mul":
        return lambda x, _: x * c
    if const_left:
        return lambda x, _: _lift("recip", x) * c
    inv = 1.0 / c  # the bits of t * recip(c), which t / c would not keep
    return lambda x, _: x * inv


def _step(op: str, args: tuple, index, consts: Sequence[float | None]) -> tuple:
    """``(fn, a, b)``: ``fn(array of a, array of b)`` computes the node
    ``op(*args)`` (``index`` is a power's exponent).

    A constant operand is bound into ``fn`` (see ``_with_const``), and
    both indices then name the other operand.  Unary steps ignore ``b``.
    A ``sin`` or ``cos`` step is built anew for its node, and keeps the
    value and slope of the last base it lifted (``tower._periodic_lift``).
    """
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
        return (lambda x, _: _pow(x, index)), a, b
    if op in _PERIODIC:
        lift = _periodic_lift(op)
        return (lambda x, _: lift(x)), a, b
    return _UNARY_OPS[op], a, b


# The order-0 kernels of these ops on Python floats: one IEEE operation
# each, as numpy does it, and ``x / y`` as ``x * recip(y)`` (see
# ``_with_const``).  A zero divisor gives None, so the node stays a step
# and raises at evaluate, as ``recip`` does.
_FLOAT_FOLDS = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x * (1.0 / y) if y else None,
    "neg": lambda x, _: -x,
}


def _fold_pow(x: float, exponent: int) -> float | None:
    """``_pow`` at order 0 on a Python float: the same square-and-multiply
    sequence, then ``1.0 / x`` (``recip``'s value) for a negative
    exponent; None for a zero divisor, where ``recip`` raises."""
    if not exponent:
        return 1.0
    result, square, k = None, x, abs(exponent)
    while k:
        if k & 1:
            result = square if result is None else result * square
        k >>= 1
        if k:
            square = square * square
    if exponent > 0:
        return result
    return 1.0 / result if result else None


def _fold(op: str, fn: Callable, a: int, b: int,
          consts: Sequence[float | None],
          exponent: int | None = None) -> float | None:
    """The float ``fn`` gives on the constants ``a`` and ``b``, or None if
    it raises a domain error or is not finite there.

    Arithmetic and integer powers (``exponent``) fold on Python floats
    (``_FLOAT_FOLDS``, ``_fold_pow``), by the IEEE operations of the
    order-0 kernels; primitives run ``fn`` on order-0 towers, since
    ``math.sin`` and ``np.sin`` can differ in the last bit.  A
    non-finite value is left to the constant towers of the evaluation:
    above order 0, an infinite derivative makes the derivative slots of
    a constant tower NaN (0 * inf), which a float constant would not
    give; its value slot keeps the order-0 value.
    """
    fold = _FLOAT_FOLDS.get(op)
    if fold is not None:
        value = fold(consts[a], consts[b])
    elif op == "pow_int":
        value = _fold_pow(consts[a], exponent)
    else:  # a primitive, unary: ``b`` is ``a``
        x = np.array([[consts[a]]])
        try:
            with np.errstate(all="ignore"):
                value = float(fn(x, x)[0, 0])
        except DomainError:
            return None
    return value if value is not None and math.isfinite(value) else None


# -- building ---------------------------------------------------------

def _binary(op: str, flip: bool = False) -> Callable:
    """The operator method of ``op`` on a handle and a handle or number;
    ``flip`` puts the other operand first."""
    def method(self: "Handle", other) -> "Handle":
        b = self.builder
        if type(other) is not Handle:
            other = b.lift(other)
            if other is None:
                return NotImplemented
        return b.node(op, (other.id, self.id) if flip else (self.id, other.id))
    return method


class Handle:
    """A reference to a node inside a builder, with operator sugar."""

    __slots__ = ("builder", "id")

    def __init__(self, builder: "ExprBuilder", nid: int) -> None:
        self.builder = builder
        self.id = nid

    __add__, __radd__ = _binary("add"), _binary("add", flip=True)
    __sub__, __rsub__ = _binary("sub"), _binary("sub", flip=True)
    __mul__, __rmul__ = _binary("mul"), _binary("mul", flip=True)
    __truediv__, __rtruediv__ = _binary("div"), _binary("div", flip=True)

    def __neg__(self):
        return self.builder.node("neg", (self.id,))

    def __pow__(self, k):
        if not isinstance(k, (int, np.integer)):
            return NotImplemented
        return self.builder.node("pow_int", (self.id,), None, int(k))


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

# ``Node(...)`` without the keyword handling of NamedTuple's ``__new__``
_new_node = tuple.__new__


class ExprBuilder:
    """Accumulates hash-consed nodes and freezes them into an Expr."""

    def __init__(self, n_inputs: int) -> None:
        self.n_inputs = n_inputs
        self._nodes: list[Node] = []
        self._memo: dict = {}  # node (with a constant's sign) -> its handle

    def node(self, op: str, args: tuple[int, ...] = (), value=None,
             index=None) -> Handle:
        if value is not None and op == "const" and not args and index is None:
            return self._const(value)
        key = node = _new_node(Node, (op, args, value, index))
        if value is not None:  # a value on another op: kept apart the same way
            key = (node, math.copysign(1.0, value))
        h = self._memo.get(key)
        if h is None:
            h = self._memo[key] = Handle(self, len(self._nodes))
            self._nodes.append(node)
        return h

    def _const(self, value) -> Handle:
        # 0.0 == -0.0, so the sign joins the key to keep the two apart
        key = (value, math.copysign(1.0, value))
        h = self._memo.get(key)
        if h is None:
            h = self._memo[key] = Handle(self, len(self._nodes))
            self._nodes.append(_new_node(Node, ("const", (), value, None)))
        return h

    def input(self, slot: int) -> Handle:
        return self.node("input", (), None, slot)

    def inputs(self) -> list[Handle]:
        return [self.input(i) for i in range(self.n_inputs)]

    def const(self, value: float) -> Handle:
        return self._const(float(value))

    def lift(self, value) -> Handle | None:
        """A handle, or a number as a constant node; None for anything
        else."""
        kind = type(value)
        if kind is Handle:
            return value
        if kind is float:
            return self._const(value)
        if isinstance(value, (int, float, np.floating, np.integer)):
            return self._const(float(value))
        return None

    def splice(self, expr: Expr, arguments: Sequence[Handle]) -> list[Handle]:
        """Replay another expression with the given handles as inputs."""
        if len(arguments) != expr.n_inputs:
            raise ValueError(f"expected {expr.n_inputs} arguments, got "
                             f"{len(arguments)}")
        local: list[Handle] = []
        for op, args, value, index in expr.nodes:
            if op == "input":
                local.append(arguments[index])
            else:
                local.append(self.node(op, tuple([local[a].id for a in args]),
                                       value, index))
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
