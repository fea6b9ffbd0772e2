"""Expression DSL: worked jets, finite-difference oracle, serialization."""

import json
import math
import operator

import numpy as np
import pytest

from tancat.errors import DomainError
from tancat.expr import (Expr, ExprBuilder, Node, _fold, build, exp, log,
                         parallel, reindex_inputs, tangent_lift)
from tancat.randexpr import random_expr
from tancat.tower import (Tower, _add, _div, _mul, _sub, lift_primitive,
                          pow_int, reciprocal, split_top)


def tower(order, *coeffs):
    return Tower(order, np.array(coeffs, dtype=float))


SQUARE = build(1, lambda xs: [xs[0] * xs[0]])
CUBE = build(1, lambda xs: [xs[0] ** 3])


def test_square_order1_worked_example():
    out, = SQUARE.evaluate([tower(1, 3.0, 1.0)])
    assert np.allclose(out.coeffs, [9.0, 6.0])


def test_square_order2_worked_example():
    out, = SQUARE.evaluate([tower(2, 2.0, 1.0, 1.0, 0.0)])
    assert np.allclose(out.coeffs, [4.0, 4.0, 4.0, 2.0])


def test_cube_order2_worked_example():
    out, = CUBE.evaluate([tower(2, 1.0, 1.0, 1.0, 0.0)])
    assert np.allclose(out.coeffs, [1.0, 3.0, 3.0, 6.0])


def test_call_evaluates_batches_at_order_zero():
    pts = np.array([[1.0, 2.0, 3.0]])
    assert np.allclose(SQUARE(pts), [[1.0, 4.0, 9.0]])


def test_shared_subterm_evaluated_once():
    b = ExprBuilder(1)
    x, = b.inputs()
    s = x * x
    e = b.finish([s + s, s])
    assert len(e.nodes) <= 4  # input, mul, add; const-free
    out = e.evaluate([tower(1, 2.0, 1.0)])
    assert np.allclose(out[0].coeffs, [8.0, 8.0])
    assert np.allclose(out[1].coeffs, [4.0, 4.0])


def test_validation_rejects_malformed_graphs():
    with pytest.raises(ValueError):
        Expr([Node("mystery")], 0, [0])
    with pytest.raises(ValueError):
        Expr([Node("add", (0, 1))], 0, [0])  # args not earlier
    with pytest.raises(ValueError):
        Expr([Node("input", index=3)], 2, [0])
    with pytest.raises(ValueError):
        Expr([Node("const", value=1.0)], 0, [4])


def test_domain_error_carries_node_id():
    e = build(1, lambda xs: [log(xs[0])])
    with pytest.raises(DomainError) as err:
        e.evaluate([tower(0, -2.0)])
    assert str(err.value).startswith("node 1 (log): ")
    with pytest.raises(DomainError) as err:
        e(np.array([[1.0, -2.0]]))
    assert str(err.value).startswith("node 1 (log): ")


def reference_evaluate(e, inputs, order=None, batch_shape=None):
    """Node-by-node interpreter: every constant a full tower of the batch."""
    if inputs:
        order = inputs[0].order
        batch_shape = np.broadcast_shapes(*[t.batch_shape for t in inputs])
    else:
        order = 0 if order is None else order
        batch_shape = () if batch_shape is None else tuple(batch_shape)
    vals = []
    for nid, node in enumerate(e.nodes):
        op = node.op
        try:
            if op == "input":
                v = inputs[node.index]
            elif op == "const":
                v = Tower.constant(np.full(batch_shape, node.value), order)
            elif op == "neg":
                v = -vals[node.args[0]]
            elif op == "pow_int":
                v = pow_int(vals[node.args[0]], node.index)
            elif len(node.args) == 1:
                v = lift_primitive(op, vals[node.args[0]])
            else:
                a, b = (vals[i] for i in node.args)
                v = {"add": operator.add, "sub": operator.sub,
                     "mul": operator.mul, "div": operator.truediv}[op](a, b)
        except DomainError as err:
            raise DomainError(f"node {nid} ({op}): {err}") from err
        vals.append(v)
    return [vals[i] for i in e.outputs]


def float_reference_evaluate(e, inputs, order=None, batch_shape=None):
    """Node-by-node interpreter on Tower's operators, constants as floats.

    This reads the schedule's contract one node at a time.  A node whose
    operands are all floats is computed on order-0 towers of shape (1,)
    and stays a float when finite; otherwise it runs on constant towers
    of the whole batch.  With one float operand, ``t / c`` is
    ``t * (1 / c)`` for nonzero ``c`` and ``c / t`` is
    ``reciprocal(t) * c``.  Constant outputs are towers of the batch.
    """
    if inputs:
        order = inputs[0].order
        batch_shape = np.broadcast_shapes(*[t.batch_shape for t in inputs])
    else:
        order = 0 if order is None else order
        batch_shape = () if batch_shape is None else tuple(batch_shape)

    def tower_of(v):
        if isinstance(v, Tower):
            return v
        return Tower.constant(np.full(batch_shape, v), order)

    def apply(node, args):
        op = node.op
        if op == "neg":
            return -args[0]
        if op == "pow_int":
            return pow_int(args[0], node.index)
        if len(args) == 1:
            return lift_primitive(op, args[0])
        a, b = args
        if op == "div" and isinstance(a, float):
            return reciprocal(b) * a
        if op == "div" and isinstance(b, float):
            return a * (1.0 / b) if b != 0.0 else a / tower_of(b)
        return {"add": operator.add, "sub": operator.sub,
                "mul": operator.mul, "div": operator.truediv}[op](a, b)

    vals = []
    for nid, node in enumerate(e.nodes):
        op = node.op
        try:
            if op == "input":
                v = inputs[node.index]
            elif op == "const":
                v = float(node.value)
            elif all(isinstance(vals[i], float) for i in node.args):
                try:
                    with np.errstate(all="ignore"):
                        v = float(apply(node, [Tower.constant(np.full(1, vals[i]))
                                               for i in node.args]).coeffs[0, 0])
                except DomainError:
                    v = math.nan
                if not math.isfinite(v):
                    v = apply(node, [tower_of(vals[i]) for i in node.args])
            else:
                v = apply(node, [vals[i] for i in node.args])
        except DomainError as err:
            raise DomainError(f"node {nid} ({op}): {err}") from err
        vals.append(v)
    return [tower_of(vals[i]) for i in e.outputs]


def assert_matches_reference(e, inputs, **kw):
    got = e.evaluate(inputs, **kw)
    want = reference_evaluate(e, inputs, **kw)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.order == w.order
        assert g.coeffs.shape == w.coeffs.shape
        assert np.array_equal(g.coeffs, w.coeffs, equal_nan=True)


def assert_matches_float_reference(e, inputs):
    # the signs of zeros too, which == does not tell apart
    got = e.evaluate(inputs)
    want = float_reference_evaluate(e, inputs)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.order == w.order
        assert g.coeffs.shape == w.coeffs.shape
        assert np.array_equal(g.coeffs, w.coeffs, equal_nan=True)
        assert np.array_equal(np.signbit(g.coeffs), np.signbit(w.coeffs))


@pytest.mark.parametrize("batch", [(), (5,), (2, 3)])
@pytest.mark.parametrize("order", range(5))
def test_schedule_matches_reference_interpreter(order, batch):
    rng = np.random.default_rng(100 + 10 * order + len(batch))
    for _ in range(20):
        n_in = int(rng.integers(1, 4))
        e = random_expr(rng, n_in, int(rng.integers(1, 4)),
                        depth=int(rng.integers(1, 7)))
        ins = [Tower(order, rng.uniform(-1.5, 1.5, size=(1 << order,) + batch))
               for _ in range(n_in)]
        assert_matches_reference(e, ins)


@pytest.mark.parametrize("shapes", [((5,), (1,)), ((), (2, 3)), ((1,), (), (4,))],
                         ids=str)
@pytest.mark.parametrize("order", range(5))
def test_schedule_matches_reference_on_broadcast_batches(order, shapes):
    # inputs of different batch shapes take the broadcast path
    rng = np.random.default_rng(300 + 10 * order + len(shapes[0]))
    for _ in range(20):
        e = random_expr(rng, len(shapes), int(rng.integers(1, 4)),
                        depth=int(rng.integers(1, 7)))
        ins = [Tower(order, rng.uniform(-1.5, 1.5, size=(1 << order,) + s))
               for s in shapes]
        assert_matches_float_reference(e, ins)


SIGNED = build(2, lambda xs: [xs[0] + 0.0, 0.0 + xs[0], xs[0] - 0.0,
                              0.0 - xs[0], -0.0 - xs[0], xs[0] * -0.0,
                              -xs[0], xs[0] / -2.0, 2.0 / xs[1],
                              xs[0] * xs[1], xs[0] / xs[1], xs[1] ** 0,
                              xs[0] ** 3, xs[1] ** -2, exp(xs[0]) + xs[1]])


@pytest.mark.parametrize("order", range(5))
def test_schedule_matches_reference_on_signed_zeros_and_infinities(order):
    # -0.0 and inf in any slot; the bits, NaNs included, must match
    rng = np.random.default_rng(400 + order)
    special = np.array([-0.0, 0.0, np.inf, -np.inf])
    exprs = [SIGNED] + [random_expr(rng, 2, 3, depth=int(rng.integers(1, 7)))
                        for _ in range(20)]
    for e in exprs:
        ins = []
        for _ in range(2):
            c = rng.uniform(-1.5, 1.5, size=(1 << order, 8))
            hit = rng.random(c.shape) < 0.3
            c[hit] = rng.choice(special, size=int(hit.sum()))
            c[:, 0] = -0.0     # one sample of signed zeros only
            ins.append(Tower(order, c))
        ins[1] = Tower(order, np.where(ins[1].coeffs[:1] == 0.0, 1.5,
                                       ins[1].coeffs))  # keep 2/y defined
        with np.errstate(all="ignore"):
            assert_matches_float_reference(e, ins)


def per_column(e, blocks):
    """``e.on_blocks(blocks)`` by one copy per output column, from the
    node-by-node float reference."""
    order, batch = len(blocks).bit_length() - 1, blocks.shape[2:]
    outs = float_reference_evaluate(
        e, [Tower(order, blocks[:, i]) for i in range(e.n_inputs)],
        order=order, batch_shape=batch)
    out = np.empty((len(blocks), e.n_outputs) + batch)
    for j, t in enumerate(outs):
        out[:, j] = t.coeffs
    return out


@pytest.mark.parametrize("order", range(5))
def test_outputs_that_are_inputs_and_repeated_outputs(order):
    b = ExprBuilder(2)
    x, y = b.inputs()
    s = x * y + 1.0
    e = b.finish([x, s, y ** 1, s, 2.0, x, 2.0, -0.0, y])
    rng = np.random.default_rng(500 + order)
    ins = [Tower(order, rng.uniform(-1.5, 1.5, size=(1 << order, 3)))
           for _ in range(2)]
    assert_matches_float_reference(e, ins)
    out = e.evaluate(ins)
    assert out[0] is ins[0] and out[5] is ins[0] and out[8] is ins[1]
    assert out[1] is out[3] and out[4] is out[6]
    assert np.array_equal(out[2].coeffs, ins[1].coeffs)
    assert not any(t.coeffs.flags.writeable for t in out)
    # the bulk gather and constant write give the per-column bytes, the
    # sign of -0.0 included, on a batch and unbatched
    for blocks in (np.stack([t.coeffs for t in ins], axis=1),
                   np.stack([t.coeffs[:, 0] for t in ins], axis=1)):
        blocks[0, 0, ...] = -0.0
        got = e.on_blocks(blocks)
        assert got.tobytes() == per_column(e, blocks).tobytes()
        assert np.signbit(got[0, 7]).all() and not np.signbit(got[1:, 7]).any()
        assert not np.shares_memory(got, blocks)


def test_on_blocks_matches_per_column_copies_on_random_dags():
    rng = np.random.default_rng(510)
    for _ in range(100):
        order = int(rng.integers(0, 5))
        n_in = int(rng.integers(1, 4))
        e = random_expr(rng, n_in, int(rng.integers(1, 5)),
                        depth=int(rng.integers(0, 5)))
        blocks = rng.uniform(-1.5, 1.5, size=(1 << order, n_in, 4))
        assert e._plan is None  # the output tables wait for a first call
        with np.errstate(all="ignore"):
            assert (e.on_blocks(blocks).tobytes()
                    == per_column(e, blocks).tobytes())
            plan = e._plan
            assert (e.on_blocks(blocks[:1, :, :2]).tobytes()
                    == per_column(e, blocks[:1, :, :2]).tobytes())
        assert e._plan is plan  # made once, for every order and batch


def out_registers(e):
    # the registers outputs read: input slots and steps, not floats
    return {r for r in e._out_src if type(r) is int}


def live_registers(e, inputs):
    # the registers still holding an array after a run of the schedule
    order = inputs[0].order
    batch = np.broadcast_shapes(*[t.batch_shape for t in inputs])
    regs = e._run([t.coeffs for t in inputs], order, batch)
    return {r for r, v in enumerate(regs) if v is not None}


@pytest.mark.parametrize("order", range(5))
def test_freed_registers_spare_inputs_and_outputs(order):
    # s is an output that later steps read, t a repeated output, x an
    # input that is an output, 3.0 a constant output; u and the other
    # intermediates are freed after their last read
    b = ExprBuilder(2)
    x, y = b.inputs()
    s = x * y
    t = exp(s) - y
    u = log(t * t + 1.0)
    e = b.finish([s, t * s, x, t, t, 3.0, u * s + x, s])
    rng = np.random.default_rng(550 + order)
    ins = [Tower(order, rng.uniform(-1.5, 1.5, size=(1 << order, 4)))
           for _ in range(2)]
    assert_matches_float_reference(e, ins)
    kept = set(range(e.n_inputs)) | out_registers(e)
    assert live_registers(e, ins) == kept
    assert len(kept) < e.n_inputs + len(e._lifted) + len(e._steps)


def test_only_inputs_and_outputs_stay_live_on_random_dags():
    rng = np.random.default_rng(560)
    for _ in range(200):
        n_in = int(rng.integers(1, 4))
        e = random_expr(rng, n_in, int(rng.integers(1, 4)),
                        depth=int(rng.integers(1, 7)))
        ins = [Tower(2, rng.uniform(-1.5, 1.5, size=(4, 3)))
               for _ in range(n_in)]
        assert_matches_float_reference(e, ins)
        assert live_registers(e, ins) == (set(range(n_in))
                                          | out_registers(e))


def test_call_is_order_zero_evaluate_bitwise():
    rng = np.random.default_rng(570)
    for _ in range(50):
        e = random_expr(rng, 3, int(rng.integers(1, 4)),
                        depth=int(rng.integers(1, 7)))
        pts = rng.uniform(-1.5, 1.5, size=(3, 2, 5))
        pts[:, 0, 0] = -0.0
        got = e(pts)
        want = [t.coeffs[0] for t in e.evaluate([Tower(0, p[None])
                                                 for p in pts])]
        assert got.tobytes() == np.stack(want).tobytes()


@pytest.mark.parametrize("shape", [(), (2,), (0, 1), (3, 1), (6, 1, 4),
                                   (1 << 5, 1), (2, 2), (4, 0, 3)])
def test_on_blocks_rejects_bad_shapes(shape):
    # axis 0 must be 2**k with k <= MAX_ORDER, axis 1 the input count
    with pytest.raises(ValueError):
        SQUARE.on_blocks(np.zeros(shape))


def test_call_keeps_its_message():
    with pytest.raises(ValueError, match="expected leading axis 1, got "
                                         r"shape \(2, 3\)"):
        SQUARE(np.zeros((2, 3)))


def test_constant_outputs_match_reference():
    # a constant-only output beside a batched input keeps the batch shape;
    # exp(800.0) overflows, so it is not folded
    e = build(1, lambda xs: [2.0 * 3.0 - 1.0, xs[0] / 3.0, 5.0 / xs[0],
                             xs[0] - 2.0, 7.0,
                             xs[0] + exp(xs[0].builder.const(800.0))])
    x = Tower(2, np.random.default_rng(1).uniform(0.5, 2.0, size=(4, 6)))
    with np.errstate(over="ignore", invalid="ignore"):
        assert_matches_reference(e, [x])
        out = e.evaluate([x])
    assert out[0].coeffs.shape == (4, 6)
    assert np.all(out[0].coeffs[0] == 5.0) and np.all(out[0].coeffs[1:] == 0.0)


def test_zero_input_expression_matches_reference():
    b = ExprBuilder(0)
    two = b.const(2.0)
    e = b.finish([two, two * two + 1.0, log(two), -0.0, two])
    assert not e._steps  # every output folds: on_blocks runs no schedule
    for order, batch in ((0, ()), (3, (4,)), (2, (2, 3))):
        assert_matches_reference(e, [], order=order, batch_shape=batch)
        out = e.evaluate([], order=order, batch_shape=batch)
        assert all(t.order == order and t.batch_shape == batch for t in out)
        blocks = np.empty((1 << order, 0) + batch)
        assert e.on_blocks(blocks).tobytes() == per_column(e, blocks).tobytes()


@pytest.mark.parametrize("make, op", [
    (lambda b, x: x / 0.0, "div"),
    (lambda b, x: x + b.const(1.0) / b.const(0.0), "div"),
    (lambda b, x: x + log(b.const(-1.0)), "log"),
])
def test_constant_domain_errors_surface_at_evaluate(make, op):
    b = ExprBuilder(1)
    e = b.finish([make(b, b.input(0))])  # builds without error
    x = Tower(1, np.ones((2, 3)))
    with pytest.raises(DomainError) as got:
        e.evaluate([x])
    with pytest.raises(DomainError) as want:
        reference_evaluate(e, [x])
    assert str(got.value) == str(want.value)
    assert f"({op}): " in str(got.value)


FOLD_VALUES = [0.0, -0.0, 1.5, -2.0, 3.0, math.inf, -math.inf, math.nan,
               1e300, -1e300, 1e-300, -1e-300, 5e-324]


def numpy_fold(op, x, y):
    """The fold on order-0 towers of shape (1, 1), by the array kernels."""
    fn = {"add": _add, "sub": _sub, "mul": _mul, "div": _div,
          "neg": lambda a, _: -a}[op]
    try:
        with np.errstate(all="ignore"):
            value = float(fn(np.full((1, 1), x), np.full((1, 1), y))[0, 0])
    except DomainError:
        return None
    return value if math.isfinite(value) else None


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "neg"])
def test_float_folds_keep_the_bits_of_the_numpy_fold(op):
    # signed zeros, infinities, NaN, overflow past 1e300 and zero divisors:
    # a fold is the same float, or None (left to a step) on both sides
    for x in FOLD_VALUES:
        for y in FOLD_VALUES:
            got, want = _fold(op, None, 0, 1, [x, y]), numpy_fold(op, x, y)
            assert (got is None) == (want is None), (x, y)
            if got is not None:
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
            b = ExprBuilder(0)
            cx, cy = b.const(x), b.const(y)
            h = {"add": operator.add, "sub": operator.sub,
                 "mul": operator.mul, "div": operator.truediv,
                 "neg": lambda a, _: -a}[op](cx, cy)
            e = b.finish([h])
            assert (not e._steps) == (got is not None)
            if y or op != "div":  # a zero divisor raises, checked elsewhere
                with np.errstate(all="ignore"):
                    assert_matches_float_reference(e, [])


def read_by_outputs(e):
    # the nodes some output reads, by a depth-first walk from the outputs
    seen, todo = set(), list(e.outputs)
    while todo:
        nid = todo.pop()
        if nid not in seen:
            seen.add(nid)
            todo.extend(e.nodes[nid].args)
    return seen


def test_only_nodes_an_output_reads_become_steps():
    rng = np.random.default_rng(580)
    dead = 0
    for _ in range(200):
        e = random_expr(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                        depth=int(rng.integers(1, 7)))
        read = read_by_outputs(e)
        ids = [step[0] for step in e._steps]
        assert len(ids) == len(set(ids)) and set(ids) <= read
        dead += len(e.nodes) - len(read)
    assert dead > 0  # the draws do hold nodes that no output reads


@pytest.mark.parametrize("make, op, at", [
    (lambda b, x: log(x), "log", -2.0),
    (lambda b, x: 1.0 / x, "div", 0.0),
    (lambda b, x: log(b.const(-1.0)), "log", 1.0),
    (lambda b, x: b.const(1.0) / b.const(0.0), "div", 1.0),
])
def test_dead_node_outside_its_domain_never_runs(make, op, at):
    b = ExprBuilder(1)
    x = b.input(0)
    bad = make(b, x)
    square = x * x
    dead, read = b.finish([square]), b.finish([square, bad])
    blocks = np.ones((2, 1, 3))  # the point at, velocity 1
    blocks[0] = at
    out, = dead.evaluate([tower(1, at, 1.0)])
    assert np.array_equal(out.coeffs, [at * at, 2 * at])
    assert np.array_equal(dead(blocks[0]), np.full((1, 3), at * at))
    assert np.array_equal(dead.on_blocks(blocks), [[[at * at] * 3],
                                                   [[2 * at] * 3]])
    for run in (lambda e: e.evaluate([tower(1, at, 1.0)]),
                lambda e: e(blocks[0]),
                lambda e: e.on_blocks(blocks)):
        with pytest.raises(DomainError) as err:
            run(read)
        assert str(err.value).startswith(f"node {bad.id} ({op}): ")


@pytest.mark.parametrize("bad", [
    Node("mystery"),
    Node("add", (0,)),
    Node("neg", (1,)),            # reads itself, not an earlier node
    Node("input", index=1),
    Node("pow_int", (0,)),
    Node("const"),
])
def test_dead_nodes_are_still_validated(bad):
    # node 1 is read by no output, and still refuses to build
    with pytest.raises(ValueError, match="^node 1: "):
        Expr([Node("input", index=0), bad], 1, [0])


def test_finite_difference_oracle_10k_random_dags():
    # order-1 jets against central differences, h = 1e-4
    rng = np.random.default_rng(2024)
    h = 1e-4
    worst = 0.0
    for _ in range(10_000):
        n_in = int(rng.integers(1, 4))
        n_out = int(rng.integers(1, 4))
        e = random_expr(rng, n_in, n_out, depth=int(rng.integers(1, 7)))
        x = rng.uniform(-1.5, 1.5, size=n_in)
        u = rng.uniform(-1.0, 1.0, size=n_in)
        ins = []
        for i in range(n_in):
            c = np.zeros((2, 3))
            c[0] = (x[i], x[i] + h * u[i], x[i] - h * u[i])
            c[1] = u[i]
            ins.append(Tower(1, c))
        outs = e.evaluate(ins)
        for t in outs:
            jet = t.coeffs[1, 0]
            fd = (t.coeffs[0, 1] - t.coeffs[0, 2]) / (2.0 * h)
            worst = max(worst, abs(jet - fd) / (1.0 + abs(jet)))
    assert worst <= 1e-5, f"worst relative FD mismatch {worst:.3e}"


def test_block_functoriality_of_evaluation():
    # dropping the outermost generator commutes with evaluation
    rng = np.random.default_rng(7)
    for _ in range(50):
        n_in = int(rng.integers(1, 4))
        e = random_expr(rng, n_in, 2, depth=4)
        order = int(rng.integers(1, 5))
        ins = [Tower(order, rng.uniform(-0.8, 0.8, size=1 << order))
               for _ in range(n_in)]
        hi = e.evaluate(ins)
        lo = e.evaluate([split_top(t)[0] for t in ins])
        for a, b in zip(hi, lo):
            got = split_top(a)[0].coeffs
            scale = 1.0 + np.max(np.abs(b.coeffs))
            assert np.max(np.abs(got - b.coeffs)) <= 1e-12 * scale


def test_base_block_matches_order_zero_evaluation():
    rng = np.random.default_rng(8)
    for _ in range(25):
        e = random_expr(rng, 2, 2, depth=5)
        ins = [Tower(3, rng.uniform(-0.8, 0.8, size=8)) for _ in range(2)]
        hi = e.evaluate(ins)
        lo = e.evaluate([Tower.constant(t.coeffs[0]) for t in ins])
        for a, b in zip(hi, lo):
            assert np.allclose(a.coeffs[0], b.coeffs[0], atol=1e-14)


def test_json_roundtrip_is_byte_stable():
    rng = np.random.default_rng(9)
    e = random_expr(rng, 2, 2, depth=5)
    text = json.dumps(e.to_json_dict(), sort_keys=True)
    again = Expr.from_json_dict(json.loads(text))
    assert json.dumps(again.to_json_dict(), sort_keys=True) == text
    x = [tower(1, 0.3, 1.0), tower(1, -0.2, 0.5)]
    for a, b in zip(e.evaluate(x), again.evaluate(x)):
        assert np.all(a.coeffs == b.coeffs)


def test_json_rejects_malformed_input():
    with pytest.raises(ValueError):
        Expr.from_json_dict({"nodes": [{"op": "add"}]})


def test_parallel_and_reindex_inputs():
    side = parallel(SQUARE, CUBE)
    assert np.allclose(side(np.array([[2.0], [3.0]])), [[4.0], [27.0]])

    re = reindex_inputs(SQUARE, [1], 3)
    assert np.allclose(re(np.array([[9.0], [2.0], [9.0]])), [[4.0]])


def test_signed_zero_constants_stay_apart():
    # hash-consing must not merge 0.0 into an earlier -0.0 node
    e = build(1, lambda xs: [xs[0] * -0.0, 0.0, -0.0])
    outs = e.evaluate([tower(0, 1.0)])
    assert [bool(np.signbit(t.coeffs[0])) for t in outs] == [True, False, True]


def test_tangent_lift_agrees_with_tower_jets():
    # two independent routes to the first tangent: the source transform
    # evaluated at order 0 and the original program at order 1
    rng = np.random.default_rng(10)
    for _ in range(30):
        n_in = int(rng.integers(1, 4))
        e = random_expr(rng, n_in, 2, depth=4)
        lifted = tangent_lift(e)
        x = rng.uniform(-1.2, 1.2, size=n_in)
        u = rng.uniform(-1.0, 1.0, size=n_in)
        flat = lifted(np.concatenate([x, u])[:, None])[:, 0]
        jets = e.evaluate([tower(1, x[i], u[i]) for i in range(n_in)])
        for k, t in enumerate(jets):
            assert abs(flat[k] - t.coeffs[0]) <= 1e-12 * (1 + abs(t.coeffs[0]))
            assert abs(flat[2 + k] - t.coeffs[1]) <= 1e-10 * (1 + abs(t.coeffs[1]))


def test_double_tangent_lift_matches_order2_towers():
    rng = np.random.default_rng(11)
    e = random_expr(rng, 2, 1, depth=4)
    second = tangent_lift(tangent_lift(e))
    x = rng.uniform(-1.0, 1.0, size=2)
    u1 = rng.uniform(-1.0, 1.0, size=2)
    u2 = rng.uniform(-1.0, 1.0, size=2)
    u12 = rng.uniform(-1.0, 1.0, size=2)
    # layout of the doubled transform: (x, u1) values then (x, u1) dots
    flat_in = np.concatenate([x, u1, u2, u12])[:, None]
    flat = second(flat_in)[:, 0]
    jet, = e.evaluate([Tower(2, [x[i], u1[i], u2[i], u12[i]])
                       for i in range(2)])
    assert np.allclose(flat, jet.coeffs, atol=1e-11)
