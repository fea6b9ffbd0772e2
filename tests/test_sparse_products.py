"""Generator-sparse products: ``sparse_mul`` and ``Expr.on_blocks``
against the dense kernels.

A column whose coefficients vanish outside the masks inside a generator
set multiplies only the terms that set allows.  Each kept sum adds its
terms in the dense order, so results match the dense kernels bit for
bit, except in the sign of a sum of zeros (``same_but_zero_signs``) and
where a skipped zero met an inf or a NaN.
"""

import math

import numpy as np
import pytest

import tancat.tower as tower_module
from tancat.expr import ExprBuilder, build, exp
from tancat.randexpr import random_expr
from tancat.tower import MAX_ORDER, Tower, _GATHER_BELOW, _mul, sparse_mul

# around every order's gather bound: (1,) and (200,) take the gather at
# orders 2-4, (1000,) the strided loop
BATCHES = [(1,), (200,), (1000,)]


def test_batches_straddle_the_gather_bound():
    for order in range(2, MAX_ORDER + 1):
        bound = tower_module._GATHER[1 << order][0]
        assert (1 << order) * 200 < bound < (1 << order) * 1000
        assert 200 <= _GATHER_BELOW[order] < 1000


def inside(order: int, gens: int) -> np.ndarray:
    """Whether each mask lies inside the generator set ``gens``."""
    return np.array([m & gens == m for m in range(1 << order)])


def restricted(c: np.ndarray, gens: int) -> np.ndarray:
    """``c`` with every mask outside ``gens`` zeroed."""
    keep = inside(len(c).bit_length() - 1, gens)
    return np.where(keep.reshape((-1,) + (1,) * (c.ndim - 1)), c, 0.0)


def same_but_zero_signs(got: np.ndarray, want: np.ndarray) -> bool:
    """Bitwise equality with -0.0 taken as +0.0 and NaNs as one value."""
    nan = np.isnan(got)
    return (got.shape == want.shape
            and np.array_equal(nan, np.isnan(want))
            and (np.where(nan, 0.0, got) + 0.0).tobytes()
            == (np.where(nan, 0.0, want) + 0.0).tobytes())


@pytest.mark.parametrize("path", ["chosen", "gather", "loop"])
@pytest.mark.parametrize("batch", BATCHES, ids=str)
@pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
def test_sparse_kernels_match_the_dense_product(order, batch, path,
                                                monkeypatch):
    n = 1 << order
    if order >= 2 and path != "chosen":
        bound = math.inf if path == "gather" else 0
        monkeypatch.setitem(tower_module._GATHER, n,
                            (bound, tower_module._GATHER[n][1]))
    rng = np.random.default_rng(900 + 10 * order + len(batch))
    for lefts in range(n):
        for rights in range(n):
            x = restricted(rng.uniform(-2.0, 2.0, (n,) + batch), lefts)
            y = restricted(rng.uniform(-2.0, 2.0, (n,) + batch), rights)
            got = sparse_mul(order, lefts, rights)(x, y)
            assert same_but_zero_signs(got, _mul(x, y)), (lefts, rights)
            # the masks no kept term reaches are +0.0
            assert not got[~inside(order, lefts | rights)].any()


def test_full_sets_take_the_dense_kernel_and_plans_are_kept():
    # every column dense, yet read by the reduction (the first point's top
    # coefficients are zero): the plan kept is the schedule's own steps
    e = build(2, lambda xs: [xs[0] * xs[1]])
    blocks = column_blocks(np.random.default_rng(1300), 3, 2, (5,), [7, 7])
    blocks[-1, :, 0] = 0.0
    e.on_blocks(blocks)
    plans = list(e._schedule.plans.values())
    assert len(plans) == 1 and plans[0] is e._schedule.steps
    assert sparse_mul(3, 1, 6) is sparse_mul(3, 1, 6)


@pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
def test_an_infinity_in_either_operand_stays_non_finite(order):
    # an inf is nonzero, so it lies inside its operand's set, and it
    # meets the other operand's value slot in the product
    n = 1 << order
    rng = np.random.default_rng(950 + order)
    for lefts in range(n):
        for rights in range(n):
            for side in (0, 1):
                x = restricted(rng.uniform(0.5, 2.0, (n, 4)), lefts)
                y = restricted(rng.uniform(0.5, 2.0, (n, 4)), rights)
                gens = (lefts, rights)[side]
                mask = int(rng.choice(np.flatnonzero(inside(order, gens))))
                (x, y)[side][mask, 2] = np.inf
                with np.errstate(invalid="ignore"):
                    got = sparse_mul(order, lefts, rights)(x, y)
                assert not np.isfinite(got[:, 2]).all()
                assert np.isfinite(np.delete(got, 2, axis=1)).all()


@pytest.mark.parametrize("path", ["gather", "loop"])
@pytest.mark.parametrize("order", range(2, MAX_ORDER + 1))
def test_an_infinity_meets_only_the_kept_terms(order, path, monkeypatch):
    # the plan skips every pair outside the sets, so an inf value slot of
    # x meets only y's masks inside its set: inf there, no 0 * inf (NaN)
    # elsewhere, and +0.0 at the masks outside both sets
    n = 1 << order
    bound = math.inf if path == "gather" else 0
    monkeypatch.setitem(tower_module._GATHER, n,
                        (bound, tower_module._GATHER[n][1]))
    rng = np.random.default_rng(960 + order)
    for lefts in range(1, n):
        for rights in range(1, n):
            if lefts | rights == n - 1:
                continue
            x = restricted(rng.uniform(0.5, 2.0, (n, 3)), lefts)
            y = restricted(rng.uniform(0.5, 2.0, (n, 3)), rights)
            x[0, 1] = np.inf
            got = sparse_mul(order, lefts, rights)(x, y)
            assert np.isinf(got[inside(order, rights), 1]).all()
            assert np.isfinite(got[~inside(order, rights), 1]).all()
            outside = got[~inside(order, lefts | rights)]
            assert not outside.any() and not np.signbit(outside).any()


def column_blocks(rng, order, n_in, batch, sets):
    """Random blocks whose column ``i`` is zero outside ``sets[i]``."""
    blocks = rng.uniform(-1.5, 1.5, size=(1 << order, n_in) + batch)
    for i, gens in enumerate(sets):
        blocks[:, i] = restricted(blocks[:, i], gens)
    return blocks


def dense(e, blocks):
    """``e.on_blocks(blocks)`` by the dense schedule of ``evaluate``."""
    order = len(blocks).bit_length() - 1
    outs = e.evaluate([Tower(order, blocks[:, i]) for i in range(e.n_inputs)],
                      order=order, batch_shape=blocks.shape[2:])
    return np.stack([t.coeffs for t in outs], axis=1)


@pytest.mark.parametrize("batch", BATCHES, ids=str)
@pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
def test_on_blocks_with_generator_sparse_columns_matches_dense(order, batch):
    rng = np.random.default_rng(1000 + 10 * order + len(batch))
    full = (1 << order) - 1
    ran_sparse = 0
    # only products take sparse plans, and as few as one program in
    # sixteen draws runs one; 80 draws give at least 5 in each case
    for _ in range(80):
        n_in = int(rng.integers(2, 5))
        e = random_expr(rng, n_in, int(rng.integers(2, 5)),
                        depth=int(rng.integers(4, 8)))
        # a generator-free column beside a dense one, then proper subsets
        sets = [0, full] + [int(s) for s in rng.integers(0, full, n_in - 2)]
        rng.shuffle(sets)
        blocks = column_blocks(rng, order, n_in, batch, sets)
        got = e.on_blocks(blocks)
        assert same_but_zero_signs(got, dense(e, blocks))
        # again, through the plan kept for this pattern
        assert got.tobytes() == e.on_blocks(blocks).tobytes()
        plans = e._schedule.plans
        ran_sparse += any(steps is not e._schedule.steps
                          for steps in plans.values())
        # every column dense: the schedule's own steps, and no new plan
        kept = len(plans)
        blocks = column_blocks(rng, order, n_in, batch, [full] * n_in)
        assert got.shape == e.on_blocks(blocks).shape
        assert len(plans) == kept
    if order == 1:  # order 1 always runs the dense schedule
        assert ran_sparse == 0 and not plans
    else:
        assert ran_sparse >= 5


def test_broadcast_blocks_take_the_sparse_path():
    # points broadcast along a slot axis, as algebroid.on_slots makes them
    e = build(2, lambda xs: [xs[0] * xs[1], xs[0] ** 3, xs[1] / xs[0]])
    rng = np.random.default_rng(1100)
    base = column_blocks(rng, 3, 2, (50,), [0b011, 0b100])
    blocks = np.broadcast_to(base[:, :, None], (8, 2, 4, 50))
    got = e.on_blocks(blocks)
    assert same_but_zero_signs(got, dense(e, np.ascontiguousarray(blocks)))
    assert any(steps is not e._schedule.steps
               for steps in e._schedule.plans.values())


@pytest.mark.parametrize("sets", [(0, 0), (0, 3), (1, 2), (3, 3)], ids=str)
def test_lifted_non_finite_constants_keep_their_nan_blocks(sets):
    # exp(800.0) overflows, so it is not folded: its order-2 tower is
    # [inf, nan, nan, nan] (0 * inf), and a product with it keeps the
    # dense NaN blocks whatever the generator sets of the inputs
    b = ExprBuilder(2)
    x, y = b.inputs()
    big = exp(b.const(800.0))
    e = b.finish([x * big, (x * y) * big, big / (y + 3.0), x ** 2 * big])
    blocks = column_blocks(np.random.default_rng(1200), 2, 2, (6,), sets)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = e.on_blocks(blocks), dense(e, blocks)
    assert np.isnan(want[1:]).all()
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert same_but_zero_signs(got, want)
