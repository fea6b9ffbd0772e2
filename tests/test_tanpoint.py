"""Block-level transformations on tangent points, against hand-worked values."""

import math
import warnings

import numpy as np
import pytest

from tancat import tanpoint as tp
from tancat.domain import SmoothMap, box_domain, product_domain
from tancat.errors import FiberMismatchError, StructureError
from tancat.expr import ExprBuilder, build, log
from tancat.randexpr import random_expr
from tancat.tanpoint import order_of, residual
from tancat.tower import MAX_ORDER, Tower


def pt(*cols):
    # dim-1 point from per-block scalars
    return np.asarray(cols, dtype=float).reshape(-1, 1)


def cols(p):
    return [float(v) for v in p[:, 0]]


def _frozen(a):
    a.setflags(write=False)
    return a


def _op_calls(rng, order, batch):
    """Each op's call at one order, on read-only arguments, by name.

    An op that is not defined at this order is left out.
    """
    p = _frozen(rng.uniform(-1.0, 1.0, size=(1 << order, 2) + batch))
    q = np.array(p)  # shares p's blocks below the outermost level
    q[len(q) // 2:] = rng.uniform(-1.0, 1.0, size=q[len(q) // 2:].shape)
    q = _frozen(q)
    r = _frozen(rng.uniform(-2.0, 2.0, size=batch))
    f = _scalar_product_map()
    calls = {"apply_tangent": (tp.apply_tangent, f, p)}
    if order < MAX_ORDER:
        calls["zero_lift"] = (tp.zero_lift, p)
        calls["expand_inner"] = (tp.expand_inner, p)
    if order:
        calls.update(project=(tp.project, p), add_fiber=(tp.add_fiber, p, q),
                     sub_fiber=(tp.sub_fiber, p, q),
                     scale_level=(tp.scale_level, p, r),
                     collapse_inner=(tp.collapse_inner, p))
    if 0 < order < MAX_ORDER:
        calls.update(vertical_lift=(tp.vertical_lift, p),
                     vertical_lift_pair=(tp.vertical_lift_pair, p, q))
    if order >= 2:
        calls.update(swap_levels=(tp.swap_levels, p, 1),
                     vertical_pair_parts=(tp.vertical_pair_parts, p))
    if order == 1:
        line = _frozen(rng.uniform(-1.0, 1.0, size=(2, 1) + batch))
        calls.update(partial_tangent=(tp.partial_tangent, f, 1, p),
                     fiber_component=(tp.fiber_component, line))
    return calls


OPS = {"apply_tangent", "project", "zero_lift", "add_fiber", "sub_fiber",
       "swap_levels", "vertical_lift", "vertical_lift_pair",
       "vertical_pair_parts", "scale_level", "fiber_component",
       "partial_tangent", "collapse_inner", "expand_inner"}


class TestBasics:
    def test_shapes_and_base(self):
        p = np.arange(8.0).reshape(4, 2)
        assert order_of(p) == 2 and p.shape[1] == 2 and p.shape[2:] == ()
        assert np.array_equal(p[0], [0.0, 1.0])
        assert np.array_equal(p[0b11], [6.0, 7.0])  # levels 1 and 2
        assert np.array_equal(p[0b10], [4.0, 5.0])  # level 2

    def test_ops_do_not_write_into_their_arguments(self):
        # every op at every order where it is defined, on read-only
        # arguments: none raises, and no argument's bytes change
        rng = np.random.default_rng(23)
        seen = set()
        for order in range(MAX_ORDER + 1):
            for batch in ((), (7,), (3, 5)):
                for name, (fn, *args) in _op_calls(rng, order, batch).items():
                    arrays = [a for a in args if isinstance(a, np.ndarray)]
                    before = [a.tobytes() for a in arrays]
                    fn(*args)
                    assert [a.tobytes() for a in arrays] == before, name
                    seen.add(name)
        assert seen == OPS

    def test_apply_tangent_matches_tower_route(self):
        # the route apply_tangent replaced: a copied tower per column,
        # Expr.evaluate, the outputs stacked; the bits must not move
        rng = np.random.default_rng(41)
        maps = []
        for _ in range(8):
            d, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            maps.append(SmoothMap(box_domain(d, -1.5, 1.5), box_domain(m),
                                  random_expr(rng, d, m, depth=4)))
        b = ExprBuilder(0)
        two = b.const(2.0)
        maps.append(SmoothMap(box_domain(0), box_domain(3), b.finish(
            [two, two * two + 1.0, log(two)])))
        maps.append(SmoothMap(box_domain(2, -1.5, 1.5), box_domain(0),
                              build(2, lambda xs: [])))
        for order in range(MAX_ORDER + 1):
            for batch in ((), (7,), (3, 5)):
                for f in maps:
                    d = f.dom.dim
                    p = rng.uniform(-1.5, 1.5, size=(1 << order, d) + batch)
                    outs = f.body.evaluate(
                        [Tower(order, p[:, j]) for j in range(d)],
                        order=order, batch_shape=batch)
                    want = np.empty((1 << order, len(outs)) + batch)
                    for j, t in enumerate(outs):
                        want[:, j] = t.coeffs
                    got = tp.apply_tangent(f, p)
                    assert order_of(got) == order
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()

    def test_block_count_checked(self):
        # axis 0 of 3, axis 0 of 2**(MAX_ORDER + 1), and a 1-d array
        for shape in ((3, 1), (1 << (MAX_ORDER + 1), 1), (4,)):
            with pytest.raises(ValueError, match="block array"):
                order_of(np.zeros(shape))
            with pytest.raises(ValueError, match="block array"):
                tp.project(np.zeros(shape))

    def test_residual_scales(self):
        assert residual(np.array([1.0]), np.array([1.0])) == 0.0
        # relative for large magnitudes, absolute near zero
        assert residual(np.array([1e8]), np.array([1e8 + 1.0])) < 1e-7
        assert residual(np.array([0.0]), np.array([1e-12])) <= 1e-12

    def test_residual_is_infinite_off_the_finite_reals(self):
        one = np.array([1.0])
        for bad in (np.nan, np.inf, -np.inf):
            assert residual(np.array([bad]), one) == np.inf
            assert residual(one, np.array([bad])) == np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # inf - inf must not warn
            assert residual(np.array([np.inf]), np.array([np.inf])) == np.inf

    def test_residual_of_empty_sides_is_zero(self):
        # blocks of a zero-dimensional chart: equal everywhere, vacuously
        for shape in ((2, 0, 5), (0,), (4, 0)):
            assert residual(np.zeros(shape), np.zeros(shape)) == 0.0

    def test_residual_keeps_the_bits_of_the_abs_formula(self):
        def by_abs(a, b):
            # the formula with three abs temporaries that residual replaced
            if a.size == 0 and b.size == 0:
                return 0.0
            with np.errstate(invalid="ignore"):
                num = float(np.max(np.abs(a - b)))
            den = 1.0 + max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
            if not (math.isfinite(num) and math.isfinite(den)):
                return math.inf
            return num / den

        rng = np.random.default_rng(17)
        cases = [(rng.standard_normal(s) * 10.0 ** rng.integers(-3, 4, s),
                  rng.standard_normal(s)) for s in ((1,), (7,), (4, 3, 20))]
        cases += [(np.array([0.0, -0.0]), np.array([-0.0, 0.0])),
                  (np.array([-0.0]), np.array([-0.0])),
                  (np.array([-0.0]), np.array([0.0])),
                  (np.array([0.0]), np.array([-0.0])),
                  (np.zeros((0, 3)), np.zeros((0, 3)))]
        for bad in (np.nan, np.inf, -np.inf):
            a, b = rng.standard_normal((2, 5))
            a[2] = bad
            cases += [(a, b), (b, a), (a, a.copy())]
        # all-zero differences, which return at once: equal arrays, -0.0
        # against 0.0, a broadcast side, and a large equal pair
        same = rng.standard_normal((3, 4)) * 1e3
        signed = np.where(rng.random((3, 4)) < 0.5, -0.0, 0.0)
        cases += [(same, same.copy()), (signed, np.abs(signed)),
                  (np.full((3, 4), 2.5), np.array([2.5])),
                  (np.full(50_000, -1.0), np.full(50_000, -1.0))]
        # equal sides, which one comparison decides unless a side is not
        # finite: infinities on either side of a broadcast, NaN against
        # itself, both sides broadcast, signed zeros broadcast
        inf_row = np.array([np.inf, 1.0, -np.inf, 2.0])
        cases += [(np.full((3, 4), np.inf), np.array([np.inf])),
                  (np.array([-np.inf]), np.full((2, 3), -np.inf)),
                  (np.tile(inf_row, (3, 1)), inf_row),
                  (inf_row, np.tile(inf_row, (3, 1))),
                  (np.full(4, np.nan), np.full(4, np.nan)),
                  (np.full((3, 1), 2.0), np.full((1, 4), 2.0)),
                  (np.full((2, 3), -0.0), np.array([0.0]))]
        for a, b in cases:
            got, want = residual(a, b), by_abs(a, b)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            assert math.copysign(1.0, got) == 1.0   # never -0.0
            with np.errstate(invalid="ignore"):
                diff = a - b
            if diff.size and not diff.any():
                assert got == 0.0
            elif not (np.isfinite(a).all() and np.isfinite(b).all()):
                assert got == math.inf   # inf against inf, and any NaN


class TestProjections:
    def test_outer_projection_drops_new_level(self):
        p = pt(1, 2, 3, 4)
        assert cols(tp.project(p)) == [1, 2]

    def test_inner_projection_is_tangent_of_projection(self):
        p = pt(1, 2, 3, 4)
        assert cols(tp.project(p, level=1)) == [1, 3]

    def test_zero_lift(self):
        p = pt(5, 2)
        assert cols(tp.zero_lift(p)) == [5, 2, 0, 0]
        assert cols(tp.zero_lift(pt(5), 2)) == \
            [5, 0, 0, 0]


class TestFiberArithmetic:
    def test_add_sub_top_level(self):
        p, q = pt(1, 2, 3, 4), pt(1, 2, 1, 1)
        assert cols(tp.add_fiber(p, q)) == [1, 2, 4, 5]
        assert cols(tp.sub_fiber(p, q)) == [1, 2, 2, 3]

    def test_add_inner_level(self):
        p, q = pt(1, 2, 3, 4), pt(1, 5, 3, 7)
        assert cols(tp.add_fiber(p, q, level=1)) == [1, 7, 3, 11]

    def test_mismatched_bases_refused(self):
        with pytest.raises(FiberMismatchError):
            tp.add_fiber(pt(1, 2), pt(1.5, 2))

    def test_scale_level(self):
        assert cols(tp.scale_level(pt(1, 3), 2.0)) == [1, 6]
        assert cols(tp.scale_level(pt(1, 3), 0.0)) == [1, 0]
        p = pt(1, 2, 3, 4)
        assert cols(tp.scale_level(p, 10.0, 1)) == [1, 20, 3, 40]
        assert cols(tp.scale_level(p, 10.0, 2)) == [1, 2, 30, 40]

    def test_scale_batch_factor(self):
        p = np.array([[[1.0, 1.0]], [[3.0, 5.0]]])  # batch of 2
        out = tp.scale_level(p, np.array([2.0, -1.0]), 1)
        assert np.array_equal(out[1, 0], [6.0, -5.0])


# The fancy-index formulas the slice-written block ops replaced, kept as
# their oracles: a boolean mask of each level's fiber blocks, the place
# where vertical_lift sends each block, and each result made by copying
# or zero-filling the whole array and then overwriting part of it.

def _old_fiber(order, level):
    return (np.arange(1 << order) & (1 << (level - 1))) != 0


def _old_lift(order, level):
    m = np.arange(1 << order)
    bit = 1 << (level - 1)
    has = (m & bit) != 0
    return (m & (bit - 1)) | (has * 3 * bit) | ((m >> level) << (level + 1))


def _old_fiber_combine(p, q, sign, level):
    sel = _old_fiber(order_of(p), level)
    pb, qb = np.broadcast_arrays(p, q)
    out = pb.copy()
    out[sel] = pb[sel] + sign * qb[sel]
    return out


def _old_scale_level(p, factor, level):
    sel = _old_fiber(order_of(p), level)
    out = np.array(p, dtype=float)
    out[sel] = out[sel] * np.asarray(factor, dtype=float)
    return out


def _old_vertical_lift(p, level):
    n = order_of(p)
    out = np.zeros((2 << n,) + p.shape[1:])
    out[_old_lift(n, level)] = p
    return out


def _old_zero_lift(p, levels):
    out = np.zeros((1 << (order_of(p) + levels),) + p.shape[1:])
    out[: len(p)] = p
    return out


def _old_keep(order, level):
    """The blocks without the level, in order: ``project``'s table."""
    m = np.arange(1 << order)
    return m[(m & (1 << (level - 1))) == 0]


def _old_swap(order, level):
    """``swap[m]``: block m with the level and the next exchanged."""
    m = np.arange(1 << order)
    flip = ((m >> (level - 1)) ^ (m >> level)) & 1
    return m ^ (flip * 3 * (1 << (level - 1)))


def _old_vertical_lift_pair(p, q):
    n = order_of(p)
    half = 1 << (n - 1)
    pb, qb = np.broadcast_arrays(p, q)
    out = np.zeros((2 << n,) + pb.shape[1:])
    out[: 1 << n] = pb
    out[(1 << n) + half:] = qb[half:]
    return out


_SPECIAL = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-310,
                     -1e300])


def _blocks(rng, shape):
    """Random entries, with a share of signed zeros, NaNs, infinities,
    a subnormal and a huge value."""
    arr = rng.uniform(-2.0, 2.0, size=shape)
    hit = rng.random(shape) < 0.3
    arr[hit] = rng.choice(_SPECIAL, size=int(hit.sum()))
    return arr


def _layouts(arr, rng):
    """``arr`` as it is, read-only, and as read-only views that are not
    C-contiguous: every other batch column of a wider array, and a
    Fortran-ordered copy."""
    wide = np.repeat(arr[..., None], 2, axis=-1)
    wide[..., 1] = rng.uniform(-9.0, 9.0, size=arr.shape)
    for out in (np.array(arr), wide[..., 0], np.array(arr, order="F")):
        assert np.array_equal(out, arr, equal_nan=True)
        out.setflags(write=False)
        yield out


def _fibers(a, level):
    """``a`` with every block outside the level's fiber zeroed."""
    sel = _old_fiber(order_of(a), level)
    return np.where(sel.reshape((-1,) + (1,) * (a.ndim - 1)), a, 0.0)


def _same_bits(got, want, x=None, y=None):
    """``got`` and ``want`` have the same bits, except where ``got`` is
    ``x`` op ``y`` and both operands are NaN: IEEE 754 leaves open which
    NaN comes out, and numpy's vector loops and scalar tails choose
    differently, in the old formulas too.  There both must be NaN."""
    assert got.shape == want.shape and got.dtype == want.dtype
    both = np.zeros(got.shape, dtype=bool)
    if x is not None:
        both = np.broadcast_to(np.isnan(x) & np.isnan(y), got.shape)
    assert np.isnan(got[both]).all() and np.isnan(want[both]).all()
    assert got[~both].tobytes() == want[~both].tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf, 0 * inf
class TestSliceWrittenOpsKeepTheOldBits:
    """Each rewritten block op, bit for bit against its fancy-index
    formula, on read-only arguments of every layout."""

    CASES = [(n, level, d, batch) for n in range(1, MAX_ORDER + 1)
             for level in range(1, n + 1) for d in (0, 1, 3)
             for batch in ((), (5,), (2, 3))]

    @pytest.mark.parametrize("n,level,d,batch", CASES)
    def test_fiber_combine(self, n, level, d, batch):
        rng = np.random.default_rng([n, level, d, len(batch)])
        shape = (1 << n, d) + batch
        sel = _old_fiber(n, level)
        p = _blocks(rng, shape)
        p[~sel] = np.where(np.isfinite(p[~sel]), p[~sel], -0.0)
        q = _blocks(rng, shape)
        q[~sel] = p[~sel]
        for pa in _layouts(p, rng):
            for qa in _layouts(q, rng):
                for op, sign in ((tp.add_fiber, 1.0), (tp.sub_fiber, -1.0)):
                    _same_bits(op(pa, qa, level),
                               _old_fiber_combine(pa, qa, sign, level),
                               _fibers(pa, level), qa)
        if batch:  # q constant along the batch broadcasts against p
            q1 = _blocks(rng, (1 << n, d) + (1,) * len(batch))
            q1[~sel] = 0.5
            q1.setflags(write=False)
            p[~sel] = 0.5
            for pa in _layouts(p, rng):
                for qa in (q1, np.broadcast_to(q1, shape)):
                    for op, sign in ((tp.add_fiber, 1.0),
                                     (tp.sub_fiber, -1.0)):
                        _same_bits(op(pa, qa, level),
                                   _old_fiber_combine(pa, qa, sign, level),
                                   _fibers(pa, level), qa)
                        _same_bits(op(qa, pa, level),
                                   _old_fiber_combine(qa, pa, sign, level),
                                   _fibers(qa, level), pa)

    @pytest.mark.parametrize("n,level,d,batch", CASES)
    def test_scale_level(self, n, level, d, batch):
        rng = np.random.default_rng([n, level, d, len(batch), 1])
        p = _blocks(rng, (1 << n, d) + batch)
        factors = [2.5, -0.0, np.nan, -np.inf, 1]
        if batch:
            factors += [_blocks(rng, batch), _blocks(rng, batch[-1:]),
                        np.broadcast_to(_blocks(rng, ()), batch)]
        for pa in _layouts(p, rng):
            for f in factors:
                _same_bits(tp.scale_level(pa, f, level),
                           _old_scale_level(pa, f, level),
                           _fibers(pa, level), f)

    @pytest.mark.parametrize("n,level,d,batch", CASES)
    def test_lifts(self, n, level, d, batch):
        rng = np.random.default_rng([n, level, d, len(batch), 2])
        p = _blocks(rng, (1 << n, d) + batch)
        for pa in _layouts(p, rng):
            if n < MAX_ORDER:
                _same_bits(tp.vertical_lift(pa, level),
                           _old_vertical_lift(pa, level))
            for levels in range(MAX_ORDER - n + 1):
                _same_bits(tp.zero_lift(pa, levels), _old_zero_lift(pa, levels))
        if n < MAX_ORDER and level == n:
            half = len(p) // 2  # the blocks the two points share
            p[:half] = np.where(np.isfinite(p[:half]), p[:half], -0.0)
            q = _blocks(rng, p.shape)
            q[:half] = p[:half]
            for pa in _layouts(p, rng):
                for qa in _layouts(q, rng):
                    _same_bits(tp.vertical_lift_pair(pa, qa),
                               _old_vertical_lift_pair(pa, qa))

    @pytest.mark.parametrize("n,level,d,batch", [
        (n, level, d, batch) for n in range(1, MAX_ORDER + 1)
        for level in range(1, n + 1) for d in (0, 3)
        for batch in ((), (7,), (2, 3))])
    def test_project_and_swap_gather_the_old_tables(self, n, level, d, batch):
        # the level views against the index tables they replaced; the
        # argument's bytes must not change, though project may return
        # a view of it
        rng = np.random.default_rng([n, level, d, len(batch), 3])
        p = _blocks(rng, (1 << n, d) + batch)
        for pa in _layouts(p, rng):
            before = pa.tobytes()
            _same_bits(tp.project(pa, level), pa[_old_keep(n, level)])
            assert pa.tobytes() == before
            if level < n:
                _same_bits(tp.swap_levels(pa, level),
                           pa[_old_swap(n, level)])
                assert pa.tobytes() == before

    def test_order_zero_lifts(self):
        rng = np.random.default_rng(3)
        p = _blocks(rng, (1, 2, 4))
        for pa in _layouts(p, rng):
            for levels in range(MAX_ORDER + 1):
                _same_bits(tp.zero_lift(pa, levels), _old_zero_lift(pa, levels))

    def test_shared_blocks_are_checked_on_the_views(self):
        # a mismatch in any block without the level is refused, and one
        # in the level's fiber is not
        rng = np.random.default_rng(5)
        for n in range(1, MAX_ORDER + 1):
            for level in range(1, n + 1):
                p = rng.uniform(-1.0, 1.0, size=(1 << n, 2, 3))
                for m in range(1 << n):
                    q = np.array(p)
                    q[m, 1, 2] += 1e-3
                    if _old_fiber(n, level)[m]:
                        tp.add_fiber(p, q, level)
                    else:
                        with pytest.raises(FiberMismatchError):
                            tp.sub_fiber(p, q, level)


class TestSwapAndLift:
    def test_swap_levels(self):
        assert cols(tp.swap_levels(pt(1, 2, 3, 4), 1)) == [1, 3, 2, 4]
        p = pt(*range(8))
        # swapping levels 2,3 exchanges the {2} and {3} blocks and the
        # {1,2} and {1,3} blocks
        assert cols(tp.swap_levels(p, 2)) == [0, 1, 4, 5, 2, 3, 6, 7]

    def test_vertical_lift(self):
        assert cols(tp.vertical_lift(pt(5, 2))) == [5, 0, 0, 2]

    def test_vertical_lift_outer_vs_inner(self):
        p = pt(1, 2, 3, 4)
        # doubling the outer level sends {2} to {3} content-wise
        assert cols(tp.vertical_lift(p, 2)) == [1, 2, 0, 0, 0, 0, 3, 4]
        # doubling the inner level re-bases level 1 at level pair (1,2)
        assert cols(tp.vertical_lift(p, 1)) == [1, 0, 0, 2, 3, 0, 0, 4]

    def test_vertical_lift_pair(self):
        xi = tp.vertical_lift_pair(pt(5, 2), pt(5, 3))
        assert cols(xi) == [5, 2, 0, 3]
        a, b = tp.vertical_pair_parts(xi)
        assert cols(a) == [5, 2] and cols(b) == [5, 3]

    def test_vertical_lift_pair_needs_shared_base(self):
        with pytest.raises(FiberMismatchError):
            tp.vertical_lift_pair(pt(5, 2), pt(6, 3))


# every (order, level) pair of a level of a point
KEYS = [(n, level) for n in range(1, MAX_ORDER + 1) for level in range(1, n + 1)]


def _rand(order):
    shape = (1 << order, 2, 3)
    return np.random.default_rng(order).normal(size=shape)


class TestIndexTables:
    @pytest.mark.parametrize("order,level", KEYS)
    def test_project_after_zero_lift(self, order, level):
        p = _rand(order - 1)
        lifted = tp.zero_lift(p)
        assert np.array_equal(tp.project(lifted, order), p)
        if level < order:
            assert np.array_equal(tp.project(lifted, level),
                                  tp.zero_lift(tp.project(p, level)))

    @pytest.mark.parametrize("order,level", [k for k in KEYS if k[1] < k[0]])
    def test_swap_is_an_involution(self, order, level):
        p = _rand(order)
        once = tp.swap_levels(p, level)
        assert np.array_equal(once[1 << level],
                              p[1 << (level - 1)])
        assert np.array_equal(tp.swap_levels(once, level), p)

    @pytest.mark.parametrize("order", [3, 4])
    def test_swap_braid(self, order):
        p, s = _rand(order), tp.swap_levels
        for lo in range(1, order - 1):
            hi = lo + 1
            assert np.array_equal(s(s(s(p, lo), hi), lo),
                                  s(s(s(p, hi), lo), hi))

    @pytest.mark.parametrize("order,level", [k for k in KEYS if k[0] < MAX_ORDER])
    def test_vertical_lift_doubles_one_level(self, order, level):
        # (u, u1) -> (u, 0, 0, u1) at every level: a block holding the
        # level moves to the block holding both copies, higher levels
        # move up one place, and the blocks holding one copy vanish
        p = _rand(order)
        want = np.zeros((2 << order,) + p.shape[1:])
        for m in range(1 << order):
            low = m & ((1 << (level - 1)) - 1)
            both = 3 << (level - 1) if m >> (level - 1) & 1 else 0
            want[low | both | (m >> level) << (level + 1)] = p[m]
        assert np.array_equal(tp.vertical_lift(p, level), want)


class TestChartDoubling:
    def test_collapse_expand(self):
        p = pt(1, 2, 3, 4)
        c = tp.collapse_inner(p)
        assert order_of(c) == 1 and c.shape[1] == 2
        assert np.array_equal(c, [[1, 2], [3, 4]])
        back = tp.expand_inner(c)
        assert np.array_equal(back, p)
        with pytest.raises(ValueError, match="block array"):
            tp.expand_inner(np.zeros((1 << MAX_ORDER, 2)))


def _scalar_product_map():
    dom = product_domain(box_domain(1, -5, 5), box_domain(1, -9, 9))
    return SmoothMap(dom, box_domain(1, -50, 50),
                     build(2, lambda xs: [xs[0] * xs[1]]), name="rx")


class TestApply:
    def test_apply_tangent_chain(self):
        f = SmoothMap(box_domain(1, -2, 2), box_domain(1),
                      build(1, lambda xs: [xs[0] * xs[0]]))
        out = tp.apply_tangent(f, pt(0.5, 3.0))
        assert cols(out) == pytest.approx([0.25, 3.0])

    def test_domain_enforced(self):
        f = SmoothMap(box_domain(1, -2, 2), box_domain(1),
                      build(1, lambda xs: [xs[0] * xs[0]]))
        from tancat.errors import DomainError
        with pytest.raises(DomainError):
            tp.apply_tangent(f, pt(3.0, 1.0))
        # off the chart, the map's program runs on the blocks directly
        out = f.body.on_blocks(pt(3.0, 1.0))
        assert cols(out) == pytest.approx([9.0, 6.0])

    @pytest.mark.parametrize("dim", [0, 1, 3])
    def test_point_dim_checked_before_domain(self, dim):
        # a point of the wrong dim must not reach the domain's box test
        f = _scalar_product_map()
        with pytest.raises(ValueError, match=f"point dim {dim} does not "
                                             "match domain dim 2"):
            tp.apply_tangent(f, np.zeros((2, dim, 4)))

    def test_partial_tangent_zeroes_other_slot(self):
        f = _scalar_product_map()
        p = np.array([[2.0, 5.0], [3.0, 999.0]])
        out = tp.partial_tangent(f, 1, p)
        assert cols(out) == pytest.approx([10.0, 15.0])  # d/dr(r*x) rdot = x rdot
        out2 = tp.partial_tangent(f, 2, p)
        assert cols(out2) == pytest.approx([10.0, 2.0 * 999.0])

    def test_partial_tangent_needs_split(self):
        f = SmoothMap(box_domain(2, -5, 5), box_domain(1),
                      build(2, lambda xs: [xs[0] * xs[1]]))
        with pytest.raises(StructureError):
            tp.partial_tangent(f, 1, np.zeros((2, 2)))

    def test_fiber_component(self):
        assert tp.fiber_component(pt(4.0, 7.5)) == 7.5
