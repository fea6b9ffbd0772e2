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


# every (order, level) key of the block index tables
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
        out = tp.apply_tangent(f, pt(3.0, 1.0), check_domain=False)
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
