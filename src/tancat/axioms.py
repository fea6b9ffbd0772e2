"""Residual checks for the chart-level tangent structure.

Every check is a diagram: a generator that draws random points and
random smooth maps for one chart dimension and yields the two sides of
each structural identity.  One runner, :func:`_check`, loops over the
dimensions, counts the samples and hands the sides to the reducer of
every report, ``report.worst_residuals``, for the worst relative
mismatch; a residual that is not finite counts as infinite, so it
fails.  Checks draw from independent seeded substreams keyed by check
name, so reports are reproducible and insensitive to ordering.

The block transformations enter through a :class:`TangentOps` table so
tests can swap in deliberately corrupted operations and watch exactly
the related checks fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from . import tanpoint as tp
from .domain import SmoothMap, box_domain, product_domain
from .expr import build, parallel, tangent_lift
from .randexpr import random_expr
from .report import Report, RunConfig, rng_for, uniform, worst_residuals


@dataclass(frozen=True)
class TangentOps:
    """The structure transformations under test, swappable for mutation
    experiments."""
    apply: Callable = tp.apply_tangent
    project: Callable = tp.project
    zero_lift: Callable = tp.zero_lift
    add_fiber: Callable = tp.add_fiber
    sub_fiber: Callable = tp.sub_fiber
    swap_levels: Callable = tp.swap_levels
    vertical_lift: Callable = tp.vertical_lift
    vertical_lift_pair: Callable = tp.vertical_lift_pair
    scale_level: Callable = tp.scale_level


DEFAULT_OPS = TangentOps()


def _check(diagram, cases=None):
    """The check ``(cfg, ops, rng) -> (samples, worst)`` of a diagram.

    ``diagram(ops, rng, case, n)`` draws ``n`` samples for one case, a
    chart dimension from ``cfg.dims`` unless ``cases`` fixes the cases,
    and yields ``(lhs, rhs)`` pairs of block arrays that must agree.
    They reach the reducer through a map, which keeps no frame, so each
    pair is freed before the diagram draws and evaluates the next one.
    """
    def check(cfg, ops, rng):
        runs = cases or cfg.dims
        pairs = chain.from_iterable(diagram(ops, rng, case, cfg.samples)
                                    for case in runs)
        worst = worst_residuals(map(lambda pair: ("", *pair), pairs))
        return len(runs) * cfg.samples, worst[""]
    return check


def _point(rng, dim, order, n) -> np.ndarray:
    return uniform(rng, -1.0, 1.0, (1 << order, dim, n))


def _share(rng, p: np.ndarray, keep_masks) -> np.ndarray:
    """A fresh random point agreeing with p on the given blocks."""
    arr = uniform(rng, -1.0, 1.0, p.shape)
    for m in keep_masks:
        arr[m] = p[m]
    return arr


def _map(rng, d) -> SmoothMap:
    """A random smooth map from a dim-d box into 1 to 3 dimensions."""
    m = int(rng.integers(1, 4))
    return SmoothMap(box_domain(d, -1.5, 1.5), box_domain(m),
                     random_expr(rng, d, m, depth=4))


def _zero_section(p: np.ndarray) -> np.ndarray:
    """The zero tangent over p's base point."""
    return tp.zero_lift(p[:1])


# -- naturality of the structure maps ---------------------------------

def _nat_projection(ops, rng, d, n):
    f, p = _map(rng, d), _point(rng, d, 2, n)
    fp = ops.apply(f, p)
    for level in (1, 2):
        yield ops.project(fp, level), ops.apply(f, ops.project(p, level))


def _nat_zero(ops, rng, d, n):
    f, x = _map(rng, d), _point(rng, d, 0, n)
    yield ops.apply(f, ops.zero_lift(x)), ops.zero_lift(ops.apply(f, x))


def _nat_add(ops, rng, d, n):
    f, p = _map(rng, d), _point(rng, d, 1, n)
    q = _share(rng, p, [0])
    yield (ops.add_fiber(ops.apply(f, p), ops.apply(f, q)),
           ops.apply(f, ops.add_fiber(p, q)))


def _nat_swap(ops, rng, d, n):
    f, p = _map(rng, d), _point(rng, d, 2, n)
    yield ops.swap_levels(ops.apply(f, p), 1), ops.apply(f, ops.swap_levels(p, 1))


def _nat_vlift(ops, rng, d, n):
    f, p = _map(rng, d), _point(rng, d, 1, n)
    yield (ops.vertical_lift(ops.apply(f, p), 1),
           ops.apply(f, ops.vertical_lift(p, 1)))


def _nat_scale(ops, rng, d, n):
    f, p = _map(rng, d), _point(rng, d, 1, n)
    r = uniform(rng, -2.0, 2.0, n)
    yield (ops.scale_level(ops.apply(f, p), r, 1),
           ops.apply(f, ops.scale_level(p, r, 1)))


# -- T1: pointwise fiber products, preserved by T ---------------------

def _interleave(xi: np.ndarray) -> np.ndarray:
    # T(T2 U) leg -> T2(TU) leg: ((u,u1),(u2,u12)) viewed over the TU chart
    return np.concatenate([xi[:2], xi[2:]], axis=1)


def _t1_interleave(ops, rng, d, n):
    f = _map(rng, d)
    xi = _point(rng, d, 2, n)
    zeta = _share(rng, xi, [0, 2])  # a T(T2)-pair shares u and u2
    a, b = _interleave(xi), _interleave(zeta)
    # well-defined: the interleaved pair shares its TU base point
    yield a[0], b[0]
    # preservation: T^2 f on each leg vs the chart tangent of Tf
    tf_chart = SmoothMap(box_domain(2 * d, -9, 9), box_domain(2 * f.cod.dim),
                         tangent_lift(f.body))
    for leg, src in ((a, xi), (b, zeta)):
        yield (_interleave(ops.apply(f, src)),
               ops.apply(tf_chart, leg))


# -- T2: bundle of abelian groups -------------------------------------

def _t2_assoc(ops, rng, d, n):
    p = _point(rng, d, 1, n)
    q, r = _share(rng, p, [0]), _share(rng, p, [0])
    yield (ops.add_fiber(ops.add_fiber(p, q), r),
           ops.add_fiber(p, ops.add_fiber(q, r)))


def _t2_comm(ops, rng, d, n):
    p = _point(rng, d, 1, n)
    q = _share(rng, p, [0])
    yield ops.add_fiber(p, q), ops.add_fiber(q, p)


def _t2_zero(ops, rng, d, n):
    p = _point(rng, d, 1, n)
    z = _zero_section(p)
    yield ops.add_fiber(p, z), p
    yield ops.add_fiber(z, p), p


def _t2_inverse(ops, rng, d, n):
    p = _point(rng, d, 1, n)
    q = _share(rng, p, [0])
    yield ops.sub_fiber(p, p), _zero_section(p)
    yield ops.add_fiber(ops.sub_fiber(p, q), q), p


# -- T3: the symmetric structure --------------------------------------

def _t3_involution(ops, rng, d, n):
    for order in (2, 3):
        p = _point(rng, d, order, n)
        yield ops.swap_levels(ops.swap_levels(p, order - 1), order - 1), p


def _t3_braid(ops, rng, d, n):
    p = _point(rng, d, 3, n)
    s = ops.swap_levels
    lhs = s(s(s(p, 1), 2), 1)
    for level in (2, 1, 2):  # each array of this side is freed once swapped
        p = s(p, level)
    yield lhs, p


def _t3_projection(ops, rng, d, n):
    p = _point(rng, d, 2, n)
    yield ops.project(ops.swap_levels(p, 1), 2), ops.project(p, 1)


def _t3_add(ops, rng, d, n):
    xi = _point(rng, d, 2, n)
    zeta = _share(rng, xi, [0, 2])  # share blocks without level 1
    yield (ops.swap_levels(ops.add_fiber(xi, zeta, level=1), 1),
           ops.add_fiber(ops.swap_levels(xi, 1), ops.swap_levels(zeta, 1),
                         level=2))


# -- T4: vertical lift coherence --------------------------------------

def _t4_projection(ops, rng, d, n):
    p = _point(rng, d, 1, n)
    yield ops.project(ops.vertical_lift(p, 1), 2), _zero_section(p)


def _t4_double(ops, rng, d, n):
    lam = ops.vertical_lift(_point(rng, d, 1, n), 1)
    yield ops.vertical_lift(lam, 2), ops.vertical_lift(lam, 1)


def _t4_add(ops, rng, d, n):
    p = _point(rng, d, 1, n)
    q = _share(rng, p, [0])
    yield (ops.vertical_lift(ops.add_fiber(p, q), 1),
           ops.add_fiber(ops.vertical_lift(p, 1), ops.vertical_lift(q, 1),
                         level=2))


# -- T5: swap fixes the lift ------------------------------------------

def _t5_fix(ops, rng, d, n):
    lam = ops.vertical_lift(_point(rng, d, 1, n), 1)
    yield ops.swap_levels(lam, 1), lam


def _t5_exchange(ops, rng, d, n):
    p = _point(rng, d, 2, n)
    yield (ops.swap_levels(ops.swap_levels(ops.vertical_lift(p, 1), 2), 1),
           ops.vertical_lift(ops.swap_levels(p, 1), 2))


# -- T6: the lift is the kernel of the projected tangent --------------

def _t6_kernel(ops, rng, d, n):
    p1 = _point(rng, d, 1, n)
    p2 = _share(rng, p1, [0])
    xi = ops.vertical_lift_pair(p1, p2)
    # image lies in the kernel: the level-1 projected tangent vanishes
    yield ops.project(xi, 1), _zero_section(p1)
    # and the construction is injective with explicit inverse
    r1, r2 = tp.vertical_pair_parts(xi)
    yield r1, p1
    yield r2, p2
    # conversely anything killed by the projected tangent arises so
    arr = uniform(rng, -1.0, 1.0, (4, d, n))
    arr[2] = 0.0
    yield ops.vertical_lift_pair(*tp.vertical_pair_parts(arr)), arr


# -- cartesianness ----------------------------------------------------

def _cartesian(ops, rng, dims, n):
    d1, d2 = dims
    m1, m2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    e1 = random_expr(rng, d1, m1, depth=4)
    e2 = random_expr(rng, d2, m2, depth=4)
    dom = product_domain(box_domain(d1, -1.5, 1.5), box_domain(d2, -1.5, 1.5))
    p = _point(rng, d1 + d2, 2, n)
    whole = ops.apply(SmoothMap(dom, box_domain(m1 + m2), parallel(e1, e2)), p)
    yield whole[:, :m1], ops.apply(
        SmoothMap(box_domain(d1, -1.5, 1.5), box_domain(m1), e1), p[:, :d1])
    yield whole[:, m1:], ops.apply(
        SmoothMap(box_domain(d2, -1.5, 1.5), box_domain(m2), e2), p[:, d1:])


# -- scalar multiplication --------------------------------------------

def _kappa_map(d: int) -> SmoothMap:
    dom = product_domain(box_domain(1, -2.0, 2.0), box_domain(2 * d, -2.0, 2.0))
    body = build(1 + 2 * d,
                 lambda xs: xs[1:1 + d] + [xs[0] * xs[1 + d + j] for j in range(d)])
    return SmoothMap(dom, box_domain(2 * d), body, name="fiber_scale")


def _scalar_lift(ops, rng, d, n):
    p = _point(rng, d, 1, n)
    r = uniform(rng, -2.0, 2.0, n)
    yield (ops.vertical_lift(ops.scale_level(p, r, 1), 1),
           ops.scale_level(ops.vertical_lift(p, 1), r, 2))


def _scalar_partial1(ops, rng, d, n):
    kappa = _kappa_map(d)
    p = _point(rng, d, 1, n)
    r = uniform(rng, -1.0, 1.0, n)
    rdot = uniform(rng, -1.0, 1.0, n)
    arr = np.empty((2, 1 + 2 * d, n))
    arr[0, 0] = r
    arr[0, 1:] = p.reshape(2 * d, n)
    arr[1, 0] = rdot
    arr[1, 1:] = uniform(rng, -1.0, 1.0, (2 * d, n))  # junk, zeroed
    yield (tp.expand_inner(tp.partial_tangent(kappa, 1, arr)),
           ops.vertical_lift_pair(ops.scale_level(p, r, 1),
                                  ops.scale_level(p, rdot, 1)))


def _scalar_partial2(ops, rng, d, n):
    kappa = _kappa_map(d)
    xi = _point(rng, d, 2, n)
    r = uniform(rng, -1.0, 1.0, n)
    arr = np.empty((2, 1 + 2 * d, n))
    arr[0, 0] = r
    arr[1, 0] = uniform(rng, -1.0, 1.0, n)  # junk, zeroed
    arr[:, 1:] = tp.collapse_inner(xi)
    yield (tp.expand_inner(tp.partial_tangent(kappa, 2, arr)),
           ops.swap_levels(ops.scale_level(ops.swap_levels(xi, 1), r, 2), 1))


def _scalar_assoc(ops, rng, d, n):
    p = _point(rng, d, 1, n)
    r = uniform(rng, -2.0, 2.0, n)
    s = uniform(rng, -2.0, 2.0, n)
    yield (ops.scale_level(ops.scale_level(p, s, 1), r, 1),
           ops.scale_level(p, r * s, 1))


def _scalar_unit(ops, rng, d, n):
    p = _point(rng, d, 1, n)
    yield ops.scale_level(p, 1.0, 1), p
    yield ops.scale_level(p, 0.0, 1), _zero_section(p)


def _scalar_add_scalar(ops, rng, d, n):
    p = _point(rng, d, 1, n)
    r = uniform(rng, -2.0, 2.0, n)
    s = uniform(rng, -2.0, 2.0, n)
    yield (ops.scale_level(p, r + s, 1),
           ops.add_fiber(ops.scale_level(p, r, 1), ops.scale_level(p, s, 1),
                         level=1))


def _scalar_add_vector(ops, rng, d, n):
    p = _point(rng, d, 1, n)
    q = _share(rng, p, [0])
    r = uniform(rng, -2.0, 2.0, n)
    yield (ops.scale_level(ops.add_fiber(p, q), r, 1),
           ops.add_fiber(ops.scale_level(p, r, 1), ops.scale_level(q, r, 1)))


ALL_CHECKS: dict[str, Callable] = {
    "T1/fiber_product_interleave": _check(_t1_interleave),
    "T2/add_assoc": _check(_t2_assoc),
    "T2/add_comm": _check(_t2_comm),
    "T2/add_inverse": _check(_t2_inverse),
    "T2/add_zero": _check(_t2_zero),
    "T3/braid": _check(_t3_braid),
    "T3/fiber_add_compat": _check(_t3_add),
    "T3/involution": _check(_t3_involution),
    "T3/projection_exchange": _check(_t3_projection),
    "T4/double_lift": _check(_t4_double),
    "T4/fiber_add_compat": _check(_t4_add),
    "T4/projection_zero": _check(_t4_projection),
    "T5/lift_exchange": _check(_t5_exchange),
    "T5/swap_fixes_lift": _check(_t5_fix),
    "T6/kernel_pullback": _check(_t6_kernel),
    "cartesian/pair_split": _check(_cartesian, cases=((1, 1), (1, 2), (2, 1))),
    "naturality/fiber_add": _check(_nat_add),
    "naturality/fiber_scale": _check(_nat_scale),
    "naturality/level_swap": _check(_nat_swap),
    "naturality/projection": _check(_nat_projection),
    "naturality/vertical_lift": _check(_nat_vlift),
    "naturality/zero_section": _check(_nat_zero),
    "scalar/add_scalar": _check(_scalar_add_scalar),
    "scalar/add_vector": _check(_scalar_add_vector),
    "scalar/assoc": _check(_scalar_assoc),
    "scalar/lift_compat": _check(_scalar_lift),
    "scalar/module_unit_zero": _check(_scalar_unit),
    "scalar/partial_slot1": _check(_scalar_partial1),
    "scalar/partial_slot2": _check(_scalar_partial2),
}


def run_axiom_suite(config: RunConfig | None = None,
                    ops: TangentOps = DEFAULT_OPS) -> Report:
    """Run every structural check and collect a deterministic report."""
    cfg = config or RunConfig()
    report = Report("axioms", cfg.seed)
    for name in sorted(ALL_CHECKS):
        rng = rng_for(cfg.seed, "axioms/" + name)
        try:
            samples, worst = ALL_CHECKS[name](cfg, ops, rng)
        except MemoryError:
            raise  # no check ran: the samples do not fit in memory
        except Exception:
            # a structural op refused the data outright; report as failed
            samples, worst = 0, float("inf")
        report.add_checks({name: worst}, samples, cfg.tol)
    return report
