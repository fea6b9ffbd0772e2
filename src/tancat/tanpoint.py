"""Iterated tangent points over a chart, as block arrays.

A point of the n-fold tangent of a dim-d chart is an array of shape
``(2**n, d, *batch)``: one R^d block per subset of the n tangent levels,
indexed by bitmask exactly like tower coefficients.  ``p[0]`` is the
underlying point, ``p[1 << (j-1)]`` the level-j velocity, and so on.
Level 1 is the innermost tangent; applying the tangent functor again
adds the next, outermost, level.  The order is read from axis 0
(:func:`order_of`), and trailing axes are a broadcast batch.

The structure transformations of the tangent functor act on these
blocks by index bookkeeping:

* ``project``     -- drop one level (outermost level = bundle projection,
                     level 1 = tangent of the projection below)
* ``zero_lift``   -- the zero section into fresh outermost levels
* ``add_fiber``   -- fiberwise addition over a shared projection
* ``swap_levels`` -- the canonical flip of two adjacent levels
* ``vertical_lift``      -- the vertical lift doubling one level
* ``vertical_lift_pair`` -- its two-argument extension
* ``scale_level`` -- fiberwise scalar multiplication of one level

No function writes into its arguments.  ``collapse_inner``,
``expand_inner``, ``fiber_component`` and the first part of
``vertical_pair_parts`` return views of their argument; every other
result is a fresh array, and each of its blocks is written once.  The
fiberwise maps (``add_fiber``, ``sub_fiber``, ``scale_level``) and the
lifts (``zero_lift``, ``vertical_lift``, ``vertical_lift_pair``) write
through slices: a level ``l`` of an order-n point is the view
``p.reshape(2**(n-l), 2, 2**(l-1), *rest)`` (:func:`_level_view`),
whose ``[:, 0]`` holds the blocks without the level, in order, and
whose ``[:, 1]`` holds its fiber.  ``project`` and ``swap_levels``
gather through index tables.  ``apply_tangent`` runs the map's program
on the blocks in place (``Expr.on_blocks``): the d columns of a point
are d towers side by side.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, FiberMismatchError, StructureError
from .expr import order_of
from .tower import MAX_ORDER
from .domain import SmoothMap

DEFAULT_MATCH_TOL = 1e-9


def residual(a, b) -> float:
    """Relative mismatch with an absolute floor near zero.

    Infinite when either side holds a value that is not finite, so a
    NaN can never read as agreement.  A difference with no nonzero
    entry is 0.0 before the sides are reduced: it holds no NaN, so
    neither side holds a NaN or an infinity, and the full formula would
    give 0.0 too.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 and b.size == 0:
        return 0.0
    with np.errstate(invalid="ignore"):  # inf - inf is nan, caught below
        diff = a - b
    # max(x.max(), -x.min()) is max(abs(x)) without a temporary; a NaN
    # in the difference makes both reductions NaN, and + 0.0 turns a
    # largest magnitude of -0.0 into 0.0
    num = float(max(diff.max(), -diff.min())) + 0.0
    if num == 0.0:
        return 0.0
    den = 1.0 + float(max(a.max(), -a.min(), b.max(), -b.min()))
    if not (math.isfinite(num) and math.isfinite(den)):
        return math.inf
    return num / den


class _LevelTables(NamedTuple):
    """Block index tables of one level of a point of one order."""
    keep: np.ndarray   # the blocks without the level, in order: project
    swap: np.ndarray   # swap[m]: block m with the level and the next exchanged


def _level_tables(order: int, level: int) -> _LevelTables:
    m = np.arange(1 << order)
    bit = 1 << (level - 1)
    flip = ((m >> (level - 1)) ^ (m >> level)) & 1
    return _LevelTables(m[(m & bit) == 0], m ^ (flip * 3 * bit))


_LEVEL_TABLES = {(n, level): _level_tables(n, level)
                 for n in range(1, MAX_ORDER + 1) for level in range(1, n + 1)}


def _check_level(order: int, level: int | None) -> int:
    """The level, the outermost one by default, checked against the order."""
    level = order if level is None else level
    if not 1 <= level <= order:
        raise ValueError(f"level {level} out of range for order {order}")
    return level


def _tables(order: int, level: int | None) -> _LevelTables:
    return _LEVEL_TABLES[order, _check_level(order, level)]


def _level_view(p: np.ndarray, order: int, level: int) -> np.ndarray:
    """``p`` as ``(2**(order-level), 2, 2**(level-1), *rest)``.

    Splitting axis 0 is always a view.  ``[:, 0]`` holds the blocks
    without the level, in mask order, and ``[:, 1]`` its fiber, each
    block at the place of its partner in ``[:, 0]``.
    """
    return p.reshape((1 << (order - level), 2, 1 << (level - 1)) + p.shape[1:])


def _empty(order: int, like: np.ndarray) -> np.ndarray:
    """Unwritten blocks of the given order with ``like``'s dim and batch."""
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds MAX_ORDER={MAX_ORDER}")
    return np.empty((1 << order,) + like.shape[1:])


def _check_shared(a: np.ndarray, b: np.ndarray, tol: float,
                  where: str = "") -> None:
    """Refuse two points whose shared blocks ``a`` and ``b`` differ."""
    mismatch = residual(a, b)
    if mismatch > tol:
        raise FiberMismatchError(
            f"shared blocks differ by {mismatch:.3e} (tol {tol:.1e}){where}")


def apply_tangent(f: SmoothMap, p: np.ndarray,
                  check_domain: bool = True) -> np.ndarray:
    """Evaluate the order-n tangent of ``f`` at ``p`` blockwise."""
    order_of(p)
    if p.shape[1] != f.dom.dim:
        raise ValueError(f"point dim {p.shape[1]} does not match domain dim "
                         f"{f.dom.dim}")
    if check_domain and not np.all(f.dom.contains(p[0])):
        raise DomainError(f"base point outside the domain of {f.name or 'map'}")
    return f.body.on_blocks(p)


def project(p: np.ndarray, level: int | None = None) -> np.ndarray:
    """Forget one tangent level; remaining levels close ranks."""
    n = order_of(p)
    return p[_tables(n, level).keep]


def zero_lift(p: np.ndarray, levels: int = 1) -> np.ndarray:
    """Zero section into ``levels`` fresh outermost tangent levels."""
    out = _empty(order_of(p) + levels, p)
    out[: len(p)] = p
    out[len(p):] = 0.0
    return out


def add_fiber(p: np.ndarray, q: np.ndarray, level: int | None = None,
              tol: float = DEFAULT_MATCH_TOL) -> np.ndarray:
    return _fiber_combine(p, q, np.add, level, tol)


def sub_fiber(p: np.ndarray, q: np.ndarray, level: int | None = None,
              tol: float = DEFAULT_MATCH_TOL) -> np.ndarray:
    return _fiber_combine(p, q, np.subtract, level, tol)


def _fiber_combine(p, q, combine, level, tol):
    """``combine`` (``np.add`` or ``np.subtract``) on the fibers of one
    level of two points that share every other block."""
    n, nq = order_of(p), order_of(q)
    if n != nq:
        raise ValueError(f"order mismatch: {n} vs {nq}")
    if n == 0:
        raise ValueError("order-0 points have no fiber to combine")
    level = _check_level(n, level)
    p, q = np.broadcast_arrays(p, q)
    pv, qv = _level_view(p, n, level), _level_view(q, n, level)
    _check_shared(pv[:, 0], qv[:, 0], tol, f" at level {level}")
    out = np.empty(p.shape)
    ov = _level_view(out, n, level)
    ov[:, 0] = pv[:, 0]
    combine(pv[:, 1], qv[:, 1], out=ov[:, 1])
    return out


def swap_levels(p: np.ndarray, level: int) -> np.ndarray:
    """Exchange tangent levels ``level`` and ``level + 1``."""
    n = order_of(p)
    tables = _tables(n, level)
    _tables(n, level + 1)
    return p[tables.swap]


def vertical_lift(p: np.ndarray, level: int | None = None) -> np.ndarray:
    """Vertical lift: double one tangent level into two.

    Blocks containing the level move to blocks containing both copies;
    the mixed new blocks vanish.  With ``level = order = 1`` this is the
    classical ``(u, u1) -> (u, 0, 0, u1)``.
    """
    n = order_of(p)
    level = _check_level(n, level)
    pv = _level_view(p, n, level)
    out = _empty(n + 1, p)
    # the level's bit becomes two bits, read here as [:, b1, b2]
    ov = out.reshape((1 << (n - level), 2, 2, 1 << (level - 1)) + p.shape[1:])
    ov[:, 0, 0] = pv[:, 0]
    ov[:, 1, 1] = pv[:, 1]
    ov[:, 0, 1] = ov[:, 1, 0] = 0.0
    return out


def vertical_lift_pair(p: np.ndarray, q: np.ndarray,
                       tol: float = DEFAULT_MATCH_TOL) -> np.ndarray:
    """Two-argument vertical lift ``(u, u1, v1) -> (u, u1, 0, v1)``.

    ``p`` and ``q`` must agree on every block not containing their
    outermost level.
    """
    n = order_of(p)
    if order_of(q) != n or n == 0:
        raise ValueError("arguments must share an order >= 1")
    half = 1 << (n - 1)
    pb, qb = np.broadcast_arrays(p, q)
    _check_shared(pb[:half], qb[:half], tol)
    out = _empty(n + 1, pb)
    out[: 1 << n] = pb
    out[1 << n: (1 << n) + half] = 0.0
    out[(1 << n) + half:] = qb[half:]
    return out


def vertical_pair_parts(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left inverse of :func:`vertical_lift_pair`."""
    n = order_of(xi)
    if n < 2:
        raise ValueError("need order >= 2")
    half, top = 1 << (n - 2), 1 << (n - 1)
    return xi[:top], np.concatenate([xi[:half], xi[top + half:]], axis=0)


def scale_level(p: np.ndarray, factor, level: int | None = None) -> np.ndarray:
    """Multiply the fiber blocks of one level by a scalar (or batch)."""
    n = order_of(p)
    if n == 0:
        raise ValueError("order-0 points have no fiber to scale")
    level = _check_level(n, level)
    pv = _level_view(np.asarray(p, dtype=float), n, level)
    out = np.empty(p.shape)
    ov = _level_view(out, n, level)
    ov[:, 0] = pv[:, 0]
    # the factor's axes broadcast from the right over the batch axes
    np.multiply(pv[:, 1], np.asarray(factor, dtype=float), out=ov[:, 1])
    return out


def fiber_component(p: np.ndarray) -> np.ndarray:
    """The fiber of a tangent of the scalar line (dim 1, order 1)."""
    n = order_of(p)
    if p.shape[1] != 1 or n != 1:
        raise ValueError(f"expected dim 1 order 1, got dim {p.shape[1]} "
                         f"order {n}")
    return p[1, 0]


def partial_tangent(f: SmoothMap, slot: int, p: np.ndarray,
                    check_domain: bool = True) -> np.ndarray:
    """Tangent in one factor of a declared product domain.

    ``p`` is an order-1 point of the product chart; the fiber of the
    other factor is zeroed before applying the tangent of ``f``.
    """
    if f.dom.split is None:
        raise StructureError(f"domain of {f.name or 'map'} has no declared "
                             "product split")
    if slot not in (1, 2):
        raise ValueError("slot must be 1 or 2")
    if order_of(p) != 1:
        raise ValueError("partial tangents take order-1 points")
    d1, d2 = f.dom.split
    arr = np.array(p, dtype=float)
    if slot == 1:
        arr[1, d1:] = 0.0
    else:
        arr[1, :d1] = 0.0
    return apply_tangent(f, arr, check_domain=check_domain)


def collapse_inner(p: np.ndarray) -> np.ndarray:
    """View level 1 as chart coordinates: order n, dim d becomes order
    n-1, dim 2d, with the remaining levels renumbered down."""
    n = order_of(p)
    if n == 0:
        raise ValueError("order-0 points have no level to collapse")
    return p.reshape((1 << (n - 1), 2 * p.shape[1]) + p.shape[2:])


def expand_inner(p: np.ndarray) -> np.ndarray:
    """Inverse of :func:`collapse_inner`; dim must be even."""
    n = order_of(p)
    if p.shape[1] % 2:
        raise ValueError("dim must be even to expand")
    out = p.reshape((2 << n, p.shape[1] // 2) + p.shape[2:])
    order_of(out)  # refuses an order above MAX_ORDER
    return out
