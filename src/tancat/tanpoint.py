"""Iterated tangent points over a chart, stored blockwise.

A point of the n-fold tangent of a dim-d chart keeps one R^d block per
subset of the n tangent levels, indexed by bitmask exactly like tower
coefficients: ``blocks[0]`` is the underlying point, ``blocks[1 << (j-1)]``
the level-j velocity, and so on.  Level 1 is the innermost tangent;
applying the tangent functor again adds the next, outermost, level.

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

All functions return fresh points.  A point takes over the blocks
array it is given, without a copy, and marks it read-only, so callers
hand it a fresh array or a view of a read-only one.  Trailing axes of
``blocks`` are a broadcast batch.  ``apply_tangent`` runs the map's
program on the blocks in place (``Expr.on_blocks``): the d columns of a
point are d towers side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, FiberMismatchError, StructureError
from .tower import MAX_ORDER
from .domain import SmoothMap

DEFAULT_MATCH_TOL = 1e-9


def residual(a, b) -> float:
    """Relative mismatch with an absolute floor near zero.

    Infinite when either side holds a value that is not finite, so a
    NaN can never read as agreement.
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
    den = 1.0 + float(max(a.max(), -a.min(), b.max(), -b.min()))
    if not (math.isfinite(num) and math.isfinite(den)):
        return math.inf
    return num / den


@dataclass(frozen=True)
class TanPoint:
    """A point of the order-n tangent of a chart, as its blocks.

    ``blocks`` is taken over, not copied: the point marks that very
    array read-only and holds it.
    """
    order: int
    blocks: np.ndarray  # (2**order, dim, *batch)

    def __post_init__(self):
        arr = np.asarray(self.blocks, dtype=float)
        if arr.ndim < 2 or arr.shape[0] != (1 << self.order):
            raise ValueError(f"blocks must have shape (2**{self.order}, dim, ...), "
                             f"got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "blocks", arr)

    @property
    def dim(self) -> int:
        return self.blocks.shape[1]

    @property
    def batch_shape(self) -> tuple:
        return self.blocks.shape[2:]

    @property
    def base(self) -> np.ndarray:
        return self.blocks[0]

    @classmethod
    def from_base(cls, points: np.ndarray, order: int = 0) -> "TanPoint":
        points = np.asarray(points, dtype=float)
        arr = np.zeros((1 << order,) + points.shape)
        arr[0] = points
        return cls(order, arr)


def _level_bit(order: int, level: int) -> int:
    if not 1 <= level <= order:
        raise ValueError(f"level {level} out of range for order {order}")
    return 1 << (level - 1)


class _LevelTables(NamedTuple):
    """Block index tables of one level of a point of one order."""
    keep: np.ndarray  # the blocks without the level, in order: project
    swap: np.ndarray  # swap[m]: block m with the level and the next exchanged
    lift: np.ndarray  # lift[m]: where vertical_lift puts block m


def _level_tables(order: int, level: int) -> _LevelTables:
    m = np.arange(1 << order)
    bit = 1 << (level - 1)
    has = (m & bit) != 0
    flip = ((m >> (level - 1)) ^ (m >> level)) & 1
    # lift doubles the level's bit and moves the higher bits up one place
    return _LevelTables(
        m[~has], m ^ (flip * 3 * bit),
        (m & (bit - 1)) | (has * 3 * bit) | ((m >> level) << (level + 1)))


_LEVEL_TABLES = {(n, level): _level_tables(n, level)
                 for n in range(1, MAX_ORDER + 1) for level in range(1, n + 1)}


def apply_tangent(f: SmoothMap, p: TanPoint, check_domain: bool = True) -> TanPoint:
    """Evaluate the order-n tangent of ``f`` at ``p`` blockwise."""
    if p.dim != f.dom.dim:
        raise ValueError(f"point dim {p.dim} does not match domain dim {f.dom.dim}")
    if check_domain and not np.all(f.dom.contains(p.base)):
        raise DomainError(f"base point outside the domain of {f.name or 'map'}")
    return TanPoint(p.order, f.body.on_blocks(p.blocks))


def project(p: TanPoint, level: int | None = None) -> TanPoint:
    """Forget one tangent level; remaining levels close ranks."""
    level = p.order if level is None else level
    _level_bit(p.order, level)
    return TanPoint(p.order - 1, p.blocks[_LEVEL_TABLES[p.order, level].keep])


def zero_lift(p: TanPoint, levels: int = 1) -> TanPoint:
    """Zero section into ``levels`` fresh outermost tangent levels."""
    order = p.order + levels
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds MAX_ORDER={MAX_ORDER}")
    out = np.zeros((1 << order,) + p.blocks.shape[1:])
    out[: 1 << p.order] = p.blocks
    return TanPoint(order, out)


def _fiber_split(order: int, level: int) -> np.ndarray:
    bit = _level_bit(order, level)
    return (np.arange(1 << order) & bit) != 0


def add_fiber(p: TanPoint, q: TanPoint, level: int | None = None,
              tol: float = DEFAULT_MATCH_TOL) -> TanPoint:
    return _fiber_combine(p, q, +1.0, level, tol)


def sub_fiber(p: TanPoint, q: TanPoint, level: int | None = None,
              tol: float = DEFAULT_MATCH_TOL) -> TanPoint:
    return _fiber_combine(p, q, -1.0, level, tol)


def _fiber_combine(p, q, sign, level, tol):
    if p.order != q.order:
        raise ValueError(f"order mismatch: {p.order} vs {q.order}")
    if p.order == 0:
        raise ValueError("order-0 points have no fiber to combine")
    level = p.order if level is None else level
    sel = _fiber_split(p.order, level)
    pb, qb = np.broadcast_arrays(p.blocks, q.blocks)
    mismatch = residual(pb[~sel], qb[~sel])
    if mismatch > tol:
        raise FiberMismatchError(
            f"shared blocks differ by {mismatch:.3e} (tol {tol:.1e}) at level "
            f"{level}")
    out = pb.copy()
    out[sel] = pb[sel] + sign * qb[sel]
    return TanPoint(p.order, out)


def swap_levels(p: TanPoint, level: int) -> TanPoint:
    """Exchange tangent levels ``level`` and ``level + 1``."""
    _level_bit(p.order, level)
    _level_bit(p.order, level + 1)
    return TanPoint(p.order, p.blocks[_LEVEL_TABLES[p.order, level].swap])


def vertical_lift(p: TanPoint, level: int | None = None) -> TanPoint:
    """Vertical lift: double one tangent level into two.

    Blocks containing the level move to blocks containing both copies;
    the mixed new blocks vanish.  With ``level = order = 1`` this is the
    classical ``(u, u1) -> (u, 0, 0, u1)``.
    """
    level = p.order if level is None else level
    _level_bit(p.order, level)
    order = p.order + 1
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds MAX_ORDER={MAX_ORDER}")
    out = np.zeros((1 << order,) + p.blocks.shape[1:])
    out[_LEVEL_TABLES[p.order, level].lift] = p.blocks
    return TanPoint(order, out)


def vertical_lift_pair(p: TanPoint, q: TanPoint,
                       tol: float = DEFAULT_MATCH_TOL) -> TanPoint:
    """Two-argument vertical lift ``(u, u1, v1) -> (u, u1, 0, v1)``.

    ``p`` and ``q`` must agree on every block not containing their
    outermost level.
    """
    if p.order != q.order or p.order == 0:
        raise ValueError("arguments must share an order >= 1")
    half = 1 << (p.order - 1)
    pb, qb = np.broadcast_arrays(p.blocks, q.blocks)
    mismatch = residual(pb[:half], qb[:half])
    if mismatch > tol:
        raise FiberMismatchError(
            f"shared blocks differ by {mismatch:.3e} (tol {tol:.1e})")
    order = p.order + 1
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds MAX_ORDER={MAX_ORDER}")
    out = np.zeros((1 << order,) + pb.shape[1:])
    out[: 1 << p.order] = pb
    out[(1 << p.order) + half:] = qb[half:]
    return TanPoint(order, out)


def vertical_pair_parts(xi: TanPoint) -> tuple[TanPoint, TanPoint]:
    """Left inverse of :func:`vertical_lift_pair`."""
    if xi.order < 2:
        raise ValueError("need order >= 2")
    half = 1 << (xi.order - 2)
    top = 1 << (xi.order - 1)
    p = TanPoint(xi.order - 1, xi.blocks[:top])
    q_arr = np.concatenate([xi.blocks[:half], xi.blocks[top + half:]], axis=0)
    return p, TanPoint(xi.order - 1, q_arr)


def scale_level(p: TanPoint, factor, level: int | None = None) -> TanPoint:
    """Multiply the fiber blocks of one level by a scalar (or batch)."""
    if p.order == 0:
        raise ValueError("order-0 points have no fiber to scale")
    level = p.order if level is None else level
    sel = _fiber_split(p.order, level)
    out = np.array(p.blocks)
    factor = np.asarray(factor, dtype=float)
    out[sel] = out[sel] * factor  # batch axes broadcast from the right
    return TanPoint(p.order, out)


def fiber_component(p: TanPoint) -> np.ndarray:
    """The fiber of a tangent of the scalar line (dim 1, order 1)."""
    if p.dim != 1 or p.order != 1:
        raise ValueError(f"expected dim 1 order 1, got dim {p.dim} order {p.order}")
    return p.blocks[1, 0]


def partial_tangent(f: SmoothMap, slot: int, p: TanPoint,
                    check_domain: bool = True) -> TanPoint:
    """Tangent in one factor of a declared product domain.

    ``p`` is an order-1 point of the product chart; the fiber of the
    other factor is zeroed before applying the tangent of ``f``.
    """
    if f.dom.split is None:
        raise StructureError(f"domain of {f.name or 'map'} has no declared "
                             "product split")
    if slot not in (1, 2):
        raise ValueError("slot must be 1 or 2")
    if p.order != 1:
        raise ValueError("partial tangents take order-1 points")
    d1, d2 = f.dom.split
    arr = np.array(p.blocks)
    if slot == 1:
        arr[1, d1:] = 0.0
    else:
        arr[1, :d1] = 0.0
    return apply_tangent(f, TanPoint(1, arr), check_domain=check_domain)


def collapse_inner(p: TanPoint) -> TanPoint:
    """View level 1 as chart coordinates: order n, dim d becomes order
    n-1, dim 2d, with the remaining levels renumbered down."""
    if p.order == 0:
        raise ValueError("order-0 points have no level to collapse")
    return TanPoint(p.order - 1, p.blocks.reshape(
        (1 << (p.order - 1), 2 * p.dim) + p.batch_shape))


def expand_inner(p: TanPoint) -> TanPoint:
    """Inverse of :func:`collapse_inner`; dim must be even."""
    if p.dim % 2:
        raise ValueError("dim must be even to expand")
    return TanPoint(p.order + 1, p.blocks.reshape(
        (1 << (p.order + 1), p.dim // 2) + p.batch_shape))
