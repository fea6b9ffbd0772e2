"""The right action of a groupoid on its own arrows.

An arrow g acts on an arrow e whose source is target(g), by
composition: e.g = m(e, g), which starts at source(g).  The source of
an arrow is its anchor, the first p coordinates of the arrow chart;
the remaining fiber_dim coordinates are its fiber.  Invariant vertical
fields of this action are where the algebroid lives, one floor up.

Vertical tangents (no anchor velocity) are transported by the tangent
of the action with a frozen arrow slot.  The anchor direction of the
result must vanish identically; that is measured on every call rather
than assumed.
"""

from __future__ import annotations

import numpy as np

from . import tanpoint as tp
from .errors import VerticalityError
from .fields import VectorField, field_add, field_scale, lie_bracket
from .groupoid import FiberedGroupoid, _tcompose
from .report import ROUNDOFF_TOL, Sides, reduced, residual, uniform
from .tanpoint import order_of


def _action_pairs(G: FiberedGroupoid, rng: np.random.Generator,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """n arrows e and, for each, an arrow g with target(g) = source(e)."""
    e = G.arrows.sample(rng, n)
    return e, G.inverse(G._with_source(rng, e[: G.base.dim]))


# -- vertical transport -----------------------------------------------

def vertical_tangent(e: np.ndarray, vec: np.ndarray, p: int) -> np.ndarray:
    """An order-1 point with fiber velocity only."""
    e = np.asarray(e, dtype=float)
    fib = np.concatenate([np.zeros((p,) + e.shape[1:]), vec], axis=0)
    return np.stack([e, fib])


def act_on_vertical(G: FiberedGroupoid, xi: np.ndarray,
                    g: np.ndarray) -> np.ndarray:
    """Transport a vertical tangent along an arrow.

    The arrow slot is frozen (zero velocity); the result must again be
    vertical, and drifting anchors raise :class:`VerticalityError`.
    """
    p = G.base.dim
    if order_of(xi) != 1:
        raise ValueError("vertical transport takes order-1 tangents")
    drift_in = residual(xi[1, :p], 0.0)
    if drift_in > ROUNDOFF_TOL:
        raise VerticalityError(f"input tangent has anchor velocity "
                               f"{drift_in:.3e} (tol {ROUNDOFF_TOL:.1e})")
    g = np.asarray(g, dtype=float)
    out = _tcompose(G, xi, np.stack([g, np.zeros_like(g)]))
    drift = residual(out[1, :p], 0.0)
    if drift > ROUNDOFF_TOL:
        raise VerticalityError(f"transport leaked an anchor velocity of "
                               f"{drift:.3e} (tol {ROUNDOFF_TOL:.1e})")
    out[1, :p] = 0.0  # out is the fresh result of _tcompose
    return out


# -- invariant fields -------------------------------------------------

def invariance_sides(G: FiberedGroupoid, v: VectorField,
                     rng: np.random.Generator, samples: int = 200,
                     name: str = "") -> Sides:
    """The sides of :func:`invariance_defect`, all named ``name`` if given."""
    p = G.base.dim
    e, g = _action_pairs(G, rng, samples)
    ve = v.at(e)
    yield name or "verticality", ve[:p], 0.0
    xi = vertical_tangent(e, ve[p:], p)
    moved = act_on_vertical(G, xi, g)
    direct = v.at(G.compose_pair(e, g))
    yield name or "equivariance", moved[1, p:], direct[p:]


@reduced
def invariance_defect(G: FiberedGroupoid, v: VectorField,
                      rng: np.random.Generator, samples: int = 200) -> Sides:
    """How far a field is from being a right-invariant vertical field."""
    return invariance_sides(G, v, rng, samples)


def is_invariant(G: FiberedGroupoid, v: VectorField, rng: np.random.Generator,
                 samples: int = 200) -> bool:
    return max(invariance_defect(G, v, rng, samples).values()) <= ROUNDOFF_TOL


@reduced
def check_vertical_structure(G: FiberedGroupoid, rng: np.random.Generator,
                             samples: int = 100) -> Sides:
    """Transport commutes with the fiberwise tangent structure.

    These are the vertical instances of naturality: addition, scaling,
    the level swap, and both vertical lifts, all restricted to vertical
    tangents and a frozen arrow slot.
    """
    p, r = G.base.dim, G.fiber_dim
    e, g = _action_pairs(G, rng, samples)
    u1 = uniform(rng, -1.0, 1.0, (r, samples))
    u2 = uniform(rng, -1.0, 1.0, (r, samples))
    s = uniform(rng, -2.0, 2.0, samples)
    xi = vertical_tangent(e, u1, p)
    eta = vertical_tangent(e, u2, p)
    mxi, meta = act_on_vertical(G, xi, g), act_on_vertical(G, eta, g)

    yield ("fiber_add", act_on_vertical(G, tp.add_fiber(xi, eta), g),
           tp.add_fiber(mxi, meta))
    yield ("fiber_scale", act_on_vertical(G, tp.scale_level(xi, s), g),
           tp.scale_level(mxi, s))

    g0 = tp.zero_lift(g[None], 2)
    pair = tp.vertical_lift_pair(xi, eta)
    moved = _tcompose(G, pair, g0)
    swapped = tp.swap_levels(_tcompose(G, tp.swap_levels(pair, 1), g0), 1)
    yield "level_swap", swapped, moved
    yield ("vertical_lift", _tcompose(G, tp.vertical_lift(xi, 1), g0),
           tp.vertical_lift(mxi, 1))
    yield "vertical_pair", moved, tp.vertical_lift_pair(mxi, meta)


@reduced
def check_invariant_closure(G: FiberedGroupoid, fields, base_fn,
                            rng: np.random.Generator,
                            samples: int = 200) -> Sides:
    """Invariance survives bracket, sum, and invariant-function scaling.

    ``fields`` is a sequence of invariant fields on the arrow chart;
    ``base_fn`` is a scalar field on the arrow chart constant along the
    action, such as any function of the target.
    """
    v, w = fields[0], fields[1]
    checked = {**{f"given_{i}": u for i, u in enumerate(fields)},
               "bracket": lie_bracket(v, w), "sum": field_add(v, w),
               "scaled": field_scale(base_fn, v)}
    for name, field in checked.items():
        yield from invariance_sides(G, field, rng, samples, name)
