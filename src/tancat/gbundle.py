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
from .report import ROUNDOFF_TOL, uniform
from .tanpoint import order_of, residual


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
    drift_in = residual(xi[1, :p], np.zeros_like(xi[1, :p]))
    if drift_in > ROUNDOFF_TOL:
        raise VerticalityError(f"input tangent has anchor velocity "
                               f"{drift_in:.3e} (tol {ROUNDOFF_TOL:.1e})")
    g = np.asarray(g, dtype=float)
    out = _tcompose(G, xi, np.stack([g, np.zeros_like(g)]))
    drift = residual(out[1, :p], np.zeros_like(out[1, :p]))
    if drift > ROUNDOFF_TOL:
        raise VerticalityError(f"transport leaked an anchor velocity of "
                               f"{drift:.3e} (tol {ROUNDOFF_TOL:.1e})")
    out[1, :p] = 0.0  # out is the fresh result of _tcompose
    return out


# -- invariant fields -------------------------------------------------

def invariance_defect(G: FiberedGroupoid, v: VectorField,
                      rng: np.random.Generator,
                      samples: int = 200) -> dict[str, float]:
    """How far a field is from being a right-invariant vertical field."""
    p = G.base.dim
    e, g = _action_pairs(G, rng, samples)
    ve = v.at(e)
    res = {"verticality": residual(ve[:p], np.zeros_like(ve[:p]))}
    xi = vertical_tangent(e, ve[p:], p)
    moved = act_on_vertical(G, xi, g)
    direct = v.at(G.compose_pair(e, g))
    res["equivariance"] = residual(moved[1, p:], direct[p:])
    return res


def is_invariant(G: FiberedGroupoid, v: VectorField, rng: np.random.Generator,
                 samples: int = 200) -> bool:
    return max(invariance_defect(G, v, rng, samples).values()) <= ROUNDOFF_TOL


def check_vertical_structure(G: FiberedGroupoid, rng: np.random.Generator,
                             samples: int = 100) -> dict[str, float]:
    """Transport commutes with the fiberwise tangent structure.

    These are the vertical instances of naturality: addition, scaling,
    the level swap, and both vertical lifts, all restricted to vertical
    tangents and a frozen arrow slot.
    """
    p, r = G.base.dim, G.fiber_dim
    res: dict[str, float] = {}
    e, g = _action_pairs(G, rng, samples)
    u1 = uniform(rng, -1.0, 1.0, (r, samples))
    u2 = uniform(rng, -1.0, 1.0, (r, samples))
    s = uniform(rng, -2.0, 2.0, samples)
    xi = vertical_tangent(e, u1, p)
    eta = vertical_tangent(e, u2, p)
    mxi, meta = act_on_vertical(G, xi, g), act_on_vertical(G, eta, g)

    res["fiber_add"] = residual(act_on_vertical(G, tp.add_fiber(xi, eta), g),
                                tp.add_fiber(mxi, meta))
    res["fiber_scale"] = residual(act_on_vertical(G, tp.scale_level(xi, s), g),
                                  tp.scale_level(mxi, s))

    g0 = tp.zero_lift(g[None], 2)
    pair = tp.vertical_lift_pair(xi, eta)
    moved = _tcompose(G, pair, g0)
    swapped = tp.swap_levels(_tcompose(G, tp.swap_levels(pair, 1), g0), 1)
    res["level_swap"] = residual(swapped, moved)
    res["vertical_lift"] = residual(_tcompose(G, tp.vertical_lift(xi, 1), g0),
                                    tp.vertical_lift(mxi, 1))
    res["vertical_pair"] = residual(moved, tp.vertical_lift_pair(mxi, meta))
    return res


def check_invariant_closure(G: FiberedGroupoid, fields, base_fn,
                            rng: np.random.Generator,
                            samples: int = 200) -> dict[str, float]:
    """Invariance survives bracket, sum, and invariant-function scaling.

    ``fields`` is a sequence of invariant fields on the arrow chart;
    ``base_fn`` is a scalar field on the arrow chart constant along the
    action, such as any function of the target.
    """
    res: dict[str, float] = {}
    for i, v in enumerate(fields):
        res[f"given_{i}"] = max(invariance_defect(G, v, rng, samples).values())
    v, w = fields[0], fields[1]
    res["bracket"] = max(invariance_defect(
        G, lie_bracket(v, w), rng, samples).values())
    res["sum"] = max(invariance_defect(
        G, field_add(v, w), rng, samples).values())
    res["scaled"] = max(invariance_defect(
        G, field_scale(base_fn, v), rng, samples).values())
    return res
