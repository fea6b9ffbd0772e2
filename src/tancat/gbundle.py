"""Right groupoid actions on fibered charts.

A bundle point is (anchor, fiber) in one chart; an arrow g acts on
points anchored at target(g) and moves them to source(g).  The star
example is the groupoid acting on its own arrows by composition, which
is where invariant vector fields and, one floor up, the algebroid
live.

Vertical tangents (no anchor velocity) are transported by the tangent
of the action with a frozen arrow slot.  The anchor direction of the
result must vanish identically; that is measured on every call rather
than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tanpoint as tp
from .domain import Domain, SmoothMap
from .errors import StructureError, VerticalityError
from .fields import VectorField
from .groupoid import FiberedGroupoid
from .tanpoint import TanPoint, apply_tangent, residual

VERTICAL_TOL = 1e-9


@dataclass(frozen=True)
class GBundle:
    gpd: FiberedGroupoid
    total: Domain            # (anchor block, fiber block)
    act: SmoothMap           # (total, arrows) -> total, on anchor(e) = target(g)
    name: str = ""

    def __post_init__(self):
        p = self.gpd.base.dim
        if self.total.split is None or self.total.split[0] != p:
            raise StructureError(f"total chart must split as ({p}, rank)")
        want_in = self.total.dim + self.gpd.arrow_dim
        if self.act.dom.dim != want_in or self.act.cod.dim != self.total.dim:
            raise StructureError(
                f"action map is {self.act.dom.dim}->{self.act.cod.dim}, "
                f"expected {want_in}->{self.total.dim}")

    @property
    def rank(self) -> int:
        return self.total.dim - self.gpd.base.dim

    def anchor(self, e: np.ndarray) -> np.ndarray:
        return e[: self.gpd.base.dim]

    def act_pair(self, e: np.ndarray, g: np.ndarray) -> np.ndarray:
        return self.act(np.concatenate([e, g], axis=0))

    # -- sampling -----------------------------------------------------

    def sample_points(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.total.sample(rng, n)

    def arrows_into(self, rng: np.random.Generator,
                    anchors: np.ndarray) -> np.ndarray:
        """Arrows whose target is the given anchor points."""
        return self.gpd.inverse(self.gpd._with_source(rng, anchors))

    def sample_action_pairs(self, rng: np.random.Generator,
                            n: int) -> tuple[np.ndarray, np.ndarray]:
        e = self.sample_points(rng, n)
        return e, self.arrows_into(rng, self.anchor(e))


def check_bundle_axioms(B: GBundle, rng: np.random.Generator,
                        samples: int = 200) -> dict[str, float]:
    G = B.gpd
    p = G.base.dim
    res: dict[str, float] = {}
    e, g = B.sample_action_pairs(rng, samples)
    eg = B.act_pair(e, g)
    res["anchor_compat"] = residual(B.anchor(eg), g[:p])
    res["unit_act"] = residual(B.act_pair(e, G.unit(B.anchor(e))), e)
    # h must end where g starts, so that both (e.g).h and e.(gh) parse
    h = B.arrows_into(rng, g[:p])
    res["mixed_assoc"] = residual(B.act_pair(eg, h),
                                  B.act_pair(e, G.compose_pair(g, h)))
    return res


# -- vertical transport -----------------------------------------------

def vertical_tangent(e: np.ndarray, vec: np.ndarray, p: int) -> TanPoint:
    """An order-1 point with fiber velocity only."""
    e = np.asarray(e, dtype=float)
    fib = np.concatenate([np.zeros((p,) + e.shape[1:]), vec], axis=0)
    return TanPoint(1, np.stack([e, fib]))


def act_on_vertical(B: GBundle, xi: TanPoint, g: np.ndarray,
                    tol: float = VERTICAL_TOL) -> TanPoint:
    """Transport a vertical tangent along an arrow.

    The arrow slot is frozen (zero velocity); the result must again be
    vertical, and drifting anchors raise :class:`VerticalityError`.
    """
    p = B.gpd.base.dim
    if xi.order != 1:
        raise ValueError("vertical transport takes order-1 tangents")
    drift_in = residual(xi.blocks[1, :p], np.zeros_like(xi.blocks[1, :p]))
    if drift_in > tol:
        raise VerticalityError(f"input tangent has anchor velocity "
                               f"{drift_in:.3e} (tol {tol:.1e})")
    g = np.asarray(g, dtype=float)
    glued = TanPoint(1, np.stack([
        np.concatenate([xi.blocks[0], g], axis=0),
        np.concatenate([xi.blocks[1], np.zeros_like(g)], axis=0)]))
    out = apply_tangent(B.act, glued, check_domain=False)
    drift = residual(out.blocks[1, :p], np.zeros_like(out.blocks[1, :p]))
    if drift > tol:
        raise VerticalityError(f"transport leaked an anchor velocity of "
                               f"{drift:.3e} (tol {tol:.1e})")
    arr = np.array(out.blocks)
    arr[1, :p] = 0.0
    return TanPoint(1, arr)


def act_tangent(B: GBundle, xi: TanPoint, g_tan: TanPoint) -> TanPoint:
    """The order-n tangent of the action on a glued tangent pair."""
    if xi.order != g_tan.order:
        raise ValueError("point and arrow tangents must share an order")
    glued = TanPoint(xi.order,
                     np.concatenate([xi.blocks, g_tan.blocks], axis=1))
    return apply_tangent(B.act, glued, check_domain=False)


# -- invariant fields -------------------------------------------------

def invariance_defect(B: GBundle, v: VectorField,
                      rng: np.random.Generator,
                      samples: int = 200) -> dict[str, float]:
    """How far a field is from being a right-invariant vertical field."""
    p = B.gpd.base.dim
    e, g = B.sample_action_pairs(rng, samples)
    ve = v.at(e)
    res = {"verticality": residual(ve[:p], np.zeros_like(ve[:p]))}
    xi = vertical_tangent(e, ve[p:], p)
    moved = act_on_vertical(B, xi, g)
    direct = v.at(B.act_pair(e, g))
    res["equivariance"] = residual(moved.blocks[1, p:], direct[p:])
    return res


def is_invariant(B: GBundle, v: VectorField, rng: np.random.Generator,
                 samples: int = 200, tol: float = VERTICAL_TOL) -> bool:
    return max(invariance_defect(B, v, rng, samples).values()) <= tol


def check_vertical_structure(B: GBundle, rng: np.random.Generator,
                             samples: int = 100) -> dict[str, float]:
    """Transport commutes with the fiberwise tangent structure.

    These are the bundle instances of naturality: addition, scaling,
    the level swap, and both vertical lifts, all restricted to vertical
    tangents and a frozen arrow slot.
    """
    p = B.gpd.base.dim
    r = B.rank
    res: dict[str, float] = {}
    e, g = B.sample_action_pairs(rng, samples)
    u1 = rng.uniform(-1.0, 1.0, size=(r, samples))
    u2 = rng.uniform(-1.0, 1.0, size=(r, samples))
    s = rng.uniform(-2.0, 2.0, size=samples)
    xi = vertical_tangent(e, u1, p)
    eta = vertical_tangent(e, u2, p)
    mxi, meta = act_on_vertical(B, xi, g), act_on_vertical(B, eta, g)

    res["fiber_add"] = residual(
        act_on_vertical(B, tp.add_fiber(xi, eta), g).blocks,
        tp.add_fiber(mxi, meta).blocks)
    res["fiber_scale"] = residual(
        act_on_vertical(B, tp.scale_level(xi, s), g).blocks,
        tp.scale_level(mxi, s).blocks)

    g0 = TanPoint.from_base(g)
    lift2 = lambda q: tp.zero_lift(tp.zero_lift(q))

    swapped = tp.swap_levels(
        act_tangent(B, tp.swap_levels(tp.vertical_lift_pair(xi, eta), 1),
                    lift2(g0)), 1)
    res["level_swap"] = residual(
        swapped.blocks, act_tangent(B, tp.vertical_lift_pair(xi, eta),
                                    lift2(g0)).blocks)

    res["vertical_lift"] = residual(
        act_tangent(B, tp.vertical_lift(xi, 1), lift2(g0)).blocks,
        tp.vertical_lift(mxi, 1).blocks)

    res["vertical_pair"] = residual(
        act_tangent(B, tp.vertical_lift_pair(xi, eta), lift2(g0)).blocks,
        tp.vertical_lift_pair(mxi, meta).blocks)
    return res


def check_invariant_closure(B: GBundle, fields, base_fn,
                            rng: np.random.Generator,
                            samples: int = 200) -> dict[str, float]:
    """Invariance survives bracket, sum, and invariant-function scaling.

    ``fields`` is a sequence of invariant fields on the total chart;
    ``base_fn`` is a scalar field on the total chart constant along the
    action (for the arrow bundle: any function of the target).
    """
    from .fields import field_add, field_scale, lie_bracket

    res: dict[str, float] = {}
    for i, v in enumerate(fields):
        res[f"given_{i}"] = max(invariance_defect(B, v, rng, samples).values())
    v, w = fields[0], fields[1]
    res["bracket"] = max(invariance_defect(
        B, lie_bracket(v, w), rng, samples).values())
    res["sum"] = max(invariance_defect(
        B, field_add(v, w), rng, samples).values())
    res["scaled"] = max(invariance_defect(
        B, field_scale(base_fn, v), rng, samples).values())
    return res


# -- builders ---------------------------------------------------------

def arrow_bundle(G: FiberedGroupoid) -> GBundle:
    """The groupoid acting on its own arrows by right composition."""
    return GBundle(G, G.arrows, G.compose, name=f"arrows({G.name})")
