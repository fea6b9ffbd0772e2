"""Differentiating a fibered groupoid at its unit arrows.

The derivative object lives on the base chart.  A section assigns to
every object a fiber direction at the unit arrow over it; right
translation extends it to an invariant vertical field on the arrow
chart, evaluation back at the units inverts that, and the section
bracket is the field bracket conjugated through this pair of maps.
The anchor pushes a section forward through the target map and turns
sections into honest vector fields on the base.

A section is a map on block arrays like a field, from the base
coordinates ``(2**n, p, *batch)`` to its fiber ``(2**n, rank, *batch)``.
The constructions chain the structure maps' ``Expr.on_blocks`` and
adjoin a unit velocity along axis 0, so derived sections (brackets of
brackets, scaled sections) feed straight back into every construction,
including the kernel-certified bracket, and an empty base or fiber is
an empty axis, not a case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import Domain
from .errors import StructureError, VerticalityError
from .expr import Expr, build
from .fields import (BlockFn, ScalarField, VectorField, _check_arity,
                     _scaled, _sum, act_on_function, check_related,
                     field_scale, lie_bracket)
from .gbundle import invariance_defect
from .groupoid import FiberedGroupoid, check_groupoid_axioms
from .randexpr import random_expr
from .report import rng_for, uniform
from .tanpoint import residual

GATE_TOL = 1e-9


@dataclass(frozen=True)
class Section:
    """A fiber direction at the unit arrow over each object."""
    base: Domain
    rank: int
    fn: BlockFn
    name: str = ""

    def at(self, points: np.ndarray) -> np.ndarray:
        """Order-0 values, shape (rank, ...)."""
        return self.fn(np.asarray(points, dtype=float)[None])[0]


def section_add(a: Section, b: Section, name: str = "") -> Section:
    return Section(a.base, a.rank, _sum(a.fn, b.fn),
                   name or f"({a.name}+{b.name})")


def section_scale(f, a: Section, name: str = "") -> Section:
    """Scale by a constant or pointwise by a scalar field on the base."""
    return Section(a.base, a.rank, _scaled(f, a.fn), name or f"(f*{a.name})")


# -- the derivative object -------------------------------------------

@dataclass(frozen=True)
class Algebroid:
    gpd: FiberedGroupoid
    name: str = ""

    @property
    def base(self) -> Domain:
        return self.gpd.base

    @property
    def rank(self) -> int:
        return self.gpd.fiber_dim

    def section(self, body: Expr, name: str = "") -> Section:
        _check_arity(self.base, body, self.rank, f"rank {self.rank} section")
        return Section(self.base, self.rank, body.on_blocks, name)

    def constant_section(self, vec, name: str = "") -> Section:
        vec = np.asarray(vec, dtype=float)
        if len(vec) != self.rank:
            raise ValueError(f"rank {self.rank} section from a "
                             f"{len(vec)}-vector")
        return self.section(build(self.base.dim, lambda xs: list(vec)),
                            name or "const")


def algebroid_of(G: FiberedGroupoid, rng: np.random.Generator | None = None,
                 samples: int = 200, tol: float = GATE_TOL) -> Algebroid:
    """Differentiate a groupoid, refusing structures that fail their laws.

    The unit-arrow constructions below silently produce garbage on a
    non-groupoid, so the gate runs the pointwise axioms first.
    """
    if rng is None:
        rng = rng_for(29, "algebroid/gate/" + (G.name or "?"))
    res = check_groupoid_axioms(G, rng, samples)
    bad = {k: v for k, v in res.items() if not v <= tol}
    if bad:
        raise StructureError(
            f"cannot differentiate {G.name or 'groupoid'}: axiom residuals "
            + ", ".join(f"{k}={v:.3e}" for k, v in sorted(bad.items())))
    return Algebroid(G, name=f"A({G.name})")


def anchor_field(al: Algebroid, a: Section) -> VectorField:
    """The base vector field x -> Tt(unit velocity a(x))."""
    G = al.gpd
    p = G.base.dim

    def fn(x: np.ndarray) -> np.ndarray:
        n, av = len(x), a.fn(x)
        u = G.unit.body.on_blocks(x)
        lift = np.zeros((2 * n,) + u.shape[1:])
        lift[:n] = u
        lift[n:, p:] = av
        return G.target.body.on_blocks(lift)[n:]

    return VectorField(al.base, fn, name=f"rho({a.name})")


def extend_to_invariant(al: Algebroid, a: Section) -> VectorField:
    """Right translation of the unit velocity over each arrow's target.

    At an arrow g this is the velocity of m(u(t(g)) + eps a, g), a
    vertical field on the arrow chart; it is invariant by construction
    and restricting back at the units recovers the section.
    """
    G = al.gpd
    p, d = G.base.dim, G.arrow_dim

    def fn(g: np.ndarray) -> np.ndarray:
        n = len(g)
        tg = G.target.body.on_blocks(g)
        av = a.fn(tg)
        lift = np.zeros((2 * n, 2 * d) + g.shape[2:])
        lift[:n, :d] = G.unit.body.on_blocks(tg)
        lift[n:, p:d] = av
        lift[:n, d:] = g
        del tg, av  # freed before the composition runs, the largest step
        # copied, so that the bottom half is freed, not kept by a view
        return G.compose.body.on_blocks(lift)[n:].copy()

    return VectorField(G.arrows, fn, name=f"inv({a.name})")


def restrict_to_unit(al: Algebroid, v: VectorField, check: bool = True,
                     tol: float = GATE_TOL, name: str = "") -> Section:
    """Read a vertical arrow field back off at the unit arrows."""
    G = al.gpd
    p = G.base.dim
    if check:
        rng = rng_for(31, "algebroid/verticality")
        # a point base has one unit arrow, so one copy of it will do
        pts = al.base.sample(rng, 64 if p else 1)
        anchor_part = v.at(G.unit(pts))[:p]
        drift = residual(anchor_part, np.zeros_like(anchor_part))
        if drift > tol:
            raise VerticalityError(
                f"field {v.name or '?'} has anchor components of size "
                f"{drift:.3e} at the units; only vertical fields restrict")

    def fn(x: np.ndarray) -> np.ndarray:
        # copied, so that the anchor rows are freed, not kept by a view
        return v.fn(G.unit.body.on_blocks(x))[:, p:].copy()

    return Section(al.base, al.rank, fn, name or f"unit({v.name})")


def algebroid_bracket(al: Algebroid, a: Section, b: Section,
                      name: str = "") -> Section:
    """Bracket of sections through their invariant extensions."""
    va = extend_to_invariant(al, a)
    vb = extend_to_invariant(al, b)
    return restrict_to_unit(al, lie_bracket(va, vb), check=False,
                            name=name or f"[{a.name},{b.name}]")


def pullback_target(al: Algebroid, f: ScalarField) -> ScalarField:
    """A base function read through the target map, as an arrow function."""
    G = al.gpd
    return ScalarField(G.arrows, lambda g: f.fn(G.target.body.on_blocks(g)),
                       name=f"t*({f.name})")


# -- law checking -----------------------------------------------------

def _default_sections(al: Algebroid, rng: np.random.Generator,
                      count: int = 3, depth: int = 3) -> list[Section]:
    p, q = al.base.dim, al.rank
    out = []
    for k in range(count):
        if p == 0:
            out.append(al.constant_section(uniform(rng, -1.0, 1.0, q),
                                           name=f"s{k}"))
        else:
            out.append(al.section(random_expr(rng, p, q, depth=depth),
                                  name=f"s{k}"))
    return out


def check_algebroid_laws(al: Algebroid, rng: np.random.Generator,
                         samples: int = 150,
                         sections: Sequence[Section] | None = None,
                         f: ScalarField | None = None) -> dict[str, float]:
    """Residuals of the section-level laws at sampled points."""
    G = al.gpd
    p = G.base.dim
    if sections is None:
        sections = _default_sections(al, rng, 3)
    a, b, c = sections[0], sections[1], sections[2]
    if f is None:
        body = (random_expr(rng, p, 1, depth=3) if p
                else build(0, lambda xs: [0.7]))
        f = ScalarField.from_expr(al.base, body, name="f")
    pts = al.base.sample(rng, samples)
    gs = G.sample_arrows(rng, samples)

    res: dict[str, float] = {}
    phi_a = extend_to_invariant(al, a)
    res["psi_phi"] = max(
        residual(restrict_to_unit(al, extend_to_invariant(al, s),
                                  check=False).at(pts), s.at(pts))
        for s in sections)
    res["phi_psi"] = residual(
        extend_to_invariant(al, restrict_to_unit(al, phi_a)).at(gs),
        phi_a.at(gs))
    res["phi_invariant"] = max(
        invariance_defect(G, phi_a, rng, samples).values())

    ab = algebroid_bracket(al, a, b)
    res["antisymmetry"] = residual(ab.at(pts),
                                   -algebroid_bracket(al, b, a).at(pts))
    jac = (algebroid_bracket(al, a, algebroid_bracket(al, b, c)).at(pts)
           + algebroid_bracket(al, b, algebroid_bracket(al, c, a)).at(pts)
           + algebroid_bracket(al, c, algebroid_bracket(al, a, b)).at(pts))
    res["jacobi"] = residual(jac, np.zeros_like(jac))

    rho_a = anchor_field(al, a)
    lhs = algebroid_bracket(al, a, section_scale(f, b)).at(pts)
    rhs = (section_scale(f, ab).at(pts)
           + section_scale(act_on_function(rho_a, f), b).at(pts))
    res["leibniz"] = residual(lhs, rhs)

    res["anchor_morphism"] = residual(
        anchor_field(al, ab).at(pts),
        lie_bracket(rho_a, anchor_field(al, b)).at(pts))
    res["t_related"] = max(
        check_related(G.target, extend_to_invariant(al, s),
                      anchor_field(al, s), gs)
        for s in sections)

    res["phi_module"] = residual(
        extend_to_invariant(al, section_scale(f, a)).at(gs),
        field_scale(pullback_target(al, f), phi_a).at(gs))
    return res


def _frame_section(al: Algebroid, vecs: np.ndarray, name: str) -> Section:
    """The section whose value in pair slot ``k`` is ``vecs[k]``.

    The pair slot is the first batch axis of the points it is evaluated
    at; the values broadcast along the axes after it.
    """
    cols = vecs.T[:, :, None]

    def fn(x: np.ndarray) -> np.ndarray:
        out = np.zeros((len(x),) + cols.shape)
        out[0] = cols
        return out

    return Section(al.base, al.rank, fn, name)


def bracket_table(al: Algebroid, points: np.ndarray) -> list[dict]:
    """Brackets of the constant frame sections, summarized over points.

    Each row reports the mean coefficients of [e_i, e_j] over the
    points and the largest pointwise deviation from that mean, which is
    zero exactly when the bracket section is constant.  All pairs
    i < j are one evaluation, with the pairs along a batch axis, so the
    kernel certificate covers the whole table.
    """
    points = np.asarray(points, dtype=float)
    i, j = np.triu_indices(al.rank, 1)
    frame = np.eye(al.rank)
    grid = np.broadcast_to(points[:, None],
                           (points.shape[0], len(i)) + points.shape[1:])
    vals = algebroid_bracket(al, _frame_section(al, frame[i], "e_i"),
                             _frame_section(al, frame[j], "e_j")).at(grid)
    rows = []
    for k in range(len(i)):
        mean = vals[:, k].mean(axis=1)
        rows.append({
            "i": int(i[k]), "j": int(j[k]),
            "mean": [float(x) for x in mean],
            "spread": float(np.abs(vals[:, k] - mean[:, None]).max(initial=0.0)),
        })
    return rows
