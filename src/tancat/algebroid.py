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

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .domain import Domain
from .errors import StructureError, VerticalityError
from .expr import Expr, build
from .fields import (BlockFn, ScalarField, VectorField, _check_arity,
                     _scaled, act_on_function, field_scale,
                     lie_bracket, related_sides)
from .gbundle import invariance_sides
from .groupoid import FiberedGroupoid, _stacks, check_groupoid_axioms
from .randexpr import random_expr
from .report import ROUNDOFF_TOL, Sides, reduced, residual, rng_for


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


def stack_sections(sections: Sequence[Section]) -> Section:
    """The sections side by side along the first batch axis.

    At points of shape ``(p, k, *rest)``, slot ``j`` of that axis is
    ``sections[j]`` at slot ``j`` of the points, so one run of a
    construction on the stack does the work of ``k`` runs on its
    sections, each slot with the bits of its own run.  :func:`on_slots`
    puts one batch of points in every slot.
    """
    fns = [s.fn for s in sections]

    def fn(x: np.ndarray) -> np.ndarray:
        return np.stack([f(x[:, :, j]) for j, f in enumerate(fns)], axis=2)

    return Section(sections[0].base, sections[0].rank, fn,
                   "(" + ",".join(s.name for s in sections) + ")")


def on_slots(points: np.ndarray, k: int) -> np.ndarray:
    """The points ``(p, *batch)`` broadcast into ``k`` slots of a new
    first batch axis, ``(p, k, *batch)``, without a copy."""
    points = np.asarray(points, dtype=float)
    return np.broadcast_to(points[:, None],
                           (points.shape[0], k) + points.shape[1:])


def by_slots(run: Callable[..., tuple[np.ndarray, ...]],
             rows: Sequence[Sequence[Section]],
             points: np.ndarray) -> tuple[np.ndarray, ...]:
    """``run(*row, points)`` for each row of sections, each of its
    arrays with the row on a new axis 1 (the slot axis).

    The stacking rule is the groupoid laws' (``groupoid._stacks``):
    below ``_STACK_BELOW`` towers in all (rows times batch points),
    ``run`` runs once, on the columns of ``rows`` stacked
    (:func:`stack_sections`) at the points in every slot
    (:func:`on_slots`); larger batches run it once per row.  Either way
    each slot has the bits of its own run.
    """
    points = np.asarray(points, dtype=float)
    k = len(rows)
    if _stacks(k * math.prod(points.shape[1:])):
        return run(*map(stack_sections, zip(*rows)), on_slots(points, k))
    outs = [run(*row, points) for row in rows]
    return tuple(np.stack(parts, axis=1) for parts in zip(*outs))


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


def algebroid_of(G: FiberedGroupoid) -> Algebroid:
    """Differentiate a groupoid, refusing structures that fail their laws.

    The unit-arrow constructions below silently produce garbage on a
    non-groupoid, so the gate runs the pointwise axioms first, at 200
    points, each residual held to ``ROUNDOFF_TOL``.
    """
    rng = rng_for(29, "algebroid/gate/" + (G.name or "?"))
    res = check_groupoid_axioms(G, rng, 200)
    bad = {k: v for k, v in res.items() if not v <= ROUNDOFF_TOL}
    if bad:
        raise StructureError(
            f"cannot differentiate {G.name or 'groupoid'}: axiom residuals "
            + ", ".join(f"{k}={v:.3e}" for k, v in sorted(bad.items())))
    return Algebroid(G, name=f"A({G.name})")


def anchor_field(al: Algebroid, a: Section) -> VectorField:
    """The base vector field x -> Tt(unit velocity a(x))."""
    G = al.gpd
    return VectorField(al.base, lambda x: _anchor_blocks(G, x, a.fn(x)),
                       name=f"rho({a.name})")


def _anchor_blocks(G: FiberedGroupoid, x: np.ndarray,
                   av: np.ndarray) -> np.ndarray:
    """The anchor at the blocks ``x`` of the section values ``av``."""
    n, p = len(x), G.base.dim
    u = G.unit.body.on_blocks(x)
    lift = np.zeros((2 * n,) + u.shape[1:])
    lift[:n] = u
    lift[n:, p:] = av
    return G.target.body.on_blocks(lift)[n:]


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
                     name: str = "") -> Section:
    """Read a vertical arrow field back off at the unit arrows."""
    G = al.gpd
    p = G.base.dim
    if check:
        rng = rng_for(31, "algebroid/verticality")
        pts = al.base.sample(rng, 64)
        drift = residual(v.at(G.unit(pts))[:p], 0.0)
        if drift > ROUNDOFF_TOL:
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

def _default_sections(al: Algebroid,
                      rng: np.random.Generator) -> list[Section]:
    return [al.section(random_expr(rng, al.base.dim, al.rank, depth=3),
                       name=f"s{k}") for k in range(3)]


@reduced
def check_algebroid_laws(al: Algebroid, rng: np.random.Generator,
                         samples: int = 150,
                         sections: Sequence[Section] | None = None,
                         f: ScalarField | None = None) -> Sides:
    """Residuals of the section-level laws at sampled points.

    Laws that sum or compare several brackets evaluate them at once
    (:func:`by_slots`), one term per slot: the Jacobi sum is the nested
    bracket of ``(a,b,c)``, ``(b,c,a)`` and ``(c,a,b)``, its three slots
    added in that order; antisymmetry and the left side of Leibniz are
    the bracket of ``(a,b,a)`` and ``(b,a,f*b)``, whose ``[a,b]`` slot the
    right side of Leibniz and ``anchor_morphism`` reuse.  ``psi_phi``
    and ``t_related`` run one slot per section and yield one pair of
    sides per slot, so each residual keeps its own section's
    denominator.  Every slot has the bits of its own evaluation, so the
    residuals are those of one bracket at a time.  When the slots are
    stacked, the kernel certificate of a bracket is measured over the
    whole stack.
    """
    G = al.gpd
    p = G.base.dim
    if sections is None:
        sections = _default_sections(al, rng)
    a, b, c = sections[0], sections[1], sections[2]
    if f is None:
        f = ScalarField.from_expr(al.base, random_expr(rng, p, 1, depth=3),
                                  name="f")
    pts = al.base.sample(rng, samples)
    gs = G.sample_arrows(rng, samples)
    br = lambda x, y: algebroid_bracket(al, x, y)
    each = [(s,) for s in sections]

    phi_a = extend_to_invariant(al, a)
    back, vals = by_slots(lambda s, x: (restrict_to_unit(
        al, extend_to_invariant(al, s), check=False).at(x), s.at(x)),
        each, pts)
    for j in range(len(each)):
        yield "psi_phi", back[:, j], vals[:, j]
    yield ("phi_psi",
           extend_to_invariant(al, restrict_to_unit(al, phi_a)).at(gs),
           phi_a.at(gs))
    yield from invariance_sides(G, phi_a, rng, samples, "phi_invariant")

    brs, = by_slots(lambda x, y, at: (br(x, y).at(at),),
                    [(a, b), (b, a), (a, section_scale(f, b))], pts)
    ab = brs[:, 0]
    yield "antisymmetry", ab, -brs[:, 1]
    terms, = by_slots(lambda x, y, z, at: (br(x, br(y, z)).at(at),),
                      [(a, b, c), (b, c, a), (c, a, b)], pts)
    yield "jacobi", terms[:, 0] + terms[:, 1] + terms[:, 2], 0.0

    rho_a = anchor_field(al, a)
    # f [a,b] and the anchor of [a,b] take [a,b] from slot 0 above
    yield ("leibniz", brs[:, 2], f.at(pts) * ab
           + section_scale(act_on_function(rho_a, f), b).at(pts))

    yield ("anchor_morphism", _anchor_blocks(G, pts[None], ab[None])[0],
           lie_bracket(rho_a, anchor_field(al, b)).at(pts))
    pushed, rho = by_slots(lambda s, x: related_sides(
        G.target, extend_to_invariant(al, s), anchor_field(al, s), x),
        each, gs)
    for j in range(len(each)):
        yield "t_related", pushed[:, j], rho[:, j]

    yield ("phi_module",
           extend_to_invariant(al, section_scale(f, a)).at(gs),
           field_scale(pullback_target(al, f), phi_a).at(gs))


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
    i, j = np.triu_indices(al.rank, 1)
    frame = np.eye(al.rank)
    vals = algebroid_bracket(al, _frame_section(al, frame[i], "e_i"),
                             _frame_section(al, frame[j], "e_j")
                             ).at(on_slots(points, len(i)))
    rows = []
    for k in range(len(i)):
        mean = vals[:, k].mean(axis=1)
        rows.append({
            "i": int(i[k]), "j": int(j[k]),
            "mean": [float(x) for x in mean],
            "spread": float(np.abs(vals[:, k] - mean[:, None]).max(initial=0.0)),
        })
    return rows
