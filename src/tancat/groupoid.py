"""Groupoid objects presented in fibered charts.

Arrows live in one chart of the form (base block, fiber block); the
source map is literally the base projection.  The two charts fix the
domain and codomain of the other structure maps (``MAP_CHARTS``), so a
groupoid is its base and arrow charts and four programs: target,
composition, unit and inverse, put together by :func:`fibered_groupoid`.
Multiplication m(g, h) means "g after h" and is defined when
source(g) = target(h).  A spec (:func:`groupoid_to_json_dict`) holds the
two charts and each map's program, and nothing more.

Because all structure maps are expression-backed they can be pushed
through the tangent construction: :func:`tangent_groupoid` doubles the
charts and lifts every map, and is the one place that lifts them.  One
law suite, :func:`check_groupoid_axioms`, checks G at order 0 and its
iterated tangent T^n G at order n, on composable strings of order-n
tangent points (block arrays of shape ``(2**n, dim, samples)``) with
each structure map evaluated on nilpotent towers;
:func:`check_chart_functoriality` plays all four maps of T G and T T G
against those tower evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Domain, SmoothMap, box_domain, product_domain
from .errors import StructureError
from .expr import (Expr, ExprBuilder, build, order_of, reindex_inputs,
                   tangent_chart_map)
from .report import ROUNDOFF_TOL, Sides, reduced, residual, uniform


def _tangent(rng: np.random.Generator, vals: np.ndarray,
             order: int) -> np.ndarray:
    """An order-n tangent point with value block ``vals``; its velocity
    blocks are drawn after the values, uniform in [-1, 1], so order 0
    draws nothing more."""
    return np.concatenate(
        [vals[None], uniform(rng, -1.0, 1.0, ((1 << order) - 1,) + vals.shape)])


# Each structure map's (domain, codomain), as charts of the groupoid;
# "pairs" is product_domain(arrows, arrows), the chart of the pairs
# (g, h) on which compose reads g after h.
MAP_CHARTS = {"target": ("arrows", "base"),
              "compose": ("pairs", "arrows"),
              "unit": ("base", "arrows"),
              "inverse": ("arrows", "arrows")}


@dataclass(frozen=True)
class FiberedGroupoid:
    base: Domain
    arrows: Domain           # dim = base.dim + fiber_dim, split recorded
    # the structure maps, each on its MAP_CHARTS charts; compose is
    # defined where source(g) = target(h)
    target: SmoothMap
    compose: SmoothMap
    unit: SmoothMap
    inverse: SmoothMap
    name: str = ""

    def __post_init__(self):
        p, a = self.base.dim, self.arrows.dim
        if self.arrows.split != (p, a - p):
            raise StructureError(f"arrow chart must split as ({p}, {a - p})")
        dims = {"base": p, "arrows": a, "pairs": 2 * a}
        for label, (dom, cod) in MAP_CHARTS.items():
            m = getattr(self, label)
            if m.dom.dim != dims[dom] or m.cod.dim != dims[cod]:
                raise StructureError(
                    f"{label} map is {m.dom.dim}->{m.cod.dim}, "
                    f"expected {dims[dom]}->{dims[cod]}")

    @property
    def arrow_dim(self) -> int:
        return self.arrows.dim

    @property
    def fiber_dim(self) -> int:
        return self.arrows.dim - self.base.dim

    # -- sampling -----------------------------------------------------

    def sample_objects(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.base.sample(rng, n)

    def sample_arrows(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.arrows.sample(rng, n)

    def _with_source(self, rng: np.random.Generator,
                     base_pts: np.ndarray) -> np.ndarray:
        """Arrows with the given source points, taken as given."""
        return self.arrows.sample(rng, base_pts.shape[1], head=base_pts)

    def _over(self, rng: np.random.Generator, src: np.ndarray) -> np.ndarray:
        """A tangent arrow whose tangent source is the tangent point ``src``."""
        arrow = _tangent(rng, self._with_source(rng, src[0]), order_of(src))
        arrow[:, :self.base.dim] = src
        return arrow

    def sample_composable(self, rng: np.random.Generator, n: int,
                          length: int = 2, order: int = 0) -> list[np.ndarray]:
        """A composable string of order-n tangent arrows, each of shape
        ``(2**order, arrow_dim, n)``, leftmost factor first."""
        chain = [_tangent(rng, self.sample_arrows(rng, n), order)]
        for _ in range(length - 1):
            chain.append(self._over(rng, self.target.body.on_blocks(
                chain[-1])))
        chain.reverse()
        return chain

    def compose_pair(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        return self.compose(np.concatenate([g, h], axis=0))


def fibered_groupoid(base: Domain, arrows: Domain, name: str = "",
                     **programs: Expr) -> FiberedGroupoid:
    """The groupoid on these charts whose structure maps run the
    programs ``target``, ``compose``, ``unit`` and ``inverse``, each on
    its ``MAP_CHARTS`` charts and named by its label."""
    charts = {"base": base, "arrows": arrows,
              "pairs": product_domain(arrows, arrows)}
    return FiberedGroupoid(base=base, arrows=arrows, name=name, **{
        label: SmoothMap(charts[dom], charts[cod], programs[label], name=label)
        for label, (dom, cod) in MAP_CHARTS.items()})


# -- the groupoid laws ------------------------------------------------

# Stacking runs k calls of n points as k * n towers a column.  Past
# this many, one run per call is faster (the stack's intermediates no
# longer stay in cache) and holds k times less memory.
_STACK_BELOW = 1500


def _stacks(towers: int) -> bool:
    """Whether calls that hold ``towers`` towers a column in all run as
    one evaluation on their stack, rather than one evaluation each."""
    return towers < _STACK_BELOW


def _each(f: SmoothMap, calls) -> list[np.ndarray]:
    """The tangent of ``f`` at each argument tuple of ``calls``.

    The arguments of a call are joined along the chart axis (axis 1 of
    a tangent point).  Below ``_STACK_BELOW`` towers in all (calls
    times batch points, :func:`_stacks`) the calls are joined along the
    batch, the last axis, and ``f`` runs once; each result is the view
    of its call's columns in the joined output.  Larger batches run
    ``f`` once per call.  A program runs column by column, so either
    way each result has the bits of its own evaluation.
    """
    def joined(args):
        return np.concatenate(args, axis=1) if len(args) > 1 else args[0]

    sizes = [call[0].shape[-1] for call in calls]
    if not _stacks(sum(sizes)):
        return [f.body.on_blocks(joined(call)) for call in calls]
    out = f.body.on_blocks(joined([np.concatenate(col, axis=-1)
                                   for col in zip(*calls)]))
    pieces, start = [], 0
    for size in sizes:
        pieces.append(out[..., start:start + size])
        start += size
    return pieces


@reduced
def check_groupoid_axioms(G: FiberedGroupoid, rng: np.random.Generator,
                          samples: int = 200, order: int = 0) -> Sides:
    """Residuals of the groupoid laws at sampled order-n tangent strings.

    Order 0 checks G; order n checks its iterated tangent groupoid,
    each structure map applied as its order-n tangent.  Every sample is
    drawn first; then each structure map runs once on all of its inputs
    that are known by then (``_each``): as one evaluation on their
    stack at small batch, and as one evaluation per input from
    ``_STACK_BELOW`` towers on.  Above order 0, arrows vertical over
    the source must stay vertical after composing; at order 0 every
    arrow is vertical, so that law is neither drawn nor reported.
    """
    p = G.base.dim
    x = _tangent(rng, G.sample_objects(rng, samples), order)
    g1, h1 = G.sample_composable(rng, samples, 2, order)
    a, b, c = G.sample_composable(rng, samples, 3, order)
    g, = G.sample_composable(rng, samples, 1, order)
    sg = g[:, :p]
    gi = G.inverse.body.on_blocks(g)
    targets = [(g1,), (g,), (gi,)]
    if order:  # h1 made vertical over its source
        h0 = np.array(h1)
        h0[1:, :p] = 0.0
        targets.append((h0,))
    tg1, tg, tgi, *th0 = _each(G.target, targets)
    ux, utg, usg = _each(G.unit, [(x,), (tg,), (sg,)])
    pairs = [(g1, h1), (a, b), (b, c), (utg, g), (g, usg), (gi, g), (g, gi)]
    if order:
        pairs.append((G._over(rng, th0[0]), h0))
    gh, ab, bc, unit_left, unit_right, inv_left, inv_right, *out = _each(
        G.compose, pairs)
    tux, tgh = _each(G.target, [(ux,), (gh,)])
    ab_c, a_bc = _each(G.compose, [(ab, c), (a, bc)])
    yield "unit_section", ux[:, :p], x
    yield "unit_section", tux, x
    yield "compose_source", gh[:, :p], h1[:, :p]
    yield "compose_target", tgh, tg1
    yield "associativity", ab_c, a_bc
    yield "unit_left", unit_left, g
    yield "unit_right", unit_right, g
    yield "inverse_exchange", gi[:, :p], tg
    yield "inverse_exchange", tgi, sg
    yield "inverse_left", inv_left, usg
    yield "inverse_right", inv_right, utg
    if order:
        yield "vertical_closure", out[0][1:, :p], 0.0


# -- the tangent groupoid ---------------------------------------------

def tangent_domain(dom: Domain, sizes) -> Domain:
    """The doubled chart, with velocity slots in [-2, 2]; constraints
    keep watching the value slots."""
    if sum(sizes) != dom.dim:
        raise ValueError("block sizes do not sum to the chart dimension")
    rows, slot_map, flat = [], [], 0
    for s in sizes:  # the block's values start at slot 2 * flat
        rows += [dom.box[flat:flat + s], np.tile([-2.0, 2.0], (s, 1))]
        slot_map += range(2 * flat, 2 * flat + s)
        flat += s
    lift = lambda c: reindex_inputs(c, slot_map, 2 * dom.dim)
    split = (2 * sizes[0], 2 * sizes[1]) if len(sizes) == 2 else None
    return Domain(2 * dom.dim, np.concatenate(rows),
                  tuple(lift(c) for c in dom.constraints),
                  name="T" + dom.name if dom.name else "",
                  split=split,
                  sample_constraints=tuple(lift(c)
                                           for c in dom.sample_constraints))


def tangent_groupoid(G: FiberedGroupoid) -> FiberedGroupoid:
    """Apply the tangent construction to every chart and structure map."""
    p, q = G.base.dim, G.fiber_dim
    # the chart blocks of each chart of MAP_CHARTS
    blocks = {"base": [p], "arrows": [p, q], "pairs": [p, q, p, q]}
    return fibered_groupoid(
        tangent_domain(G.base, blocks["base"]),
        tangent_domain(G.arrows, blocks["arrows"]),
        name="T" + (G.name or "G"),
        **{label: tangent_chart_map(getattr(G, label).body, blocks[dom],
                                    blocks[cod])
           for label, (dom, cod) in MAP_CHARTS.items()})


def t_flatten(pt: np.ndarray, sizes) -> np.ndarray:
    """Iterated doubled-chart coordinates of a tangent point.

    Chart block by chart block (of the given sizes), the coordinates are
    the tangent blocks in mask order.
    """
    parts = np.split(pt, np.cumsum(sizes)[:-1], axis=1)
    return np.concatenate([part.reshape((-1,) + pt.shape[2:]) for part in parts])


# -- differentiability ------------------------------------------------

def _tcompose(G: FiberedGroupoid, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    return G.compose.body.on_blocks(np.concatenate([g, h], axis=1))


@reduced
def check_chart_functoriality(G: FiberedGroupoid, rng,
                              samples: int = 100) -> Sides:
    """Each structure map of T^n G (:func:`tangent_groupoid` applied n
    times, n = 1 and 2) against the order-n tower evaluation of the same
    map of G; closing this square is what makes the tangent groupoid an
    object of the same kind rather than a formal symbol.

    The maps read the doubled-chart coordinates (:func:`t_flatten`) of
    an order-n composable pair g, h and of the tangent target x of h:
    compose reads (g, h), unit x, target h and inverse g.  Over a point
    base the target maps into R^0, and its check compares empty arrays.
    """
    # a base point is an arrow chart point with an empty fiber block
    flat = lambda pt: t_flatten(pt, [G.base.dim, G.fiber_dim])
    T = G
    for order in (1, 2):
        T = tangent_groupoid(T)
        g, h = G.sample_composable(rng, samples, 2, order)
        x = G.target.body.on_blocks(h)
        for suffix, label, args in (("", "compose", (g, h)),
                                    ("_unit", "unit", (x,)),
                                    ("_target", "target", (h,)),
                                    ("_inverse", "inverse", (g,))):
            tower = getattr(G, label).body.on_blocks(
                np.concatenate(args, axis=1))
            chart = getattr(T, label)(np.concatenate([flat(a) for a in args]))
            yield f"chart_route/order{order}{suffix}", chart, flat(tower)


def check_differentiability(G: FiberedGroupoid, rng,
                            samples: int = 100) -> dict[str, float]:
    """The groupoid laws at orders 1 and 2, plus the chart-route
    comparisons."""
    return {**{f"order{n}/{k}": v for n in (1, 2)
               for k, v in check_groupoid_axioms(G, rng, samples, n).items()},
            **check_chart_functoriality(G, rng, samples)}


# -- builders ---------------------------------------------------------

def pair_groupoid(space: Domain, name: str = "") -> FiberedGroupoid:
    """Arrows are ordered pairs (source, target) of chart points."""
    p = space.dim
    return fibered_groupoid(
        space, product_domain(space, space, name=f"pairs({space.name})"),
        target=build(2 * p, lambda xs: xs[p:]),
        compose=build(4 * p, lambda xs: xs[2 * p:3 * p] + xs[p:2 * p]),
        unit=build(p, lambda xs: xs + xs),
        inverse=build(2 * p, lambda xs: xs[p:] + xs[:p]),
        name=name or f"pair({space.name})")


def _minor_det(xs, n: int, rows, cols):
    if not rows:  # the empty minor, the cofactor of a 1 x 1 matrix
        return 1.0
    if len(rows) == 1:
        return xs[rows[0] * n + cols[0]]
    total = None
    for j, cj in enumerate(cols):
        sub = _minor_det(xs, n, rows[1:], cols[:j] + cols[j + 1:])
        term = xs[rows[0] * n + cj] * sub
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def _det_handle(xs, n: int):
    return _minor_det(xs, n, list(range(n)), list(range(n)))


def matrix_group(n: int) -> FiberedGroupoid:
    """The invertible n x n matrices as a groupoid over a point.

    Entries lie in [-1.2, 1.2].  The chart keeps det^2 above 1e-6;
    sampling additionally keeps |det| >= 0.25 so inverses stay
    well-conditioned.
    """
    if n < 1 or n > 3:
        raise ValueError("matrix groups are built for n in 1..3")
    nn = n * n
    base = Domain(0, np.zeros((0, 2)), name="pt")
    chart_con = build(nn, lambda xs: [_det_handle(xs, n) ** 2 - 1e-6])
    samp_con = build(nn, lambda xs: [_det_handle(xs, n) ** 2 - 0.25 ** 2])
    arrows = Domain(nn, np.tile([-1.2, 1.2], (nn, 1)),
                    (chart_con,), name=f"gl{n}", split=(0, nn),
                    sample_constraints=(samp_con,))

    def matmul(xs):
        g, h = xs[:nn], xs[nn:]
        out = []
        for i in range(n):
            for j in range(n):
                s = None
                for k in range(n):
                    term = g[i * n + k] * h[k * n + j]
                    s = term if s is None else s + term
                out.append(s)
        return out

    def inv(xs):
        det = _det_handle(xs, n)
        out = []
        for i in range(n):
            for j in range(n):
                rows = [r for r in range(n) if r != j]
                cols = [c for c in range(n) if c != i]
                cof = _minor_det(xs, n, rows, cols)
                if (i + j) % 2:
                    cof = -cof
                out.append(cof / det)
        return out

    eye = np.eye(n).reshape(-1)
    return fibered_groupoid(
        base, arrows, target=build(nn, lambda xs: []),
        compose=build(2 * nn, matmul), unit=build(0, lambda xs: list(eye)),
        inverse=build(nn, inv), name=f"gl{n}")


def linear_action(n: int) -> Expr:
    """Matrix-vector multiplication as a program (g, m) -> g m: the
    ``n * n`` entries of g, row by row, then the ``n`` of m."""
    nn = n * n

    def act(xs):
        g, m = xs[:nn], xs[nn:]
        out = []
        for i in range(n):
            s = None
            for j in range(n):
                term = g[i * n + j] * m[j]
                s = term if s is None else s + term
            out.append(s)
        return out

    return build(nn + n, act)


def action_groupoid(group: FiberedGroupoid, action: Expr, space: Domain,
                    name: str = "") -> FiberedGroupoid:
    """The groupoid of a right-to-left action: an arrow (m, g) runs from
    m to the moved point a(g, m), where the program ``action`` takes the
    group's arrow, then the point of ``space``."""
    if group.base.dim != 0:
        raise StructureError("acting groupoid must be a group (point base)")
    ng = group.fiber_dim
    p = space.dim
    if action.n_inputs != ng + p or action.n_outputs != p:
        raise StructureError(f"action map must be ({ng}+{p})->{p}")

    m = space.sample(np.random.default_rng(0), 64)
    e = group.unit(np.zeros((0, 64)))
    acted = action(np.concatenate([e, m]))
    defect = residual(acted, m)
    if defect > ROUNDOFF_TOL:
        raise StructureError(f"unit does not act as the identity "
                             f"(residual {defect:.3e})")

    arrows = product_domain(space, group.arrows,
                            name=f"{space.name}x{group.name}")

    def program(n: int, outs) -> Expr:
        """The program whose outputs ``outs(builder, inputs)`` gives."""
        b = ExprBuilder(n)
        return b.finish(outs(b, b.inputs()))

    def moved(b, hs):  # the point a(g, m) of the arrow (m, g)
        return b.splice(action, hs[p:] + hs[:p])

    def comp(b, hs):  # (m1, g1) after (m2, g2) is (m2, g1 g2)
        g1, m2, g2 = hs[p:p + ng], hs[p + ng:2 * p + ng], hs[2 * p + ng:]
        return m2 + b.splice(group.compose.body, g1 + g2)

    return fibered_groupoid(
        space, arrows, target=program(p + ng, moved),
        compose=program(2 * (p + ng), comp),
        unit=program(p, lambda b, hs: hs + b.splice(group.unit.body, [])),
        inverse=program(p + ng, lambda b, hs: moved(b, hs) + b.splice(
            group.inverse.body, hs[p:])),
        name=name or f"{group.name}:{space.name}")


# -- serialization and builtins ---------------------------------------

def groupoid_to_json_dict(G: FiberedGroupoid) -> dict:
    """The two charts, and each structure map as its program alone."""
    return {"name": G.name,
            "base": G.base.to_json_dict(),
            "arrows": G.arrows.to_json_dict(),
            **{label: getattr(G, label).body.to_json_dict()
               for label in MAP_CHARTS}}


def _program(data: dict, label: str) -> Expr:
    """The program of the map ``label`` in a spec; an error names the
    map."""
    charts = isinstance(data, dict) and {"dom", "cod", "body"} & data.keys()
    if charts:
        raise ValueError(f"{label} map has keys {sorted(charts)}: a spec "
                         f"gives each map as its program alone, and its "
                         f"charts follow from base and arrows")
    try:
        return Expr.from_json_dict(data)
    except ValueError as err:
        raise ValueError(f"{label} map: {err}") from None


def groupoid_from_json_dict(data: dict) -> FiberedGroupoid:
    try:
        return fibered_groupoid(
            Domain.from_json_dict(data["base"]),
            Domain.from_json_dict(data["arrows"]),
            name=str(data.get("name", "")),
            **{label: _program(data[label], label) for label in MAP_CHARTS})
    except KeyError as exc:
        raise ValueError(f"groupoid spec is missing {exc}") from None


def _builtin_action_gl2() -> FiberedGroupoid:
    plane = box_domain(2, name="plane")
    return action_groupoid(matrix_group(2), linear_action(2), plane)


BUILTIN_GROUPOIDS = {
    "pair": lambda: pair_groupoid(box_domain(2, name="square")),
    "matrix2": lambda: matrix_group(2),
    "matrix3": lambda: matrix_group(3),
    "action_gl2": _builtin_action_gl2,
}
