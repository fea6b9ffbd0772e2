"""Groupoid objects presented in fibered charts.

Arrows live in one chart of the form (base block, fiber block); the
source map is literally the base projection, the target is a smooth
map, and composition, units and inverses are smooth maps between the
evident charts.  Multiplication m(g, h) means "g after h" and is
defined when source(g) = target(h).

Because all structure maps are expression-backed they can be pushed
through the tangent construction: :func:`tangent_groupoid` doubles the
charts and lifts every map, and the order-n checks evaluate the same
maps on nilpotent towers, so the two routes can be played against each
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domain import (MAX_ROUNDS, Domain, SmoothMap, box_domain, draw_bounds,
                     product_domain)
from .errors import SamplerError, StructureError
from .expr import (Expr, ExprBuilder, build, reindex_inputs,
                   tangent_chart_map)
from .report import uniform, uniform_width
from .tanpoint import apply_tangent, residual


@dataclass(frozen=True)
class FiberedGroupoid:
    base: Domain
    arrows: Domain           # dim = base.dim + fiber_dim, split recorded
    target: SmoothMap        # arrows -> base
    compose: SmoothMap       # (arrows, arrows) -> arrows, on source(g) = target(h)
    unit: SmoothMap          # base -> arrows
    inverse: SmoothMap       # arrows -> arrows
    name: str = ""

    def __post_init__(self):
        p, a = self.base.dim, self.arrows.dim
        if self.arrows.split != (p, a - p):
            raise StructureError(f"arrow chart must split as ({p}, {a - p})")
        shapes = {"target": (self.target, a, p),
                  "compose": (self.compose, 2 * a, a),
                  "unit": (self.unit, p, a),
                  "inverse": (self.inverse, a, a)}
        for label, (m, n_in, n_out) in shapes.items():
            if m.dom.dim != n_in or m.cod.dim != n_out:
                raise StructureError(
                    f"{label} map is {m.dom.dim}->{m.cod.dim}, "
                    f"expected {n_in}->{n_out}")

    @property
    def arrow_dim(self) -> int:
        return self.arrows.dim

    @property
    def fiber_dim(self) -> int:
        return self.arrows.dim - self.base.dim

    @cached_property
    def source(self) -> SmoothMap:
        b = ExprBuilder(self.arrow_dim)
        body = b.finish(b.inputs()[: self.base.dim])
        return SmoothMap(self.arrows, self.base, body, name="source")

    # -- sampling -----------------------------------------------------

    @cached_property
    def _fiber_bounds(self) -> tuple:
        return draw_bounds(self.arrows.box[self.base.dim:])

    def sample_objects(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.base.sample(rng, n)

    def sample_arrows(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.arrows.sample(rng, n)

    def _with_source(self, rng: np.random.Generator,
                     base_pts: np.ndarray) -> np.ndarray:
        """Arrows with the given source points; only the constraint
        expressions are enforced (the bases are taken as given)."""
        p, q = self.base.dim, self.fiber_dim
        n = base_pts.shape[1]
        out = np.empty((p + q, n))
        out[:p] = base_pts
        need = np.ones(n, dtype=bool)
        for _ in range(MAX_ROUNDS):
            idx = np.flatnonzero(need)
            if not idx.size:
                return out
            draw = uniform_width(rng, *self._fiber_bounds, size=(q, idx.size))
            cand = np.concatenate([base_pts[:, idx], draw], axis=0)
            ok = self.arrows.admits(cand)
            hit = idx[ok]
            out[p:, hit] = draw[:, ok]
            need[hit] = False
        raise SamplerError(f"groupoid {self.name or '?'}: could not extend "
                           f"{int(need.sum())} sources to arrows")

    def sample_composable(self, rng: np.random.Generator, n: int,
                          length: int = 2) -> list[np.ndarray]:
        """A composable string, leftmost factor first."""
        chain = [self.sample_arrows(rng, n)]
        for _ in range(length - 1):
            chain.append(self._with_source(rng, self.target(chain[-1])))
        chain.reverse()
        return chain

    def compose_pair(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        return self.compose(np.concatenate([g, h], axis=0))


# -- pointwise axiom checks -------------------------------------------

def check_groupoid_axioms(G: FiberedGroupoid, rng: np.random.Generator,
                          samples: int = 200) -> dict[str, float]:
    """Residuals of the groupoid laws at sampled strings."""
    p = G.base.dim
    res: dict[str, float] = {}
    x = G.sample_objects(rng, samples)
    ux = G.unit(x)
    res["unit_section"] = max(residual(ux[:p], x), residual(G.target(ux), x))
    g1, h1 = G.sample_composable(rng, samples, 2)
    gh = G.compose_pair(g1, h1)
    res["compose_source"] = residual(gh[:p], h1[:p])
    res["compose_target"] = residual(G.target(gh), G.target(g1))
    a, b, c = G.sample_composable(rng, samples, 3)
    res["associativity"] = residual(
        G.compose_pair(G.compose_pair(a, b), c),
        G.compose_pair(a, G.compose_pair(b, c)))
    g = G.sample_arrows(rng, samples)
    res["unit_left"] = residual(G.compose_pair(G.unit(G.target(g)), g), g)
    res["unit_right"] = residual(G.compose_pair(g, G.unit(g[:p])), g)
    gi = G.inverse(g)
    res["inverse_exchange"] = max(residual(gi[:p], G.target(g)),
                                  residual(G.target(gi), g[:p]))
    res["inverse_left"] = residual(G.compose_pair(gi, g), G.unit(g[:p]))
    res["inverse_right"] = residual(G.compose_pair(g, gi),
                                    G.unit(G.target(g)))
    return res


# -- the tangent groupoid ---------------------------------------------

def tangent_domain(dom: Domain, sizes, name: str = "") -> Domain:
    """The doubled chart, with velocity slots in [-2, 2]; constraints
    keep watching the value slots."""
    if sum(sizes) != dom.dim:
        raise ValueError("block sizes do not sum to the chart dimension")
    rows = []
    slot_map = [0] * dom.dim
    flat, pos = 0, 0
    for s in sizes:
        rows.append(dom.box[flat:flat + s])
        rows.append(np.tile([-2.0, 2.0], (s, 1)))
        for l in range(s):
            slot_map[flat + l] = pos + l
        flat += s
        pos += 2 * s
    lift = lambda c: reindex_inputs(c, slot_map, 2 * dom.dim)
    split = (2 * sizes[0], 2 * sizes[1]) if len(sizes) == 2 else None
    return Domain(2 * dom.dim,
                  np.concatenate(rows) if rows else np.zeros((0, 2)),
                  tuple(lift(c) for c in dom.constraints),
                  name=name or ("T" + dom.name if dom.name else ""),
                  split=split,
                  sample_constraints=tuple(lift(c)
                                           for c in dom.sample_constraints))


def tangent_groupoid(G: FiberedGroupoid) -> FiberedGroupoid:
    """Apply the tangent construction to every chart and structure map."""
    p, q = G.base.dim, G.fiber_dim
    base_t = tangent_domain(G.base, [p])
    arrows_t = tangent_domain(G.arrows, [p, q])
    lift = tangent_chart_map
    return FiberedGroupoid(
        base=base_t,
        arrows=arrows_t,
        target=SmoothMap(arrows_t, base_t, lift(G.target.body, [p, q], [p]),
                         name="T" + (G.target.name or "target")),
        compose=SmoothMap(product_domain(arrows_t, arrows_t), arrows_t,
                          lift(G.compose.body, [p, q, p, q], [p, q]),
                          name="T" + (G.compose.name or "compose")),
        unit=SmoothMap(base_t, arrows_t, lift(G.unit.body, [p], [p, q]),
                       name="T" + (G.unit.name or "unit")),
        inverse=SmoothMap(arrows_t, arrows_t, lift(G.inverse.body, [p, q], [p, q]),
                          name="T" + (G.inverse.name or "inverse")),
        name="T" + (G.name or "G"))


def t_flatten(pt: np.ndarray, sizes) -> np.ndarray:
    """Iterated doubled-chart coordinates of a tangent point.

    Chart block by chart block (of the given sizes), the coordinates are
    the tangent blocks in mask order.
    """
    parts = np.split(pt, np.cumsum(sizes)[:-1], axis=1)
    return np.concatenate([part.reshape((-1,) + pt.shape[2:]) for part in parts])


# -- order-n functor checks -------------------------------------------

def _tangent_arrows(G: FiberedGroupoid, rng, order: int, n: int) -> np.ndarray:
    vals = G.sample_arrows(rng, n)
    blocks = uniform(rng, -1.0, 1.0, (1 << order, G.arrow_dim, n))
    blocks[0] = vals
    return blocks


def _force_source(G: FiberedGroupoid, rng, tgt: np.ndarray) -> np.ndarray:
    """A random tangent arrow whose tangent source is the given point."""
    p = G.base.dim
    vals = G._with_source(rng, tgt[0])
    blocks = uniform(rng, -1.0, 1.0, (len(tgt), G.arrow_dim, tgt.shape[2]))
    blocks[0] = vals
    blocks[:, :p] = tgt
    return blocks


def _tangent_string(G: FiberedGroupoid, rng, order: int, n: int,
                    length: int) -> list[np.ndarray]:
    chain = [_tangent_arrows(G, rng, order, n)]
    for _ in range(length - 1):
        tgt = apply_tangent(G.target, chain[-1], check_domain=False)
        chain.append(_force_source(G, rng, tgt))
    chain.reverse()
    return chain


def _tcompose(G: FiberedGroupoid, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    return apply_tangent(G.compose, np.concatenate([g, h], axis=1),
                         check_domain=False)


def check_tangent_functor(G: FiberedGroupoid, rng, order: int,
                          samples: int = 100) -> dict[str, float]:
    """The groupoid laws after applying the order-n tangent functor."""
    p = G.base.dim
    tm = lambda f, pt: apply_tangent(f, pt, check_domain=False)
    res: dict[str, float] = {}

    a, b, c = _tangent_string(G, rng, order, samples, 3)
    res["associativity"] = residual(_tcompose(G, _tcompose(G, a, b), c),
                                    _tcompose(G, a, _tcompose(G, b, c)))

    g = _tangent_arrows(G, rng, order, samples)
    tg = tm(G.target, g)
    sg = g[:, :p]
    res["unit_left"] = residual(_tcompose(G, tm(G.unit, tg), g), g)
    res["unit_right"] = residual(_tcompose(G, g, tm(G.unit, sg)), g)

    gi = tm(G.inverse, g)
    res["inverse_laws"] = max(
        residual(_tcompose(G, gi, g), tm(G.unit, sg)),
        residual(_tcompose(G, g, gi), tm(G.unit, tg)))

    g2, h2 = _tangent_string(G, rng, order, samples, 2)
    gh = _tcompose(G, g2, h2)
    res["source_target"] = max(
        residual(gh[:, :p], h2[:, :p]),
        residual(tm(G.target, gh), tm(G.target, g2)))

    # arrows vertical over the source stay vertical after composing
    h0 = np.array(h2)
    h0[1:, :p] = 0.0
    g0 = _force_source(G, rng, tm(G.target, h0))
    out = _tcompose(G, g0, h0)
    res["vertical_closure"] = residual(out[1:, :p], np.zeros_like(out[1:, :p]))
    return res


def check_chart_functoriality(G: FiberedGroupoid, rng,
                              samples: int = 100) -> dict[str, float]:
    """Doubled-chart structure maps versus tower evaluation of the same
    maps; closing this square is what makes the tangent groupoid an
    object of the same kind rather than a formal symbol.

    The compose and unit maps are lifted level by level as
    :func:`tangent_groupoid` lifts them; the other maps and the charts
    of the tangent groupoids are not compared, so they are not built.
    """
    p, q = G.base.dim, G.fiber_dim
    sizes = [p, q]
    res: dict[str, float] = {}
    compose, unit = G.compose.body, G.unit.body
    for order in (1, 2):
        k = 1 << (order - 1)    # the level below has blocks k * p, k * q
        compose = tangent_chart_map(compose, [k * p, k * q] * 2,
                                    [k * p, k * q])
        unit = tangent_chart_map(unit, [k * p], [k * p, k * q])
        g, h = _tangent_string(G, rng, order, samples, 2)
        tower = _tcompose(G, g, h)
        chart = compose(np.concatenate([t_flatten(g, sizes),
                                        t_flatten(h, sizes)]))
        key = "chart_route/order%d" % order
        res[key] = residual(chart, t_flatten(tower, sizes))
        x = apply_tangent(G.target, h, check_domain=False)
        chart_u = unit(t_flatten(x, [p]))
        tower_u = apply_tangent(G.unit, x, check_domain=False)
        res[key + "_unit"] = residual(chart_u, t_flatten(tower_u, sizes))
    return res


def check_differentiability(G: FiberedGroupoid, rng,
                            samples: int = 100,
                            orders=(1, 2)) -> dict[str, float]:
    """All order-n functor checks plus the chart-route comparisons."""
    res: dict[str, float] = {}
    for n in orders:
        for k, v in check_tangent_functor(G, rng, n, samples).items():
            res[f"order{n}/{k}"] = v
    res.update(check_chart_functoriality(G, rng, samples))
    return res


# -- builders ---------------------------------------------------------

def _slots(n: int, idx) -> Expr:
    b = ExprBuilder(n)
    xs = b.inputs()
    return b.finish([xs[i] for i in idx])


def pair_groupoid(space: Domain, name: str = "") -> FiberedGroupoid:
    """Arrows are ordered pairs (source, target) of chart points."""
    p = space.dim
    arrows = product_domain(space, space, name=f"pairs({space.name})")
    idx = list(range(4 * p))
    return FiberedGroupoid(
        base=space,
        arrows=arrows,
        target=SmoothMap(arrows, space, _slots(2 * p, range(p, 2 * p)),
                         name="target"),
        compose=SmoothMap(product_domain(arrows, arrows), arrows,
                          _slots(4 * p, idx[2 * p:3 * p] + idx[p:2 * p]),
                          name="compose"),
        unit=SmoothMap(space, arrows, _slots(p, list(range(p)) * 2),
                       name="unit"),
        inverse=SmoothMap(arrows, arrows,
                          _slots(2 * p, idx[p:2 * p] + idx[:p]),
                          name="inverse"),
        name=name or f"pair({space.name})")


def _minor_det(xs, n: int, rows, cols):
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
                if n == 1:
                    out.append(1.0 / xs[0])
                    continue
                rows = [r for r in range(n) if r != j]
                cols = [c for c in range(n) if c != i]
                cof = _minor_det(xs, n, rows, cols)
                if (i + j) % 2:
                    cof = -cof
                out.append(cof / det)
        return out

    eye = np.eye(n).reshape(-1)
    return FiberedGroupoid(
        base=base,
        arrows=arrows,
        target=SmoothMap(arrows, base, build(nn, lambda xs: []),
                         name="target"),
        compose=SmoothMap(product_domain(arrows, arrows), arrows,
                          build(2 * nn, matmul), name="matmul"),
        unit=SmoothMap(base, arrows, build(0, lambda xs: list(eye)),
                       name="unit"),
        inverse=SmoothMap(arrows, arrows, build(nn, inv), name="inverse"),
        name=f"gl{n}")


def linear_action(n: int, space: Domain | None = None) -> SmoothMap:
    """Matrix-vector multiplication as a smooth action map (g, m) -> g m."""
    space = space or box_domain(n, name=f"r{n}")
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

    dom = product_domain(box_domain(nn, -9, 9, name=f"gl{n}chart"), space)
    return SmoothMap(dom, space, build(nn + n, act), name=f"gl{n}_on_{space.name}")


def action_groupoid(group: FiberedGroupoid, action: SmoothMap, space: Domain,
                    rng: np.random.Generator | None = None,
                    name: str = "") -> FiberedGroupoid:
    """The groupoid of a right-to-left action: an arrow (m, g) runs from
    m to the moved point a(g, m)."""
    if group.base.dim != 0:
        raise StructureError("acting groupoid must be a group (point base)")
    ng = group.fiber_dim
    p = space.dim
    if action.dom.dim != ng + p or action.cod.dim != p:
        raise StructureError(f"action map must be ({ng}+{p})->{p}")

    rng = rng or np.random.default_rng(0)
    m = space.sample(rng, 64)
    e = group.unit(np.zeros((0, 64)))
    acted = action(np.concatenate([e, m]))
    defect = residual(acted, m)
    if defect > 1e-9:
        raise StructureError(f"unit does not act as the identity "
                             f"(residual {defect:.3e})")

    arrows = product_domain(space, group.arrows,
                            name=f"{space.name}x{group.name}")

    def tgt():
        b = ExprBuilder(p + ng)
        hs = b.inputs()
        return b.finish(b.splice(action.body, hs[p:] + hs[:p]))

    def comp():
        b = ExprBuilder(2 * (p + ng))
        hs = b.inputs()
        g1 = hs[p:p + ng]
        m2 = hs[p + ng:2 * p + ng]
        g2 = hs[2 * p + ng:]
        gg = b.splice(group.compose.body, g1 + g2)
        return b.finish(m2 + gg)

    def unit():
        b = ExprBuilder(p)
        hs = b.inputs()
        return b.finish(hs + b.splice(group.unit.body, []))

    def inv():
        b = ExprBuilder(p + ng)
        hs = b.inputs()
        moved = b.splice(action.body, hs[p:] + hs[:p])
        return b.finish(moved + b.splice(group.inverse.body, hs[p:]))

    return FiberedGroupoid(
        base=space,
        arrows=arrows,
        target=SmoothMap(arrows, space, tgt(), name="act"),
        compose=SmoothMap(product_domain(arrows, arrows), arrows, comp(),
                          name="compose"),
        unit=SmoothMap(space, arrows, unit(), name="unit"),
        inverse=SmoothMap(arrows, arrows, inv(), name="inverse"),
        name=name or f"{group.name}:{space.name}")


# -- serialization and builtins ---------------------------------------

def groupoid_to_json_dict(G: FiberedGroupoid) -> dict:
    return {"name": G.name,
            "base": G.base.to_json_dict(),
            "arrows": G.arrows.to_json_dict(),
            "target": G.target.to_json_dict(),
            "compose": G.compose.to_json_dict(),
            "unit": G.unit.to_json_dict(),
            "inverse": G.inverse.to_json_dict()}


def groupoid_from_json_dict(data: dict) -> FiberedGroupoid:
    try:
        return FiberedGroupoid(
            base=Domain.from_json_dict(data["base"]),
            arrows=Domain.from_json_dict(data["arrows"]),
            target=SmoothMap.from_json_dict(data["target"]),
            compose=SmoothMap.from_json_dict(data["compose"]),
            unit=SmoothMap.from_json_dict(data["unit"]),
            inverse=SmoothMap.from_json_dict(data["inverse"]),
            name=str(data.get("name", "")))
    except KeyError as exc:
        raise ValueError(f"groupoid spec is missing {exc}") from None


def _builtin_action_gl2() -> FiberedGroupoid:
    plane = box_domain(2, name="plane")
    return action_groupoid(matrix_group(2), linear_action(2, plane), plane)


BUILTIN_GROUPOIDS = {
    "pair": lambda: pair_groupoid(box_domain(2, name="square")),
    "matrix2": lambda: matrix_group(2),
    "matrix3": lambda: matrix_group(3),
    "action_gl2": _builtin_action_gl2,
}
