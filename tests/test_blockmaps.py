"""Fields, sections and scalar functions as block maps, bit for bit.

Each construction is compared with the route it replaced: the
coordinates as a list of ``Tower``s, the structure maps run by
``Expr.evaluate``, a top generator adjoined by ``join_top`` and split
off as the top half of the coefficients, and a zero-dimensional base or
chart handled by an explicit ``like`` tower or an empty fiber.  The two
routes run the same kernels in the same order, so their coefficients
must agree in every bit (``tobytes`` equality), at tower orders 0-3 and
batch shapes (), (7,) and (3, 5).
"""

import numpy as np
import pytest

from tancat.algebroid import (algebroid_of, anchor_field, extend_to_invariant,
                              restrict_to_unit)
from tancat.domain import box_domain
from tancat.expr import build
from tancat.fields import (ScalarField, VectorField, act_on_function,
                           field_scale, lie_bracket)
from tancat.groupoid import BUILTIN_GROUPOIDS
from tancat.randexpr import random_expr
from tancat.tower import Tower, join_top, tower_mul
from test_cli import _trivial_group, _units_of_interval

BATCHES = ((), (7,), (3, 5))

# the built-ins, the trivial group (base, arrows and fiber all empty)
# and the unit groupoid of an interval (rank 0 over a 1-dimensional base)
GROUPOIDS = dict(BUILTIN_GROUPOIDS, trivial=_trivial_group,
                 units=_units_of_interval)


# -- the tower route --------------------------------------------------

def _towers(blocks):
    order = len(blocks).bit_length() - 1
    return [Tower(order, blocks[:, i]) for i in range(blocks.shape[1])]


def _stacked(towers, blocks):
    out = np.empty((len(blocks), len(towers)) + blocks.shape[2:])
    for j, t in enumerate(towers):
        out[:, j] = t.coeffs
    return out


def _like(blocks):
    return Tower(len(blocks).bit_length() - 1, np.zeros(
        (len(blocks),) + blocks.shape[2:]))


def _zero_top(t):
    """A tower with a fresh outermost generator and a zero top half."""
    return join_top(t, Tower.constant(np.zeros(t.coeffs.shape[1:]), t.order))


def _top(t):
    """The coefficient of the outermost generator, one order down: the
    top half of the coefficients."""
    return Tower(t.order - 1, t.coeffs[len(t.coeffs) // 2:])


def t_fiber(fn, dim, xs):
    """A field's fiber towers; a zero-dimensional chart has none."""
    return fn(xs) if dim else []


def t_bracket(v, w, dim):
    def fn(xs):
        vhat, what = t_fiber(v, dim, xs), t_fiber(w, dim, xs)
        a = t_fiber(w, dim, [join_top(x, c) for x, c in zip(xs, vhat)])
        b = t_fiber(v, dim, [join_top(x, c) for x, c in zip(xs, what)])
        return [Tower(s.order - 1, _top(s).coeffs - _top(t).coeffs)
                for s, t in zip(a, b)]
    return fn


def t_act(v, f, dim):
    def fn(xs):
        vhat = t_fiber(v, dim, xs)
        return _top(f([join_top(x, c) for x, c in zip(xs, vhat)]))
    return fn


def t_scale(f, v, dim):
    def fn(xs):
        c = f(xs)
        return [tower_mul(c, t) for t in t_fiber(v, dim, xs)]
    return fn


def t_section(body):
    return lambda xs, like: body.evaluate(xs, order=like.order,
                                          batch_shape=like.coeffs.shape[1:])


def t_extend(G, a):
    p, q = G.base.dim, G.fiber_dim

    def fn(gs):
        like = gs[0]
        tg = G.target.body.evaluate(gs)
        u = G.unit.body.evaluate(tg, order=like.order,
                                 batch_shape=like.coeffs.shape[1:])
        av = a(tg, like)
        lift_u = [_zero_top(t) for t in u]
        for i in range(q):
            lift_u[p + i] = join_top(u[p + i], av[i])
        out = G.compose.body.evaluate(lift_u + [_zero_top(t) for t in gs])
        return [_top(t) for t in out]
    return fn


def t_restrict(G, v):
    p = G.base.dim

    def fn(xs, like):
        u = G.unit.body.evaluate(xs, order=like.order,
                                 batch_shape=like.coeffs.shape[1:])
        return t_fiber(v, G.arrow_dim, u)[p:]
    return fn


def t_anchor(G, a):
    p, q = G.base.dim, G.fiber_dim

    def fn(xs):
        ux = G.unit.body.evaluate(xs)
        av = a(xs, xs[0])
        lift = [_zero_top(t) for t in ux]
        for i in range(q):
            lift[p + i] = join_top(ux[p + i], av[i])
        return [_top(t) for t in G.target.body.evaluate(lift)]
    return fn


# -- inputs -----------------------------------------------------------

def _blocks(rng, values, order, batch):
    """Order-n blocks over the given order-0 values, shape (dim, N)."""
    d = values.shape[0]
    out = rng.uniform(-1.0, 1.0, size=(1 << order, d) + batch)
    out[0] = values.reshape((d,) + batch)
    return out


def _same(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# -- fields -----------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3])
def test_field_constructions_match_the_tower_route(d):
    rng = np.random.default_rng(100 + d)
    dom = box_domain(d, -1.5, 1.5)
    bodies = [random_expr(rng, d, d, depth=4) for _ in range(3)]
    u, v, w = (VectorField.from_expr(dom, e) for e in bodies)
    tu, tv, tw = (lambda xs, e=e: e.evaluate(xs) for e in bodies)
    f_body = random_expr(rng, d, 1, depth=3)
    f = ScalarField.from_expr(dom, f_body)
    tf = lambda xs: f_body.evaluate(xs)[0]
    depth1 = [(lie_bracket(v, w), t_bracket(tv, tw, d)),
              (field_scale(f, v), t_scale(tf, tv, d)),
              (field_scale(-1.25, v),
               lambda xs: [Tower(t.order, t.coeffs * -1.25) for t in tv(xs)])]
    depth2 = [(lie_bracket(u, lie_bracket(v, w)),
               t_bracket(tu, t_bracket(tv, tw, d), d))]
    for order in range(4):
        for batch in BATCHES:
            n = int(np.prod(batch))
            x = _blocks(rng, rng.uniform(-1.0, 1.0, size=(d, n)), order, batch)
            xs = _towers(x)
            for new, old in depth1 + (depth2 if order <= 2 else []):
                _same(new.fn(x), _stacked(old(xs), x))
            _same(act_on_function(v, f).fn(x),
                  _stacked([t_act(tv, tf, d)(xs)], x))
            _same(f.fn(x), _stacked([tf(xs)], x))
            # the tower adapter is fn on the towers laid side by side
            _same(_stacked(v.fiber(xs), x), v.fn(x))


# -- the algebroid layer ----------------------------------------------

def _section_body(rng, p, q):
    if p:
        return random_expr(rng, p, q, depth=3)
    vec = rng.uniform(-1.0, 1.0, size=q)
    return build(0, lambda xs: list(vec))


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_algebroid_constructions_match_the_tower_route(name):
    G = GROUPOIDS[name]()
    al = algebroid_of(G)
    p, q, d = G.base.dim, G.fiber_dim, G.arrow_dim
    rng = np.random.default_rng(7)
    bodies = [_section_body(rng, p, q) for _ in range(2)]
    a, b = (al.section(e) for e in bodies)
    ta, tb = (t_section(e) for e in bodies)
    ext_a, ext_b = extend_to_invariant(al, a), extend_to_invariant(al, b)
    t_ext_a, t_ext_b = t_extend(G, ta), t_extend(G, tb)
    bracket = restrict_to_unit(al, lie_bracket(ext_a, ext_b), check=False)
    t_br = t_restrict(G, t_bracket(t_ext_a, t_ext_b, d))
    for order in range(4):
        for batch in BATCHES:
            n = int(np.prod(batch))
            g = _blocks(rng, G.sample_arrows(rng, n), order, batch)
            x = _blocks(rng, al.base.sample(rng, n), order, batch)
            gs, xs, like = _towers(g), _towers(x), _like(x)
            _same(ext_a.fn(g), _stacked(t_fiber(t_ext_a, d, gs), g))
            _same(restrict_to_unit(al, ext_a, check=False).fn(x),
                  _stacked(t_restrict(G, t_ext_a)(xs, like), x))
            _same(anchor_field(al, a).fn(x),
                  _stacked(t_fiber(t_anchor(G, ta), p, xs), x))
            if order <= 2:
                _same(bracket.fn(x), _stacked(t_br(xs, like), x))
