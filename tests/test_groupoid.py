"""Groupoid builders, their axioms, tangent groupoids, and sabotage."""

import dataclasses
import json

import numpy as np
import pytest

import tancat.groupoid as groupoid
from tancat.domain import (CANDIDATES, Domain, SmoothMap, box_domain,
                           product_domain)
from tancat.errors import DomainError, SamplerError, StructureError
from tancat.expr import Expr, ExprBuilder, build, log, reindex_inputs
from tancat.groupoid import (_STACK_BELOW, BUILTIN_GROUPOIDS, FiberedGroupoid,
                             _each, _tcompose, action_groupoid,
                             check_chart_functoriality,
                             check_differentiability,
                             check_groupoid_axioms,
                             groupoid_from_json_dict,
                             groupoid_to_json_dict, linear_action,
                             matrix_group, pair_groupoid,
                             t_flatten, tangent_domain,
                             tangent_groupoid)
from tancat.report import rng_for, uniform, uniform_width
from tancat.tanpoint import residual

TOL = 1e-9


def worst(d):
    return max(d.values())


class TestWorkedExamples:
    def test_pair_structure(self):
        G = pair_groupoid(box_domain(1, -3, 3))
        g = np.array([[1.0], [2.0]])   # arrow 1 -> 2
        h = np.array([[0.0], [1.0]])   # arrow 0 -> 1
        assert np.array_equal(G.compose_pair(g, h), [[0.0], [2.0]])
        assert np.array_equal(G.unit(np.array([[5.0]])), [[5.0], [5.0]])
        assert np.array_equal(G.inverse(g), [[2.0], [1.0]])
        assert np.array_equal(G.target(g), [[2.0]])

    def test_matrix_structure(self):
        G = matrix_group(2)
        rng = rng_for(1, "groupoid/mat2")
        g = G.sample_arrows(rng, 32)
        h = G.sample_arrows(rng, 32)
        gm = g.T.reshape(-1, 2, 2)
        hm = h.T.reshape(-1, 2, 2)
        prod = G.compose_pair(g, h).T.reshape(-1, 2, 2)
        assert np.allclose(prod, gm @ hm, atol=1e-12)
        inv = G.inverse(g).T.reshape(-1, 2, 2)
        assert np.allclose(inv, np.linalg.inv(gm), atol=1e-9)

    def test_matrix3_inverse(self):
        G = matrix_group(3)
        rng = rng_for(2, "groupoid/mat3")
        g = G.sample_arrows(rng, 16)
        inv = G.inverse(g).T.reshape(-1, 3, 3)
        assert np.allclose(inv, np.linalg.inv(g.T.reshape(-1, 3, 3)),
                           atol=1e-8)

    def test_action_target(self):
        G = BUILTIN_GROUPOIDS["action_gl2"]()
        m = np.array([[0.5], [-1.0]])
        g = np.array([[1.0], [2.0], [0.0], [1.0]])  # rows of the matrix
        arrow = np.concatenate([m, g])
        out = G.target(arrow)
        assert np.allclose(out[:, 0], [0.5 + 2 * (-1.0), -1.0])


class TestAxioms:
    @pytest.mark.parametrize("name", sorted(BUILTIN_GROUPOIDS))
    def test_builtins_pass(self, name):
        G = BUILTIN_GROUPOIDS[name]()
        rng = rng_for(7, "groupoid/ax/" + name)
        res = check_groupoid_axioms(G, rng, 150)
        assert worst(res) < 1e-12, res

    @pytest.mark.parametrize("name", sorted(BUILTIN_GROUPOIDS))
    def test_builtins_differentiable(self, name):
        G = BUILTIN_GROUPOIDS[name]()
        rng = rng_for(7, "groupoid/diff/" + name)
        res = check_differentiability(G, rng, 50)
        assert worst(res) < TOL, res

    def test_composable_strings_are_exact(self):
        # each tangent arrow's tangent source is the tangent target of
        # the next, and the value blocks are arrows of G
        G = BUILTIN_GROUPOIDS["action_gl2"]()
        rng = rng_for(8, "groupoid/strings")
        p = G.base.dim
        for order in (0, 1, 2):
            a, b, c = G.sample_composable(rng, 40, 3, order)
            for left, right in ((a, b), (b, c)):
                assert left.shape == (1 << order, G.arrow_dim, 40)
                assert np.array_equal(left[:, :p],
                                      G.target.body.on_blocks(right))
            assert all(G.arrows.admits(arrow[0]).all() for arrow in (a, b, c))


def test_product_domain_lifts_sampling_guards():
    # each factor's guard must watch its own slots: a disk guard on the
    # plane and |det| >= 0.25 on gl2, in either factor order
    gl2 = matrix_group(2).arrows
    disk = Domain(2, name="disk", sample_constraints=(
        build(2, lambda x: [0.25 - x[0] * x[0] - x[1] * x[1]]),))
    rng = rng_for(10, "groupoid/product_guards")
    for first, second, at in ((disk, gl2, 2), (gl2, disk, 0)):
        prod = product_domain(first, second)
        assert len(prod.sample_constraints) == 2
        pts = prod.sample(rng, 400)
        m = pts[at:at + 4]
        x = np.delete(pts, np.s_[at:at + 4], axis=0)
        assert np.all(np.abs(m[0] * m[3] - m[1] * m[2]) >= 0.25)
        assert np.all(x[0] * x[0] + x[1] * x[1] < 0.25)
    arrows = BUILTIN_GROUPOIDS["action_gl2"]().arrows
    assert len(arrows.sample_constraints) == 1
    m = arrows.sample(rng, 400)[2:]
    assert np.all(np.abs(m[0] * m[3] - m[1] * m[2]) >= 0.25)


def test_draw_keeps_the_bits_and_the_state_of_the_column_draw():
    # a chart's (lo, width) columns draw what rng.uniform draws between
    # the box's lo and hi columns
    rng = np.random.default_rng(40)
    rows = [[-1.0, 1.0], [-1.2, 1.2], [-2.0, 2.0], [0.0, 3.5], [-0.0, 0.0],
            [1e-300, 1e300], [-5.0, -5.0]]
    for _ in range(200):
        dim = int(rng.integers(0, 6))
        pick = rng.integers(0, len(rows), size=dim)
        if rng.random() < 0.5:
            pick[:] = pick[:1]  # one row repeated, as in the built-in charts
        box = np.array([rows[i] for i in pick]).reshape(dim, 2)
        n = int(rng.integers(0, 50))
        seed = int(rng.integers(1 << 30))
        got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
        got = uniform_width(got_rng, *Domain(dim, box)._bounds, size=(dim, n))
        want = want_rng.uniform(box[:, 0][:, None], box[:, 1][:, None],
                                size=(dim, n))
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
    lo, width = Domain(2, np.array([[-1.0, 1.0], [-1.0, 2.0]]))._bounds
    assert lo.shape == width.shape == (2, 1)
    assert width.tolist() == [[2.0], [3.0]]


def test_uniform_keeps_the_bits_and_the_state_of_rng_uniform():
    # scaling and shifting rng.random in place rounds as numpy's
    # lo + (hi - lo) * u does; a build that fused the two would fail here
    col = np.array([[-1.0], [-5.0], [0.0], [-0.0], [1e-300]])
    cases = [(-1.0, 1.0, None), (0.3, 1.0, None), (-2.0, 2.0, 7),
             (-1.2, 1.2, 3), (-1.0, 1.0, (4, 3, 11)), (-1.0, 1.0, 0),
             (-1.0, 1.0, (4, 0, 2)), (1e-300, 1e300, (5,)),
             (-5.0, -5.0, (2, 3)), (-0.0, 0.0, 6),
             (col, np.array([[1.0], [-5.0], [3.5], [0.0], [1e300]]), (5, 9)),
             (col, col, (5, 4)), (col[:0], col[:0], (0, 3)),
             (col, col + 2.0, (5, 0))]
    for seed in range(40):
        for lo, hi, size in cases:
            got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
            got = uniform(got_rng, lo, hi, size)
            want = want_rng.uniform(lo, hi, size)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            assert (got_rng.bit_generator.state
                    == want_rng.bit_generator.state)


def test_domain_keeps_a_read_only_copy_of_its_box():
    box = np.tile([-1.0, 1.0], (2, 1))
    dom = Domain(2, box)
    box[:, 1] = 5.0
    assert not dom.contains(np.array([4.0, 0.0]))
    assert dom.contains(np.array([0.5, 0.0]))
    pts = dom.sample(rng_for(17, "domain/copy"), 200)
    assert pts.min() >= -1.0 and pts.max() <= 1.0
    with pytest.raises(ValueError):
        dom.box[0, 0] = -3.0
    assert dom.box.tolist() == [[-1.0, 1.0], [-1.0, 1.0]]


@pytest.mark.parametrize("seed", range(10))
def test_sampling_no_points_draws_nothing(seed):
    # with few admissible points the first round used to keep none and
    # fail to join an empty list of chunks
    b = ExprBuilder(1)
    x = b.inputs()
    dom = Domain(dim=1, constraints=(b.finish([x[0] - 0.99]),))
    for d in (dom, box_domain(3), box_domain(0)):
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        pts = d.sample(rng, 0)
        assert pts.shape == (d.dim, 0)
        assert rng.bit_generator.state == state


def test_zero_dimensional_charts_take_the_general_path():
    # a point chart has no coordinates to draw or to bound, so its
    # points are an empty axis: no draw, and every point is a member
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    assert Domain(0).sample(rng, 200).shape == (0, 200)
    assert rng.bit_generator.state == state
    assert box_domain(2).sample(rng, 0).shape == (2, 0)
    inside = Domain(0).contains(np.zeros((0, 3, 5)))
    assert inside.shape == (3, 5) and inside.all()
    assert tangent_domain(Domain(0), [0]).box.shape == (0, 2)


def loop_sample(dom, rng, n, head):
    """The rejection sampler, with one predicate call per constraint and
    one candidate scan per point."""
    k = len(head)
    lo, hi = dom.box[k:, 0], dom.box[k:, 1]
    out = np.empty((dom.dim, n))
    out[:k] = head
    missing = list(range(n))
    while missing:
        m = len(missing)
        tails = rng.uniform(lo[:, None], hi[:, None],
                            size=(dom.dim - k, CANDIDATES * m))
        cand = np.concatenate([np.tile(head[:, missing], CANDIDATES), tails])
        ok = np.ones(CANDIDATES * m, dtype=bool)
        for c in dom.constraints + dom.sample_constraints:
            ok &= c(cand)[0] > 0.0
        left = []
        for i, j in enumerate(missing):
            for col in range(i, CANDIDATES * m, m):
                if ok[col]:
                    out[k:, j] = tails[:, col]
                    break
            else:
                left.append(j)
        missing = left
    return out


@pytest.mark.parametrize("name", sorted(BUILTIN_GROUPOIDS))
def test_samplers_keep_the_bits_of_the_per_constraint_loop(name):
    G = BUILTIN_GROUPOIDS[name]()
    T = tangent_groupoid(G)
    for H in (G, T):
        for dom in (H.base, H.arrows, H.compose.dom):
            for n in (1, 7, 200):
                got_rng, want_rng = (rng_for(n, "sampler/" + name)
                                     for _ in range(2))
                got = dom.sample(got_rng, n)
                want = loop_sample(dom, want_rng, n, np.zeros((0, n)))
                assert got.tobytes() == want.tobytes()
                assert (got_rng.bit_generator.state
                        == want_rng.bit_generator.state)
                assert dom.contains(got).all()
        # arrows with given sources, by the same loop with a head
        base = H.base.sample(rng_for(3, "sampler/base"), 50)
        got_rng, want_rng = (rng_for(4, "sampler/fiber") for _ in range(2))
        got = H._with_source(got_rng, base)
        want = loop_sample(H.arrows, want_rng, 50, base)
        assert got.tobytes() == want.tobytes()
        assert got[:H.base.dim].tobytes() == base.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert H.arrows.contains(got).all()


def test_sampling_with_a_head_keeps_the_head_and_draws_the_rest():
    # the head of a product chart is taken as given, also outside the
    # chart's box, and only the other factor's coordinates are drawn
    dom = product_domain(box_domain(2), matrix_group(2).arrows)
    head = uniform(np.random.default_rng(5), -3.0, 3.0, (3, 40))
    for k in (0, 1, 2, 3):
        got_rng, want_rng = (rng_for(k, "sampler/head") for _ in range(2))
        got = dom.sample(got_rng, 40, head=head[:k])
        want = loop_sample(dom, want_rng, 40, head[:k])
        assert got.tobytes() == want.tobytes()
        assert got[:k].tobytes() == head[:k].tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert dom.admits(got).all()
        assert np.all((dom.box[k:, :1] <= got[k:]) & (got[k:] <= dom.box[k:, 1:]))
    # a full head leaves nothing to draw
    rng = np.random.default_rng(6)
    state = rng.bit_generator.state
    full = dom.sample(np.random.default_rng(7), 30)
    assert dom.sample(rng, 30, head=full).tobytes() == full.tobytes()
    assert rng.bit_generator.state == state


def test_sampler_error_names_a_chart_that_admits_no_point():
    never = Domain(2, constraints=(build(2, lambda x: [x[0] - 2.0]),),
                   name="beyond")
    rng = np.random.default_rng(8)
    with pytest.raises(SamplerError, match="domain beyond: rejection budget "
                       r"exhausted \(0/5 points after 64 rounds\)"):
        never.sample(rng, 5)
    head = np.array([[0.0, 0.5, 3.0]])
    with pytest.raises(SamplerError, match=r"domain beyond: .* \(1/3 points"):
        never.sample(rng, 3, head=head)


def test_joined_predicates_match_the_per_constraint_loop():
    # gl3's chart constraint and sampling guard share the determinant,
    # which the joined program runs once
    arrows = matrix_group(3).arrows
    program = arrows._sample_program
    steps = lambda e: len(e._compile().steps)
    assert steps(program) < sum(steps(c) for c in arrows.constraints
                                + arrows.sample_constraints)
    rng = np.random.default_rng(41)
    pts = rng.uniform(-1.2, 1.2, size=(9, 2, 300))
    pts[:, 0, :3] = 0.0        # det 0: outside the chart
    pts[0, 1, :3] = np.nan     # a NaN is never a member
    for guards in (False, True):
        preds = arrows.constraints + (arrows.sample_constraints
                                      if guards else ())
        want = np.ones((2, 300), dtype=bool)
        for c in preds:
            want &= c(pts)[0] > 0.0
        got = arrows.admits(pts) if guards else arrows.contains(pts)
        assert np.array_equal(got, want) and got.shape == want.shape
    assert arrows.contains(pts[:, 0, 5]) == (arrows.constraints[0](pts[:, 0, 5])
                                             [0] > 0.0)


def test_joined_predicates_keep_the_domain_error_of_the_failing_constraint():
    # `second` leaves log's domain at the second point and `third`
    # divides by zero; a message names the node of the first constraint
    # that fails, numbered as in that constraint (log is node 4 there,
    # node 6 in the joined program, which shares x0 * x0 with `first`)
    first = build(2, lambda x: [x[0] * x[0] + 1.0])
    second = build(2, lambda x: [log(x[1] + x[0] * x[0]) + 2.0])
    third = build(2, lambda x: [1.0 / (x[0] - x[0])])
    pts = np.array([[0.5, 0.0], [1.0, -3.0]])

    def outcome(run, *args):
        try:
            return run(*args).tolist()
        except DomainError as err:
            return str(err)

    def loop(preds):
        ok = np.ones(2, dtype=bool)
        for c in preds:
            ok &= c(pts)[0] > 0.0
        return ok

    seen = set()
    for cons, guards in (((first, second), ()), ((first,), (second, third)),
                         ((first, third), (second,))):
        dom = Domain(2, np.tile([-5.0, 5.0], (2, 1)), constraints=cons,
                     sample_constraints=guards)
        for run, preds in ((dom.contains, cons), (dom.admits, cons + guards)):
            got = outcome(run, pts)
            assert got == outcome(loop, preds)
            seen.add(got if isinstance(got, str) else "ok")
    assert {s.split(":")[0] for s in seen} == {"ok", "node 4 (log)",
                                                "node 4 (div)"}


class TestTangentGroupoid:
    def test_tangent_of_pair_is_pair_of_tangent(self):
        U = box_domain(2, -1, 1, name="u")
        lhs = tangent_groupoid(pair_groupoid(U))
        rhs = pair_groupoid(tangent_domain(U, [2]))
        rng = rng_for(4, "groupoid/tpair")
        g = rng.uniform(-1, 1, size=(8, 50))
        hpair = rng.uniform(-1, 1, size=(16, 50))
        x = rng.uniform(-1, 1, size=(4, 50))
        assert np.array_equal(lhs.compose(hpair), rhs.compose(hpair))
        assert np.array_equal(lhs.unit(x), rhs.unit(x))
        assert np.array_equal(lhs.inverse(g), rhs.inverse(g))
        assert np.array_equal(lhs.target(g), rhs.target(g))

    @pytest.mark.parametrize("name", sorted(BUILTIN_GROUPOIDS))
    def test_tangent_groupoids_pass_axioms(self, name):
        TG = tangent_groupoid(BUILTIN_GROUPOIDS[name]())
        rng = rng_for(5, "groupoid/tg/" + name)
        assert worst(check_groupoid_axioms(TG, rng, 80)) < TOL

    def test_flatten_roundtrip(self):
        rng = rng_for(6, "groupoid/flat")
        blocks = rng.uniform(-1, 1, size=(4, 3, 7))
        flat = t_flatten(blocks, [1, 2])
        # chart block by chart block, the tangent blocks in mask order
        assert np.array_equal(flat[:4], blocks[:, 0])
        assert np.array_equal(flat[4:], blocks[:, 1:].reshape(8, 7))
        for order in range(5):
            for sizes in ([1, 2], [0, 2], [3, 0, 1]):
                for batch in ((), (5,), (2, 3)):
                    shape = (1 << order, sum(sizes)) + batch
                    flat = t_flatten(rng.uniform(-1, 1, size=shape), sizes)
                    assert flat.shape == (sum(sizes) << order,) + batch


def _transpose_compose(G: FiberedGroupoid) -> FiberedGroupoid:
    a = G.arrow_dim
    swapped = reindex_inputs(G.compose.body,
                             list(range(a, 2 * a)) + list(range(a)), 2 * a)
    return dataclasses.replace(
        G, compose=SmoothMap(G.compose.dom, G.compose.cod, swapped,
                             name="compose_flipped"))


def _break_unit(G: FiberedGroupoid) -> FiberedGroupoid:
    # unit returns a doubled identity matrix: still a section of the
    # source, no longer neutral
    p = G.base.dim
    b = ExprBuilder(p)
    hs = b.inputs()
    doubled = [h + h for h in b.splice(G.unit.body, hs)[p:]]
    body = b.finish(hs + doubled)
    return dataclasses.replace(
        G, unit=SmoothMap(G.unit.dom, G.unit.cod, body, name="unit_doubled"))


def _nan_inverse(G: FiberedGroupoid) -> FiberedGroupoid:
    body = build(G.arrow_dim, lambda xs: [x * np.nan for x in xs])
    return dataclasses.replace(
        G, inverse=SmoothMap(G.inverse.dom, G.inverse.cod, body,
                             name="inverse_nan"))


def _uninverted(G: FiberedGroupoid) -> FiberedGroupoid:
    # an action groupoid whose inverse moves the point but keeps g
    p = G.base.dim
    b = ExprBuilder(G.arrow_dim)
    hs = b.inputs()
    body = b.finish(b.splice(G.inverse.body, hs)[:p] + hs[p:])
    return dataclasses.replace(
        G, inverse=SmoothMap(G.inverse.dom, G.inverse.cod, body,
                             name="inverse"))


def _bent_unit(G: FiberedGroupoid) -> FiberedGroupoid:
    # the unit's first target slot moves by 1e-3 * x0**2: a unit of the
    # source that is no longer a section of the target
    p = G.base.dim
    b = ExprBuilder(p)
    hs = b.inputs()
    out = b.splice(G.unit.body, hs)
    out[p] = out[p] + 1e-3 * hs[0] ** 2
    return dataclasses.replace(
        G, unit=SmoothMap(G.unit.dom, G.unit.cod, b.finish(out),
                          name="unit_bent"))


def _bent_compose(G: FiberedGroupoid) -> FiberedGroupoid:
    # a group's product plus 1e-3 (g - e)(h - e) entry by entry: the unit
    # stays neutral, and the product stops being associative
    a = G.arrow_dim
    e = G.unit(np.zeros((0, 1)))[:, 0].tolist()
    b = ExprBuilder(2 * a)
    hs = b.inputs()
    out = [m + 1e-3 * (g - ei) * (h - ei) for m, g, h, ei in
           zip(b.splice(G.compose.body, hs), hs[:a], hs[a:], e)]
    return dataclasses.replace(
        G, compose=SmoothMap(G.compose.dom, G.compose.cod, b.finish(out),
                             name="compose_bent"))


ORDERS = (0, 1, 2)

# each corruption: the groupoid, the laws it fails at every order, and
# the laws it fails above order 0 only
SABOTAGE = {
    # flipping m reverses the word, which stays associative, and the
    # inverse map itself is untouched; what breaks is the wiring of
    # sources and targets and every law composing through a unit,
    # except unit_right whose value happens to come out unchanged.  The
    # flipped composite of vertical tangent arrows takes the velocity of
    # the left factor's source, which need not vanish
    "flipped_compose": (
        lambda: _transpose_compose(BUILTIN_GROUPOIDS["action_gl2"]()),
        {"compose_source", "compose_target", "unit_left", "inverse_left",
         "inverse_right"}, {"vertical_closure"}),
    # the section condition is vacuous over a point base, so exactly
    # the laws comparing against the unit notice
    "doubled_unit": (lambda: _break_unit(BUILTIN_GROUPOIDS["matrix2"]()),
                     {"unit_left", "unit_right", "inverse_left",
                      "inverse_right"}, set()),
    "bent_unit": (lambda: _bent_unit(BUILTIN_GROUPOIDS["pair"]()),
                  {"unit_section", "unit_left", "inverse_left",
                   "inverse_right"}, set()),
    "bent_compose": (lambda: _bent_compose(BUILTIN_GROUPOIDS["matrix2"]()),
                     {"associativity", "inverse_left", "inverse_right"},
                     set()),
    "uninverted": (lambda: _uninverted(BUILTIN_GROUPOIDS["action_gl2"]()),
                   {"inverse_exchange", "inverse_left", "inverse_right"},
                   set()),
    "nan_inverse": (lambda: _nan_inverse(BUILTIN_GROUPOIDS["action_gl2"]()),
                    {"inverse_exchange", "inverse_left", "inverse_right"},
                    set()),
}


def failing(res):
    return {k for k, v in res.items() if not v <= TOL}


def assert_caught(name, samples=120):
    """The laws of one corruption at orders 0, 1 and 2, each failing
    exactly its expected set."""
    build_groupoid, every_order, above_zero = SABOTAGE[name]
    G = build_groupoid()
    laws = {}
    for order in ORDERS:
        res = check_groupoid_axioms(
            G, rng_for(order, "groupoid/sabotage/" + name), samples, order)
        assert failing(res) == every_order | (above_zero if order else set())
        laws[order] = res
    return laws


class TestSabotage:
    def test_nan_inverse_fails_the_inverse_laws(self):
        # residual reads NaN as inf, so the max over both sides of a law
        # cannot drop it the way max(0.0, nan) == 0.0 would
        for res in assert_caught("nan_inverse", 60).values():
            assert all(res[k] == np.inf for k in failing(res))

    def test_uninverted_inverse_fails_the_inverse_laws(self):
        assert_caught("uninverted")

    def test_flipped_composition_is_caught_where_it_matters(self):
        res = assert_caught("flipped_compose")
        assert res[0]["associativity"] < TOL
        assert res[0]["inverse_exchange"] < TOL

    def test_flipped_composition_on_pairs_breaks_wiring(self):
        G = _transpose_compose(BUILTIN_GROUPOIDS["pair"]())
        for order in ORDERS:
            bad = failing(check_groupoid_axioms(
                G, rng_for(13, "groupoid/flip2"), 120, order))
            assert {"compose_source", "compose_target"} <= bad
            assert "unit_section" not in bad
            assert "inverse_exchange" not in bad

    def test_doubled_unit_is_caught_in_unit_laws_only(self):
        assert_caught("doubled_unit")

    def test_bent_unit_fails_the_unit_section(self):
        assert_caught("bent_unit")

    def test_bent_composition_fails_associativity(self):
        assert_caught("bent_compose")


def test_every_tangent_law_fails_under_some_corruption():
    # a report holds no order-n check that cannot fail; each corruption
    # is run, and its failing set asserted, by one TestSabotage test
    caught = set().union(*(every_order | above_zero for _, every_order,
                           above_zero in SABOTAGE.values()))
    for order in (1, 2):
        laws = check_groupoid_axioms(BUILTIN_GROUPOIDS["pair"](),
                                     rng_for(order, "groupoid/names"), 1, order)
        assert caught == set(laws)


@pytest.mark.parametrize("name", sorted(BUILTIN_GROUPOIDS))
def test_differentiability_checks_every_law_at_orders_one_and_two(name):
    # a law added at order 0 is checked at every order
    G = BUILTIN_GROUPOIDS[name]()
    laws = check_groupoid_axioms(G, rng_for(1, "groupoid/lawset"), 5)
    assert "vertical_closure" not in laws
    got = check_differentiability(G, rng_for(2, "groupoid/lawset"), 5)
    # a chart route without a CHART_ROUTES row, which the corrupted-lift
    # test runs, fails here
    want = {f"chart_route/order{n}{suffix}" for n in (1, 2)
            for suffix in CHART_ROUTES.values()}
    want |= {f"order{n}/{law}" for n in (1, 2)
             for law in [*laws, "vertical_closure"]}
    assert set(got) == want


# -- the chart routes under a corrupted lift ---------------------------

# the chart_route check of each structure map, by the map's label
CHART_ROUTES = {"compose": "", "unit": "_unit", "target": "_target",
                "inverse": "_inverse"}


def _nudged(m: SmoothMap) -> SmoothMap:
    # the last output, a velocity slot of the doubled chart, moves by 1e-3
    b = ExprBuilder(m.dom.dim)
    out = b.splice(m.body, b.inputs())
    out[-1] = out[-1] + 1e-3
    return SmoothMap(m.dom, m.cod, b.finish(out), name=m.name + "_nudged")


@pytest.mark.parametrize("label", sorted(CHART_ROUTES))
@pytest.mark.parametrize("level", [1, 2])
def test_a_corrupted_lift_fails_exactly_its_chart_routes(label, level,
                                                         monkeypatch):
    # the lift to T^level G carries one nudged map; T^2 G is the lift of
    # T G, so a nudge in T G fails the map's route at both orders.  The
    # base of action_gl2 is the plane, so its target has outputs to nudge
    lift = groupoid.tangent_groupoid
    built = []

    def corrupted(G):
        T = lift(G)
        built.append(T)
        if len(built) == level:
            T = dataclasses.replace(T, **{label: _nudged(getattr(T, label))})
        return T

    monkeypatch.setattr(groupoid, "tangent_groupoid", corrupted)
    res = check_chart_functoriality(BUILTIN_GROUPOIDS["action_gl2"](),
                                    rng_for(level, "groupoid/lift/" + label),
                                    20)
    assert len(built) == 2
    assert failing(res) == {f"chart_route/order{n}{CHART_ROUTES[label]}"
                            for n in range(level, 3)}


@pytest.mark.parametrize("name", ["matrix2", "matrix3"])
def test_the_target_route_over_a_point_base_compares_empty_arrays(name):
    # a group's target maps into R^0 at every order, so its route
    # compares empty arrays and reads 0.0: no corrupted lift can fail it
    G = BUILTIN_GROUPOIDS[name]()
    assert tangent_groupoid(tangent_groupoid(G)).target.body.n_outputs == 0
    res = check_chart_functoriality(G, rng_for(1, "groupoid/lift/pt"), 5)
    assert res["chart_route/order1_target"] == 0.0
    assert res["chart_route/order2_target"] == 0.0


# -- the batched laws against one map evaluation per law term --------

def loop_groupoid_axioms(G, rng, samples, order):
    """The law suite with one call per structure map and law term, in
    the order the laws read, on tangent strings drawn arrow by arrow:
    each arrow's values first, then its velocity blocks."""
    p = G.base.dim
    tm = lambda f, pt: f.body.on_blocks(pt)
    tc = lambda g, h: _tcompose(G, g, h)

    def tangent(vals):
        velocities = rng.uniform(-1.0, 1.0, ((1 << order) - 1,) + vals.shape)
        return np.concatenate([vals[None], velocities])

    def over(src):
        arrow = tangent(G._with_source(rng, src[0]))
        arrow[:, :p] = src
        return arrow

    def string(length):
        chain = [tangent(G.sample_arrows(rng, samples))]
        for _ in range(length - 1):
            chain.append(over(tm(G.target, chain[-1])))
        return chain[::-1]

    res = {}
    x = tangent(G.sample_objects(rng, samples))
    ux = tm(G.unit, x)
    res["unit_section"] = max(residual(ux[:, :p], x),
                              residual(tm(G.target, ux), x))
    g1, h1 = string(2)
    gh = tc(g1, h1)
    res["compose_source"] = residual(gh[:, :p], h1[:, :p])
    res["compose_target"] = residual(tm(G.target, gh), tm(G.target, g1))
    a, b, c = string(3)
    res["associativity"] = residual(tc(tc(a, b), c), tc(a, tc(b, c)))
    g, = string(1)
    res["unit_left"] = residual(tc(tm(G.unit, tm(G.target, g)), g), g)
    res["unit_right"] = residual(tc(g, tm(G.unit, g[:, :p])), g)
    gi = tm(G.inverse, g)
    res["inverse_exchange"] = max(residual(gi[:, :p], tm(G.target, g)),
                                  residual(tm(G.target, gi), g[:, :p]))
    res["inverse_left"] = residual(tc(gi, g), tm(G.unit, g[:, :p]))
    res["inverse_right"] = residual(tc(g, gi), tm(G.unit, tm(G.target, g)))
    if order:
        h0 = np.array(h1)
        h0[1:, :p] = 0.0
        out = tc(over(tm(G.target, h0)), h0)
        res["vertical_closure"] = residual(out[1:, :p],
                                           np.zeros_like(out[1:, :p]))
    return res


def draws_of_the_point_laws(G, rng, samples):
    """The draws of the law suite on plain points, as it made them
    before it took tangent strings: objects, then strings of two and
    three arrows, then one arrow."""
    G.sample_objects(rng, samples)
    for length in (2, 3, 1):
        arrow = G.sample_arrows(rng, samples)
        for _ in range(length - 1):
            arrow = G._with_source(rng, G.target(arrow))


# broken_inverse compares the bits of residuals far from zero
LAW_GROUPOIDS = {
    **BUILTIN_GROUPOIDS,
    "pair1": lambda: pair_groupoid(box_domain(1, -2, 2, name="line")),
    "broken_inverse": lambda: _uninverted(BUILTIN_GROUPOIDS["action_gl2"]()),
}


def assert_same_residuals(got, want):
    assert list(got) == list(want)
    for key in want:
        assert np.float64(got[key]).tobytes() == np.float64(want[key]).tobytes(), key


@pytest.mark.parametrize("name", sorted(LAW_GROUPOIDS))
@pytest.mark.parametrize("samples", [1, 50, 200])
def test_batched_laws_keep_the_bits_of_one_call_per_term(name, samples):
    G = LAW_GROUPOIDS[name]()
    rngs = [rng_for(samples, "groupoid/batched/" + name) for _ in range(3)]
    for order in ORDERS:
        assert_same_residuals(check_groupoid_axioms(G, rngs[0], samples, order),
                              loop_groupoid_axioms(G, rngs[1], samples, order))
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        if order == 0:
            # order 0 draws no velocity: the point laws' draws, no more
            draws_of_the_point_laws(G, rngs[2], samples)
            assert rngs[0].bit_generator.state == rngs[2].bit_generator.state


@pytest.mark.parametrize("name", ["pair", "action_gl2"])
def test_batched_laws_evaluate_six_structure_maps(name, monkeypatch):
    G = BUILTIN_GROUPOIDS[name]()
    maps = {getattr(G, m).body: m for m in ("target", "compose", "unit",
                                            "inverse")}
    calls = []
    on_blocks = Expr.on_blocks

    def counted(self, blocks):
        calls.append(maps.get(self))
        return on_blocks(self, blocks)

    monkeypatch.setattr(Expr, "on_blocks", counted)
    # sampling strings of two and three arrows runs the target 3 times;
    # the vertical-closure arrow is drawn over a target of the first
    # target evaluation
    want = sorted(["target"] * 3 + ["inverse", "target", "unit", "compose",
                                    "target", "compose"])
    for order in ORDERS:
        calls.clear()
        check_groupoid_axioms(G, rng_for(1, "groupoid/count"), 20, order)
        assert sorted(filter(None, calls)) == want, order


def test_each_keeps_the_bits_of_one_call_on_both_sides_of_the_bound(
        monkeypatch):
    # three calls just below the bound run stacked; with a fourth call of
    # one point they reach it, and every call runs on its own
    G = BUILTIN_GROUPOIDS["action_gl2"]()
    rng = rng_for(1, "groupoid/each")
    n = (_STACK_BELOW - 1) // 3
    sizes = [n, n, _STACK_BELOW - 1 - 2 * n, 1]
    calls = [tuple(G.sample_composable(rng, size, 2, order=1))
             for size in sizes]
    want = [G.compose.body.on_blocks(np.concatenate(call, axis=1))
            for call in calls]
    runs = []
    on_blocks = Expr.on_blocks

    def counted(self, blocks):
        runs.append(blocks.shape[-1])
        return on_blocks(self, blocks)

    monkeypatch.setattr(Expr, "on_blocks", counted)
    below = _each(G.compose, calls[:3])
    above = _each(G.compose, calls)
    assert runs == [_STACK_BELOW - 1] + sizes
    assert len(below) == 3 and len(above) == 4
    for got, ref in zip(below + above, want[:3] + want):
        assert np.array_equal(got, ref)


class TestSerialization:
    def test_roundtrip_preserves_behavior(self):
        G = BUILTIN_GROUPOIDS["action_gl2"]()
        blob = json.dumps(groupoid_to_json_dict(G), sort_keys=True)
        H = groupoid_from_json_dict(json.loads(blob))
        rng = rng_for(15, "groupoid/json")
        g, h = (arrow[0] for arrow in G.sample_composable(rng, 30, 2))
        assert np.array_equal(G.compose_pair(g, h), H.compose_pair(g, h))
        blob2 = json.dumps(groupoid_to_json_dict(H), sort_keys=True)
        assert blob == blob2

    def test_malformed_spec_rejected(self):
        with pytest.raises(ValueError):
            groupoid_from_json_dict({"name": "nope"})

    def test_unit_law_of_action_is_enforced(self):
        from tancat.expr import build
        plane = box_domain(2)
        # drifts by g00 on the first coordinate, so e no longer fixes points
        twisted = build(6, lambda xs: [xs[0] * xs[4] + xs[1] * xs[5] + xs[0],
                                       xs[2] * xs[4] + xs[3] * xs[5]])
        with pytest.raises(StructureError, match="identity"):
            action_groupoid(matrix_group(2), twisted, plane)
        with pytest.raises(StructureError, match=r"must be \(4\+2\)->2"):
            action_groupoid(matrix_group(2), linear_action(3), plane)
