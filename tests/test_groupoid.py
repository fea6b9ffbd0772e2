"""Groupoid builders, their axioms, tangent groupoids, and sabotage."""

import dataclasses
import json

import numpy as np
import pytest

from tancat.domain import (MAX_ROUNDS, Domain, SmoothMap, box_domain,
                           draw_bounds, product_domain)
from tancat.errors import DomainError, StructureError
from tancat.expr import ExprBuilder, build, log, reindex_inputs
from tancat.groupoid import (BUILTIN_GROUPOIDS, FiberedGroupoid,
                             action_groupoid, check_differentiability,
                             check_groupoid_axioms, check_tangent_functor,
                             groupoid_from_json_dict,
                             groupoid_to_json_dict, linear_action,
                             matrix_group, pair_groupoid,
                             t_flatten, tangent_domain,
                             tangent_groupoid)
from tancat.report import rng_for, uniform, uniform_width

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
        G = BUILTIN_GROUPOIDS["action_gl2"]()
        rng = rng_for(8, "groupoid/strings")
        a, b, c = G.sample_composable(rng, 40, 3)
        p = G.base.dim
        assert np.array_equal(a[:p], G.target(b))
        assert np.array_equal(b[:p], G.target(c))


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
        got = uniform_width(got_rng, *draw_bounds(box), size=(dim, n))
        want = want_rng.uniform(box[:, 0][:, None], box[:, 1][:, None],
                                size=(dim, n))
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
    lo, width = draw_bounds(np.array([[-1.0, 1.0], [-1.0, 2.0]]))
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


def loop_sample(dom, rng, n):
    """The rejection sampler with one predicate call per constraint."""
    lo, hi = dom.box[:, 0], dom.box[:, 1]
    chunks, have = [], 0
    for _ in range(MAX_ROUNDS):
        draw = rng.uniform(lo[:, None], hi[:, None],
                           size=(dom.dim, 2 * max(n - have, 1)))
        ok = np.ones(draw.shape[1], dtype=bool)
        for c in dom.constraints + dom.sample_constraints:
            ok &= c(draw)[0] > 0.0
        chunks.append(draw[:, ok])
        have += int(ok.sum())
        if have >= n:
            return np.concatenate(chunks, axis=1)[:, :n]
    raise AssertionError("budget exhausted")


def loop_with_source(G, rng, base_pts):
    p, q = G.base.dim, G.fiber_dim
    lo, hi = G.arrows.box[p:, 0], G.arrows.box[p:, 1]
    out = np.empty((p + q, base_pts.shape[1]))
    out[:p] = base_pts
    need = np.ones(base_pts.shape[1], dtype=bool)
    while need.any():
        idx = np.flatnonzero(need)
        draw = rng.uniform(lo[:, None], hi[:, None], size=(q, idx.size))
        cand = np.concatenate([base_pts[:, idx], draw], axis=0)
        ok = np.ones(idx.size, dtype=bool)
        for c in G.arrows.constraints + G.arrows.sample_constraints:
            ok &= c(cand)[0] > 0.0
        out[p:, idx[ok]] = draw[:, ok]
        need[idx[ok]] = False
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
                assert got.tobytes() == loop_sample(dom, want_rng, n).tobytes()
                assert (got_rng.bit_generator.state
                        == want_rng.bit_generator.state)
                assert dom.contains(got).all()
        base = H.base.sample(rng_for(3, "sampler/base"), 50)
        got_rng, want_rng = (rng_for(4, "sampler/fiber") for _ in range(2))
        got = H._with_source(got_rng, base)
        assert got.tobytes() == loop_with_source(H, want_rng, base).tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_joined_predicates_match_the_per_constraint_loop():
    # gl3's chart constraint and sampling guard share the determinant,
    # which the joined program runs once
    arrows = matrix_group(3).arrows
    program = arrows._sample_program
    assert len(program._steps) < sum(len(c._steps) for c in
                                     arrows.constraints
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


class TestSabotage:
    def test_nan_inverse_fails_the_inverse_laws(self):
        # residual reads NaN as inf, so the max over both sides of a law
        # cannot drop it the way max(0.0, nan) == 0.0 would
        G = _nan_inverse(BUILTIN_GROUPOIDS["action_gl2"]())
        res = check_groupoid_axioms(G, rng_for(16, "groupoid/nan"), 60)
        bad = {k for k, v in res.items() if not v <= TOL}
        assert bad == {"inverse_exchange", "inverse_left", "inverse_right"}
        assert all(res[k] == np.inf for k in bad)
        tangent = check_tangent_functor(G, rng_for(16, "groupoid/tnan"), 1, 30)
        assert tangent["inverse_laws"] == np.inf

    def test_flipped_composition_is_caught_where_it_matters(self):
        G = _transpose_compose(BUILTIN_GROUPOIDS["action_gl2"]())
        rng = rng_for(13, "groupoid/flip")
        res = check_groupoid_axioms(G, rng, 120)
        bad = {k for k, v in res.items() if v > TOL}
        # flipping m reverses the word, which stays associative, and the
        # inverse map itself is untouched; what breaks is the wiring of
        # sources and targets and every law composing through a unit,
        # except unit_right whose value happens to come out unchanged
        assert bad == {"compose_source", "compose_target", "unit_left",
                       "inverse_left", "inverse_right"}
        assert res["associativity"] < TOL
        assert res["inverse_exchange"] < TOL

    def test_flipped_composition_on_pairs_breaks_wiring(self):
        G = _transpose_compose(BUILTIN_GROUPOIDS["pair"]())
        rng = rng_for(13, "groupoid/flip2")
        res = check_groupoid_axioms(G, rng, 120)
        bad = {k for k, v in res.items() if v > TOL}
        assert {"compose_source", "compose_target"} <= bad
        assert "unit_section" not in bad
        assert "inverse_exchange" not in bad

    def test_doubled_unit_is_caught_in_unit_laws_only(self):
        G = _break_unit(BUILTIN_GROUPOIDS["matrix2"]())
        rng = rng_for(14, "groupoid/unit")
        res = check_groupoid_axioms(G, rng, 120)
        bad = {k for k, v in res.items() if v > TOL}
        # the section condition is vacuous over a point base, so exactly
        # the laws comparing against the unit notice
        assert bad == {"unit_left", "unit_right",
                       "inverse_left", "inverse_right"}


class TestSerialization:
    def test_roundtrip_preserves_behavior(self):
        G = BUILTIN_GROUPOIDS["action_gl2"]()
        blob = json.dumps(groupoid_to_json_dict(G), sort_keys=True)
        H = groupoid_from_json_dict(json.loads(blob))
        rng = rng_for(15, "groupoid/json")
        g, h = G.sample_composable(rng, 30, 2)
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
        twisted = SmoothMap(
            linear_action(2, plane).dom, plane,
            build(6, lambda xs: [xs[0] * xs[4] + xs[1] * xs[5] + xs[0],
                                 xs[2] * xs[4] + xs[3] * xs[5]]))
        with pytest.raises(StructureError):
            action_groupoid(matrix_group(2), twisted, plane)
