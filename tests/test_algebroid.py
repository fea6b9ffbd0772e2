"""Groupoid differentiation against classical oracles."""

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from tancat.algebroid import (Section, _anchor_blocks, algebroid_bracket,
                              algebroid_of, anchor_field, bracket_table,
                              by_slots, check_algebroid_laws,
                              extend_to_invariant, on_slots, pullback_target,
                              restrict_to_unit, section_scale,
                              stack_sections)
from tancat.domain import Domain, SmoothMap, box_domain
from tancat.errors import StructureError, VerticalityError
from tancat.expr import build, sin
from tancat.fields import (ScalarField, VectorField, act_on_function,
                           _sum, bracket_by_jacobians, check_related,
                           lie_bracket, related_sides)
from tancat.groupoid import (_STACK_BELOW, BUILTIN_GROUPOIDS, FiberedGroupoid,
                             fibered_groupoid, matrix_group, pair_groupoid)
from tancat.randexpr import random_expr
from tancat.report import rng_for
from tancat.tanpoint import residual
from tancat.tower import _GATHER_BELOW, _mul


@pytest.fixture(scope="module")
def als():
    return {name: algebroid_of(make())
            for name, make in BUILTIN_GROUPOIDS.items()}


POINT = np.zeros((0, 1))    # one sample on a zero-dimensional base


def test_matrix2_frozen_bracket(als):
    al = als["matrix2"]
    assert al.rank == 4 and al.base.dim == 0
    e12 = al.constant_section([0.0, 1.0, 0.0, 0.0], name="E12")
    e21 = al.constant_section([0.0, 0.0, 1.0, 0.0], name="E21")
    got = algebroid_bracket(al, e12, e21).at(POINT)[:, 0]
    assert np.abs(got - [-1.0, 0.0, 0.0, 1.0]).max() < 1e-14


def test_matrix2_bracket_is_reversed_commutator(als):
    # right translation by g multiplies on the right, so the section
    # bracket of constant matrices A, B comes out as BA - AB
    al = als["matrix2"]
    rng = rng_for(41, "algebroid/commutator")
    worst = 0.0
    for _ in range(30):
        A = rng.uniform(-1.0, 1.0, (2, 2))
        B = rng.uniform(-1.0, 1.0, (2, 2))
        got = algebroid_bracket(al, al.constant_section(A.ravel()),
                                al.constant_section(B.ravel())).at(POINT)[:, 0]
        worst = max(worst, np.abs(got - (B @ A - A @ B).ravel()).max())
    assert worst < 1e-12


def test_matrix3_frozen_bracket(als):
    al = als["matrix3"]
    E12, E23 = np.zeros(9), np.zeros(9)
    E12[1] = 1.0
    E23[5] = 1.0
    got = algebroid_bracket(al, al.constant_section(E12),
                            al.constant_section(E23)).at(POINT)[:, 0]
    want = np.zeros(9)
    want[2] = -1.0      # E23 E12 - E12 E23 = -E13
    assert np.abs(got - want).max() < 1e-14


def test_pair_interval_bracket():
    # sections over the pair groupoid are plain functions a(x) d/dx and
    # the bracket is a b' - b a'; the frozen pair (x, 1) gives -1
    al = algebroid_of(pair_groupoid(box_domain(1, name="interval")))
    assert al.rank == 1 and al.base.dim == 1
    sx = al.section(build(1, lambda s: [s[0]]), name="x")
    s1 = al.section(build(1, lambda s: [1.0 + 0.0 * s[0]]), name="1")
    xs = np.array([[0.3, -0.7, 0.1]])
    got = algebroid_bracket(al, sx, s1).at(xs)
    assert np.abs(got + 1.0).max() < 1e-14

    sa = al.section(build(1, lambda s: [s[0] * s[0]]), name="x^2")
    sb = al.section(build(1, lambda s: [sin(s[0])]), name="sin")
    got = algebroid_bracket(al, sa, sb).at(xs)[0]
    x = xs[0]
    want = x * x * np.cos(x) - np.sin(x) * 2.0 * x
    assert np.abs(got - want).max() < 1e-13


def test_pair_anchor_is_identity():
    al = algebroid_of(pair_groupoid(box_domain(1, name="interval")))
    sa = al.section(build(1, lambda s: [s[0] * s[0]]), name="x^2")
    xs = np.array([[0.4, -0.2, 0.9]])
    assert np.abs(anchor_field(al, sa).at(xs) - xs * xs).max() < 1e-14


def test_action_anchor(als):
    # constant sections of the action groupoid push forward to the
    # linear fields m -> xi m
    al = als["action_gl2"]
    assert al.base.dim == 2 and al.rank == 4
    rng = rng_for(42, "algebroid/actanchor")
    xi = np.array([[0.0, 1.0], [0.5, 0.0]])
    m = al.base.sample(rng, 40)
    got = anchor_field(al, al.constant_section(xi.ravel())).at(m)
    assert np.abs(got - np.einsum("ij,jn->in", xi, m)).max() < 1e-14


def test_action_constant_bracket(als):
    al = als["action_gl2"]
    rng = rng_for(42, "algebroid/actbracket")
    m = al.base.sample(rng, 25)
    xi = np.array([[0.0, 1.0], [0.5, 0.0]])
    eta = np.array([[0.2, 0.0], [0.0, -0.4]])
    got = algebroid_bracket(al, al.constant_section(xi.ravel()),
                            al.constant_section(eta.ravel())).at(m)
    want = (eta @ xi - xi @ eta).ravel()
    assert np.abs(got - want[:, None]).max() < 1e-13


def test_action_anchor_morphism(als):
    # rho([xi, eta]) agrees with the field bracket of the pushed
    # forward fields, measured by the jacobian coordinate formula
    al = als["action_gl2"]
    rng = rng_for(42, "algebroid/actmorph")
    m = al.base.sample(rng, 30)
    xi = al.constant_section(np.array([0.1, 0.8, -0.3, 0.2]))
    eta = al.constant_section(np.array([0.5, -0.2, 0.7, 0.0]))
    lhs = anchor_field(al, algebroid_bracket(al, xi, eta)).at(m)
    rhs = bracket_by_jacobians(anchor_field(al, xi), anchor_field(al, eta), m)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_laws_all_builtins(als):
    for name, al in als.items():
        rng = rng_for(43, "algebroid/laws/" + name)
        res = check_algebroid_laws(al, rng, samples=120)
        assert max(res.values()) < 1e-12, (name, res)


def test_gate_rejects_broken_groupoid():
    G = pair_groupoid(box_domain(2, name="square"))
    bad = SmoothMap(G.compose.dom, G.compose.cod,
                    build(8, lambda s: [s[0], s[1], s[6], s[7]]), name="bad")
    with pytest.raises(StructureError, match="cannot differentiate"):
        algebroid_of(replace(G, compose=bad))


def test_restrict_requires_verticality():
    al = algebroid_of(pair_groupoid(box_domain(1, name="interval")))
    tilted = VectorField.from_expr(al.gpd.arrows,
                                   build(2, lambda xs: [1.0, 0.0]))
    with pytest.raises(VerticalityError):
        restrict_to_unit(al, tilted)
    s = restrict_to_unit(al, tilted, check=False)
    assert s.at(np.array([[0.2]])).shape == (1, 1)


def test_round_trips(als):
    al = als["action_gl2"]
    rng = rng_for(44, "algebroid/roundtrip")
    pts = al.base.sample(rng, 60)
    gs = al.gpd.sample_arrows(rng, 60)
    a = al.section(build(2, lambda s: [s[0], s[1] * s[0], 0.3, s[1]]),
                   name="a")
    phi_a = extend_to_invariant(al, a)
    assert np.abs(restrict_to_unit(al, phi_a).at(pts) - a.at(pts)).max() < 1e-14
    again = extend_to_invariant(al, restrict_to_unit(al, phi_a))
    assert np.abs(again.at(gs) - phi_a.at(gs)).max() < 1e-13


def test_section_module_ops(als):
    al = als["action_gl2"]
    rng = rng_for(45, "algebroid/module")
    pts = al.base.sample(rng, 30)
    a = al.section(build(2, lambda s: [s[0], s[1], 1.0 + 0.0 * s[0], 0.0 * s[1]]))
    b = al.constant_section([1.0, 0.0, 0.0, 1.0])
    f = ScalarField.from_expr(al.base, build(2, lambda s: [s[0] * s[1]]))
    a_plus_b = Section(al.base, al.rank, _sum(a.fn, b.fn))
    lhs = section_scale(f, a_plus_b).at(pts)
    rhs = f.at(pts) * (a.at(pts) + b.at(pts))
    assert np.abs(lhs - rhs).max() < 1e-14
    assert np.abs(section_scale(2.5, b).at(pts) - 2.5 * b.at(pts)).max() == 0.0


def test_pullback_target(als):
    al = als["action_gl2"]
    rng = rng_for(45, "algebroid/pullback")
    gs = al.gpd.sample_arrows(rng, 40)
    f = ScalarField.from_expr(al.base, build(2, lambda s: [s[0] + s[1] * s[1]]))
    got = pullback_target(al, f).at(gs)
    t = al.gpd.target(gs)
    assert np.abs(got - (t[0] + t[1] ** 2)).max() < 1e-14


def test_bracket_table(als):
    rows = bracket_table(als["matrix2"], POINT)
    assert len(rows) == 6
    by_pair = {(r["i"], r["j"]): r for r in rows}
    r = by_pair[(1, 2)]     # frame sections E12, E21
    assert np.abs(np.array(r["mean"]) - [-1.0, 0.0, 0.0, 1.0]).max() < 1e-14
    assert all(r["spread"] < 1e-12 for r in rows)

    al = als["action_gl2"]
    rng = rng_for(46, "algebroid/table")
    rows = bracket_table(al, al.base.sample(rng, 20))
    assert np.abs(np.array(by_pair[(1, 2)]["mean"])
                  - np.array({(r["i"], r["j"]): r for r in rows}[(1, 2)]["mean"])
                  ).max() < 1e-13


def _laws_by_section(al, sections, f, pts, gs) -> dict:
    """The stacked laws of ``check_algebroid_laws`` as one bracket per
    term and one evaluation per section: the arrays each law compares,
    and its residual."""
    a, b, c = sections
    G = al.gpd
    br = lambda x, y: algebroid_bracket(al, x, y)
    jac = (br(a, br(b, c)).at(pts) + br(b, br(c, a)).at(pts)
           + br(c, br(a, b)).at(pts))
    psi = [(restrict_to_unit(al, extend_to_invariant(al, s),
                             check=False).at(pts), s.at(pts))
           for s in sections]
    rel = [related_sides(G.target, extend_to_invariant(al, s),
                         anchor_field(al, s), gs) for s in sections]
    ab, ba = br(a, b).at(pts), br(b, a).at(pts)
    rho_a = anchor_field(al, a)
    lhs = br(a, section_scale(f, b)).at(pts)
    rhs = (section_scale(f, br(a, b)).at(pts)
           + section_scale(act_on_function(rho_a, f), b).at(pts))
    rho_ab = anchor_field(al, br(a, b)).at(pts)
    return {
        "jacobi": ([jac], residual(jac, np.zeros_like(jac))),
        "antisymmetry": ([ab, ba], residual(ab, -ba)),
        "leibniz": ([lhs, rhs], residual(lhs, rhs)),
        "anchor_morphism": ([rho_ab], residual(
            rho_ab, lie_bracket(rho_a, anchor_field(al, b)).at(pts))),
        "psi_phi": ([x for pair in psi for x in pair],
                    max(residual(*pair) for pair in psi)),
        "t_related": ([x for pair in rel for x in pair],
                      max(check_related(G.target, extend_to_invariant(al, s),
                                        anchor_field(al, s), gs)
                          for s in sections)),
    }


def _laws_stacked(al, sections, f, pts, gs) -> dict:
    """The arrays of the same laws from :func:`by_slots`, split by slot."""
    a, b, c = sections
    G = al.gpd
    br = lambda x, y: algebroid_bracket(al, x, y)
    each = [(s,) for s in sections]
    terms, = by_slots(lambda x, y, z, at: (br(x, br(y, z)).at(at),),
                      [(a, b, c), (b, c, a), (c, a, b)], pts)
    brs, = by_slots(lambda x, y, at: (br(x, y).at(at),),
                    [(a, b), (b, a), (a, section_scale(f, b))], pts)
    x0, ab = pts[None], brs[None, :, 0]
    rhs = (_mul(f.fn(x0), ab)[0]
           + section_scale(act_on_function(anchor_field(al, a), f), b).at(pts))
    back, vals = by_slots(lambda s, x: (restrict_to_unit(
        al, extend_to_invariant(al, s), check=False).at(x), s.at(x)),
        each, pts)
    pushed, rho = by_slots(lambda s, x: related_sides(
        G.target, extend_to_invariant(al, s), anchor_field(al, s), x),
        each, gs)
    return {
        "jacobi": [terms[:, 0] + terms[:, 1] + terms[:, 2]],
        "antisymmetry": [brs[:, 0], brs[:, 1]],
        "leibniz": [brs[:, 2], rhs],
        "anchor_morphism": [_anchor_blocks(G, x0, ab)[0]],
        "psi_phi": [x[:, j] for j in range(3) for x in (back, vals)],
        "t_related": [x[:, j] for j in range(3) for x in (pushed, rho)],
    }


STACKED_CASES = dict(
    BUILTIN_GROUPOIDS,
    interval=lambda: pair_groupoid(box_domain(1, name="interval")))


def test_stacked_jacobi_batch_passes_the_gather_bound():
    # at 250 points the three stacked terms hold 750 towers a column,
    # past the gather bound at orders 2 and 3, where one term is below it
    assert 250 < min(_GATHER_BELOW[2], _GATHER_BELOW[3]) < 3 * 250
    # 200 and 250 points are stacked, 600 run one slot at a time
    assert 3 * 250 < _STACK_BELOW <= 3 * 600


@pytest.mark.parametrize("samples", [200, 250, 600])
@pytest.mark.parametrize("name", sorted(STACKED_CASES))
def test_stacked_laws_keep_the_bits_of_the_loop_per_section(name, samples):
    al = algebroid_of(STACKED_CASES[name]())
    p = al.base.dim
    rng = rng_for(47, "algebroid/stacked/" + name)
    sections = [al.section(random_expr(rng, p, al.rank, depth=3),
                           name=f"s{k}") if p
                else al.constant_section(rng.uniform(-1.0, 1.0, al.rank),
                                         name=f"s{k}")
                for k in range(3)]
    f = ScalarField.from_expr(al.base, random_expr(rng, p, 1, depth=3) if p
                              else build(0, lambda xs: [0.7]), name="f")
    res = check_algebroid_laws(al, rng_for(48, name), samples,
                               sections=sections, f=f)
    draw = rng_for(48, name)    # the laws' first two draws
    pts = al.base.sample(draw, samples)
    gs = al.gpd.sample_arrows(draw, samples)
    want = _laws_by_section(al, sections, f, pts, gs)
    got = _laws_stacked(al, sections, f, pts, gs)
    for law, (arrays, value) in want.items():
        assert res[law] == value, law
        assert len(got[law]) == len(arrays)
        for x, y in zip(got[law], arrays):
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), law


@pytest.mark.parametrize("n", [20, _STACK_BELOW // 2])
def test_by_slots_stacks_below_the_bound_and_runs_rows_above(als, n):
    al = als["action_gl2"]
    rng = rng_for(50, "algebroid/by_slots")
    secs = [al.section(random_expr(rng, 2, al.rank, depth=2), name=f"s{k}")
            for k in range(4)]
    pts = al.base.sample(rng, n)
    rows = [(secs[0], secs[1]), (secs[2], secs[3]), (secs[1], secs[0])]
    seen = []

    def run(x, y, at):
        seen.append((x.name, y.name, at.shape))
        return algebroid_bracket(al, x, y).at(at), y.at(at)

    got = by_slots(run, rows, pts)
    if 3 * n < _STACK_BELOW:
        assert seen == [("(s0,s2,s1)", "(s1,s3,s0)", (2, 3, n))]
    else:
        assert seen == [(x.name, y.name, (2, n)) for x, y in rows]
    for j, (x, y) in enumerate(rows):
        assert got[0][:, j].tobytes() == \
            algebroid_bracket(al, x, y).at(pts).tobytes()
        assert got[1][:, j].tobytes() == y.at(pts).tobytes()


def test_stacked_section_runs_each_section_on_its_slot(als):
    al = als["action_gl2"]
    rng = rng_for(49, "algebroid/stack")
    secs = [al.section(random_expr(rng, 2, al.rank, depth=2), name=f"s{k}")
            for k in range(4)]
    pts = al.base.sample(rng, 30)
    vals = stack_sections(secs).at(on_slots(pts, 4))
    assert vals.shape == (al.rank, 4, 30)
    for j, s in enumerate(secs):
        assert vals[:, j].tobytes() == s.at(pts).tobytes()


@pytest.mark.parametrize("name", sorted(BUILTIN_GROUPOIDS))
def test_bracket_table_is_the_loop_over_pairs(als, name):
    # the one batched evaluation gives the bits of one bracket per pair
    al = als[name]
    pts = al.base.sample(rng_for(7, "cli/differentiate/table"), 16)
    frame = np.eye(al.rank)
    e = [al.constant_section(frame[i]) for i in range(al.rank)]
    want = []
    for i in range(al.rank):
        for j in range(i + 1, al.rank):
            vals = algebroid_bracket(al, e[i], e[j]).at(pts)
            mean = vals.mean(axis=1)
            want.append({"i": i, "j": j, "mean": [float(x) for x in mean],
                         "spread": float(np.abs(vals - mean[:, None])
                                         .max(initial=0.0))})
    assert want
    assert repr(bracket_table(al, pts)) == repr(want)


def _units_of_interval() -> FiberedGroupoid:
    """The unit groupoid of an interval: rank 0, every arrow a unit."""
    line = box_domain(1, name="interval")
    ident = build(1, lambda s: [s[0]])
    return fibered_groupoid(
        line, Domain(1, line.box, name="units", split=(1, 0)), target=ident,
        compose=build(2, lambda s: [s[1]]), unit=ident, inverse=ident,
        name="units(interval)")


@pytest.mark.parametrize("make, rank", [(lambda: matrix_group(1), 1),
                                        (_units_of_interval, 0)])
def test_bracket_table_without_pairs(make, rank):
    al = algebroid_of(make())
    assert al.rank == rank
    assert bracket_table(al, al.base.sample(rng_for(7, "table"), 16)) == []


@settings(max_examples=25, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_bracket_bilinear(alpha, beta):
    al = algebroid_of(BUILTIN_GROUPOIDS["matrix2"]())
    A = al.constant_section([0.3, -0.1, 0.7, 0.2])
    B = al.constant_section([0.0, 1.0, -0.5, 0.4])
    C = al.constant_section([0.9, 0.0, 0.1, -0.6])
    mix = Section(al.base, al.rank, _sum(section_scale(alpha, A).fn,
                                         section_scale(beta, B).fn))
    lhs = algebroid_bracket(al, mix, C).at(POINT)
    rhs = (alpha * algebroid_bracket(al, A, C).at(POINT)
           + beta * algebroid_bracket(al, B, C).at(POINT))
    assert np.abs(lhs - rhs).max() < 1e-12
