"""A groupoid acting on its own arrows: transport, invariance, closure."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tancat.domain import SmoothMap, box_domain, product_domain
from tancat.errors import KernelViolationError, VerticalityError
from tancat.expr import ExprBuilder, build
from tancat.fields import ScalarField, VectorField, lie_bracket
from tancat.gbundle import (_action_pairs, act_on_vertical,
                            check_invariant_closure, check_vertical_structure,
                            invariance_defect, is_invariant, vertical_tangent)
from tancat.groupoid import BUILTIN_GROUPOIDS, pair_groupoid
from tancat.report import rng_for


@pytest.fixture(scope="module")
def gpds():
    return {name: make() for name, make in BUILTIN_GROUPOIDS.items()}


def _left_mul(A):
    # field M -> A M on the row-major 2x2 chart
    return build(4, lambda m: [
        A[0][0] * m[0] + A[0][1] * m[2], A[0][0] * m[1] + A[0][1] * m[3],
        A[1][0] * m[0] + A[1][1] * m[2], A[1][0] * m[1] + A[1][1] * m[3]])


def _right_mul(A):
    return build(4, lambda m: [
        m[0] * A[0][0] + m[1] * A[1][0], m[0] * A[0][1] + m[1] * A[1][1],
        m[2] * A[0][0] + m[3] * A[1][0], m[2] * A[0][1] + m[3] * A[1][1]])


# -- the action on the builders ---------------------------------------

def test_vertical_structure(gpds):
    rng = rng_for(21, "gbundle/vertical")
    for name, G in gpds.items():
        res = check_vertical_structure(G, rng, 80)
        assert max(res.values()) < 1e-12, (name, res)


def test_arrows_into_targets(gpds):
    rng = rng_for(21, "gbundle/into")
    for name, G in gpds.items():
        e, g = _action_pairs(G, rng, 40)
        p = G.base.dim
        assert np.abs(G.target(g) - e[:p]).max(initial=0.0) < 1e-12, name


# -- transport ---------------------------------------------------------

def test_transport_pair_worked_example(gpds):
    G = gpds["pair"]
    e = np.array([0.1, 0.2, 0.3, 0.4])
    xi = vertical_tangent(e, np.array([5.0, 7.0]), p=2)
    g = np.array([-0.3, 0.6, 0.1, 0.2])     # target(g) = anchor(e)
    out = act_on_vertical(G, xi, g)
    assert out.blocks[0].tolist() == [-0.3, 0.6, 0.3, 0.4]
    assert out.blocks[1].tolist() == [0.0, 0.0, 5.0, 7.0]


def test_transport_matrix_is_right_multiplication(gpds):
    G = gpds["matrix2"]
    rng = rng_for(5, "gbundle/matmul")
    M = np.array([1.0, 0.2, -0.1, 0.8])
    U = rng.uniform(-1.0, 1.0, size=4)
    g = np.array([0.9, -0.3, 0.4, 1.1])
    out = act_on_vertical(G, vertical_tangent(M, U, p=0), g)
    want = U.reshape(2, 2) @ g.reshape(2, 2)
    assert np.abs(out.blocks[1] - want.ravel()).max() < 1e-14
    assert np.abs(out.blocks[0] - (M.reshape(2, 2) @ g.reshape(2, 2)).ravel()).max() < 1e-14


def test_transport_rejects_sloppy_input(gpds):
    G = gpds["pair"]
    e = np.array([0.1, 0.2, 0.3, 0.4])
    g = np.array([-0.3, 0.6, 0.1, 0.2])
    from tancat.tanpoint import TanPoint
    tilted = TanPoint(1, np.stack([e, np.array([1.0, 0.0, 5.0, 7.0])]))
    with pytest.raises(VerticalityError):
        act_on_vertical(G, tilted, g)
    with pytest.raises(ValueError):
        act_on_vertical(G, TanPoint.from_base(e), g)


def test_transport_detects_anchor_leak():
    # an action whose anchor output reads the fiber: the transported
    # tangent picks up an anchor velocity and must be refused
    G = pair_groupoid(box_domain(2, name="square"))
    b = ExprBuilder(8)
    s = b.inputs()
    leak = s[5] + 0.01 * s[2] * s[2]
    leaky = SmoothMap(product_domain(G.arrows, G.arrows), G.arrows,
                      b.finish([s[4], leak, s[2], s[3]]), name="leaky")
    G = dataclasses.replace(G, compose=leaky)
    xi = vertical_tangent(np.array([0.1, 0.2, 0.3, 0.4]),
                          np.array([5.0, 7.0]), p=2)
    g = np.array([-0.3, 0.6, 0.1, 0.2])
    with pytest.raises(VerticalityError):
        act_on_vertical(G, xi, g)


@settings(max_examples=40, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_transport_is_linear(c, u1, u2):
    G = pair_groupoid(box_domain(2, name="square"))
    e = np.array([0.1, 0.2, 0.3, 0.4])
    g = np.array([-0.3, 0.6, 0.1, 0.2])
    xi = vertical_tangent(e, np.array([u1, u2]), p=2)
    from tancat.tanpoint import scale_level
    lhs = act_on_vertical(G, scale_level(xi, c), g)
    rhs = scale_level(act_on_vertical(G, xi, g), c)
    assert np.abs(lhs.blocks - rhs.blocks).max() < 1e-12


# -- invariance --------------------------------------------------------

def test_pair_invariance_discrimination(gpds):
    G = gpds["pair"]
    rng = rng_for(22, "gbundle/pairinv")
    good = VectorField.from_expr(
        G.arrows, build(4, lambda s: [0.0, 0.0, s[3] * s[3], s[2]]))
    bad = VectorField.from_expr(
        G.arrows, build(4, lambda s: [0.0, 0.0, s[0] * s[3], s[2]]))
    tilted = VectorField.from_expr(
        G.arrows, build(4, lambda s: [s[2], 0.0, 0.0, 0.0]))
    assert max(invariance_defect(G, good, rng, 150).values()) < 1e-14
    assert is_invariant(G, good, rng, 150)
    d = invariance_defect(G, bad, rng, 150)
    assert d["verticality"] < 1e-14 and d["equivariance"] > 0.05
    assert invariance_defect(G, tilted, rng, 150)["verticality"] > 0.05
    assert not is_invariant(G, bad, rng, 150)


def test_matrix_invariance_discrimination(gpds):
    G = gpds["matrix2"]
    rng = rng_for(22, "gbundle/matinv")
    E12 = [[0.0, 1.0], [0.0, 0.0]]
    good = VectorField.from_expr(G.arrows, _left_mul(E12))
    bad = VectorField.from_expr(G.arrows, _right_mul(E12))
    assert max(invariance_defect(G, good, rng, 150).values()) < 1e-14
    assert invariance_defect(G, bad, rng, 150)["equivariance"] > 0.05


def test_nan_field_is_not_invariant(gpds):
    G = gpds["pair"]
    rng = rng_for(22, "gbundle/naninv")
    good = VectorField.from_expr(
        G.arrows, build(4, lambda s: [0.0, 0.0, s[3] * s[3], s[2]]))
    w = VectorField.from_expr(
        G.arrows, build(4, lambda s: [0.0, 0.0, 1.0 + 0.0 * s[2], s[3]]))
    f = ScalarField.from_expr(G.arrows, build(4, lambda s: [s[2] * s[3]]))

    def nan_from(order):
        def fn(x):
            out = good.fn(x)
            if len(x) < 1 << order:
                return out
            return np.full_like(out, np.nan)
        return VectorField(G.arrows, fn, name=f"nan_from_order{order}")

    # the defects are residuals, which read NaN as inf, so the max in
    # is_invariant cannot drop them
    nan_values = nan_from(0)
    assert invariance_defect(G, nan_values, rng, 50) == {
        "verticality": np.inf, "equivariance": np.inf}
    assert not is_invariant(G, nan_values, rng, 50)
    # the defects read order-0 values only; NaN above order 0 is caught
    # by the kernel certificate of the closure's bracket instead
    with pytest.raises(KernelViolationError):
        check_invariant_closure(G, [nan_from(1), w], f, rng, 50)


def test_invariant_closure_pair(gpds):
    G = gpds["pair"]
    rng = rng_for(23, "gbundle/pairclose")
    v = VectorField.from_expr(
        G.arrows, build(4, lambda s: [0.0, 0.0, s[3] * s[3], s[2]]))
    w = VectorField.from_expr(
        G.arrows, build(4, lambda s: [0.0, 0.0, 1.0 + 0.0 * s[2], s[3]]))
    f = ScalarField.from_expr(G.arrows, build(4, lambda s: [s[2] * s[3]]))
    res = check_invariant_closure(G, [v, w], f, rng, 200)
    assert set(res) == {"given_0", "given_1", "bracket", "sum", "scaled"}
    assert max(res.values()) < 1e-10, res


def test_invariant_closure_matrix(gpds):
    G = gpds["matrix2"]
    rng = rng_for(23, "gbundle/matclose")
    v = VectorField.from_expr(G.arrows, _left_mul([[0.0, 1.0], [0.0, 0.0]]))
    w = VectorField.from_expr(G.arrows, _left_mul([[0.0, 0.0], [1.0, 0.0]]))
    one = ScalarField.from_expr(G.arrows, build(4, lambda m: [1.0 + 0.0 * m[0]]))
    res = check_invariant_closure(G, [v, w], one, rng, 200)
    assert max(res.values()) < 1e-10, res


def test_matrix_bracket_of_invariants(gpds):
    # bracket of left multiplications by A and B is left multiplication
    # by BA - AB; frozen pair E12, E21 gives E22 - E11
    G = gpds["matrix2"]
    rng = rng_for(24, "gbundle/matbracket")
    vA = VectorField.from_expr(G.arrows, _left_mul([[0.0, 1.0], [0.0, 0.0]]))
    wB = VectorField.from_expr(G.arrows, _left_mul([[0.0, 0.0], [1.0, 0.0]]))
    br = lie_bracket(vA, wB)
    pts = G.arrows.sample(rng, 60)
    C = np.array([[-1.0, 0.0], [0.0, 1.0]])        # E21 E12 - E12 E21
    want = np.einsum("ik,kjn->ijn", C, pts.reshape(2, 2, -1)).reshape(4, -1)
    assert np.abs(br.at(pts) - want).max() < 1e-12
