"""Vector fields and the bracket, against finite differences and hand values."""

import numpy as np
import pytest

from tancat.domain import SmoothMap, box_domain
from tancat.errors import KernelViolationError
from tancat import expr
from tancat.expr import build, cos, log, sin
from tancat.fields import (ScalarField, VectorField, act_on_function,
                           bracket_by_jacobians, check_bracket_laws,
                           check_related, field_add, field_scale,
                           jacobian_at, kernel_residual, lie_bracket)
from tancat.randexpr import random_expr
from tancat.report import rng_for
from tancat.tower import Tower, _mul, join_top

D2 = box_domain(2, -2, 2)


def vf(dom, fn):
    return VectorField.from_expr(dom, build(dom.dim, fn))


def _rand_field(rng, dom, depth=4):
    return VectorField.from_expr(dom, random_expr(rng, dom.dim, dom.dim,
                                                  depth=depth))


class TestWorkedExamples:
    def test_rotation_against_translation(self):
        v = vf(D2, lambda xs: [-xs[1], xs[0]])
        w = vf(D2, lambda xs: [1.0, 0.0])
        out = lie_bracket(v, w).at(np.array([[0.3], [1.1]]))
        assert out[:, 0] == pytest.approx([0.0, -1.0], abs=1e-15)

    def test_scaling_against_translation(self):
        d1 = box_domain(1, 0.1, 3.0)
        v = vf(d1, lambda xs: [xs[0]])
        w = vf(d1, lambda xs: [1.0])
        out = lie_bracket(v, w).at(np.array([[1.7]]))
        assert out[0, 0] == pytest.approx(-1.0, abs=1e-15)

    def test_euler_field_kills_log_curvature(self):
        d1 = box_domain(1, 0.1, 3.0)
        v = vf(d1, lambda xs: [xs[0]])
        f = ScalarField.from_expr(d1, build(1, lambda xs: [log(xs[0])]))
        assert act_on_function(v, f).at(np.array([[2.0]]))[0] == \
            pytest.approx(1.0, abs=1e-15)

    def test_jacobian_entries(self):
        v = vf(D2, lambda xs: [xs[0] * xs[0], xs[0] * xs[1]])
        j = jacobian_at(v, np.array([[1.5], [-0.5]]))
        assert np.allclose(j[:, :, 0], [[3.0, 0.0], [-0.5, 1.5]], atol=1e-14)


class TestOracles:
    def test_bracket_matches_finite_differences(self):
        rng = rng_for(2024, "fields/fd")
        h = 1e-4
        worst = 0.0
        for d in (1, 2, 3):
            dom = box_domain(d, -1.5, 1.5)
            v, w = _rand_field(rng, dom), _rand_field(rng, dom)
            pts = rng.uniform(-1.0, 1.0, size=(d, 100))
            got = lie_bracket(v, w).at(pts)
            vv, ww = v.at(pts), w.at(pts)
            fd = (w.at(pts + h * vv) - w.at(pts - h * vv)
                  - v.at(pts + h * ww) + v.at(pts - h * ww)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(got - fd) / (1 + np.abs(got)))))
        assert worst < 1e-5

    def test_bracket_matches_jacobian_route(self):
        rng = rng_for(2024, "fields/ad")
        for d in (1, 2, 3):
            dom = box_domain(d, -1.5, 1.5)
            v, w = _rand_field(rng, dom), _rand_field(rng, dom)
            pts = rng.uniform(-1.0, 1.0, size=(d, 100))
            got = lie_bracket(v, w).at(pts)
            ref = bracket_by_jacobians(v, w, pts)
            assert np.max(np.abs(got - ref) / (1 + np.abs(ref))) < 1e-10

    def test_bracket_field_is_differentiable(self):
        # seed a tangent through the bracket evaluator and compare the
        # jet with central differences of the order-0 bracket
        rng = rng_for(6, "fields/tbracket")
        dom = box_domain(2, -1.5, 1.5)
        v, w = _rand_field(rng, dom), _rand_field(rng, dom)
        b = lie_bracket(v, w)
        pts = rng.uniform(-0.8, 0.8, size=(2, 40))
        dirs = rng.uniform(-1.0, 1.0, size=(2, 40))
        xs = [join_top(Tower.constant(pts[i]), Tower.constant(dirs[i]))
              for i in range(2)]
        jet = np.stack([t.coeffs[1] for t in b.fiber(xs)])  # the e1 slot
        h = 1e-4
        fd = (b.at(pts + h * dirs) - b.at(pts - h * dirs)) / (2 * h)
        assert np.max(np.abs(jet - fd) / (1 + np.abs(jet))) < 1e-5


class TestLaws:
    def test_bracket_laws_random_fields(self):
        rng = rng_for(99, "fields/laws")
        for d in (1, 2):
            dom = box_domain(d, -1.5, 1.5)
            u, v, w = (_rand_field(rng, dom, depth=3) for _ in range(3))
            f = ScalarField.from_expr(dom, random_expr(rng, d, 1, depth=3))
            g = ScalarField.from_expr(dom, random_expr(rng, d, 1, depth=3))
            pts = rng.uniform(-1.0, 1.0, size=(d, 50))
            res = check_bracket_laws(u, v, w, f, g, pts)
            assert res["antisymmetry"] < 1e-12
            assert res["jacobi"] < 1e-8
            assert res["leibniz"] < 1e-9
            assert res["derivation"] < 1e-9
            assert res["bilinearity"] < 1e-12

    def test_module_operations(self):
        d1 = box_domain(1, -2, 2)
        v = vf(d1, lambda xs: [xs[0]])
        f = ScalarField.from_expr(d1, build(1, lambda xs: [xs[0] * xs[0]]))
        pts = np.array([[0.5, 2.0]])
        assert field_scale(f, v).at(pts)[0] == pytest.approx([0.125, 8.0])
        assert field_scale(3.0, v).at(pts)[0] == pytest.approx([1.5, 6.0])
        assert field_add(v, v).at(pts)[0] == pytest.approx([1.0, 4.0])

    def test_relatedness_along_parabola(self):
        dom = box_domain(1, -1.2, 1.2)
        cod = box_domain(2, -2, 2)
        phi = SmoothMap(dom, cod, build(1, lambda xs: [xs[0], xs[0] * xs[0]]))
        v = vf(dom, lambda xs: [1.0])
        w = vf(cod, lambda ys: [1.0, 2 * ys[0]])
        pts = np.linspace(-1, 1, 11)[None]
        assert check_related(phi, v, w, pts) < 1e-15
        bad = vf(cod, lambda ys: [1.0, 3 * ys[0]])
        assert check_related(phi, v, bad, pts) > 1e-2


class TestKernelCertificate:
    def test_exact_for_program_fields(self):
        rng = rng_for(5, "fields/kernel")
        for d in (1, 2, 3):
            dom = box_domain(d, -1.5, 1.5)
            v, w = _rand_field(rng, dom), _rand_field(rng, dom)
            pts = rng.uniform(-1.0, 1.0, size=(d, 64))
            # the even parts of the crossed evaluations re-run the same
            # float program, so the certificate is exactly zero
            assert kernel_residual(v, w, pts) == 0.0

    def test_violation_raises(self):
        dom = box_domain(1, -2, 2)
        v = vf(dom, lambda xs: [xs[0] * xs[0]])

        def drifty(x):
            out = v.fn(x)
            if len(x) > 1:
                out[0] += 1e-6  # order-dependent evaluation
            return out

        w = VectorField(dom, drifty, name="drifty")
        pts = np.array([[0.7, -0.4]])
        assert kernel_residual(v, w, pts) > 1e-8
        with pytest.raises(KernelViolationError):
            lie_bracket(v, w).at(pts)
        # the honest pairing stays clean
        assert kernel_residual(v, v, pts) == 0.0

    def test_nan_above_order_zero_violates(self):
        # max(0.0, nan) is 0.0, so a certificate that does not treat NaN
        # as a violation would pass this field and bracket it to NaN
        dom = box_domain(2, -2, 2)
        plain = vf(dom, lambda xs: [sin(xs[0]) * xs[1], xs[0]])

        def nan_lift(x):
            out = plain.fn(x)
            if len(x) == 1:     # order 0
                return out
            return np.full_like(out, np.nan)

        v = VectorField(dom, nan_lift, name="nan_lift")
        w = vf(dom, lambda xs: [xs[1], -xs[0]])
        pts = np.array([[0.7, -0.4], [0.3, 1.1]])
        assert kernel_residual(v, w, pts) == np.inf
        with pytest.raises(KernelViolationError):
            lie_bracket(v, w).at(pts)

    def test_drifting_product_under_sin_and_cos_violates(self, monkeypatch):
        # sin and cos steps keep the jets of their last base; a product
        # that drifts at order 1 moves the bases of the crossed
        # evaluation, which must not get the plain evaluation's jets
        def drifting(x, y):
            out = _mul(x, y)
            if len(out) == 2:
                out[0] *= 1.0 + 1e-6
            return out

        monkeypatch.setitem(expr._BINARY_OPS, "mul", drifting)
        v = vf(D2, lambda xs: [sin(xs[0] * xs[1]), cos(xs[0] * xs[1])])
        w = vf(D2, lambda xs: [xs[1], -xs[0]])
        pts = np.array([[0.7, -0.4, 1.3], [0.3, 1.1, -0.8]])
        assert kernel_residual(w, v, pts) > 1e-8
        with pytest.raises(KernelViolationError):
            lie_bracket(v, w).at(pts)
