"""Vector fields on a chart and their bracket.

A vector field is stored as its fiber map: a function taking the chart
coordinates as nilpotent towers and returning the fiber components as
towers of the same order.  Keeping the evaluator order-polymorphic is
what lets derived fields (brackets of brackets, pushforwards) be fed
straight back into every tangent-level construction.

The bracket adjoins one fresh top generator e: evaluating w at x + e*v
yields w(x) + e*(Dw x)v, so the top half of the difference of the two
crossed evaluations is exactly (Dw)v - (Dv)w.  The bottom halves must
reproduce the plain fibers bit for bit; that identity is the kernel
certificate behind the construction, and any order-dependent or noisy
evaluator breaks it, so every bracket evaluation measures it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .domain import Domain, SmoothMap
from .errors import KernelViolationError
from .expr import Expr
from .tanpoint import TanPoint, apply_tangent, residual
from .tower import Tower, join_top, split_top, stack_values

KERNEL_TOL = 1e-10

TowerFn = Callable[[list[Tower]], list[Tower]]


def _as_towers(points: np.ndarray, dim: int) -> list[Tower]:
    points = np.asarray(points, dtype=float)
    if points.shape[0] != dim:
        raise ValueError(f"expected leading axis {dim}, got {points.shape}")
    return [Tower.constant(points[i]) for i in range(dim)]


@dataclass(frozen=True)
class ScalarField:
    """A smooth function on a chart, evaluable on towers of any order."""
    dom: Domain
    fn: Callable[[list[Tower]], Tower]
    name: str = ""

    @classmethod
    def from_expr(cls, dom: Domain, body: Expr, name: str = "") -> "ScalarField":
        if body.n_inputs != dom.dim or len(body.outputs) != 1:
            raise ValueError(f"scalar field on dim {dom.dim} needs "
                             f"{dom.dim} inputs and 1 output")
        return cls(dom, lambda xs: body.evaluate(xs)[0], name)

    def __call__(self, xs: Sequence[Tower]) -> Tower:
        return self.fn(list(xs))

    def at(self, points: np.ndarray) -> np.ndarray:
        return self.fn(_as_towers(points, self.dom.dim)).coeffs[0]


@dataclass(frozen=True)
class VectorField:
    dom: Domain
    fn: TowerFn
    name: str = ""

    @classmethod
    def from_expr(cls, dom: Domain, body: Expr, name: str = "") -> "VectorField":
        if body.n_inputs != dom.dim or len(body.outputs) != dom.dim:
            raise ValueError(f"vector field on dim {dom.dim} needs a "
                             f"{dom.dim} -> {dom.dim} fiber map")
        return cls(dom, lambda xs: body.evaluate(xs), name)

    def fiber(self, xs: Sequence[Tower]) -> list[Tower]:
        """The fiber towers at ``xs``; a zero-dimensional chart has none,
        and ``fn`` is not called."""
        if not self.dom.dim:
            return []
        out = self.fn(list(xs))
        if len(out) != self.dom.dim:
            raise ValueError(f"field {self.name or '?'} returned "
                             f"{len(out)} components for dim {self.dom.dim}")
        return out

    def at(self, points: np.ndarray) -> np.ndarray:
        """Order-0 fiber values, shape (dim, ...)."""
        out = self.fiber(_as_towers(points, self.dom.dim))
        return stack_values(out, np.asarray(points).shape[1:])


# -- pointwise module structure ---------------------------------------

def field_add(v: VectorField, w: VectorField, name: str = "") -> VectorField:
    def fn(xs):
        return [a + b for a, b in zip(v.fiber(xs), w.fiber(xs))]
    return VectorField(v.dom, fn, name or f"({v.name}+{w.name})")


def field_scale(f, v: VectorField, name: str = "") -> VectorField:
    """Scale by a constant or pointwise by a scalar field."""
    if isinstance(f, ScalarField):
        def fn(xs):
            c = f(xs)
            return [c * comp for comp in v.fiber(xs)]
    else:
        c0 = float(f)

        def fn(xs):
            return [c0 * comp for comp in v.fiber(xs)]
    return VectorField(v.dom, fn, name or f"(f*{v.name})")


def act_on_function(v: VectorField, f: ScalarField, name: str = "") -> ScalarField:
    """The derivation: (v.f)(x) is the derivative of f along the fiber."""
    def fn(xs):
        vhat = v.fiber(xs)
        out = f([join_top(x, vh) for x, vh in zip(xs, vhat)])
        return split_top(out)[1]
    return ScalarField(v.dom, fn, name or f"({v.name}.{f.name})")


# -- the bracket ------------------------------------------------------

def _bracket_parts(v: VectorField, w: VectorField, xs: list[Tower]):
    """w at x + e v and v at x + e w, split at e, and their drift.

    The drift is the worst residual of the bottom halves against the
    plain fibers: the kernel certificate, infinite when any value is
    not finite.
    """
    vhat, what = v.fiber(xs), w.fiber(xs)
    a = [split_top(t) for t in w.fiber([join_top(x, c) for x, c in zip(xs, vhat)])]
    b = [split_top(t) for t in v.fiber([join_top(x, c) for x, c in zip(xs, what)])]
    drift = max([0.0] + [residual(lo.coeffs, plain.coeffs)
                         for (lo, _), plain in zip(a + b, what + vhat)])
    return a, b, drift


def kernel_residual(v: VectorField, w: VectorField, points: np.ndarray) -> float:
    """How far the crossed evaluations drift from the plain fibers.

    Zero for any evaluator built purely from tower arithmetic; an
    evaluator that branches on order or injects noise shows up here.
    """
    return _bracket_parts(v, w, _as_towers(points, v.dom.dim))[2]


def lie_bracket(v: VectorField, w: VectorField, name: str = "") -> VectorField:
    """The bracket field (Dw)v - (Dv)w, with its kernel certificate.

    Every evaluation checks that the even parts of the crossed
    evaluations reproduce the plain fibers to within ``KERNEL_TOL``
    (relative); a violation means the two evaluators do not present one
    consistent smooth section and the bracket would be meaningless.
    """
    if v.dom.dim != w.dom.dim:
        raise ValueError("bracket needs fields on one chart")

    def fn(xs: list[Tower]) -> list[Tower]:
        a, b, drift = _bracket_parts(v, w, xs)
        if drift > KERNEL_TOL:
            raise KernelViolationError(
                f"bracket of {v.name or '?'}, {w.name or '?'}: crossed "
                f"evaluations disagree with the plain fibers by {drift:.3e} "
                f"(tol {KERNEL_TOL:.1e})")
        return [x[1] - y[1] for x, y in zip(a, b)]

    return VectorField(v.dom, fn, name or f"[{v.name},{w.name}]")


# -- measurement helpers ----------------------------------------------

def jacobian_at(v: VectorField, points: np.ndarray) -> np.ndarray:
    """Jacobian of the fiber map, shape (dim, dim, ...), J[i, j] = dv_i/dx_j."""
    points = np.asarray(points, dtype=float)
    d = v.dom.dim
    cols = []
    for j in range(d):
        xs = []
        for i in range(d):
            seed = np.broadcast_to(1.0 if i == j else 0.0, points.shape[1:])
            xs.append(join_top(Tower.constant(points[i]), Tower.constant(seed)))
        out = v.fiber(xs)
        cols.append([split_top(t)[1].coeffs[0] for t in out])
    batch = points.shape[1:]
    arr = np.empty((d, d) + batch)
    for j, col in enumerate(cols):
        for i, c in enumerate(col):
            arr[i, j] = np.broadcast_to(c, batch)
    return arr


def bracket_by_jacobians(v: VectorField, w: VectorField,
                         points: np.ndarray) -> np.ndarray:
    """Coordinate formula (Dw)v - (Dv)w from explicit jacobian columns."""
    vv, ww = v.at(points), w.at(points)
    jv, jw = jacobian_at(v, points), jacobian_at(w, points)
    return (np.einsum("ij...,j...->i...", jw, vv)
            - np.einsum("ij...,j...->i...", jv, ww))


def check_related(phi: SmoothMap, v: VectorField, w: VectorField,
                  points: np.ndarray) -> float:
    """Residual of: the tangent of phi carries v to w along phi."""
    points = np.asarray(points, dtype=float)
    pushed = apply_tangent(phi, TanPoint(1, np.stack([points, v.at(points)])),
                           check_domain=False)
    return residual(pushed.blocks[1], w.at(pushed.base))


def check_bracket_laws(u: VectorField, v: VectorField, w: VectorField,
                       f: ScalarField, g: ScalarField,
                       points: np.ndarray) -> dict[str, float]:
    """Residuals of the classical bracket identities at sample points."""
    points = np.asarray(points, dtype=float)

    def ev(field):
        return field.at(points)

    res: dict[str, float] = {}
    vw = lie_bracket(v, w)
    res["antisymmetry"] = residual(ev(vw), -ev(lie_bracket(w, v)))
    jac = (ev(lie_bracket(u, vw))
           + ev(lie_bracket(v, lie_bracket(w, u)))
           + ev(lie_bracket(w, lie_bracket(u, v))))
    res["jacobi"] = residual(jac, np.zeros_like(jac))
    lhs = ev(lie_bracket(v, field_scale(f, w)))
    rhs = ev(field_add(field_scale(f, vw),
                       field_scale(act_on_function(v, f), w)))
    res["leibniz"] = residual(lhs, rhs)
    lhs2 = act_on_function(vw, g).at(points)
    rhs2 = (act_on_function(v, act_on_function(w, g)).at(points)
            - act_on_function(w, act_on_function(v, g)).at(points))
    res["derivation"] = residual(lhs2, rhs2)
    res["bilinearity"] = residual(
        ev(lie_bracket(field_add(u, v), w)),
        ev(field_add(lie_bracket(u, w), lie_bracket(v, w))))
    return res
