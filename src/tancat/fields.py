"""Vector fields on a chart and their bracket.

A field is a map on block arrays, with the signature of
``Expr.on_blocks``: the coordinates as order-n towers side by side,
shape ``(2**n, d, *batch)``, go to the fiber in the same layout, or to
one column for a scalar field.  The shape carries the order and batch,
also when ``d`` is zero, so derived fields (brackets of brackets,
pushforwards) feed straight back into every tangent-level construction.

The bracket adjoins one fresh top generator e by an axis-0
concatenation: evaluating w at x + e*v yields w(x) + e*(Dw x)v, so the
top half of the difference of the two crossed evaluations is exactly
(Dw)v - (Dv)w.  The bottom halves must reproduce the plain fibers bit
for bit; that identity is the kernel certificate behind the
construction, and any order-dependent or noisy evaluator breaks it, so
every bracket evaluation measures it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .domain import Domain, SmoothMap
from .errors import KernelViolationError
from .expr import Expr
from .report import Sides, reduced, residual
from .tower import Tower, _mul

KERNEL_TOL = 1e-10

# (2**n, d_in, *batch) -> (2**n, d_out, *batch)
BlockFn = Callable[[np.ndarray], np.ndarray]


def _check_arity(dom: Domain, body: Expr, n_outputs: int, what: str) -> None:
    if body.n_inputs != dom.dim or body.n_outputs != n_outputs:
        raise ValueError(f"{what} on dim {dom.dim} needs a {dom.dim} -> "
                         f"{n_outputs} map, got {body.n_inputs} -> "
                         f"{body.n_outputs}")


@dataclass(frozen=True)
class ScalarField:
    """A smooth function on a chart: blocks to one column of blocks."""
    dom: Domain
    fn: BlockFn
    name: str = ""

    @classmethod
    def from_expr(cls, dom: Domain, body: Expr, name: str = "") -> "ScalarField":
        _check_arity(dom, body, 1, "scalar field")
        return cls(dom, body.on_blocks, name)

    def at(self, points: np.ndarray) -> np.ndarray:
        """Order-0 values, shape (...)."""
        return self.fn(np.asarray(points, dtype=float)[None])[0, 0]


@dataclass(frozen=True)
class VectorField:
    dom: Domain
    fn: BlockFn
    name: str = ""

    @classmethod
    def from_expr(cls, dom: Domain, body: Expr, name: str = "") -> "VectorField":
        _check_arity(dom, body, dom.dim, "vector field")
        return cls(dom, body.on_blocks, name)

    def _fiber_blocks(self, blocks: np.ndarray) -> np.ndarray:
        out = self.fn(blocks)
        if out.shape[1] != self.dom.dim:
            raise ValueError(f"field {self.name or '?'} returned "
                             f"{out.shape[1]} components for dim {self.dom.dim}")
        return out

    def fiber(self, xs: Sequence[Tower]) -> list[Tower]:
        """The fiber towers at the coordinate towers ``xs``, all of one
        order and batch shape: ``fn`` on the towers laid side by side."""
        out = self._fiber_blocks(np.stack([t.coeffs for t in xs], axis=1))
        return [Tower._raw(xs[0].order, out[:, i]) for i in range(out.shape[1])]

    def at(self, points: np.ndarray) -> np.ndarray:
        """Order-0 fiber values, shape (dim, ...)."""
        return self._fiber_blocks(np.asarray(points, dtype=float)[None])[0]


# -- pointwise module structure ---------------------------------------

def _sum(a: BlockFn, b: BlockFn) -> BlockFn:
    return lambda x: a(x) + b(x)


def _scaled(f, fn: BlockFn) -> BlockFn:
    """``fn`` times a constant, or times a scalar field in the tower
    ring: ``_mul`` broadcasts the field's one column over the fiber."""
    if isinstance(f, ScalarField):
        return lambda x: _mul(f.fn(x), fn(x))
    c0 = float(f)
    return lambda x: fn(x) * c0


def field_add(v: VectorField, w: VectorField, name: str = "") -> VectorField:
    return VectorField(v.dom, _sum(v.fn, w.fn), name or f"({v.name}+{w.name})")


def field_scale(f, v: VectorField, name: str = "") -> VectorField:
    """Scale by a constant or pointwise by a scalar field."""
    return VectorField(v.dom, _scaled(f, v.fn), name or f"(f*{v.name})")


def act_on_function(v: VectorField, f: ScalarField, name: str = "") -> ScalarField:
    """The derivation: (v.f)(x) is the derivative of f along the fiber."""
    def fn(x):
        return f.fn(np.concatenate([x, v.fn(x)]))[len(x):]
    return ScalarField(v.dom, fn, name or f"({v.name}.{f.name})")


# -- the bracket ------------------------------------------------------

def _drift(lo: np.ndarray, plain: np.ndarray) -> float:
    """The worst residual of any one fiber component, 0 for none.

    A difference of zeros only is all finite and needs no residuals:
    a NaN or inf on either side leaves a NaN or inf in it.
    """
    with np.errstate(invalid="ignore"):
        if not (lo - plain).any():
            return 0.0
    return max(residual(lo[:, i], plain[:, i]) for i in range(plain.shape[1]))


def _bracket_parts(v: VectorField, w: VectorField, x: np.ndarray):
    """The top halves of w at x + e v and of v at x + e w, and their drift.

    The drift is the worst residual of the bottom halves against the
    plain fibers: the kernel certificate, infinite when any value is
    not finite.  Each crossed evaluation is dropped once its halves
    are read.
    """
    n = len(x)
    vhat, what = v.fn(x), w.fn(x)
    wv = w.fn(np.concatenate([x, vhat]))
    drift = _drift(wv[:n], what)
    wv = wv[n:].copy()
    vw = v.fn(np.concatenate([x, what]))
    drift = max(drift, _drift(vw[:n], vhat))
    return wv, vw[n:], drift


def kernel_residual(v: VectorField, w: VectorField, points: np.ndarray) -> float:
    """How far the crossed evaluations drift from the plain fibers.

    Zero for any evaluator built purely from tower arithmetic; an
    evaluator that branches on order or injects noise shows up here.
    """
    return _bracket_parts(v, w, np.asarray(points, dtype=float)[None])[2]


def lie_bracket(v: VectorField, w: VectorField, name: str = "") -> VectorField:
    """The bracket field (Dw)v - (Dv)w, with its kernel certificate.

    Every evaluation checks that the even parts of the crossed
    evaluations reproduce the plain fibers to within ``KERNEL_TOL``
    (relative); a violation means the two evaluators do not present one
    consistent smooth section and the bracket would be meaningless.
    """
    if v.dom.dim != w.dom.dim:
        raise ValueError("bracket needs fields on one chart")

    def fn(x: np.ndarray) -> np.ndarray:
        a, b, drift = _bracket_parts(v, w, x)
        if drift > KERNEL_TOL:
            raise KernelViolationError(
                f"bracket of {v.name or '?'}, {w.name or '?'}: crossed "
                f"evaluations disagree with the plain fibers by {drift:.3e} "
                f"(tol {KERNEL_TOL:.1e})")
        return a - b

    return VectorField(v.dom, fn, name or f"[{v.name},{w.name}]")


# -- measurement helpers ----------------------------------------------

def jacobian_at(v: VectorField, points: np.ndarray) -> np.ndarray:
    """Jacobian of the fiber map, shape (dim, dim, ...), J[i, j] = dv_i/dx_j.

    One order-1 evaluation: the seed direction j is a batch axis in
    front of the points' own.
    """
    points = np.asarray(points, dtype=float)
    d = v.dom.dim
    blocks = np.empty((2, d, d) + points.shape[1:])
    blocks[0] = points[:, None]
    blocks[1] = np.eye(d).reshape((d, d) + (1,) * (points.ndim - 1))
    return v._fiber_blocks(blocks)[1]


def bracket_by_jacobians(v: VectorField, w: VectorField,
                         points: np.ndarray) -> np.ndarray:
    """Coordinate formula (Dw)v - (Dv)w from explicit jacobian columns."""
    vv, ww = v.at(points), w.at(points)
    jv, jw = jacobian_at(v, points), jacobian_at(w, points)
    return (np.einsum("ij...,j...->i...", jw, vv)
            - np.einsum("ij...,j...->i...", jv, ww))


def related_sides(phi: SmoothMap, v: VectorField, w: VectorField,
                  points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tangent of phi applied to v at the points, and w at their
    images: equal when phi carries v to w."""
    points = np.asarray(points, dtype=float)
    pushed = phi.body.on_blocks(np.stack([points, v.at(points)]))
    return pushed[1], w.at(pushed[0])


def check_related(phi: SmoothMap, v: VectorField, w: VectorField,
                  points: np.ndarray) -> float:
    """Residual of: the tangent of phi carries v to w along phi."""
    return residual(*related_sides(phi, v, w, points))


@reduced
def check_bracket_laws(u: VectorField, v: VectorField, w: VectorField,
                       f: ScalarField, g: ScalarField,
                       points: np.ndarray) -> Sides:
    """Residuals of the classical bracket identities at sample points,
    and of [v, w] against its coordinate formula (``jacobian_route``)."""
    points = np.asarray(points, dtype=float)

    def ev(field):
        return field.at(points)

    vw = lie_bracket(v, w)
    at_vw = ev(vw)
    yield "jacobian_route", at_vw, bracket_by_jacobians(v, w, points)
    yield "antisymmetry", at_vw, -ev(lie_bracket(w, v))
    yield ("jacobi", ev(lie_bracket(u, vw))
           + ev(lie_bracket(v, lie_bracket(w, u)))
           + ev(lie_bracket(w, lie_bracket(u, v))), 0.0)
    yield ("leibniz", ev(lie_bracket(v, field_scale(f, w))),
           ev(field_add(field_scale(f, vw),
                        field_scale(act_on_function(v, f), w))))
    yield ("derivation", act_on_function(vw, g).at(points),
           act_on_function(v, act_on_function(w, g)).at(points)
           - act_on_function(w, act_on_function(v, g)).at(points))
    yield ("bilinearity", ev(lie_bracket(field_add(u, v), w)),
           ev(field_add(lie_bracket(u, w), lie_bracket(v, w))))
