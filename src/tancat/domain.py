"""Open chart domains and smooth maps between them.

A :class:`Domain` is a box in R^d cut down by strict inequalities
``c(x) > 0``.  Membership tests both; ``sample_constraints`` are extra
predicates applied only while sampling, to keep random points away from
numerically delicate regions without shrinking the chart itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, SamplerError
from .expr import Expr, ExprBuilder, json_int, reindex_inputs
from .report import uniform_width

# rejection-sampling rounds before a sampler gives up
MAX_ROUNDS = 64


@dataclass(frozen=True)
class Domain:
    dim: int
    box: np.ndarray = None  # (dim, 2) rows of [lo, hi]
    constraints: tuple[Expr, ...] = ()
    name: str = ""
    # declared product structure, for partial tangents
    split: tuple[int, int] | None = None
    # extra predicates applied only while sampling (conditioning guards)
    sample_constraints: tuple[Expr, ...] = ()

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError(f"domain {self.name or self.dim}: negative dim")
        box = self.box
        if box is None:
            box = np.tile([-1.0, 1.0], (self.dim, 1))
        box = np.asarray(box, dtype=float).reshape(self.dim, 2)
        # a finite width also rules out an infinite bound, and it is what
        # the sampler's uniform draw needs
        with np.errstate(over="ignore", invalid="ignore"):
            width = box[:, 1] - box[:, 0]
        if not (np.isfinite(width) & (width >= 0)).all():
            raise ValueError(f"domain {self.name or self.dim}: box rows must "
                             f"be [lo, hi] with 0 <= hi - lo < inf")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "sample_constraints",
                           tuple(self.sample_constraints))
        for c in self.constraints + self.sample_constraints:
            if c.n_inputs != self.dim or c.n_outputs != 1:
                raise ValueError(f"constraint arity {c.n_inputs}->{c.n_outputs} "
                                 f"does not fit a dim-{self.dim} domain")
        if self.split is not None and sum(self.split) != self.dim:
            raise ValueError(f"split {self.split} does not sum to dim {self.dim}")

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Elementwise membership for points of shape (dim,) or (dim, ...)."""
        points = np.asarray(points, dtype=float)
        batch = points.shape[1:]
        ok = np.ones(batch, dtype=bool)
        if self.dim:
            slack = 1e-9 * (1.0 + np.abs(self.box))
            lo = (self.box[:, 0] - slack[:, 0]).reshape((self.dim,) + (1,) * len(batch))
            hi = (self.box[:, 1] + slack[:, 1]).reshape((self.dim,) + (1,) * len(batch))
            ok &= np.all((points >= lo) & (points <= hi), axis=0)
        if self.constraints:
            ok &= _positive(points, self.constraints, self._member_program)
        return ok

    def admits(self, points: np.ndarray) -> np.ndarray:
        """The sampler's test: every constraint and sampling guard is
        positive at the points, of shape (dim, ...)."""
        if not (self.constraints or self.sample_constraints):
            return np.ones(np.shape(points)[1:], dtype=bool)
        return _positive(points, self.constraints + self.sample_constraints,
                         self._sample_program)

    @cached_property
    def _member_program(self) -> Expr:
        return _joined(self.constraints, self.dim)

    @cached_property
    def _sample_program(self) -> Expr:
        return _joined(self.constraints + self.sample_constraints, self.dim)

    @cached_property
    def _bounds(self) -> tuple:
        return draw_bounds(self.box)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Rejection-sample n member points, shape (dim, n); no point
        is drawn when none is wanted."""
        if self.dim == 0 or n == 0:
            return np.zeros((self.dim, n))
        chunks: list[np.ndarray] = []
        have = 0
        for _ in range(MAX_ROUNDS):
            draw = uniform_width(rng, *self._bounds,
                                 size=(self.dim, 2 * (n - have)))
            ok = self.admits(draw)
            kept = draw[:, ok]
            if kept.shape[1]:
                chunks.append(kept)
                have += kept.shape[1]
            if have >= n:
                return np.concatenate(chunks, axis=1)[:, :n]
        raise SamplerError(
            f"domain {self.name or self.dim}: rejection budget exhausted "
            f"({have}/{n} points after {MAX_ROUNDS} rounds)")

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {"dim": self.dim, "box": self.box.tolist(),
               "constraints": [c.to_json_dict() for c in self.constraints],
               "name": self.name}
        if self.sample_constraints:
            out["sample_constraints"] = [c.to_json_dict()
                                         for c in self.sample_constraints]
        if self.split is not None:
            out["split"] = list(self.split)
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "Domain":
        return cls(dim=json_int(data["dim"], "dim"),
                   box=np.asarray(data.get("box")) if data.get("box") is not None else None,
                   constraints=tuple(Expr.from_json_dict(c)
                                     for c in data.get("constraints", ())),
                   name=str(data.get("name", "")),
                   split=(tuple(json_int(s, "split") for s in data["split"])
                          if "split" in data else None),
                   sample_constraints=tuple(
                       Expr.from_json_dict(c)
                       for c in data.get("sample_constraints", ())))


def draw_bounds(box: np.ndarray) -> tuple:
    """``(lo, width)`` columns of the rows of ``box``, for
    ``report.uniform_width``: each row's ``width`` is ``hi - lo``, as
    ``rng.uniform`` computes it, so the draw has its bits."""
    lo = box[:, :1]
    return lo, box[:, 1:] - lo


def _joined(exprs: tuple[Expr, ...], dim: int) -> Expr:
    """One program with every output of ``exprs``, on shared inputs; a
    subterm they share, such as a determinant, runs once."""
    if len(exprs) == 1:
        return exprs[0]
    b = ExprBuilder(dim)
    xs = b.inputs()
    return b.finish([h for e in exprs for h in b.splice(e, xs)])


def _positive(points: np.ndarray, exprs: tuple[Expr, ...],
              program: Expr) -> np.ndarray:
    """Whether every one-output ``exprs`` is positive at the points,
    run as their joined ``program``.

    A ``DomainError`` is raised again by the expressions one by one, so
    its message names the node of the first expression that fails, as
    the spec numbers it.
    """
    try:
        values = program(points)
    except DomainError:
        for e in exprs:
            e(points)
        raise
    return np.logical_and.reduce(values > 0.0)


def box_domain(dim: int, lo: float = -1.0, hi: float = 1.0, *,
               name: str = "", split=None) -> Domain:
    return Domain(dim=dim, box=np.tile([float(lo), float(hi)], (dim, 1)),
                  name=name, split=split)


def product_domain(a: Domain, b: Domain, name: str = "") -> Domain:
    """Product chart with the factor split recorded for partial tangents.

    Each factor's constraints and sampling guards watch its own slots.
    """
    dim = a.dim + b.dim

    def lift(attr: str) -> tuple[Expr, ...]:
        return tuple(reindex_inputs(c, list(range(off, off + f.dim)), dim)
                     for f, off in ((a, 0), (b, a.dim))
                     for c in getattr(f, attr))

    return Domain(dim=dim, box=np.concatenate([a.box, b.box]),
                  constraints=lift("constraints"),
                  name=name or f"{a.name}x{b.name}", split=(a.dim, b.dim),
                  sample_constraints=lift("sample_constraints"))


@dataclass(frozen=True)
class SmoothMap:
    """A smooth map between charts, carried by an expression body."""

    dom: Domain
    cod: Domain
    body: Expr
    name: str = ""

    def __post_init__(self):
        if self.body.n_inputs != self.dom.dim:
            raise ValueError(f"body takes {self.body.n_inputs} inputs but "
                             f"dom has dim {self.dom.dim}")
        if self.body.n_outputs != self.cod.dim:
            raise ValueError(f"body yields {self.body.n_outputs} outputs but "
                             f"cod has dim {self.cod.dim}")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.body(points)

    def to_json_dict(self) -> dict:
        return {"dom": self.dom.to_json_dict(), "cod": self.cod.to_json_dict(),
                "body": self.body.to_json_dict(), "name": self.name}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SmoothMap":
        dom = Domain.from_json_dict(data["dom"])
        body = data["body"]
        # the arity is checked before the body is compiled
        if json_int(body["inputs"], "inputs") != dom.dim:
            raise ValueError(f"body takes {body['inputs']} inputs but dom "
                             f"has dim {dom.dim}")
        return cls(dom=dom, cod=Domain.from_json_dict(data["cod"]),
                   body=Expr.from_json_dict(body),
                   name=str(data.get("name", "")))
