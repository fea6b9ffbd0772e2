"""Open chart domains and smooth maps between them.

A :class:`Domain` is a box in R^d cut down by strict inequalities
``c(x) > 0``.  Membership tests both; ``sample_constraints`` are extra
predicates applied only while sampling, to keep random points away from
numerically delicate regions without shrinking the chart itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, SamplerError
from .expr import Expr, ExprBuilder, json_float, json_int, reindex_inputs
from .report import ROUNDOFF_TOL, uniform_width

# rejection-sampling rounds before a sampler gives up
MAX_ROUNDS = 64
# candidate points drawn per missing point in each round
CANDIDATES = 3


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
            box = (-1.0, 1.0) * self.dim
        # a read-only copy: a later write to the caller's array cannot
        # move the chart, nor its cached draw bounds
        box = np.array(box, dtype=float).reshape(self.dim, 2)
        box.setflags(write=False)
        # a finite width also rules out an infinite bound, and it is what
        # the sampler's uniform draw needs; Python floats subtract as
        # numpy does, without its overflow and invalid warnings
        if not all(0.0 <= hi - lo < math.inf for lo, hi in box.tolist()):
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
        shape = (self.dim,) + (1,) * (points.ndim - 1)
        slack = ROUNDOFF_TOL * (1.0 + np.abs(self.box))
        lo = (self.box[:, 0] - slack[:, 0]).reshape(shape)
        hi = (self.box[:, 1] + slack[:, 1]).reshape(shape)
        ok = np.all((points >= lo) & (points <= hi), axis=0)
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
        """``(lo, width)`` columns of the box rows, for
        ``report.uniform_width``: each row's ``width`` is ``hi - lo``, as
        ``rng.uniform`` computes it, so the draw has its bits."""
        lo = self.box[:, :1]
        return lo, self.box[:, 1:] - lo

    def sample(self, rng: np.random.Generator, n: int,
               head: np.ndarray | None = None) -> np.ndarray:
        """Rejection-sample n points, shape (dim, n).

        With a ``(k, n)`` ``head``, point j starts with the coordinates
        ``head[:, j]``, taken as given, and only its last ``dim - k`` are
        drawn.  Each round draws ``CANDIDATES`` tails for each of the m
        points still missing, as ``CANDIDATES`` blocks of m columns, and
        a point keeps the first of its tails that ``admits`` accepts;
        nothing is drawn once no point is missing.  A chart with no
        constraint or guard admits every tail, so it keeps the first n
        of its first round's draws.
        """
        k = 0 if head is None else len(head)
        lo, width = self._bounds
        out = np.empty((self.dim, n))
        if k:
            out[:k] = head
        guarded = self.constraints or self.sample_constraints
        # the points still missing: every point in the first round,
        # which reads and writes through slices
        missing, m = slice(None), n
        for _ in range(MAX_ROUNDS):
            if not m:
                return out
            tails = uniform_width(rng, lo[k:], width[k:],
                                  size=(self.dim - k, CANDIDATES * m))
            if not guarded:
                out[k:] = tails[:, :n]
                return out
            cand = tails
            if k:
                cand = np.concatenate(
                    [np.tile(head[:, missing], CANDIDATES), tails])
            ok = self.admits(cand).reshape(CANDIDATES, m)
            # a point with no accepted candidate is written over later
            out[k:, missing] = tails[:, ok.argmax(axis=0) * m + np.arange(m)]
            left = np.flatnonzero(~ok.any(axis=0))
            missing = left if isinstance(missing, slice) else missing[left]
            m = missing.size
        raise SamplerError(
            f"domain {self.name or self.dim}: rejection budget exhausted "
            f"({n - m}/{n} points after {MAX_ROUNDS} rounds)")

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
        box = data.get("box")
        return cls(dim=json_int(data["dim"], "dim"),
                   box=(None if box is None else
                        [[json_float(v, "box entry") for v in row]
                         for row in box]),
                   constraints=tuple(Expr.from_json_dict(c)
                                     for c in data.get("constraints", ())),
                   name=str(data.get("name", "")),
                   split=(tuple(json_int(s, "split") for s in data["split"])
                          if "split" in data else None),
                   sample_constraints=tuple(
                       Expr.from_json_dict(c)
                       for c in data.get("sample_constraints", ())))


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
               name: str = "") -> Domain:
    # the rows, flat: Domain makes its one array of them
    return Domain(dim=dim, box=(float(lo), float(hi)) * dim, name=name)


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
        what = self.name or "map"
        if self.body.n_inputs != self.dom.dim:
            raise ValueError(f"{what} takes {self.body.n_inputs} inputs but "
                             f"its domain has dim {self.dom.dim}")
        if self.body.n_outputs != self.cod.dim:
            raise ValueError(f"{what} yields {self.body.n_outputs} outputs "
                             f"but its codomain has dim {self.cod.dim}")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.body(points)
