"""Open chart domains and smooth maps between them.

A :class:`Domain` is a box in R^d cut down by strict inequalities
``c(x) > 0``.  Membership tests both; ``sample_constraints`` are extra
predicates applied only while sampling, to keep random points away from
numerically delicate regions without shrinking the chart itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SamplerError
from .expr import Expr, reindex_inputs

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
        box = self.box
        if box is None:
            box = np.tile([-1.0, 1.0], (self.dim, 1))
        box = np.asarray(box, dtype=float).reshape(self.dim, 2)
        if not (np.isfinite(box).all() and (box[:, 0] <= box[:, 1]).all()):
            raise ValueError(f"domain {self.name or self.dim}: box rows must "
                             f"be finite [lo, hi] with lo <= hi")
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
        for c in self.constraints:
            ok &= c(points)[0] > 0.0
        return ok

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Rejection-sample n member points, shape (dim, n)."""
        if self.dim == 0:
            return np.zeros((0, n))
        lo, hi = self.box[:, 0], self.box[:, 1]
        preds = self.constraints + self.sample_constraints
        chunks: list[np.ndarray] = []
        have = 0
        for _ in range(MAX_ROUNDS):
            want = max(n - have, 1)
            draw = rng.uniform(lo[:, None], hi[:, None], size=(self.dim, 2 * want))
            ok = np.ones(draw.shape[1], dtype=bool)
            for c in preds:
                ok &= c(draw)[0] > 0.0
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
        return cls(dim=int(data["dim"]),
                   box=np.asarray(data.get("box")) if data.get("box") is not None else None,
                   constraints=tuple(Expr.from_json_dict(c)
                                     for c in data.get("constraints", ())),
                   name=str(data.get("name", "")),
                   split=tuple(data["split"]) if "split" in data else None,
                   sample_constraints=tuple(
                       Expr.from_json_dict(c)
                       for c in data.get("sample_constraints", ())))


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
        return cls(dom=Domain.from_json_dict(data["dom"]),
                   cod=Domain.from_json_dict(data["cod"]),
                   body=Expr.from_json_dict(data["body"]),
                   name=str(data.get("name", "")))
