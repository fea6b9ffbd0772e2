"""Check results, deterministic reports, seeded substreams and their
uniform draws."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

# The size of residual below which two sides agree to round-off: the
# groupoid laws, vertical transport and matching fibers are identities
# of the exact tower arithmetic, so every check made while building or
# combining structures, and the slack of chart membership, reads this
# one bound.
ROUNDOFF_TOL = 1e-9


def rng_for(seed: int, label: str) -> np.random.Generator:
    """An independent generator per (seed, label) pair.

    The label is folded in through sha256 so streams do not depend on
    the order checks run in, nor on PYTHONHASHSEED.
    """
    digest = hashlib.sha256(label.encode("utf8")).digest()
    words = [int.from_bytes(digest[i:i + 8], "big") for i in range(0, 32, 8)]
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + words))


def uniform(rng: np.random.Generator, lo, hi, size=None):
    """``rng.uniform(lo, hi, size)``, drawn in place.

    numpy computes each entry as ``lo + (hi - lo) * u`` from one
    ``rng.random`` double ``u``, rounding after the product and after
    the sum; scaling and shifting the ``rng.random(size)`` array in
    place rounds the same way, so the numbers and the generator's state
    are the same, without the broadcast set-up or a temporary.  The
    bounds broadcast into ``size``; with no ``size`` they are scalars
    and the draw is a float.
    """
    return uniform_width(rng, lo, hi - lo, size)


def uniform_width(rng: np.random.Generator, lo, width, size=None):
    """:func:`uniform` from a ``width`` already computed as ``hi - lo``,
    such as the columns a chart keeps (``Domain._bounds``)."""
    u = rng.random(size)
    u *= width
    u += lo
    return u


def _strict(obj):
    """``obj`` with each non-finite float written as "inf", "-inf" or "nan"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(float(obj))
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


@dataclass(frozen=True)
class RunConfig:
    seed: int = 7
    samples: int = 500
    tol: float = 1e-9
    dims: tuple[int, ...] = (1, 2, 3)


@dataclass(frozen=True)
class CheckResult:
    name: str
    samples: int
    max_residual: float
    tolerance: float
    passed: bool

    @classmethod
    def from_residual(cls, name: str, samples: int, max_residual: float,
                      tolerance: float) -> "CheckResult":
        """A check passes only with at least one sample and a residual
        within the tolerance; a NaN residual fails."""
        return cls(name, samples, float(max_residual), tolerance,
                   bool(samples >= 1 and max_residual <= tolerance))

    def to_json_dict(self) -> dict:
        return {"name": self.name, "samples": self.samples,
                "max_residual": self.max_residual,
                "tolerance": self.tolerance, "pass": self.passed}


@dataclass
class Report:
    suite: str
    seed: int
    checks: list[CheckResult] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def add(self, result: CheckResult) -> None:
        self.checks.append(result)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_json_dict(self) -> dict:
        out = {"suite": self.suite, "seed": self.seed,
               "checks": [c.to_json_dict()
                          for c in sorted(self.checks, key=lambda c: c.name)]}
        out.update(self.extra)
        return out

    def dumps(self) -> str:
        return json.dumps(_strict(self.to_json_dict()), indent=2,
                          sort_keys=True, allow_nan=False) + "\n"

    def summary_lines(self) -> list[str]:
        lines = []
        for c in sorted(self.checks, key=lambda c: c.name):
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status} {c.name}  max_residual={c.max_residual:.3e} "
                         f"tol={c.tolerance:.1e} samples={c.samples}")
        return lines
