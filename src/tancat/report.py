"""Check results, deterministic reports, and seeded substreams."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np


def rng_for(seed: int, label: str) -> np.random.Generator:
    """An independent generator per (seed, label) pair.

    The label is folded in through sha256 so streams do not depend on
    the order checks run in, nor on PYTHONHASHSEED.
    """
    digest = hashlib.sha256(label.encode("utf8")).digest()
    words = [int.from_bytes(digest[i:i + 8], "big") for i in range(0, 32, 8)]
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + words))


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
