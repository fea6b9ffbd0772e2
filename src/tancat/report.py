"""Residuals and their one reducer, check results, deterministic
reports, seeded substreams and their uniform draws."""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

import numpy as np

# The size of residual below which two sides agree to round-off: the
# groupoid laws, vertical transport and matching fibers are identities
# of the exact tower arithmetic, so every check made while building or
# combining structures, and the slack of chart membership, reads this
# one bound.
ROUNDOFF_TOL = 1e-9


def residual(a, b) -> float:
    """Relative mismatch with an absolute floor near zero.

    Infinite when either side holds a value that is not finite, so a
    NaN can never read as agreement.  Two sides that are equal
    everywhere and finite give 0.0 after one comparison pass, as the
    full formula would; equal sides hold no NaN (NaN != NaN), so only
    an infinity needs the finiteness test, made on the smaller side,
    whose every entry meets an equal one of the other.  Empty sides
    are equal everywhere, so they give 0.0 on the same path.  A side
    that must vanish is the scalar 0.0: it gives the bits of zeros.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    same = a == b
    if same.all() and np.isfinite(a if a.size <= b.size else b).all():
        return 0.0
    with np.errstate(invalid="ignore"):  # inf - inf is nan, caught below
        diff = a - b
    # max(x.max(), -x.min()) is max(abs(x)) without a temporary; a NaN
    # in the difference makes both reductions NaN.  Unequal sides have a
    # difference that is NaN, infinite or nonzero somewhere, so num is
    # never 0.0 here
    num = float(max(diff.max(), -diff.min()))
    den = 1.0 + float(max(a.max(), -a.min(), b.max(), -b.min()))
    if not (math.isfinite(num) and math.isfinite(den)):
        return math.inf
    return num / den


Sides = Iterator[tuple[str, Any, Any]]  # (name, lhs, rhs)


def worst_residuals(sides: Iterable) -> dict[str, float]:
    """The largest residual per name over ``sides``, each ``(name, lhs,
    rhs)``: two arrays that must agree, under their check's name, which
    may repeat.  Each pair is freed before the next is drawn.  A residual
    is never NaN, so the max is exact and independent of the order."""
    worst: dict[str, float] = {}
    for name, lhs, rhs in sides:
        worst[name] = max(worst.get(name, 0.0), residual(lhs, rhs))
        del lhs, rhs
    return worst


def reduced(suite: Callable[..., Iterable]) -> Callable[..., dict]:
    """The suite returning :func:`worst_residuals` of its sides, all drawn
    within the call, so that what wraps or times the call sees it whole."""
    @functools.wraps(suite)
    def check(*args, **kwargs) -> dict[str, float]:
        return worst_residuals(suite(*args, **kwargs))
    return check


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

    def add_checks(self, residuals: dict[str, float], samples: int,
                   tol: float, prefix: str = "") -> None:
        """One check per residual, named ``prefix + key``; it passes only
        with at least one sample and a residual within ``tol``, not NaN."""
        for k, v in sorted(residuals.items()):
            self.checks.append(CheckResult(prefix + k, samples, float(v), tol,
                                           bool(samples >= 1 and v <= tol)))

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
