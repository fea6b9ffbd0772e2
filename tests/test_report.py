"""The one reducer of every report: sides in, worst residual per name out."""

import inspect
import math
import struct
import weakref

import numpy as np
import pytest

from tancat.report import Report, reduced, residual, worst_residuals


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _fresh(refs):
    arr = np.ones((2, 1, 5))
    refs.append(weakref.ref(arr))
    return arr


def test_reducer_frees_each_pair_before_the_next_is_drawn():
    refs = []

    def sides():
        for name in ("a", "b", "a"):
            # every array yielded so far is dead by the time the suite
            # draws again
            assert all(ref() is None for ref in refs)
            yield name, _fresh(refs), _fresh(refs)

    assert worst_residuals(sides()) == {"a": 0.0, "b": 0.0}
    assert len(refs) == 6


def test_repeated_name_reports_its_largest_residual():
    one = np.ones(3)
    sides = [("law", one, one + 0.5), ("other", one, one),
             ("law", one, one + 2.0), ("law", one, one + 1.0)]
    worst = worst_residuals(iter(sides))
    assert worst == {"law": residual(one, one + 2.0), "other": 0.0}
    assert worst_residuals(iter(sides[::-1])) == worst


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_side_gives_inf_and_fails(bad):
    lhs = np.array([1.0, bad])
    worst = worst_residuals(iter([("law", lhs, np.ones(2)),
                                  ("law", np.ones(2), np.ones(2))]))
    assert worst == {"law": math.inf}
    rep = Report("t", 0)
    rep.add_checks(worst, 10, 1e-9)
    assert not rep.ok and rep.checks[0].max_residual == math.inf


def test_reduced_suite_runs_within_the_call():
    drawn = []

    @reduced
    def suite(x, scale=1.0):
        """A suite."""
        drawn.append(x)
        yield "law", np.array([x]), np.array([x * scale])

    assert not inspect.isgeneratorfunction(suite)
    assert suite.__name__ == "suite" and suite.__doc__ == "A suite."
    assert list(inspect.signature(suite).parameters) == ["x", "scale"]
    assert suite(2.0, scale=1.0) == {"law": 0.0} and drawn == [2.0]


SPECIAL = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300,
           1e300, -1e300, 5e-324, np.finfo(float).max, -np.finfo(float).max]


@pytest.mark.parametrize("shape", [(0,), (1,), (3,), (2, 0, 4), (2, 3, 4)])
@pytest.mark.parametrize("fill", SPECIAL)
def test_scalar_zero_side_matches_zeros_like(shape, fill):
    rng = np.random.default_rng(len(shape))
    x = np.full(shape, fill)
    mixed = np.where(rng.random(shape) < 0.5, x, 0.0)
    for side in (x, mixed, -mixed):
        assert _bits(residual(side, 0.0)) == _bits(
            residual(side, np.zeros_like(side)))
