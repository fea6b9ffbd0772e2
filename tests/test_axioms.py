"""The structural check suite: clean pass, determinism, targeted mutations."""

import dataclasses
import json

import numpy as np

from tancat import tanpoint as tp
from tancat.axioms import ALL_CHECKS, DEFAULT_OPS, TangentOps, run_axiom_suite
from tancat.report import RunConfig

FAST = RunConfig(seed=11, samples=60)


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_clean_suite_passes():
    rep = run_axiom_suite(FAST)
    assert rep.ok
    assert len(rep.checks) == len(ALL_CHECKS)
    worst = max(c.max_residual for c in rep.checks)
    assert worst < 1e-12


def test_reports_are_byte_identical():
    a = run_axiom_suite(FAST).dumps()
    b = run_axiom_suite(FAST).dumps()
    assert a == b
    data = json.loads(a)
    assert data["suite"] == "axioms" and data["seed"] == 11
    names = [c["name"] for c in data["checks"]]
    assert names == sorted(names)


def test_seed_changes_samples_not_verdicts():
    a = run_axiom_suite(FAST)
    b = run_axiom_suite(dataclasses.replace(FAST, seed=12))
    assert a.ok and b.ok
    assert a.dumps() != b.dumps()  # residuals move with the seed


def _tainted_swap(p: np.ndarray, level: int) -> np.ndarray:
    # a subtly wrong braiding: correct permutation, then 5% inflation of
    # the block carrying both swapped levels
    arr = tp.swap_levels(p, level)
    m = 0b11 << (level - 1)
    arr[m] = 1.05 * arr[m]
    return arr


SWAP_CHECKS = {name for name in ALL_CHECKS
               if name.startswith(("T3/", "T5/"))
               or name in ("naturality/level_swap", "scalar/partial_slot2")}


def test_tainted_swap_breaks_only_swap_checks():
    ops = dataclasses.replace(DEFAULT_OPS, swap_levels=_tainted_swap)
    rep = run_axiom_suite(FAST, ops)
    failed = {c.name for c in rep.failures}
    # everything not involving the braiding still passes
    assert failed <= SWAP_CHECKS
    # and the corruption is actually caught where it matters; the braid
    # identity is genuinely insensitive to it (the inflated block set is
    # symmetric between the two sides of the relation), so it is absent
    assert {"naturality/level_swap", "T3/involution",
            "T5/swap_fixes_lift", "T5/lift_exchange",
            "scalar/partial_slot2"} <= failed


def _crossed_swap(p: np.ndarray, level: int) -> np.ndarray:
    # level-1 swaps are honest; deeper swaps sneak in an extra level-1
    # swap first, which only the relations among distinct levels can see
    if level > 1:
        p = tp.swap_levels(p, 1)
    return tp.swap_levels(p, level)


def test_crossed_swap_caught_by_braid():
    ops = dataclasses.replace(DEFAULT_OPS, swap_levels=_crossed_swap)
    rep = run_axiom_suite(FAST, ops)
    failed = {c.name for c in rep.failures}
    assert "T3/braid" in failed
    assert failed <= SWAP_CHECKS
    # checks touching only level-1 swaps cannot notice
    assert "naturality/level_swap" not in failed
    assert "scalar/partial_slot2" not in failed


def _nan_swap_dim2(p: np.ndarray, level: int) -> np.ndarray:
    # all-NaN blocks on dim-2 charts; max(0.0, nan) is 0.0, so a reduction
    # that does not treat NaN as a failure would pass every check below
    q = tp.swap_levels(p, level)
    return np.full_like(q, np.nan) if q.shape[1] == 2 else q


def test_nan_residuals_fail():
    ops = dataclasses.replace(DEFAULT_OPS, swap_levels=_nan_swap_dim2)
    rep = run_axiom_suite(FAST, ops)
    assert {c.name for c in rep.failures} == SWAP_CHECKS
    assert all(np.isinf(c.max_residual) for c in rep.failures)


def test_raising_op_reports_failure_not_crash():
    def broken(*a, **k):
        raise RuntimeError("no fiber addition today")

    ops = dataclasses.replace(DEFAULT_OPS, add_fiber=broken)
    rep = run_axiom_suite(FAST, ops)
    assert not rep.ok
    bad = {c.name for c in rep.failures}
    assert "T2/add_assoc" in bad
    assert all(np.isinf(c.max_residual) for c in rep.failures)
    # the report stays strict JSON, with the infinity written as a string
    data = json.loads(rep.dumps(), parse_constant=_reject_constant)
    assert {c["max_residual"] for c in data["checks"] if not c["pass"]} == {"inf"}
    # checks that never add fibers are untouched
    assert "T3/involution" not in bad
