"""The seed-7 reports, regenerated in-process and compared with the
committed copies under ``tests/golden/``.

Verdicts and exit codes are asserted on their own, so a verdict change
cannot hide in a regenerated file; then the reports are compared byte
for byte.  numpy's float64 ``sin``, ``cos`` and ``exp`` take CPU-dependent
SIMD paths, so where numpy's version or SIMD targets differ from the
recorded ones, every field is compared exactly except ``max_residual``,
which must lie within ``RESIDUAL_SLACK`` of the golden value.

Regenerate the files after a change that moves round-off on purpose,
or that draws other random numbers on purpose (a new sampling rule, or
a draw taken out), and check in the diff that only ``max_residual``
values moved::

    PYTHONPATH=src python tests/test_golden.py --write
"""

import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from tancat.cli import main
from tancat.groupoid import BUILTIN_GROUPOIDS

GOLDEN = Path(__file__).parent / "golden"
RESIDUAL_SLACK = 1e-13
SUITES = ("action_gl2", "matrix2", "matrix3", "pair")

# (file stem, argv); each run adds "--seed 7".  "axioms --dims 1,2,3
# --samples 10000 --tol 1e-9" is the second run, since those are the
# defaults.  The default differentiate runs stack their law terms
# (``algebroid.by_slots``); the two at 2 000 samples run one slot at a
# time, with strided products.
RUNS = ([("axioms", ["axioms"]),
         ("axioms-samples10000", ["axioms", "--samples", "10000"]),
         ("bracket", ["bracket"])]
        + [(f"{cmd}-{s}", [cmd, "--suite", s])
           for cmd in ("groupoid", "differentiate") for s in SUITES]
        + [(f"differentiate-{s}-samples2000",
            ["differentiate", "--suite", s, "--samples", "2000"])
           for s in ("action_gl2", "matrix3")])


def environment() -> dict:
    """What decides the bits of numpy's float64 transcendentals."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return {"numpy": np.__version__, "machine": platform.machine(),
            "simd_baseline": list(umath.__cpu_baseline__),
            "simd_found": [f for f in umath.__cpu_dispatch__
                           if umath.__cpu_features__[f]]}


def run(argv, out: Path) -> int:
    return main(argv + ["--seed", "7", "--out", str(out)])


def verdicts(report: dict) -> list:
    return [(c["name"], c["pass"]) for c in report["checks"]]


def _without_residuals(report: dict) -> dict:
    checks = [{k: v for k, v in c.items() if k != "max_residual"}
              for c in report["checks"]]
    return dict(report, checks=checks)


def _residual_gap(got: dict, want: dict) -> float:
    gaps = [0.0]
    for a, b in zip(got["checks"], want["checks"]):
        x, y = a["max_residual"], b["max_residual"]
        if isinstance(x, str) or isinstance(y, str):  # "inf" or "nan"
            gaps.append(0.0 if x == y else np.inf)
        else:
            gaps.append(abs(x - y))
    return max(gaps)


@pytest.fixture(scope="module")
def manifest():
    return json.loads((GOLDEN / "runs.json").read_text())


@pytest.fixture(scope="module")
def same_environment():
    recorded = json.loads((GOLDEN / "environment.json").read_text())
    return recorded == environment()


def test_manifest_lists_every_run(manifest):
    assert [(r["name"], r["argv"]) for r in manifest] == RUNS


@pytest.mark.parametrize("name,argv", RUNS, ids=[name for name, _ in RUNS])
def test_report_matches_golden(name, argv, manifest, same_environment,
                               tmp_path):
    check_golden(name, argv, manifest, same_environment, tmp_path)


def test_reports_keep_their_bytes_in_any_order(manifest, same_environment,
                                               tmp_path):
    # no report may depend on the reports made before it in one process
    for order in (RUNS[::-1], RUNS[1::2] + RUNS[::2]):
        for name, argv in order:
            check_golden(name, argv, manifest, same_environment, tmp_path)


@pytest.mark.parametrize("name", SUITES)
def test_builtin_boxes_are_read_only(name):
    G = BUILTIN_GROUPOIDS[name]()
    for dom in (G.base, G.arrows, G.compose.dom):
        with pytest.raises(ValueError):
            dom.box[...] = 0.0


def check_golden(name, argv, manifest, same_environment, tmp_path) -> None:
    """Run one report and compare it with its golden file."""
    entry = {r["name"]: r for r in manifest}[name]
    out = tmp_path / "report.json"
    code = run(argv, out)
    got_text = out.read_text()
    want_text = (GOLDEN / f"{name}.json").read_text()
    got, want = json.loads(got_text), json.loads(want_text)
    assert (code, verdicts(got)) == (entry["exit"], verdicts(want))
    if same_environment:
        assert got_text == want_text
    else:
        assert _without_residuals(got) == _without_residuals(want)
        assert _residual_gap(got, want) <= RESIDUAL_SLACK


def write(directory: Path, scratch: Path) -> None:
    directory.mkdir(exist_ok=True)
    manifest = []
    for name, argv in RUNS:
        out = scratch / f"{name}.json"
        code = run(argv, out)
        (directory / f"{name}.json").write_text(out.read_text())
        manifest.append({"name": name, "argv": argv, "exit": code})
    (directory / "runs.json").write_text(json.dumps(manifest, indent=2) + "\n")
    (directory / "environment.json").write_text(
        json.dumps(environment(), indent=2) + "\n")


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        write(GOLDEN, Path(tmp))
