"""Run each workload's correctness gates once, and show that they bite.

    python3 perfbench/selfcheck.py

For every workload this builds the inputs for seed 1, runs one operation
and requires its gates to pass, then hands the gates tampered copies of
that output and requires each tampering to be caught.  It also checks
that BENCHMARK.json names the workloads and metrics that run.py prints.
It takes a few seconds and exits 1 if anything is off.
"""

import copy
import json
import os
import sys

import run

for var in run.THREAD_VARS:
    os.environ[var] = "1"
sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402  (needs the path and thread settings above)


def _edit_report(text: str, edit) -> str:
    rep = json.loads(text)
    edit(rep)
    return json.dumps(rep)


def _nan_residual(result):
    code, text = result
    return code, text.replace('"max_residual": ', '"max_residual": NaN, "x": ', 1)


def _pass_flipped(result):
    code, text = result

    def edit(rep):
        rep["checks"][0]["pass"] = False
    return code, _edit_report(text, edit)


def _table_sign(result):
    reports, spec, tainted = copy.deepcopy(result)
    code, text = reports["differentiate/matrix2"]

    def edit(rep):
        for row in rep["bracket_table"]:
            row["mean"] = [-x for x in row["mean"]]
    reports["differentiate/matrix2"] = code, _edit_report(text, edit)
    return reports, spec, tainted


def _spec_passes(result):
    reports, (code, text), tainted = result
    return reports, (0, text), tainted


def _callers_unknown(result):
    reports, spec, (code, text, callers) = result
    return reports, spec, (code, text, set())


def _linear_off(result):
    out = dict(result)
    out["linear1"] = out["linear1"] + 1e-6
    return out


def _jacobi_off(result):
    out = dict(result)
    out["jacobi3"] = [out["jacobi3"][0] * (1 + 1e-6)] + out["jacobi3"][1:]
    return out


# workload -> (tampering, text that one of the gate's problems must hold)
TAMPERINGS = {
    "axioms-bulk": [(_nan_residual, "not strict JSON"),
                    (_pass_flipped, "verdict False")],
    "suites-sweep": [(_table_sign, "differentiate/matrix2: [e1, e2] mean"),
                     (_spec_passes, "bad/inverse_spec: exit 0, want 1"),
                     (_callers_unknown, "bad/scale_level: checks that do not call")],
    "brackets-deep": [(_linear_off, "linear/depth1"),
                      (_jacobi_off, "jacobi/depth3_tangent")],
}


def check_benchmark_json() -> list[str]:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        if {m["name"]: m["unit"] for m in spec[key]} != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    return problems


def main() -> int:
    ok = True

    def line(good: bool, text: str) -> None:
        nonlocal ok
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} {text}")

    problems = check_benchmark_json()
    line(not problems, f"BENCHMARK.json matches run.py {problems or ''}")
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(1)
        result = wl.run()
        problems = wl.check(result)
        line(not problems and wl.points > 0,
             f"{name}: gates pass, {wl.points} points {problems[:3] or ''}")
        for tamper, want in TAMPERINGS[name]:
            problems = wl.check(tamper(result))
            line(any(want in p for p in problems),
                 f"{name}: {tamper.__name__.strip('_')} is caught ({want})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
