"""Benchmark of tancat: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload suites-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a tancat checkout; the program is imported from
``src/``.  Workloads: axioms-bulk, suites-sweep, brackets-deep (see
workloads.py and README.md).  Every process runs with one BLAS and
OpenMP thread, and one process runs at a time.

A run starts six fresh interpreters that each import tancat and build
the workload's inputs, and then one more that goes on to one warm-up
operation and whole operations for ``--seconds``, gating every result.
The times are taken at the reference speed of calibration.py: each one
is scaled by the time of a fixed kernel run just before and just after
it.  ``setup_s`` is the median time from spawn to ready of the last
five set-up interpreters; ``op_s`` is the median operation.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced run and writes its spans to
``out/trace-<workload>.npz``.  A traced run whose exact counts differ
between operations is not correct.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import calibrate, to_reference

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("axioms-bulk", "suites-sweep", "brackets-deep")
SETUP_RUNS = 5
# the time a run may take beyond --seconds: seven interpreter starts, the
# warm-up operation and the last round of operations past the deadline
SLACK_S = 134.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MiB",
              "points_checked": "count"}

# per-layer metrics on the last line of a traced run: name -> unit.  Every
# workload reports all of them; a layer it never enters reads 0 there.
PER_LAYER = {
    "setup.import_s": "s", "setup.inputs_s": "s",
    "tower.mul_calls": "count",
    **{f"tower.mul_calls.o{k}": "count" for k in range(5)},
    "tower.mul_bytes": "bytes", "tower.mul_s": "s",
    **{f"tower.mul_s.o{k}": "s" for k in range(5)},
    "tower.lift_calls": "count", "tower.lift_s": "s",
    "expr.evaluate_calls": "count", "expr.nodes": "count",
    "expr.self_s": "s", "expr.self_us_per_node": "us",
    "tanpoint.apply_calls": "count", "tanpoint.apply_self_s": "s",
    "tanpoint.blockop_calls": "count", "tanpoint.blockop_s": "s",
    "tanpoint.residual_s": "s",
    "axioms.self_s": "s", "axioms.checks": "count",
    "fields.fiber_calls": "count", "fields.bracket_evals": "count",
    "fields.self_s": "s", "fields.jacobian_s": "s",
    "groupoid.laws_s": "s", "groupoid.differentiability_s": "s",
    "groupoid.sample_s": "s",
    "domain.sample_calls": "count", "domain.sample_s": "s",
    "gbundle.invariance_calls": "count", "gbundle.invariance_s": "s",
    "algebroid.extend_calls": "count", "algebroid.bracket_evals": "count",
    "algebroid.laws_s": "s", "algebroid.table_s": "s",
    "report.dumps_s": "s", "cli.self_s": "s",
    "interp.gc_collections": "count", "interp.gc_s": "s",
    "bench.self_s": "s",
    "trace.op_s": "s", "trace.untraced_op_s": "s", "trace.overhead": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(argv: list[str], env: dict, deadline: float):
    """Run worker.py to its end; return (seconds from spawn to ready, record)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + argv
    spawned = time.perf_counter()
    # run() kills the worker and waits for it if the deadline passes
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC, shared by every process on Linux
    return record["ready_at"] - spawned, record


def start_setup(base: list[str], env: dict, deadline: float):
    """One set-up-only worker: (its set-up time at the reference speed, record)."""
    before = calibrate()
    seconds, record = start_worker(base + ["--setup-only"], env, deadline)
    return to_reference(seconds, before, calibrate()), record


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4f} / {q2:.4f} / {q3:.4f}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tancat" / "__init__.py").is_file():
        print(f"error: no tancat sources in {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1 or args.seed < 0:
        print("error: --seconds must be positive and --seed nonnegative",
              file=sys.stderr)
        return 2

    env = child_env()
    deadline = time.perf_counter() + args.seconds + SLACK_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        # an unmeasured first start fills the bytecode and file caches
        start_worker(base + ["--setup-only"], env, deadline)
        starts = [start_setup(base, env, deadline) for _ in range(SETUP_RUNS)]
        run_argv = base + ["--seconds", str(args.seconds),
                           "--trace", str(args.trace)]
        _, rec = start_worker(run_argv, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if not rec["op_times"]:
        print(f"error: no operation completed: {rec['problems']}",
              file=sys.stderr)
        return 1

    setup = [s for s, _ in starts]
    times = rec["op_times"]
    print(f"{args.workload} seed {args.seed}: {len(times)} timed operations, "
          f"wall op_s q1/median/q3 {_quartiles(times)}", file=sys.stderr)
    if not args.trace:
        ref = rec["ref_times"]
        print(f"at the reference speed: op_s q1/median/q3 {_quartiles(ref)}; "
              f"setup_s {_quartiles(setup)}", file=sys.stderr)
        if len(ref) >= 40:
            p90 = statistics.quantiles(ref, n=10)[-1]
            print(f"op_s p90 {p90:.4f}", file=sys.stderr)
    for problem in rec["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)

    if args.trace:
        layers = dict(rec["layers"])
        layers["setup.import_s"] = statistics.median(r["import_s"] for _, r in starts)
        layers["setup.inputs_s"] = statistics.median(r["inputs_s"] for _, r in starts)
        layers["trace.op_s"] = statistics.median(times)
        layers["trace.untraced_op_s"] = statistics.median(rec["untraced_op_times"])
        layers["trace.overhead"] = layers["trace.op_s"] / layers["trace.untraced_op_s"]
        for name in rec["uneven_counts"]:
            print(f"FAILED: {name} differs between traced operations",
                  file=sys.stderr)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {"setup_s": statistics.median(setup),
                  "op_s": statistics.median(rec["ref_times"]),
                  "peak_rss_mb": rec["peak_rss_mb"],
                  "points_checked": rec["points_checked"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    correct = rec["failed"] == 0 and not rec.get("uneven_counts")
    print(json.dumps({"correct": correct,
                      "attempted": rec["attempted"], "failed": rec["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
