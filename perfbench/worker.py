"""One workload process: import tancat, build the inputs, time operations.

run.py starts this script; it is not meant to be run by hand.  With
``--setup-only`` it stops once its inputs are built.  Otherwise it runs
one untimed warm-up operation, then whole operations until ``--seconds``
have passed, each between two passes of the calibration kernel, and
prints one JSON record as its last line of stdout.
With ``--trace 1`` every second operation runs traced, so the traced
and untraced times share the machine's drift and their ratio is the
tracing overhead; the spans go to ``out/trace-<workload>.npz``.
"""

import argparse
import contextlib
import gc
import json
import time

PROBLEMS_KEPT = 5


def measure(wl, seconds: float, run, around, round_size: int = 1) -> dict:
    """Time whole operations of ``wl`` for ``seconds``; gate each one.

    ``around(i)`` is entered, untimed, around operation ``i``; the run
    stops after a whole round of ``round_size`` operations.  The
    calibration kernel runs just before and just after every operation,
    and ``ref_times`` holds the operations' times at the reference speed.
    An operation that fails a gate keeps its times; one that raises has
    None.
    """
    # imported here, so that numpy's import stays inside setup.import_s
    from calibration import calibrate, to_reference

    times, ref_times, failed, problems = [], [], 0, []
    deadline = time.perf_counter() + seconds
    while True:
        op_id = len(times)
        times.append(None)
        ref_times.append(None)
        gc.collect()   # every operation starts from the same heap
        try:
            with around(op_id):
                before = calibrate()
                t0 = time.perf_counter()
                result = run(op_id)
                times[op_id] = time.perf_counter() - t0
                ref_times[op_id] = to_reference(times[op_id], before,
                                                calibrate())
            errs = wl.check(result)
        except Exception as err:  # a crash is a failed operation
            errs = [f"{type(err).__name__}: {err}"]
        if errs:
            failed += 1
            problems += errs[:PROBLEMS_KEPT - len(problems)]
        if len(times) % round_size == 0 and time.perf_counter() >= deadline:
            break
    return {"op_times": times, "ref_times": ref_times,
            "attempted": len(times), "failed": failed, "problems": problems}


def completed(times: list) -> list[float]:
    return [t for t in times if t is not None]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t_import = time.perf_counter()
    import resource

    import numpy as np

    import workloads
    t_inputs = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    ready = time.perf_counter()
    record = {"ready_at": ready, "import_s": t_inputs - t_import,
              "inputs_s": ready - t_inputs}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    # glibc raises its mmap threshold to the size of each mmapped block
    # freed (up to 32 MiB), and its heap-trim threshold to twice that.
    # Left to the operations, both end where the seed's largest arrays
    # put them; below that, the heap is given back and faulted in again
    # on every operation (70 000-160 000 page faults per axioms-bulk
    # operation), and the same workload ran up to 20 % slower on some
    # seeds than on others.  Freeing one 24 MiB block first sets both
    # above anything the workloads allocate, for every seed.
    block = np.empty(3 << 20)
    del block
    plain = lambda op_id: wl.run()
    untraced = lambda op_id: contextlib.nullcontext()
    warm = measure(wl, 0.0, plain, untraced)
    if not args.trace:
        timed = measure(wl, args.seconds, plain, untraced)
        record["op_times"] = completed(timed["op_times"])
        record["ref_times"] = completed(timed["ref_times"])
    else:
        import tracing
        tracer = tracing.Tracer()
        timed = measure(
            wl, args.seconds,
            lambda op_id: tracer.run_op(wl.run) if op_id % 2 else wl.run(),
            lambda op_id: tracer.installed() if op_id % 2 else untraced(op_id),
            round_size=2)
        layers, uneven = tracer.metrics()
        tracer.save(workloads.OUT / f"trace-{args.workload}.npz")
        record.update(layers=layers, uneven_counts=uneven,
                      op_times=completed(timed["op_times"][1::2]),
                      untraced_op_times=completed(timed["op_times"][0::2]))
    record["attempted"] = warm["attempted"] + timed["attempted"]
    record["failed"] = warm["failed"] + timed["failed"]
    record["problems"] = (warm["problems"] + timed["problems"])[:PROBLEMS_KEPT]
    record["points_checked"] = wl.points
    record["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
