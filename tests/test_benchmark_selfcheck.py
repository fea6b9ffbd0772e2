"""The benchmark's workloads still run and pass their gates.

``perfbench/selfcheck.py`` builds every workload's inputs, runs one
operation of each through tancat's public names and requires its
correctness gates to pass and to catch tampered outputs.  A deleted or
renamed name that a workload calls would otherwise fail only inside a
benchmark run.

The self-check's ``suites-sweep`` set-up writes its broken-inverse spec
to ``perfbench/out/broken_inverse.json`` in the checkout (gitignored),
so two test runs in one checkout write the same file.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selfcheck_passes():
    script = ROOT / "perfbench" / "selfcheck.py"
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
