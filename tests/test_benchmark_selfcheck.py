"""The benchmark's workloads still run and pass their gates.

``perfbench/selfcheck.py`` builds every workload's inputs, runs one
operation of each through tancat's public names and requires its
correctness gates to pass and to catch tampered outputs.  A deleted or
renamed name that a workload calls would otherwise fail only inside a
benchmark run.

The self-check runs from a copy of ``perfbench/`` (without ``out/``)
and ``BENCHMARK.json`` in a temporary directory, beside a link to the
checkout's ``src/``: the benchmark finds both relative to its own
files, so what its set-up writes under ``out/``, such as the
``suites-sweep`` broken-inverse spec, lands in the copy and never in
the checkout.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selfcheck_passes(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    script = tmp_path / "perfbench" / "selfcheck.py"
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / "perfbench" / "out" / "broken_inverse.json").is_file()
