"""The names the traced benchmark wraps still exist.

``perfbench/tracing.py`` wraps tancat's functions and methods by name,
in its ``CALLS`` list and in ``Tracer.install``.  A deleted or renamed
name would otherwise fail only inside a ``--trace 1`` run.

None of them, nor any entry of ``axioms.ALL_CHECKS``, may be a
generator function: its span would time only the generator's creation,
and its layer would read near 0 without any error.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import inspect
import tracing
from tancat import axioms
before = [getattr(owner, attr) for owner, attr, _ in tracing.CALLS]
lazy = [attr for (_, attr, _), fn in zip(tracing.CALLS, before)
        if inspect.isgeneratorfunction(fn)]
lazy += [k for k, fn in axioms.ALL_CHECKS.items()
         if inspect.isgeneratorfunction(fn)]
assert not lazy, f"generator functions: {lazy}"
with tracing.Tracer().installed():
    during = [getattr(owner, attr) for owner, attr, _ in tracing.CALLS]
after = [getattr(owner, attr) for owner, attr, _ in tracing.CALLS]
assert all(a is not b for a, b in zip(before, during)), "not wrapped"
assert all(a is b for a, b in zip(before, after)), "not restored"
"""


def test_tracer_installs_and_uninstalls():
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
