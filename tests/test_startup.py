"""Importing cfkit: OpenBLAS's idle workers sleep at once, and the environment is left as it was.

Every test runs in a fresh interpreter, because this one imported numpy long ago.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
VAR = "OPENBLAS_THREAD_TIMEOUT"


def run(code, **env):
    """Run ``code`` in a new interpreter that imports cfkit from this checkout; return its stdout."""
    base = {k: v for k, v in os.environ.items() if k != VAR}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**base, **env},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


# The second answer comes from a child process, which sees the C environment.
SEES_VAR = f"""
import os, subprocess, sys
import cfkit
print({VAR!r} in os.environ)
subprocess.run([sys.executable, "-c", "import os; print({VAR!r} in os.environ)"], check=True)
"""


def test_variable_gone_after_import():
    assert run(SEES_VAR) == ["False", "False"]


def test_user_value_kept():
    code = f"import os, cfkit; print(os.environ[{VAR!r}])"
    assert run(code, **{VAR: "10"}) == ["10"]


def test_numpy_imported_first_leaves_environment_untouched():
    code = "import os, numpy; before = dict(os.environ); import cfkit; print(dict(os.environ) == before)"
    assert run(code) == ["True"]


# CPU time, in clock ticks, of every thread but the main one, 0.3 s after the import.
WORKER_TICKS = """
import os, time
import cfkit
time.sleep(0.3)
ticks = []
for tid in os.listdir("/proc/self/task"):
    if int(tid) != os.getpid():
        with open(f"/proc/self/task/{tid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks.append(int(fields[11]) + int(fields[12]))
print(len(ticks), sum(ticks), os.sysconf("SC_CLK_TCK"))
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads per-thread CPU time from /proc/self/task"
)
def test_idle_blas_workers_do_not_spin():
    workers, ticks, per_s = map(int, run(WORKER_TICKS))
    if workers == 0:
        pytest.skip("OpenBLAS started no worker threads (one CPU or OPENBLAS_NUM_THREADS=1)")
    # A spinning worker takes about 0.1 s of CPU before it sleeps.
    assert ticks / per_s < 0.020
