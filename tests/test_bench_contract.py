"""The benchmark's contract with the package.

``bench/`` reads table entries, the tables' public counters (``sigma``,
``invalid``, ``peak_slots``, ``peak_total``) and wraps ``Functional``'s
``apply`` and ``__call__`` by name.  Its self-test runs every workload at a
tiny size, so a change to any of those names or types fails here.  It writes
only under the git-ignored ``bench/out/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
