"""The benchmark harness runs against the package as it stands."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_run_passes():
    # the harness wraps sscent.trainer names, reads the decision kinds and
    # hashes the CLI's outputs; a renamed hook or a failing run shows here
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.strip().endswith("smoke: PASS")
