"""The benchmark harness runs against the package as it stands."""

import contextlib
import importlib.util
import io
import json
import math
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


def test_traced_desk_run_measures_every_layer(monkeypatch):
    # a hook the step no longer calls leaves its figures NaN or 0, which the
    # smoke run's number check lets through
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    desk = run.WORKLOADS["desk"]
    monkeypatch.setitem(run.WORKLOADS, "desk", {
        **desk, "train": [*desk["train"], "--epochs", "1", "--steps-per-epoch", "12"],
        "floor": 0.0})
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "desk", "--seconds", "0", "--trace", "1"])
    assert code == 0, out.getvalue()[-4000:]
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert result["correct"], result
    metrics = result["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    for name, metric in metrics.items():
        value = metric["value"]
        assert math.isfinite(value), (name, value)
        if name.rpartition(".")[2] in ("ms", "calls", "rows", "mb"):
            assert value > 0, (name, value)
        if metric["unit"] == "fraction":
            assert 0.0 <= value <= 1.0, (name, value)
