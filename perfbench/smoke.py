"""Smoke run of the benchmark harness at tiny lengths.

Usage, from the repository root:

    python3 perfbench/smoke.py

Every workload is cut to 12 steps. The smoke run checks that:

* each workload emits exactly the metrics BENCHMARK.json names, with
  `--trace 0` (end-to-end) and `--trace 1` (per-layer), each with its unit;
* a run whose dataset path is unreadable (the CLI exits 2) lands in
  `runs_failed`, makes the result incorrect, and does not stop the harness;
* the harness exits nonzero without a result where `src/sscent` is missing.

Exits 0 when all checks pass. Takes well under a minute.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import run

TINY = ["--epochs", "1", "--steps-per-epoch", "12"]


def _main_result(argv):
    """run.main(argv) with stdout captured; returns (exit code, last line as JSON)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if code == 0 else None


def check_metric_names(bench):
    problems = []
    for name in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = _main_result(["--workload", name, "--seed", "3",
                                         "--seconds", "0", "--trace", str(trace)])
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: exit {code}, result {result}")
                continue
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace {trace}: metrics {sorted(got)} "
                                f"!= {sorted(want)}")
            bad = [k for k, v in result["metrics"].items()
                   if not isinstance(v["value"], (int, float))]
            if bad:
                problems.append(f"{name} trace {trace}: non-numeric values for {bad}")
    return problems


def check_failed_run_is_counted():
    """The second timed run gets an unreadable dataset path."""
    real_run_worker = run._run_worker
    timed_calls = []

    def flaky(mode, train_argv, eval_argv, out_dir, tag):
        if mode == "timed":
            timed_calls.append(tag)
            if len(timed_calls) == 2:
                train_argv = [*train_argv, "--data", os.path.join(out_dir, "missing.csv")]
        return real_run_worker(mode, train_argv, eval_argv, out_dir, tag)

    run._run_worker = flaky
    try:
        code, result = _main_result(["--workload", "desk", "--seconds", "4",
                                     "--trace", "0"])
    finally:
        run._run_worker = real_run_worker
    if code != 0:
        return [f"harness exited {code} on a failing run"]
    if len(timed_calls) < 2:
        return ["too few runs to reach the failing one; raise --seconds"]
    if result["failed"] != 1 or result["correct"] or result["attempted"] < 2:
        return [f"failing run not counted: {result}"]
    return []


def check_refuses_without_program():
    bare = os.path.join(run.WORK_DIR, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without src/: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    for spec in run.WORKLOADS.values():
        spec["train"] = [*spec["train"], *TINY]
        spec["floor"] = 0.0
    run.SETUP_PROBES = 1
    problems = (check_metric_names(bench) + check_failed_run_is_counted()
                + check_refuses_without_program())
    for p in problems:
        print(f"FAIL: {p}")
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
