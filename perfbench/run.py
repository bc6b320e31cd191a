"""Training benchmark for sscent: the `gen-data` -> `train` -> `eval` CLI path.

Usage, from the repository root:

    python3 perfbench/run.py [--workload desk|paper-shaped|small-long|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Every run is one fresh interpreter running `sscent.cli.main` with
`PYTHONPATH=src`. Runs go one at a time (a closed loop with one client). The
dataset is generated once per invocation from `--seed`, before timing; the
same seed is the training seed.

`--trace 0` times untraced runs and reports the end-to-end metrics.
`--trace 1` alternates untraced and traced runs and reports the per-layer
metrics from the traced ones, plus the tracing overhead.

Output: one line per metric (`name = value unit`), one `record` JSON line
with the run facts and every run's figures, and as the last line one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
See perfbench/README.md for the metrics and workloads.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = ".perfbench_work"
DEFAULT_SEED = 0
DEFAULT_SECONDS = 40
SETUP_PROBES = 12
RUN_TIMEOUT_S = 120

GEN_DATA = ["gen-data", "--classes", "3", "--dim", "8", "--per-class", "504",
            "--sigma", "1.0", "--separation", "4.0", "--labels-per-class", "4",
            "--test-fraction", "0.6667"]

# train flags after `--data`; `floor` is the lowest final test_acc a correct
# run may reach (desk uses the acceptance gate's 0.85). 64 paper-shaped steps
# do not converge (seed 12 ends at 0.035), so that workload has no floor.
WORKLOADS = {
    "desk": {
        "train": ["--preset", "desk"],
        "floor": 0.85,
    },
    "paper-shaped": {
        # the paper preset's step shape; one epoch keeps the entropy gate on
        # throughout, as in the first 78% of the reference schedule
        "train": ["--preset", "paper", "--epochs", "1", "--steps-per-epoch", "64"],
        "floor": 0.0,
    },
    "small-long": {
        # N = 6 rows per step under `ssc` (gate never runs); the paper
        # preset's cadence of 32 evaluations and 32 periodic checkpoints
        "train": ["--preset", "paper", "--method", "ssc",
                  "--epochs", "32", "--steps-per-epoch", "256",
                  "--set", "train.labeled_batch_size=1", "--set", "train.mu=1",
                  "--set", "encoder.hidden_dims=4", "--set", "encoder.embed_dim=4",
                  "--set", "train.eval_every=256", "--set", "train.checkpoint_every=256"],
        "floor": 0.5,
    },
}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "samples_per_s": "samples/s",
    "step_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "ckpt_write_mb": "MB",
}

PER_LAYER = {
    "pseudo.class_probabilities.calls": "calls/step",
    "pseudo.class_probabilities.ms": "ms/step",
    "pseudo.assign_pseudo_labels.ms": "ms/step",
    "pseudo.coverage": "fraction",
    "pseudo.entropy_selected_frac": "fraction",
    "data.augment.calls": "calls/step",
    "data.augment.ms": "ms/step",
    "losses.loss.ms": "ms/call",
    "losses.loss.rows": "rows",
    "losses.positive_pair_frac": "fraction",
    "losses.ContrastiveBatch.ms": "ms/step",
    "encoder.forward.calls": "calls/step",
    "encoder.forward.rows": "rows/step",
    "encoder.forward.ms": "ms/step",
    "encoder.backward.ms": "ms/step",
    "encoder.apply_gradients.ms": "ms/step",
    "encoder.update_prototypes.ms": "ms/step",
    "trainer.train_step.self_ms": "ms/step",
    "trainer.assemble_batch.self_ms": "ms/step",
    "trainer.write_metrics.ms": "ms/run",
    "trainer.init_train_state.ms": "ms/run",
    "data.load_csv.ms": "ms/run",
    "checkpoint.save_checkpoint.calls": "calls/run",
    "checkpoint.save_checkpoint.ms": "ms/call",
    "checkpoint.save_checkpoint.mb": "MB/call",
    "checkpoint.load_checkpoint.ms": "ms/run",
    "evaluate.build_report.ms": "ms/run",
    "cli.eval.ms": "ms/run",
    "evaluate.evaluate.calls": "calls/run",
    "evaluate.evaluate.ms": "ms/call",
    "trace.overhead_pct": "%",
}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _run_facts():
    import numpy

    try:
        cpus_allowed = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus_allowed = None
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_allowed": cpus_allowed,
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_start": _loadavg(),
    }


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"]
                                 if env.get("PYTHONPATH") else "")
    return env


def _run_cli(argv, log_path):
    """`sscent.cli.main(argv)` in a fresh interpreter; returns its exit code."""
    code = "import sys; from sscent.cli import main; sys.exit(main(sys.argv[1:]))"
    with open(log_path, "w", encoding="utf-8") as log:
        return subprocess.run([sys.executable, "-c", code, *argv], stdout=log,
                              stderr=subprocess.STDOUT, env=_env(),
                              timeout=RUN_TIMEOUT_S).returncode


def _run_worker(mode, train_argv, eval_argv, out_dir, tag):
    """One worker process. Returns its result dict, or a dict with `error`."""
    result_path = os.path.join(out_dir, f"{tag}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    spec = {"mode": mode, "train_argv": train_argv, "eval_argv": eval_argv,
            "result": result_path}
    with open(os.path.join(out_dir, f"{tag}.log"), "w", encoding="utf-8") as log:
        spec["t_spawn"] = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, WORKER, json.dumps(spec)],
                                  stdout=log, stderr=subprocess.STDOUT, env=_env(),
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"mode": mode, "error": f"timed out after {RUN_TIMEOUT_S} s"}
    if proc.returncode != 0 or not os.path.exists(result_path):
        return {"mode": mode, "error": f"worker exited {proc.returncode}"}
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_metrics_csv(path):
    """Rows of a metrics CSV (comment lines skipped) as dicts of strings."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _check_outputs(run, metrics_path, ckpt_path, floor):
    """Output checks of one completed run; returns a list of problems."""
    if run.get("error"):
        return [run["error"]]
    if run["exit_code"] != 0:
        return [f"train exited {run['exit_code']}"]
    if run.get("eval_exit_code") not in (None, 0):
        return [f"eval exited {run['eval_exit_code']}"]
    try:
        rows = _read_metrics_csv(metrics_path)
        losses = [float(r["loss"]) for r in rows]
        accs = [r["test_acc"] for r in rows if r["test_acc"]]
        run["sha256"] = {"metrics": _sha256(metrics_path), "checkpoint": _sha256(ckpt_path)}
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable outputs: {exc}"]
    problems = []
    if not losses or not all(math.isfinite(v) for v in losses):
        problems.append("non-finite or missing loss in the metrics CSV")
    if not accs:
        problems.append("no test_acc in the metrics CSV")
    else:
        run["test_acc"] = float(accs[-1])
        if run["test_acc"] < floor:
            problems.append(f"test_acc {run['test_acc']} below the floor {floor}")
    return problems


def measure(spec, data_path, seed, seconds, trace, out_dir):
    """Run one workload for about `seconds`; returns (runs, setup probe values)."""
    metrics_path = os.path.join(out_dir, "metrics.csv")
    ckpt_path = os.path.join(out_dir, "run.npz")
    train_argv = ["train", "--data", data_path, *spec["train"], "--seed", str(seed),
                  "--metrics-out", metrics_path, "--checkpoint-out", ckpt_path]
    eval_argv = ["eval", "--checkpoint", ckpt_path, "--data", data_path]
    deadline = time.monotonic() + seconds
    setups = []
    if not trace:
        for i in range(SETUP_PROBES):
            probe = _run_worker("setup", train_argv, eval_argv, out_dir, f"setup{i}")
            if "setup_s" in probe:
                setups.append(probe["setup_s"])
    runs, durations = [], []
    while True:
        mode = "traced" if trace and len(runs) % 2 == 1 else "timed"
        for path in (metrics_path, ckpt_path):
            if os.path.exists(path):
                os.remove(path)
        started = time.monotonic()
        run = _run_worker(mode, train_argv, eval_argv, out_dir, f"run{len(runs)}")
        run["problems"] = _check_outputs(run, metrics_path, ckpt_path, spec["floor"])
        runs.append(run)
        durations.append(time.monotonic() - started)
        enough = len(runs) >= (2 if trace else 1)
        if enough and time.monotonic() + statistics.median(durations) > deadline:
            break
    # reruns of one seed at one commit are byte-identical: a run whose outputs
    # differ from the most common ones failed
    hashes = [json.dumps(r["sha256"]) for r in runs if "sha256" in r]
    if hashes:
        common = max(set(hashes), key=hashes.count)
        for r in runs:
            if "sha256" in r and json.dumps(r["sha256"]) != common:
                r["problems"].append("outputs differ from the other runs (SHA-256)")
    return runs, setups


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def summarize(runs, setups, trace):
    """The metrics dict of one workload, or None when no run completed."""
    timed = [r for r in runs if r["mode"] == "timed" and "samples_per_s" in r]
    if not timed:
        return None
    if not trace:
        # The host's CPU speed drifts between runs (shared cores), so the
        # best run measures the code and the slower ones mostly the neighbours.
        return {
            "setup_s": _median(setups + [r.get("setup_s") for r in timed]),
            "samples_per_s": max(r["samples_per_s"] for r in timed),
            "step_ms_tail": _median([r.get("step_ms_tail") for r in timed]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in timed]),
            "ckpt_write_mb": _median([r["ckpt_write_mb"] for r in timed]),
        }
    traced = [r for r in runs if r["mode"] == "traced" and "layers" in r]
    if not traced:
        return None
    out = {name: _median([r["layers"][name] for r in traced])
           for name in PER_LAYER if name != "trace.overhead_pct"}
    untraced_ms = min(r["train_s"] / r["steps"] for r in timed)
    traced_ms = min(r["train_s"] / r["steps"] for r in traced)
    out["trace.overhead_pct"] = 100.0 * (traced_ms / untraced_ms - 1.0)
    return out


def run_workload(name, seed, seconds, trace):
    """Generate the dataset, measure, check. Returns (result, record) or raises
    RuntimeError when nothing could be measured."""
    spec = WORKLOADS[name]
    out_dir = os.path.join(WORK_DIR, name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    facts = _run_facts()
    data_path = os.path.join(out_dir, "data.csv")
    try:
        code = _run_cli([*GEN_DATA, "--seed", str(seed), "--out", data_path],
                        os.path.join(out_dir, "gen-data.log"))
    except subprocess.TimeoutExpired:
        code = "nothing (timed out)"
    if code != 0:
        raise RuntimeError(f"gen-data exited {code}; see {out_dir}/gen-data.log")
    facts.update(dataset_seed=seed, dataset_sha256=_sha256(data_path))
    runs, setups = measure(spec, data_path, seed, seconds, trace, out_dir)
    facts["loadavg_end"] = _loadavg()
    metrics = summarize(runs, setups, trace)
    if metrics is None:
        raise RuntimeError(f"{name}: no run completed; see the logs in {out_dir}")
    failed = sum(1 for r in runs if r["problems"])
    tails = [(r["tail_percentile"], r["steps"]) for r in runs if "tail_percentile" in r]
    timed = [r for r in runs if "intervals_ms" in r]
    record = {
        "workload": name, "seed": seed, "trace": trace, "facts": facts,
        "runs_attempted": len(runs), "runs_failed": failed,
        "step_ms_tail_percentile": tails[0] if tails else None,
        "test_acc": _median([r.get("test_acc") for r in runs]),
        # the median and the mean step over every timed run, printed but not
        # bounded: the median flips between the host's two CPU speeds
        "step_ms_p50": _median([v for r in timed for v in r["intervals_ms"]]),
        "step_ms_mean": (1e3 * sum(r["train_s"] for r in timed)
                         / sum(r["steps"] for r in timed)) if timed else None,
        "setup_probes_s": setups,
        "runs": [{k: v for k, v in r.items() if k != "intervals_ms"} for r in runs],
    }
    return {"attempted": len(runs), "failed": failed, "metrics": metrics}, record


def _print_result(name, result, record, units):
    print(f"== {name}: seed {record['seed']}, trace {record['trace']}, "
          f"runs_attempted = {result['attempted']}, runs_failed = {result['failed']}")
    for key, value in result["metrics"].items():
        print(f"{name}  {key} = {value!r} {units[key]}")
    for key in ("test_acc", "step_ms_p50", "step_ms_mean"):
        if record[key] is not None:
            print(f"{name}  {key} = {record[key]!r} {'fraction' if key == 'test_acc' else 'ms'}")
    if record["step_ms_tail_percentile"] and not record["trace"]:
        pct, count = record["step_ms_tail_percentile"]
        print(f"{name}  step_ms_tail is p{pct:.2f} of {count} intervals per run")
    for i, r in enumerate(record["runs"]):
        if r["problems"]:
            print(f"{name}  run {i} ({r['mode']}) failed: {'; '.join(r['problems'])}")
    print("record " + json.dumps(record))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join("src", "sscent")):
        print("error: run from the repository root; src/sscent not found", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            result, record = run_workload(name, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        _print_result(name, result, record, units)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for key, value in result["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
