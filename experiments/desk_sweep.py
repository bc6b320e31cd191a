"""Final test accuracy of the `desk` preset over seeds 0-59, for one source tree.

For each seed N this generates perfbench's dataset at `--seed N` and trains
perfbench's `desk` workload with `--seed N`, once with `ssc` and once with
`ssc-e`. Every run is a fresh interpreter with `PYTHONPATH=<src>` and
`OPENBLAS_NUM_THREADS=1`, one worker per usable core, so a sweep reproduces a
default single-process run of the same seed. The output CSV has one
`seed,method,test_acc` row per run, sorted, with the accuracy as the metrics
log wrote it.

    python3 experiments/desk_sweep.py --src src --out sweep.csv

Two sweeps of different trees compare row by row (`diff a.csv b.csv`).
"""

import argparse
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import run as perfbench  # noqa: E402  (perfbench/run.py: its dataset and desk flags)

SEEDS = range(60)
METHODS = ("ssc", "ssc-e")


def final_test_acc(metrics_path):
    """The last non-empty test_acc cell of a metrics CSV, as written."""
    header, last = None, None
    with open(metrics_path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            cells = line.rstrip("\n").split(",")
            if header is None:
                header = cells.index("test_acc")
            elif cells[header]:
                last = cells[header]
    if last is None:
        raise RuntimeError(f"{metrics_path}: no test_acc recorded")
    return last


def run_seed(src, seed):
    """[(seed, method, test_acc)] for both methods at one seed."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1")

    def cli(*args):
        subprocess.run([sys.executable, "-m", "sscent.cli", *args], env=env, check=True,
                       stdout=subprocess.DEVNULL)

    with tempfile.TemporaryDirectory(prefix=f"desk_sweep_{seed}_") as work:
        data = os.path.join(work, "data.csv")
        cli(*perfbench.GEN_DATA, "--seed", str(seed), "--out", data)
        rows = []
        for method in METHODS:
            metrics = os.path.join(work, f"{method}.csv")
            cli("train", "--data", data, *perfbench.WORKLOADS["desk"]["train"],
                "--method", method, "--seed", str(seed), "--metrics-out", metrics)
            rows.append((seed, method, final_test_acc(metrics)))
        return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the tree's src/ directory")
    parser.add_argument("--out", required=True, help="the seed,method,test_acc CSV")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(args.src, "sscent")):
        parser.error(f"{args.src} holds no sscent package")
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(max_workers=workers or 1) as pool:
        rows = [row for rows in pool.map(lambda s: run_seed(args.src, s), SEEDS) for row in rows]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("seed,method,test_acc\n")
        fh.writelines(f"{seed},{method},{acc}\n" for seed, method, acc in rows)
    print(f"wrote {len(rows)} runs to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
