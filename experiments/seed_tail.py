"""Final test accuracy of the `desk` preset over many seeds, for one source tree.

For each seed N this generates perfbench's dataset at `--seed N`, with the
class count and the labels per class given here, and trains perfbench's
`desk` workload with `--seed N`, once with `ssc` and once with `ssc-e`.
Every run is a fresh interpreter with `PYTHONPATH=<src>` and
`OPENBLAS_NUM_THREADS=1`, one worker per usable core, so a sweep reproduces a
default single-process run of the same seed. The output CSV has one
`seed,method,test_acc` row per run, sorted, with the accuracy as the metrics
log wrote it.

    python3 experiments/seed_tail.py --src src --seeds 0-199 \\
        --classes 3 --labels-per-class 4 --out c3_l4.csv

Two sweeps of different trees compare row by row (`diff a.csv b.csv`), and
`experiments/tail_table.py` tabulates them.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import run as perfbench  # noqa: E402  (perfbench/run.py: its dataset and desk flags)

METHODS = ("ssc", "ssc-e")


def parse_seeds(text):
    """Seeds from a comma list of `N` and inclusive `A-B` ranges, in order."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.strip().partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    if not seeds or min(seeds) < 0 or len(set(seeds)) != len(seeds):
        raise ValueError(f"expected distinct seeds >= 0 such as 0-199 or 0,25, got {text!r}")
    return seeds


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


def run_seed(src, seed, classes, labels_per_class):
    """[(seed, method, test_acc)] for both methods at one seed."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1")

    def cli(*args):
        subprocess.run([sys.executable, "-m", "sscent.cli", *args], env=env, check=True,
                       stdout=subprocess.DEVNULL)

    with tempfile.TemporaryDirectory(prefix=f"seed_tail_{seed}_") as work:
        data = os.path.join(work, "data.csv")
        cli(*perfbench.GEN_DATA, "--classes", str(classes),
            "--labels-per-class", str(labels_per_class), "--seed", str(seed), "--out", data)
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
    parser.add_argument("--seeds", default="0-59", help="seeds, e.g. 0-199 or 0,25 (0-59)")
    parser.add_argument("--classes", type=int, default=3, help="gen-data --classes (3)")
    parser.add_argument("--labels-per-class", type=int, default=4,
                        help="gen-data --labels-per-class (4)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(args.src, "sscent")):
        parser.error(f"{args.src} holds no sscent package")
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(str(exc))
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(max_workers=workers or 1) as pool:
        runs = pool.map(lambda s: run_seed(args.src, s, args.classes, args.labels_per_class),
                        seeds)
        rows = sorted(row for rows in runs for row in rows)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("seed,method,test_acc\n")
        fh.writelines(f"{seed},{method},{acc}\n" for seed, method, acc in rows)
    print(f"wrote {len(rows)} runs to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
