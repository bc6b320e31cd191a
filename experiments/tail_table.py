"""Tabulate `seed_tail.py` sweeps of two trees, setting by setting, as Markdown.

    python3 experiments/tail_table.py experiments/seed_tail_csv

The directory holds `<tree>_c<classes>_l<labels>.csv` files for the trees
`parent` and `change`. For each setting and method the table gives, parent
beside change: the failure rate (final test_acc below 0.85) with its 95%
Wilson interval, the median and the IQR, and two paired counts as
wins–losses, the seeds left over being ties. `ssc-e vs ssc` pairs the two
methods at each seed of one tree; `change vs parent` pairs the two trees at
each seed of one method.
"""

import csv
import math
import os
import re
import statistics
import sys

FLOOR = 0.85
TREES = ("parent", "change")
METHODS = ("ssc", "ssc-e")


def read_sweep(path):
    """{method: {seed: test_acc}} of one sweep CSV."""
    out = {method: {} for method in METHODS}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            out[row["method"]][int(row["seed"])] = float(row["test_acc"])
    return out


def wilson(failures, n, z=1.96):
    """95% Wilson score interval of a failure rate."""
    p = failures / n
    centre = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)
    return max(0.0, centre - half), min(1.0, centre + half)


def cell(accs):
    """failure rate [Wilson], median, IQR of one method's accuracies."""
    values = list(accs.values())
    fails = sum(v < FLOOR for v in values)
    lo, hi = wilson(fails, len(values))
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{fails}/{len(values)} [{lo:.3f}, {hi:.3f}]", f"{q2:.4f}", f"{q3 - q1:.4f}"


def wins(a, b):
    """`wins–losses` of a against b over the seeds both have."""
    seeds = set(a) & set(b)
    return f"{sum(a[s] > b[s] for s in seeds)}–{sum(a[s] < b[s] for s in seeds)}"


def main(argv):
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = argv[0]
    settings = sorted({tuple(map(int, m.groups()))
                       for m in map(re.compile(r"^\w+_c(\d+)_l(\d+)\.csv$").match,
                                    os.listdir(root)) if m})
    print("| classes × labels | method | failures, parent [95% CI] | failures, change "
          "[95% CI] | median p / c | IQR p / c | ssc-e vs ssc p / c | change vs parent |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for classes, labels in settings:
        sweeps = {tree: read_sweep(os.path.join(root, f"{tree}_c{classes}_l{labels}.csv"))
                  for tree in TREES}
        e_wins = [wins(sweeps[t]["ssc-e"], sweeps[t]["ssc"]) for t in TREES]
        for method in METHODS:
            (fail_p, med_p, iqr_p), (fail_c, med_c, iqr_c) = (cell(sweeps[t][method])
                                                              for t in TREES)
            print(f"| {classes} × {labels} | {method} | {fail_p} | {fail_c} | "
                  f"{med_p} / {med_c} | {iqr_p} / {iqr_c} | "
                  f"{' / '.join(e_wins) if method == 'ssc-e' else ''} | "
                  f"{wins(sweeps['change'][method], sweeps['parent'][method])} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
