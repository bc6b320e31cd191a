"""Smoke tests of the experiment scripts under experiments/."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _script(name, *args):
    proc = subprocess.run([sys.executable, str(ROOT / "experiments" / name), *args],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return proc.stdout


def test_seed_tail_writes_one_row_per_seed_and_method(tmp_path):
    out = tmp_path / "sweep.csv"
    stdout = _script("seed_tail.py", "--src", str(ROOT / "src"), "--seeds", "0-1",
                     "--classes", "2", "--labels-per-class", "2", "--out", str(out))
    assert stdout == f"wrote 4 runs to {out}\n"
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "seed,method,test_acc"
    assert [line.rsplit(",", 1)[0] for line in lines[1:]] == [
        "0,ssc", "0,ssc-e", "1,ssc", "1,ssc-e"]
    assert all(0.0 <= float(line.rsplit(",", 1)[1]) <= 1.0 for line in lines[1:])


def test_tail_table_reports_failures_medians_and_wins(tmp_path):
    rows = {"parent": [(0, 0.9, 0.95), (1, 0.8, 0.7), (2, 0.99, 0.99)],
            "change": [(0, 0.91, 0.96), (1, 0.9, 0.95), (2, 0.98, 0.99)]}
    for tree, seeds in rows.items():
        lines = ["seed,method,test_acc"]
        for seed, ssc, ssc_e in seeds:
            lines += [f"{seed},ssc,{ssc}", f"{seed},ssc-e,{ssc_e}"]
        (tmp_path / f"{tree}_c3_l4.csv").write_text("\n".join(lines) + "\n")
    table = _script("tail_table.py", str(tmp_path)).splitlines()
    assert len(table) == 4
    assert table[2].startswith("| 3 × 4 | ssc | 1/3 [0.061, 0.792] | 0/3 [0.000, 0.562] | "
                               "0.9000 / 0.9100 |")
    assert table[3].endswith("| 1–1 / 3–0 | 2–0 |")
