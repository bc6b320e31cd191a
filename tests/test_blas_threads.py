"""Results do not depend on the BLAS thread count.

The same computations run in two fresh interpreters, at
OPENBLAS_NUM_THREADS=1 and =2, and their bytes are compared: the ssc-e
loss value and gradient on a paper-shaped batch (N=963, d=16), and the
metrics CSV of an 8-step `paper`-preset run.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = r"""
import contextlib, hashlib, io, sys
import numpy as np
from sscent import (ContrastiveBatch, generate_gaussian_clusters, save_csv, split_dataset,
                    ssc_e_loss)
from sscent.cli import main

# a paper-shaped loss batch: 64 labeled rows, two strong views of 448
# unlabeled samples (accepted into classes 0-2, or rejected into a class of
# their own two views), and 3 prototypes
rng = np.random.default_rng(0)
z = rng.normal(size=(963, 16))
z /= np.linalg.norm(z, axis=1, keepdims=True)
views = np.where(rng.random(448) < 0.6, rng.integers(0, 3, size=448), 3 + np.arange(448))
labels = np.concatenate([rng.integers(0, 3, size=64), views, views, [0, 1, 2]])
weights = np.concatenate([np.ones(64), np.tile(rng.uniform(0.2, 1.0, size=448), 2), np.ones(3)])
result = ssc_e_loss(ContrastiveBatch(embeddings=z, labels=labels, weights=weights,
                                     temperature=0.1))
print(hashlib.sha256(np.float64(result.value).tobytes() + result.grad.tobytes()).hexdigest())

ds = generate_gaussian_clusters(3, 8, 504, cluster_sigma=1.0, separation=4.0, seed=0)
ds = split_dataset(ds, labels_per_class=4, test_fraction=0.6667, seed=0)
data, metrics = sys.argv[1] + "/data.csv", sys.argv[1] + "/metrics.csv"
save_csv(ds, data)
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["train", "--data", data, "--preset", "paper", "--epochs", "1",
                 "--steps-per-epoch", "8", "--seed", "0", "--metrics-out", metrics])
assert code == 0, code
text = open(metrics, "rb").read()
print(hashlib.sha256(text).hexdigest(),
      sum(line[:1].isdigit() for line in text.decode().splitlines()))
"""


def _run(threads: int, out_dir: Path) -> list:
    out_dir.mkdir()
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(out_dir)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return proc.stdout.split()


def test_loss_and_metrics_bytes_equal_at_one_and_two_blas_threads(tmp_path):
    one = _run(1, tmp_path / "one")
    two = _run(2, tmp_path / "two")
    loss_one, metrics_one, rows = one
    assert rows == "8"
    assert loss_one == two[0], "ssc_e_loss value or gradient depends on the thread count"
    assert metrics_one == two[1], "the metrics CSV depends on the thread count"
