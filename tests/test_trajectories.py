"""Pinned training trajectories on the acceptance benchmark's dataset.

The desk runs train 512 steps (8 epochs of 64, B=8, mu=7, a 16-unit
encoder, eval every 64 steps) on 3 Gaussian classes with 4 labels each and
two thirds of the rows held out for test. More step shapes train on the
same data: the paper preset's (N=963 batch rows, whose small classes take
the loss kernel's gather path), a small-long one (N=6 rows) and the desk
shape under gate.positives_only. The recorded values come from NumPy
2.4.6. Every eval's test_acc and the per-step confident/entropy_selected
counts must match exactly; the loss at every eval step within 1e-12
relative.

A change that keeps every draw and every rounding keeps these values. A
change that alters the trajectory updates them in its own diff.
"""

import hashlib

import pytest

from sscent import TrainConfig, generate_gaussian_clusters, split_dataset, train

RECORDED = {
    (0, "ssc"): {
        "test_acc": [0.986, 0.98, 0.985, 0.988, 0.987, 0.984, 0.986, 0.987],
        "counts_sha256": "5f70a7573ab22343b8743a9a94847886858600ac7627fc97e8773a7296466ae9",
        "loss": [6.3402243712224395, 3.9733450553912415, 4.006508565167218,
                 3.9079003954338547, 3.966552855518669, 3.9834774585414743,
                 3.872000776353024, 3.844258903198117],
    },
    (0, "ssc-e"): {
        "test_acc": [0.981, 0.991, 0.988, 0.991, 0.989, 0.989, 0.989, 0.989],
        "counts_sha256": "e9ce7aba3c52a6afdf47b0084c631f83207c6eed0e8915cc451ac77f8f370b26",
        "loss": [6.487259168970503, 4.016625567846206, 4.025201669504557,
                 3.9222118625685587, 3.985339944059156, 4.083537531963519,
                 3.934643233154399, 3.8348065156946003],
    },
    (25, "ssc"): {
        "test_acc": [0.942, 0.973, 0.971, 0.974, 0.971, 0.972, 0.975, 0.974],
        "counts_sha256": "4810686359873249377e35da5255b690ca18ad1d5ce4746ea393877558f627e2",
        "loss": [5.646964552752339, 4.138364488507682, 3.8539951227463143,
                 3.9523347843555316, 4.033940320570738, 3.876529575001008,
                 3.8784505872147443, 4.029017695662475],
    },
    (25, "ssc-e"): {
        "test_acc": [0.359, 0.374, 0.376, 0.413, 0.377, 0.392, 0.397, 0.395],
        "counts_sha256": "c1f9c7e42485cb1dcd8b1a2609494f18cee3961a9b88c087205913eab6341dda",
        "loss": [5.915515337421262, 4.252330859674914, 4.00804044906519,
                 4.097823722531509, 4.1550911722873405, 3.977717956585185,
                 3.9493466538579383, 4.083789633050606],
    },
}


@pytest.mark.parametrize("seed,method", sorted(RECORDED))
def test_desk_trajectory_is_the_recorded_one(seed, method):
    ds = generate_gaussian_clusters(3, 8, 504, 1.0, 4.0, seed)
    ds = split_dataset(ds, labels_per_class=4, test_fraction=2 / 3, seed=seed)
    cfg = TrainConfig(labeled_batch_size=8, mu=7, epochs=8, steps_per_epoch=64,
                      hidden_dims=(16,), embed_dim=8, seed=seed, method=method,
                      eval_every=64)
    _, hist = train(cfg, ds)
    want = RECORDED[(seed, method)]

    assert [m.test_acc for m in hist if m.test_acc is not None] == want["test_acc"]
    counts = "\n".join(f"{m.confident},{m.entropy_selected}" for m in hist)
    assert hashlib.sha256(counts.encode()).hexdigest() == want["counts_sha256"]
    losses = [m.loss for m in hist[::64]]
    assert losses == pytest.approx(want["loss"], rel=1e-12, abs=0.0)


# TrainConfig overrides per step shape. "paper" keeps every default (B=64,
# mu=7, 64-64 encoder, ssc-e) for one epoch, so the entropy gate is on and
# rejected views are gathered; "small-long" is perfbench's N=6 ssc shape;
# "desk-positives-only" is the desk run with entropy-selected views masked
# out as anchors (gate.positives_only).
SHAPES = {
    "paper": dict(epochs=1, steps_per_epoch=16, eval_every=8),
    "small-long": dict(labeled_batch_size=1, mu=1, hidden_dims=(4,), embed_dim=4,
                       method="ssc", epochs=4, steps_per_epoch=256, eval_every=256),
    "desk-positives-only": dict(labeled_batch_size=8, mu=7, epochs=8, steps_per_epoch=64,
                                hidden_dims=(16,), embed_dim=8, method="ssc-e",
                                eval_every=64, positives_only=True),
}

RECORDED_SHAPES = {
    ("paper", 0): {
        "test_acc": [0.454, 0.51],
        "counts_sha256": "e529eb06f8d12273d60046dc4c83542af033b362744433efb9b29217c1f7c64b",
        "loss": [8.249272989905078, 6.540592363614878],
    },
    ("paper", 25): {
        "test_acc": [0.334, 0.334],
        "counts_sha256": "606224fdda2070198a762ff4d20530d519e88ae06d5da6993994bb80766c9144",
        "loss": [8.432272655415222, 6.948200250314423],
    },
    ("desk-positives-only", 0): {
        "test_acc": [0.981, 0.99, 0.988, 0.99, 0.989, 0.985, 0.988, 0.988],
        "counts_sha256": "d1da7876c3dbd3b633172777af32191c513bbeda3d6bb43045708e8213a7cc8b",
        "loss": [6.361723767895937, 3.9907062349847675, 4.0200222940923975,
                 3.910017556298332, 3.971585162338216, 4.04437923682953,
                 3.914056176397579, 3.8492710329221973],
    },
    ("small-long", 0): {
        "test_acc": [0.884, 0.95, 0.926, 0.953],
        "counts_sha256": "a32edb7562e591fd3d18f64308a36a17545936b5edb21793364c501af82f2dac",
        "loss": [5.1594424100692935, 0.7304915741349916, 0.06349918359028088,
                 0.5031757554698729],
    },
    ("small-long", 25): {
        "test_acc": [0.627, 0.633, 0.663, 0.677],
        "counts_sha256": "3d14a4d1a0e8de789d616065d4ed5eeb28330354d7417f2aa106fc0801511d3c",
        "loss": [1.5774555063288562, 1.1585124130148456, 0.7204640628145167,
                 0.7056981649820784],
    },
}


@pytest.mark.parametrize("shape,seed", sorted(RECORDED_SHAPES))
def test_shape_trajectory_is_the_recorded_one(shape, seed):
    ds = generate_gaussian_clusters(3, 8, 504, 1.0, 4.0, seed)
    ds = split_dataset(ds, labels_per_class=4, test_fraction=2 / 3, seed=seed)
    cfg = TrainConfig(seed=seed, **SHAPES[shape])
    _, hist = train(cfg, ds)
    want = RECORDED_SHAPES[(shape, seed)]

    assert [m.test_acc for m in hist if m.test_acc is not None] == want["test_acc"]
    counts = "\n".join(f"{m.confident},{m.entropy_selected}" for m in hist)
    assert hashlib.sha256(counts.encode()).hexdigest() == want["counts_sha256"]
    losses = [m.loss for m in hist[::cfg.eval_every]]
    assert losses == pytest.approx(want["loss"], rel=1e-12, abs=0.0)
