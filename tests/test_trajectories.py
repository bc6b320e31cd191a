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
        "test_acc": [0.971, 0.988, 0.988, 0.987, 0.985, 0.983, 0.988, 0.986],
        "counts_sha256": "1d82651ae65cb7be41bb4a520db2ffac0912b8742d9cbfb92f9ed9819047eedd",
        "loss": [6.055054844118308, 4.023307984072282, 3.9210576401606727,
                 3.98982514814917, 3.889670532523398, 3.960448879294447,
                 3.945849368714198, 3.929682854952439],
    },
    (0, "ssc-e"): {
        "test_acc": [0.964, 0.988, 0.99, 0.991, 0.988, 0.989, 0.991, 0.987],
        "counts_sha256": "d20ab0e6eb9a3af0e2f7ec7982fd7c07d5f4e7e71525ba5dbb414f676d8f49cc",
        "loss": [6.349766475838958, 3.9454148586968367, 3.980685270235208,
                 3.99367812595782, 3.9244701409650498, 3.967233745848518,
                 3.957992977683714, 3.9321726249741196],
    },
    (25, "ssc"): {
        "test_acc": [0.946, 0.971, 0.97, 0.975, 0.971, 0.976, 0.974, 0.971],
        "counts_sha256": "756250ae76d60458ad1ec9c4cf1a18dc67f4ee19eda9bfb0baf519c3856a242f",
        "loss": [6.145742492165237, 3.894366486256253, 3.915602135331453,
                 4.003856034437969, 3.9009244875459212, 3.975648346969356,
                 4.108362625299017, 3.846471163159985],
    },
    (25, "ssc-e"): {
        "test_acc": [0.363, 0.376, 0.388, 0.42, 0.422, 0.47, 0.426, 0.556],
        "counts_sha256": "68a59ea999637d9970e817843c782a9e68da55a5bd5a4f1f990627c5b40a484c",
        "loss": [6.351375728528644, 4.096508265627508, 4.070430030714255,
                 4.156768584406044, 4.071883258989838, 4.0755447139662975,
                 4.287522512036463, 3.931294639097054],
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
        "test_acc": [0.455, 0.496],
        "counts_sha256": "21c4d732541141e6b58559f4c454992e3a41e8f5b7e16026b990d63b2ce21ebb",
        "loss": [8.042770174907373, 6.417007784659073],
    },
    ("paper", 25): {
        "test_acc": [0.337, 0.334],
        "counts_sha256": "09b0c3cd644f8e6ce5370ccad36afbde11c45f23caa978d39ad0b0aea0ebbb90",
        "loss": [8.498362649875274, 6.921304598352645],
    },
    ("desk-positives-only", 0): {
        "test_acc": [0.972, 0.988, 0.99, 0.991, 0.988, 0.988, 0.99, 0.987],
        "counts_sha256": "df1ab83bd4cdc903bf13bd3049c42c5229b8f6c14f6227aac74a72fa5cd7b4b4",
        "loss": [6.1901072210326165, 3.916207665243435, 3.9683281450878285,
                 3.9841311245265567, 3.9043133733162216, 3.969329458303237,
                 3.9632508810622378, 3.9274566766702788],
    },
    ("small-long", 0): {
        "test_acc": [0.884, 0.95, 0.926, 0.953],
        "counts_sha256": "a32edb7562e591fd3d18f64308a36a17545936b5edb21793364c501af82f2dac",
        "loss": [5.159442410069294, 0.7304915741201283, 0.0634991837837324,
                 0.5031757565989563],
    },
    ("small-long", 25): {
        "test_acc": [0.627, 0.633, 0.663, 0.677],
        "counts_sha256": "3d14a4d1a0e8de789d616065d4ed5eeb28330354d7417f2aa106fc0801511d3c",
        "loss": [1.5774555063288562, 1.158512413018826, 0.7204640627195015,
                 0.7056925384545153],
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
