"""Tests for bit-exact checkpoint persistence and resume."""

import dataclasses
import json
import os
import re

import numpy as np
import pytest

from sscent import (
    AugmentationPolicy,
    EntropyGate,
    TrainConfig,
    evaluate,
    generate_gaussian_clusters,
    init_train_state,
    load_checkpoint,
    save_checkpoint,
    save_csv,
    split_dataset,
    train,
    train_step,
)
from sscent.checkpoint import FORMAT_VERSION
from sscent.cli import main


def fixture_dataset(seed=0):
    ds = generate_gaussian_clusters(3, 6, 40, 1.0, 10.0, seed)
    return split_dataset(ds, labels_per_class=4, test_fraction=0.25, seed=seed)


def fixture_config(**overrides):
    base = dict(labeled_batch_size=4, mu=2, epochs=2, steps_per_epoch=4,
                hidden_dims=(8,), embed_dim=4, seed=0, eval_every=3)
    base.update(overrides)
    return TrainConfig(**base)


def test_round_trip_restores_everything_bit_exactly(tmp_path):
    ds = fixture_dataset()
    cfg = fixture_config()
    state, history = train(cfg, ds)
    path = tmp_path / "run.npz"
    save_checkpoint(path, cfg, state)
    back_cfg, back = load_checkpoint(path)

    assert back_cfg == cfg
    assert back.step == state.step
    for a, b in zip(back.encoder.parameters(), state.encoder.parameters()):
        assert np.array_equal(a, b)
    for a, b in zip(back.opt.velocities, state.opt.velocities):
        assert np.array_equal(a, b)
    assert np.array_equal(back.bank.prototypes, state.bank.prototypes)
    assert np.array_equal(back.proto_opt.velocities[0],
                          state.proto_opt.velocities[0])
    assert back.rng.bit_generator.state == state.rng.bit_generator.state
    assert back.history == state.history
    # history keeps both blank and recorded eval entries
    accs = [m.test_acc for m in back.history]
    assert any(a is None for a in accs) and any(a is not None for a in accs)


def test_format_3_round_trip_with_every_config_key_changed(tmp_path):
    cfg = TrainConfig(
        labeled_batch_size=3, mu=2, temperature=0.25, eta0=0.05, momentum=0.5,
        epochs=2, steps_per_epoch=3, seed=11, method="ssc", eval_every=2,
        checkpoint_every=4, t_prime=0.2, tau=0.9, tau_ent=0.5, w_min=0.3,
        lambda_reject=0.1, gate_enabled=False, gate_cutoff_fraction=0.5,
        positives_only=True, hidden_dims=(), embed_dim=5, activation="softplus",
        weak_sigma=0.05, strong_sigma=0.4, strong_dropout=0.1)
    default = TrainConfig()
    fields = dataclasses.fields(TrainConfig)
    assert len(fields) == 25
    assert all(getattr(cfg, f.name) != getattr(default, f.name) for f in fields)
    ds = fixture_dataset()
    csv = tmp_path / "all.csv"
    state, _ = train(cfg, ds, metrics_path=csv)
    path = tmp_path / "all.npz"
    save_checkpoint(path, cfg, state)

    with np.load(path, allow_pickle=False) as npz:
        files = set(npz.files)
        meta = npz["meta"]
    assert FORMAT_VERSION == 3
    assert meta.dtype.kind == "S"  # ASCII bytes, one byte per character
    meta = json.loads(meta.item().decode("ascii"))
    assert meta["format_version"] == 3
    # the stored config is the metrics CSV's config comment block
    comments = [line[2:] for line in csv.read_text().splitlines() if line.startswith("# ")]
    assert meta["config"] == comments[:25]
    assert comments[25].startswith("data.")
    assert files == {"meta", "param_0", "param_1", "vel_0", "vel_1",
                     "prototypes", "proto_vel"}

    back_cfg, back = load_checkpoint(path)
    assert back_cfg == cfg
    assert back_cfg.hidden_dims == ()
    for a, b in zip(back.encoder.parameters(), state.encoder.parameters()):
        assert np.array_equal(a, b)
    assert np.array_equal(back.bank.prototypes, state.bank.prototypes)
    assert back.rng.bit_generator.state == state.rng.bit_generator.state
    assert back.history == state.history


def test_format_1_checkpoint_rejected(tmp_path):
    # format 1 stored the meta JSON as a NumPy unicode string and kept a
    # class_ids entry; it reads back but is refused by its version
    ds = fixture_dataset()
    cfg = fixture_config()
    state, _ = train(cfg, ds)
    path = tmp_path / "v2.npz"
    save_checkpoint(path, cfg, state)
    with np.load(path, allow_pickle=False) as npz:
        arrays = {k: npz[k] for k in npz.files}
    meta = json.loads(arrays["meta"].item())
    meta["format_version"] = 1
    arrays["meta"] = np.array(json.dumps(meta))
    arrays["class_ids"] = np.arange(3)
    old = tmp_path / "v1.npz"
    with open(old, "wb") as fh:
        np.savez(fh, **arrays)

    with pytest.raises(ValueError, match=r"format 1 not supported \(expected 3\)"):
        load_checkpoint(old)


def test_restored_rng_continues_the_same_stream(tmp_path):
    ds = fixture_dataset()
    cfg = fixture_config()
    state, _ = train(cfg, ds)
    path = tmp_path / "rng.npz"
    save_checkpoint(path, cfg, state)
    _, back = load_checkpoint(path)
    assert np.array_equal(state.rng.random(16), back.rng.random(16))


def test_resume_reproduces_uninterrupted_metrics(tmp_path):
    ds = fixture_dataset()
    full_cfg = fixture_config(epochs=3)
    full_csv = tmp_path / "full.csv"
    train(full_cfg, ds, metrics_path=full_csv)

    # simulate an interruption: run the first 4 steps of the same schedule
    # by hand, checkpoint, then let train() finish from the restored state
    state = init_train_state(full_cfg, ds)
    gate = EntropyGate.for_classes(ds.num_classes, full_cfg.tau,
                                   full_cfg.tau_ent, full_cfg.w_min)
    policy = AugmentationPolicy(full_cfg.weak_sigma, full_cfg.strong_sigma,
                                full_cfg.strong_dropout)
    t_total = full_cfg.epochs * full_cfg.steps_per_epoch
    for gstep in range(4):
        m = train_step(state, full_cfg, gate, policy, ds.labeled_features(),
                       ds.labeled_labels(), ds.unlabeled_features(), t_total)
        if (gstep + 1) % full_cfg.eval_every == 0:
            m.test_acc = evaluate(state.encoder, state.bank,
                                  ds.test_features(), ds.test_labels(),
                                  full_cfg.t_prime)
        state.history.append(m)
    ckpt = tmp_path / "part.npz"
    save_checkpoint(ckpt, full_cfg, state)

    saved_cfg, saved_state = load_checkpoint(ckpt)
    assert saved_cfg == full_cfg
    assert saved_state.step == 4
    resumed_csv = tmp_path / "resumed.csv"
    train(full_cfg, ds, state=saved_state, metrics_path=resumed_csv)

    assert resumed_csv.read_bytes() == full_csv.read_bytes()


def test_save_is_atomic_and_overwrites(tmp_path):
    ds = fixture_dataset()
    cfg = fixture_config()
    state, _ = train(cfg, ds)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, cfg, state)
    assert not os.path.exists(f"{path}.tmp")
    first = path.read_bytes()
    save_checkpoint(path, cfg, state)
    assert path.read_bytes() == first


def test_unknown_format_version_rejected(tmp_path):
    ds = fixture_dataset()
    cfg = fixture_config()
    state, _ = train(cfg, ds)
    path = tmp_path / "ok.npz"
    save_checkpoint(path, cfg, state)

    with np.load(path, allow_pickle=False) as npz:
        arrays = {k: npz[k] for k in npz.files}
    meta = json.loads(arrays["meta"].item())
    meta["format_version"] = 99
    arrays["meta"] = np.array(json.dumps(meta))
    bad = tmp_path / "bad.npz"
    with open(bad, "wb") as fh:
        np.savez(fh, **arrays)

    with pytest.raises(ValueError) as err:
        load_checkpoint(bad)
    assert "99" in str(err.value)


def _rewrite(path, out, edit):
    """Copy checkpoint `path` to `out` after `edit(arrays, meta)` changes it."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = {k: npz[k] for k in npz.files}
    meta = json.loads(arrays["meta"].item())
    edit(arrays, meta)
    arrays["meta"] = np.array(json.dumps(meta).encode())
    with open(out, "wb") as fh:
        np.savez(fh, **arrays)
    return out


def test_architecture_mismatch_rejected(tmp_path, capsys):
    ds = fixture_dataset()
    cfg = fixture_config()
    state, _ = train(cfg, ds)
    path = tmp_path / "ok.npz"
    save_checkpoint(path, cfg, state)
    data = tmp_path / "data.csv"
    save_csv(ds, data)

    def widen(arrays, meta):  # widths no longer match param_0
        meta["config"][meta["config"].index("encoder.hidden_dims = 8")] = \
            "encoder.hidden_dims = 16"

    with pytest.raises(ValueError, match=r"param_0 shape \(6, 8\) does not match "
                                         r"the configured architecture \(6, 16\)"):
        load_checkpoint(_rewrite(path, tmp_path / "widths.npz", widen))

    # a shape that broadcasts into the live array (all but prototypes') is refused too
    wrong = {"param_0": np.zeros((1, 8)), "vel_0": np.zeros((1, 8)),
             "prototypes": np.eye(3, 5), "proto_vel": np.zeros(4)}
    for name, array in wrong.items():
        def swap(arrays, meta):
            arrays[name] = array

        bad = _rewrite(path, tmp_path / f"{name}.npz", swap)
        shape = re.escape(str(array.shape))
        with pytest.raises(ValueError, match=f"^{name} shape {shape} does not match"):
            load_checkpoint(bad)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {name} shape {array.shape} does not match")


def test_missing_checkpoint_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_checkpoint(tmp_path / "absent.npz")


def test_format_2_checkpoint_rejected(tmp_path, capsys):
    # format 2 stored the config as a JSON object of TrainConfig fields
    ds = fixture_dataset()
    cfg = fixture_config()
    state, _ = train(cfg, ds)
    path = tmp_path / "v3.npz"
    save_checkpoint(path, cfg, state)
    data = tmp_path / "data.csv"
    save_csv(ds, data)

    def downgrade(arrays, meta):
        meta["format_version"] = 2
        meta["config"] = dataclasses.asdict(cfg)

    old = _rewrite(path, tmp_path / "v2.npz", downgrade)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(old), "--data", str(data)]) == 1
    assert capsys.readouterr().err == "error: checkpoint format 2 not supported (expected 3)\n"


@pytest.mark.parametrize("edit, code, message", [
    # the config lines go through the config parser: bad lines exit 1
    (lambda meta: meta["config"].append("train.bogus = 1"), 1,
     "{path}: config, line 26: unknown config key 'train.bogus'"),
    (lambda meta: meta["config"].__setitem__(12, "gate.tau = x"), 1,
     "{path}: config, line 13: bad value for gate.tau: could not convert string to float: 'x'"),
    (lambda meta: meta["config"].__setitem__(12, "gate.tau = 2.0"), 1,
     "{path}: config: tau must be in (0, 1], got 2.0"),
    # a history row that is not a metrics row makes the file incomplete: exit 2
    (lambda meta: meta["history"][0].update(bogus=1), 2,
     "{path}: not a complete checkpoint: StepMetrics.__init__() got an unexpected "
     "keyword argument 'bogus'"),
    (lambda meta: meta["history"][-1].pop("loss"), 2,
     "{path}: not a complete checkpoint: StepMetrics.__init__() missing 1 required "
     "positional argument: 'loss'"),
], ids=["unknown-key", "bad-value", "out-of-range", "unknown-history-field",
        "missing-history-field"])
def test_bad_meta_is_one_error_line(tmp_path, capsys, edit, code, message):
    ds = fixture_dataset()
    cfg = fixture_config()
    state, _ = train(cfg, ds)
    path = tmp_path / "ok.npz"
    save_checkpoint(path, cfg, state)
    data = tmp_path / "data.csv"
    save_csv(ds, data)
    bad = _rewrite(path, tmp_path / "bad.npz", lambda arrays, meta: edit(meta))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == code
    assert capsys.readouterr().err == f"error: {message.format(path=bad)}\n"
