"""Tests for bit-exact checkpoint persistence and resume."""

import dataclasses
import json
import os
import re

import numpy as np
import pytest

from sscent import (
    StepMetrics,
    TrainConfig,
    cosine_lr,
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
from sscent import checkpoint
from sscent.checkpoint import FORMAT_VERSION
from sscent.trainer import MetricHistory
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
    for a, b in zip(back.velocities, state.velocities):
        assert np.array_equal(a, b)
    assert np.array_equal(back.bank.prototypes, state.bank.prototypes)
    assert np.array_equal(back.proto_velocity, state.proto_velocity)
    assert back.rng.bit_generator.state == state.rng.bit_generator.state
    assert list(back.history) == list(state.history)
    # history keeps both blank and recorded eval entries
    accs = [m.test_acc for m in back.history]
    assert any(a is None for a in accs) and any(a is not None for a in accs)


def test_format_5_round_trip_with_every_config_key_changed(tmp_path):
    cfg = TrainConfig(
        labeled_batch_size=3, mu=2, temperature=0.25, eta0=0.05, momentum=0.5,
        epochs=2, steps_per_epoch=3, seed=11, method="ssc", eval_every=2,
        checkpoint_every=4, t_prime=0.2, tau=0.9, tau_ent=0.5, w_min=0.3,
        lambda_reject=0.1, gate_enabled=False, gate_cutoff_fraction=0.5,
        positives_only=True, hidden_dims=(), embed_dim=5,
        weak_sigma=0.05, strong_sigma=0.4, strong_dropout=0.1)
    default = TrainConfig()
    fields = dataclasses.fields(TrainConfig)
    assert len(fields) == 24
    assert all(getattr(cfg, f.name) != getattr(default, f.name) for f in fields)
    ds = fixture_dataset()
    csv = tmp_path / "all.csv"
    state, _ = train(cfg, ds, metrics_path=csv)
    path = tmp_path / "all.npz"
    save_checkpoint(path, cfg, state)

    with np.load(path, allow_pickle=False) as npz:
        files = set(npz.files)
        meta = npz["meta"]
        history = npz["history"]
    assert FORMAT_VERSION == 5
    assert meta.dtype.kind == "S"  # ASCII bytes, one byte per character
    meta = json.loads(meta.item().decode("ascii"))
    assert meta["format_version"] == 5
    # the stored config is the metrics CSV's config comment block
    comments = [line[2:] for line in csv.read_text().splitlines() if line.startswith("# ")]
    assert meta["config"] == comments[:24]
    assert comments[24].startswith("data.")
    assert files == {"meta", "history", "param_0", "param_1", "vel_0", "vel_1",
                     "prototypes", "proto_vel"}
    assert set(meta) == {"format_version", "config", "input_dim", "step", "rng_state",
                         "data_sha256"}
    assert meta["data_sha256"] == ds.sha256()
    # the history is a table of 40-byte rows, one per step, without step or epoch
    assert history.shape == (6,) and history.dtype.itemsize == 40
    assert history.dtype.names == ("lr", "loss", "confident", "entropy_selected",
                                   "mean_unlabeled_weight", "test_acc")
    assert np.array_equal(np.isnan(history["test_acc"]),
                          [m.test_acc is None for m in state.history])

    back_cfg, back = load_checkpoint(path)
    assert back_cfg == cfg
    assert back_cfg.hidden_dims == ()
    for a, b in zip(back.encoder.parameters(), state.encoder.parameters()):
        assert np.array_equal(a, b)
    assert np.array_equal(back.bank.prototypes, state.bank.prototypes)
    assert back.rng.bit_generator.state == state.rng.bit_generator.state
    assert list(back.history) == list(state.history)


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

    with pytest.raises(ValueError, match=r"format 1 not supported \(expected 5\)"):
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
    gate = full_cfg.gate(ds.num_classes)
    policy = full_cfg.policy()
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
    """Copy checkpoint `path` to `out` after `edit(arrays, meta)` changes it;
    a meta that `edit` returns replaces the whole meta."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = {k: npz[k] for k in npz.files}
    meta = json.loads(arrays["meta"].item())
    replaced = edit(arrays, meta)
    arrays["meta"] = np.array(json.dumps(meta if replaced is None else replaced).encode())
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
    assert capsys.readouterr().err == "error: checkpoint format 2 not supported (expected 5)\n"


def test_format_3_checkpoint_rejected(tmp_path, capsys):
    # format 3 kept the history as a JSON list of rows in the meta
    ds = fixture_dataset()
    cfg = fixture_config()
    state, _ = train(cfg, ds)
    path = tmp_path / "v4.npz"
    save_checkpoint(path, cfg, state)
    data = tmp_path / "data.csv"
    save_csv(ds, data)

    def downgrade(arrays, meta):
        meta["format_version"] = 3
        meta["history"] = [vars(m) for m in state.history]
        del meta["data_sha256"], arrays["history"]

    old = _rewrite(path, tmp_path / "v3.npz", downgrade)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(old), "--data", str(data)]) == 1
    assert capsys.readouterr().err == "error: checkpoint format 3 not supported (expected 5)\n"


@pytest.mark.parametrize("command", ["eval", "resume"])
def test_format_4_checkpoint_rejected(tmp_path, capsys, command):
    # format 4 stored an `encoder.activation` line in its config
    ds = fixture_dataset()
    cfg = fixture_config()
    state, _ = train(cfg, ds)
    path = tmp_path / "v5.npz"
    save_checkpoint(path, cfg, state)
    data = tmp_path / "data.csv"
    save_csv(ds, data)

    def downgrade(arrays, meta):
        meta["format_version"] = 4
        at = meta["config"].index("encoder.embed_dim = 4") + 1
        meta["config"].insert(at, "encoder.activation = tanh")

    old = _rewrite(path, tmp_path / "v4.npz", downgrade)
    argv = (["eval", "--checkpoint", str(old)] if command == "eval"
            else ["train", "--resume", str(old), "--metrics-out", str(tmp_path / "m.csv")])
    capsys.readouterr()
    assert main([*argv, "--data", str(data)]) == 1
    assert capsys.readouterr() == ("", "error: checkpoint format 4 not supported (expected 5)\n")
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("command", ["eval", "resume"])
@pytest.mark.parametrize("acc", [5.0, -0.25, np.inf])
def test_history_test_acc_outside_the_unit_interval_is_refused(tmp_path, capsys, command, acc):
    ds = fixture_dataset()
    cfg = fixture_config()  # evaluates at steps 2, 5 and 7
    state, _ = train(cfg, ds)
    path = tmp_path / "ok.npz"
    save_checkpoint(path, cfg, state)
    data = tmp_path / "data.csv"
    save_csv(ds, data)

    def corrupt(table):
        table = table.copy()
        table["test_acc"][3] = acc  # a row without an evaluation
        return table

    bad = _rewrite(path, tmp_path / "bad.npz", _set_history(corrupt))
    out = tmp_path / "bad.csv"
    argv = (["eval", "--checkpoint", str(bad)] if command == "eval"
            else ["train", "--resume", str(bad), "--metrics-out", str(out)])
    capsys.readouterr()
    assert main([*argv, "--data", str(data)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {bad}: history row 3: test_acc must be in [0, 1], got {acc}\n")
    assert not out.exists()


@pytest.mark.parametrize("row, field, message", [
    (5, "step", "history row 5 has step 6, expected 5"),
    (6, "epoch", "history row 6 has epoch 2, expected 1"),
])
def test_history_out_of_step_is_not_saved(tmp_path, row, field, message):
    ds = fixture_dataset()
    cfg = fixture_config()  # 4 steps per epoch
    state, history = train(cfg, ds)
    rows = list(history)
    # a row out of step is refused when it is appended, so no save sees it
    state.history = MetricHistory(cfg.steps_per_epoch)
    for m in rows[:row]:
        state.history.append(m)
    setattr(rows[row], field, getattr(rows[row], field) + 1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        state.history.append(rows[row])
    assert len(state.history) == row
    # a history shorter than the step count is refused by the save
    path = tmp_path / "gap.npz"
    with pytest.raises(ValueError, match=f"^history has {row} rows at step 8$"):
        save_checkpoint(path, cfg, state)
    assert not path.exists()


def test_reference_length_history_round_trips_byte_for_byte(tmp_path):
    # the paper preset's 262,144 steps, an eval every 1,024th
    ds = fixture_dataset()
    cfg = fixture_config(epochs=256, steps_per_epoch=1024)
    state = init_train_state(cfg, ds)
    n = cfg.epochs * cfg.steps_per_epoch
    rng = np.random.default_rng(3)
    loss, weight, acc = rng.random((3, n)).tolist()
    counts = rng.integers(0, 100, (2, n)).tolist()
    rows = [StepMetrics(step=i, epoch=i // 1024, lr=cosine_lr(i, n, cfg.eta0), loss=loss[i],
                        confident=counts[0][i], entropy_selected=counts[1][i],
                        mean_unlabeled_weight=weight[i],
                        test_acc=acc[i] if i % 1024 == 1023 else None)
            for i in range(n)]
    for m in rows:
        state.history.append(m)
    state.step = n
    first, second = tmp_path / "first.npz", tmp_path / "second.npz"
    save_checkpoint(first, cfg, state)
    _, back = load_checkpoint(first)
    assert list(back.history) == rows
    assert sum(m.test_acc is not None for m in back.history) == 256
    save_checkpoint(second, cfg, back)
    assert second.read_bytes() == first.read_bytes()


class _Crash(Exception):
    """Stands in for a process killed after a checkpoint was written."""


def test_cli_run_killed_after_a_periodic_save_resumes_byte_identically(tmp_path, monkeypatch,
                                                                       capsys):
    ds = fixture_dataset()
    data = tmp_path / "data.csv"
    save_csv(ds, data)
    flags = ["--set", "train.labeled_batch_size=4", "--set", "train.mu=2",
             "--set", "encoder.hidden_dims=8", "--set", "encoder.embed_dim=4",
             "--set", "train.eval_every=3", "--set", "train.checkpoint_every=5",
             "--epochs", "3", "--steps-per-epoch", "4"]
    full_csv, full_ckpt = tmp_path / "full.csv", tmp_path / "full.npz"
    assert main(["train", "--data", str(data), *flags, "--metrics-out", str(full_csv),
                 "--checkpoint-out", str(full_ckpt)]) == 0

    real_save = checkpoint.save_checkpoint

    def save_then_crash(*args, **kwargs):
        real_save(*args, **kwargs)
        raise _Crash

    part_csv, part_ckpt = tmp_path / "part.csv", tmp_path / "part.npz"
    monkeypatch.setattr(checkpoint, "save_checkpoint", save_then_crash)
    with pytest.raises(_Crash):
        main(["train", "--data", str(data), *flags, "--metrics-out", str(part_csv),
              "--checkpoint-out", str(part_ckpt)])
    monkeypatch.undo()
    assert not part_csv.exists()
    assert load_checkpoint(part_ckpt)[1].step == 5

    resumed_csv, resumed_ckpt = tmp_path / "resumed.csv", tmp_path / "resumed.npz"
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--resume", str(part_ckpt),
                 "--metrics-out", str(resumed_csv),
                 "--checkpoint-out", str(resumed_ckpt)]) == 0
    assert resumed_csv.read_bytes() == full_csv.read_bytes()
    assert resumed_ckpt.read_bytes() == full_ckpt.read_bytes()


def _history_with(table, dtype):
    """`table`'s rows in `dtype`: fields it lacks are zero, extra ones dropped."""
    out = np.zeros(table.shape, dtype)
    for name in set(dtype.names) & set(table.dtype.names):
        out[name] = table[name]
    return out


def _set(key, value):
    return lambda arrays, meta: meta.__setitem__(key, value)


def _set_array(name, make):
    return lambda arrays, meta: arrays.__setitem__(name, make(arrays[name]))


def _set_history(make):
    return lambda arrays, meta: arrays.__setitem__("history", make(arrays["history"]))


@pytest.mark.parametrize("edit, code, message", [
    # the config lines go through the config parser: bad lines exit 1
    (lambda arrays, meta: meta["config"].append("train.bogus = 1"), 1,
     "{path}: config, line 25: unknown config key 'train.bogus'"),
    (lambda arrays, meta: meta["config"].__setitem__(12, "gate.tau = x"), 1,
     "{path}: config, line 13: bad value for gate.tau: could not convert string to float: 'x'"),
    (lambda arrays, meta: meta["config"].__setitem__(12, "gate.tau = 2.0"), 1,
     "{path}: config: tau must be in (0, 1], got 2.0"),
    # a meta value out of range names the file and the field: exit 1
    (_set("step", "x"), 1, "{path}: step must be an integer >= 0, got 'x'"),
    (_set("step", -1), 1, "{path}: step must be an integer >= 0, got -1"),
    (_set("step", 8.0), 1, "{path}: step must be an integer >= 0, got 8.0"),
    (_set("input_dim", 0), 1, "{path}: input_dim must be an integer >= 1, got 0"),
    (_set("data_sha256", 5), 1, "{path}: data_sha256 must be 64 hex digits, got 5"),
    (_set("data_sha256", None), 1, "{path}: data_sha256 must be 64 hex digits, got None"),
    (_set("data_sha256", "zz"), 1, "{path}: data_sha256 must be 64 hex digits, got 'zz'"),
    # a meta or history of the wrong shape makes the file incomplete: exit 2
    (lambda arrays, meta: [1, 2], 2,
     "{path}: not a complete checkpoint: meta is not a JSON object"),
    (_set("config", "train.mu = 2"), 2,
     "{path}: not a complete checkpoint: config is not a list of lines"),
    (lambda arrays, meta: meta["config"].__setitem__(1, 2), 2,
     "{path}: not a complete checkpoint: config is not a list of lines"),
    (_set_history(lambda t: _history_with(t, np.dtype(t.dtype.descr + [("bogus", "<i4")]))), 2,
     "{path}: not a complete checkpoint: history has dtype [('lr', '<f8'), ('loss', '<f8'), "
     "('confident', '<i4'), ('entropy_selected', '<i4'), ('mean_unlabeled_weight', '<f8'), "
     "('test_acc', '<f8'), ('bogus', '<i4')], expected [('lr', '<f8'), ('loss', '<f8'), "
     "('confident', '<i4'), ('entropy_selected', '<i4'), ('mean_unlabeled_weight', '<f8'), "
     "('test_acc', '<f8')]"),
    (_set_history(lambda t: _history_with(t, np.dtype([d for d in t.dtype.descr
                                                        if d[0] != "loss"]))), 2,
     "{path}: not a complete checkpoint: history has dtype [('lr', '<f8'), "
     "('confident', '<i4'), ('entropy_selected', '<i4'), ('mean_unlabeled_weight', '<f8'), "
     "('test_acc', '<f8')], expected [('lr', '<f8'), ('loss', '<f8'), "
     "('confident', '<i4'), ('entropy_selected', '<i4'), ('mean_unlabeled_weight', '<f8'), "
     "('test_acc', '<f8')]"),
    (_set_history(lambda t: t[:-1]), 2,
     "{path}: not a complete checkpoint: history has shape (7,) at step 8"),
    (lambda arrays, meta: arrays.__delitem__("history"), 2,
     "{path}: not a complete checkpoint: 'history is not a file in the archive'"),
    # an array that no run could have written names the file and the entry: exit 1
    (_set_array("param_0", lambda a: np.full_like(a, np.nan)), 1,
     "{path}: param_0 must be finite"),
    (_set_array("vel_1", lambda a: np.full_like(a, np.inf)), 1,
     "{path}: vel_1 must be finite"),
    (_set_array("prototypes", lambda a: np.where(np.eye(*a.shape, dtype=bool), np.nan, a)), 1,
     "{path}: prototypes must be finite"),
    # row 0 set to (2, 0, ...), whose norm is exactly 2 whatever the training bits
    (_set_array("prototypes", lambda a: np.vstack([2 * np.eye(1, a.shape[1]), a[1:]])), 1,
     "{path}: prototype row 0 must be unit norm (got 2.0)"),
    (lambda arrays, meta: meta["rng_state"].__setitem__("bit_generator", "SFC64"), 1,
     "{path}: state must be for a PCG64 RNG"),
], ids=["unknown-key", "bad-value", "out-of-range", "step-not-integer", "step-negative",
        "step-float", "input-dim-zero", "sha256-int", "sha256-null", "sha256-short",
        "meta-not-object", "config-not-list",
        "config-item-not-string", "unknown-history-field", "missing-history-field",
        "short-history", "no-history", "param-nan", "velocity-inf", "prototype-nan",
        "prototype-not-unit", "rng-other-generator"])
def test_bad_meta_is_one_error_line(tmp_path, capsys, edit, code, message):
    ds = fixture_dataset()
    cfg = fixture_config()
    state, _ = train(cfg, ds)
    path = tmp_path / "ok.npz"
    save_checkpoint(path, cfg, state)
    data = tmp_path / "data.csv"
    save_csv(ds, data)
    bad = _rewrite(path, tmp_path / "bad.npz", edit)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == code
    assert capsys.readouterr().err == f"error: {message.format(path=bad)}\n"
