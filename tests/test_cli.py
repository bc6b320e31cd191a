"""End-to-end command-line tests.

Everything drives sscent.cli.main() in-process so exit codes, stdout, and
file artifacts can be asserted without subprocesses.
"""

import hashlib
import json
import re
import shutil

import numpy as np
import pytest

import sscent.trainer as trainer_mod
from sscent import (
    LossResult,
    TrainConfig,
    load_csv,
    save_checkpoint,
    save_csv,
    train_step,
    init_train_state,
)
from sscent.checkpoint import load_checkpoint
from sscent.cli import main
from sscent.evaluate import build_report, format_report
from sscent.pseudo import EntropyGate, assign_pseudo_labels
from sscent.trainer import read_metrics


GEN_ARGS = ["gen-data", "--classes", "3", "--dim", "4", "--per-class", "20",
            "--sigma", "0.5", "--separation", "5.0", "--labels-per-class", "4",
            "--test-fraction", "0.25", "--seed", "7"]

# 2 epochs x 4 steps on a tiny model keeps every train invocation fast
FAST_SET = ["--set", "train.labeled_batch_size = 4",
            "--set", "train.mu = 2",
            "--set", "train.epochs = 2",
            "--set", "train.steps_per_epoch = 4",
            "--set", "encoder.hidden_dims = 8",
            "--set", "encoder.embed_dim = 4"]


def fast_train_config(**overrides):
    """The TrainConfig that FAST_SET resolves to."""
    base = dict(labeled_batch_size=4, mu=2, epochs=2, steps_per_epoch=4,
                hidden_dims=(8,), embed_dim=4)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_data") / "clusters.csv"
    rc = main(GEN_ARGS + ["--out", str(path)])
    assert rc == 0
    return str(path)


# ---------------------------------------------------------------- parser


def test_no_command_prints_help_and_fails(capsys):
    assert main([]) == 1
    out = capsys.readouterr().out
    assert "usage" in out.lower()


def test_unknown_command_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_unknown_flag_is_a_usage_error(capsys):
    assert main(["gen-data", "--out", "x.csv", "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["gen-data", "--help"],
    ["train", "--help"],
    ["eval", "--help"],
    ["gradcheck", "--help"],
    ["gate-sim", "--help"],
    ["compare", "--help"],
])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out.lower()


# -------------------------------------------------------------- gen-data


def test_gen_data_split_counts(data_csv, capsys):
    ds = load_csv(data_csv)
    counts = ds.split_counts()
    # 60 rows: 12 labeled, remainder 48 split 12 test / 36 unlabeled
    assert len(ds) == 60
    assert counts == {"labeled": 12, "unlabeled": 36, "test": 12}


def test_gen_data_echoes_settings_and_reports_counts(tmp_path, capsys):
    out = tmp_path / "echo.csv"
    assert main(GEN_ARGS + ["--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "gen.classes = 3" in text
    assert "gen.seed = 7" in text
    assert "wrote 60 rows" in text
    assert "labeled 12" in text


def test_gen_data_embeds_settings_as_comments(data_csv):
    with open(data_csv, "r", encoding="utf-8") as fh:
        first = fh.readline()
    assert first.startswith("# gen.classes = 3")


def test_gen_data_is_deterministic(tmp_path, data_csv):
    again = tmp_path / "again.csv"
    assert main(GEN_ARGS + ["--out", str(again)]) == 0
    with open(data_csv, "rb") as fh:
        baseline = fh.read()
    assert again.read_bytes() == baseline


def test_gen_data_seed_changes_the_file(tmp_path, data_csv):
    other = tmp_path / "other.csv"
    argv = [a if a != "7" else "8" for a in GEN_ARGS]
    assert main(argv + ["--out", str(other)]) == 0
    with open(data_csv, "rb") as fh:
        baseline = fh.read()
    assert other.read_bytes() != baseline


def test_gen_data_requires_out(capsys):
    assert main(GEN_ARGS) == 1
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--sigma", "nan", "cluster_sigma must be finite and >= 0, got nan"),
    ("--separation", "inf", "separation must be finite and > 0, got inf"),
])
def test_gen_data_names_a_non_finite_spread(flag, value, message, tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert main(["gen-data", flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_gen_data_hide_unlabeled_writes_minus_one(tmp_path):
    out = tmp_path / "hidden.csv"
    assert main(GEN_ARGS + ["--hide-unlabeled", "--out", str(out)]) == 0
    hidden = [line for line in out.read_text().splitlines()
              if line.endswith(",unlabeled")]
    assert len(hidden) == 36
    assert all(line.split(",")[-2] == "-1" for line in hidden)


@pytest.mark.parametrize("command, section, argv", [
    ("gen-data", "gen", ["--hide-unlabeled"]),
    ("gate-sim", "gate_sim", ["--samples", "3", "--tau", "0.9,0.95"]),
    ("gradcheck", "gradcheck", ["--variant", "ssc"]),
])
def test_every_flag_but_out_is_echoed(command, section, argv, tmp_path, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    flags = set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out)) - {"help"}
    if "out" in flags:
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    assert main([command, *argv]) == 0
    echoed = {line.partition(" = ")[0] for line in capsys.readouterr().out.splitlines()}
    assert {f"{section}.{flag.replace('-', '_')}" for flag in flags - {"out"}} <= echoed
    assert f"{section}.out" not in echoed


# ----------------------------------------------------------------- train


def test_train_writes_metrics_and_checkpoint(data_csv, tmp_path, capsys):
    metrics = tmp_path / "m.csv"
    ckpt = tmp_path / "c.npz"
    rc = main(["train", "--data", data_csv, *FAST_SET,
               "--metrics-out", str(metrics), "--checkpoint-out", str(ckpt)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "train.method = ssc-e" in out        # resolved config is echoed
    assert "encoder.hidden_dims = 8" in out
    assert "finished step 7" in out
    assert ckpt.exists()
    meta, rows = read_metrics(metrics)
    assert meta["train.epochs"] == "2"
    assert meta["data.classes"] == "3"
    assert [r["step"] for r in rows] == [str(i) for i in range(8)]
    # eval_every=0: only the final step carries an accuracy
    assert [r["test_acc"] != "" for r in rows] == [False] * 7 + [True]


def test_train_set_override_is_applied(data_csv, tmp_path):
    metrics = tmp_path / "short.csv"
    rc = main(["train", "--data", data_csv, *FAST_SET,
               "--set", "train.epochs = 1", "--metrics-out", str(metrics)])
    assert rc == 0
    _, rows = read_metrics(metrics)
    assert len(rows) == 4


def test_train_flag_overrides_beat_set(data_csv, tmp_path):
    metrics = tmp_path / "flag.csv"
    rc = main(["train", "--data", data_csv, *FAST_SET,
               "--epochs", "1", "--metrics-out", str(metrics)])
    assert rc == 0
    meta, rows = read_metrics(metrics)
    assert meta["train.epochs"] == "1"
    assert len(rows) == 4


def test_train_unknown_set_key_fails_validation(data_csv, capsys):
    rc = main(["train", "--data", data_csv, "--set", "train.nope = 3"])
    assert rc == 1
    assert "train.nope" in capsys.readouterr().err


def test_train_invalid_value_fails_validation(data_csv, capsys):
    rc = main(["train", "--data", data_csv, *FAST_SET,
               "--set", "train.momentum = 1.5"])
    assert rc == 1
    assert "momentum" in capsys.readouterr().err


def test_train_config_errors_name_their_source_once(data_csv, tmp_path, capsys):
    # the direct flags are the last config lines applied, from source `flags`
    assert main(["train", "--data", data_csv, *FAST_SET, "--epochs", "-1"]) == 1
    assert capsys.readouterr().err == (
        "error: flags: epochs must be >= 0, got -1\n")  # no `<config>:`
    bad = tmp_path / "bad.cfg"
    bad.write_text("gate.tau = 2.0\n")
    assert main(["train", "--data", data_csv, "--config", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: tau must be in (0, 1], got 2.0\n"


@pytest.mark.parametrize("key", ["train.eta0=nan", "train.temperature=inf",
                                 "gate.t_prime=nan", "aug.weak_sigma=nan",
                                 "aug.strong_sigma=inf"])
def test_train_non_finite_config_value_fails_before_the_data_is_read(tmp_path, capsys,
                                                                     key):
    rc = main(["train", "--data", str(tmp_path / "missing.csv"), "--set", key])
    assert rc == 1
    name, _, value = key.partition("=")
    assert capsys.readouterr().err == (
        f"error: --set: {name.split('.')[1]} must be finite, got {value}\n")


def test_train_missing_data_file_is_io_error(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "absent.csv"), *FAST_SET])
    assert rc == 2
    assert "absent.csv" in capsys.readouterr().err


def test_train_methods_match_when_weights_are_uniform(data_csv, tmp_path):
    # gate off and full-weight rejects: every sample weight is 1, so the
    # weighted loss reduces to the unweighted one and both methods must
    # produce identical metric rows
    uniform = ["--set", "gate.enabled = false",
               "--set", "gate.lambda_reject = 1.0"]
    paths = {}
    for method in ("ssc", "ssc-e"):
        paths[method] = tmp_path / f"{method}.csv"
        rc = main(["train", "--data", data_csv, *FAST_SET, *uniform,
                   "--method", method, "--metrics-out", str(paths[method])])
        assert rc == 0
    _, rows_a = read_metrics(paths["ssc"])
    _, rows_b = read_metrics(paths["ssc-e"])
    assert rows_a == rows_b


def test_train_is_deterministic_across_invocations(data_csv, tmp_path):
    files = []
    for name in ("one.csv", "two.csv"):
        path = tmp_path / name
        rc = main(["train", "--data", data_csv, *FAST_SET,
                   "--metrics-out", str(path)])
        assert rc == 0
        files.append(path.read_bytes())
    assert files[0] == files[1]


def test_train_resume_rejects_other_config_flags(data_csv, tmp_path, capsys):
    rc = main(["train", "--data", data_csv, "--resume", str(tmp_path / "x.npz"),
               "--method", "ssc"])
    assert rc == 1
    assert "--resume" in capsys.readouterr().err


def test_train_resume_matches_uninterrupted_run(data_csv, tmp_path):
    full = tmp_path / "full.csv"
    rc = main(["train", "--data", data_csv, *FAST_SET,
               "--metrics-out", str(full)])
    assert rc == 0

    # stage a checkpoint three steps into the same schedule, then let the
    # CLI finish from it
    cfg = fast_train_config()
    ds = load_csv(data_csv)
    state = init_train_state(cfg, ds)
    gate = cfg.gate(ds.num_classes)
    policy = cfg.policy()
    for _ in range(3):
        m = train_step(state, cfg, gate, policy, ds.labeled_features(),
                       ds.labeled_labels(), ds.unlabeled_features(),
                       cfg.epochs * cfg.steps_per_epoch)
        state.history.append(m)
    part = tmp_path / "part.npz"
    save_checkpoint(part, cfg, state)

    resumed = tmp_path / "resumed.csv"
    rc = main(["train", "--data", data_csv, "--resume", str(part),
               "--metrics-out", str(resumed)])
    assert rc == 0
    assert resumed.read_bytes() == full.read_bytes()


def test_train_resume_of_finished_run_is_a_noop_rewrite(data_csv, tmp_path,
                                                        capsys):
    metrics = tmp_path / "m.csv"
    ckpt = tmp_path / "c.npz"
    assert main(["train", "--data", data_csv, *FAST_SET,
                 "--metrics-out", str(metrics),
                 "--checkpoint-out", str(ckpt)]) == 0
    baseline = metrics.read_bytes()
    capsys.readouterr()

    again = tmp_path / "again.csv"
    assert main(["train", "--data", data_csv, "--resume", str(ckpt),
                 "--metrics-out", str(again)]) == 0
    assert "finished step 7" in capsys.readouterr().out
    assert again.read_bytes() == baseline


def test_train_desk_preset_runs(data_csv, tmp_path, capsys):
    metrics = tmp_path / "desk.csv"
    rc = main(["train", "--data", data_csv, "--preset", "desk",
               "--epochs", "1", "--steps-per-epoch", "2",
               "--metrics-out", str(metrics)])
    assert rc == 0
    _, rows = read_metrics(metrics)
    assert len(rows) == 2
    assert "finished step 1" in capsys.readouterr().out


def test_train_overflowing_parameters_exit_three_naming_the_row(data_csv, capsys):
    # at lr 1e200 the first prototype update overflows the rows' squared norms
    assert main(["train", "--data", data_csv, "--preset", "desk",
                 "--set", "train.eta0=1e200"]) == 3
    assert capsys.readouterr().err == "error: prototype row 0 has a non-finite norm\n"


@pytest.mark.parametrize("flag", ["--metrics-out", "--checkpoint-out"])
def test_train_unwritable_output_is_an_io_error_before_any_step(data_csv, tmp_path, capsys,
                                                                monkeypatch, flag):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran before the output path was checked")

    monkeypatch.setattr(trainer_mod, "train_step", no_step)
    path = tmp_path / "absent" / "out"
    assert main(["train", "--data", data_csv, *FAST_SET, flag, str(path)]) == 2
    out, err = capsys.readouterr()
    assert "finished" not in out
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"
    assert main(["train", "--data", data_csv, *FAST_SET, flag, str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert "finished" not in out
    assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


THREE_FEATURES = ["gen-data", "--classes", "2", "--dim", "3", "--per-class", "30",
                  "--labels-per-class", "2", "--test-fraction", "0.5"]


def test_train_zero_norm_embedding_exits_three(tmp_path, capsys):
    # labeled rows are not augmented and the fresh encoder's biases are zero,
    # so an all-zero labeled row embeds at norm 0 in step 0
    data = tmp_path / "zero_labeled_row.csv"
    assert main([*THREE_FEATURES, "--out", str(data)]) == 0
    ds = load_csv(data)
    ds.features[np.flatnonzero(ds.split == "labeled")[0]] = 0.0
    save_csv(ds, data)
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--preset", "desk",
                 "--set", "train.epochs=1", "--set", "train.steps_per_epoch=2"]) == 3
    assert re.fullmatch(r"error: embedding row [0-7] has zero norm\n", capsys.readouterr().err)


def test_train_non_finite_loss_exits_three_and_dumps_the_batch(data_csv, capsys,
                                                              monkeypatch):
    def nan_loss(batch):
        return LossResult(value=float("nan"), grad=np.zeros_like(batch.embeddings))

    monkeypatch.setattr(trainer_mod, "ssc_e_loss", nan_loss)
    assert main(["train", "--data", data_csv, "--preset", "desk"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[:2] == ["error: non-finite loss at step 0: value nan",
                       "offending batch: N=123, d=8, temperature=0.1"]
    norms = re.fullmatch(r"embedding norms: min=(\S+) max=(\S+)", err[2]).groups()
    # NumPy 2 writes np.float64(x), NumPy 1 writes x
    assert all(abs(float(norm.removeprefix("np.float64(").removesuffix(")")) - 1.0) < 1e-6
               for norm in norms)
    labels = json.loads(err[3].removeprefix("labels: "))
    weights = json.loads(err[4].removeprefix("weights: "))
    assert len(err) == 5 and len(labels) == len(weights) == 123
    assert labels[-3:] == [0, 1, 2]  # the prototype rows
    assert weights[:8] == [1.0] * 8 and weights[-3:] == [1.0] * 3


def test_train_of_zero_steps_writes_an_empty_run(data_csv, tmp_path, capsys):
    metrics, ckpt = tmp_path / "m.csv", tmp_path / "c.npz"
    assert main(["train", "--data", data_csv, *FAST_SET, "--epochs", "0",
                 "--metrics-out", str(metrics), "--checkpoint-out", str(ckpt)]) == 0
    assert "\nno steps to run\n" in capsys.readouterr().out
    assert read_metrics(metrics)[1] == []
    assert load_checkpoint(ckpt)[1].step == 0


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_train_three_features_keeps_a_coordinate_of_every_strong_view(tmp_path, capsys,
                                                                      seed):
    # with 3 features, dropout alone would zero a whole strong row in step 0 at
    # these seeds; the row's largest-uniform coordinate survives, so they finish
    data = tmp_path / "three_features.csv"
    assert main([*THREE_FEATURES, "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--preset", "desk",
                 "--seed", str(seed)]) == 0
    assert "finished step 511" in capsys.readouterr().out


@pytest.mark.parametrize("key, message", [
    ("aug.strong_dropout=1.0", "strong_dropout must be in [0, 1), got 1.0"),
    ("aug.weak_sigma=-1", "weak_sigma and strong_sigma must be >= 0"),
    ("aug.weak_sigma=0.6", "weak_sigma 0.6 exceeds strong_sigma 0.5"),
])
def test_train_bad_augmentation_names_its_config_key(tmp_path, capsys, key, message):
    rc = main(["train", "--data", str(tmp_path / "missing.csv"), "--set", key])
    assert rc == 1
    assert capsys.readouterr().err == f"error: --set: {message}\n"


def test_train_config_file_is_read(data_csv, tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("train.labeled_batch_size = 4\n"
                        "train.mu = 2\n"
                        "# comment lines are skipped\n"
                        "train.epochs = 1\n"
                        "train.steps_per_epoch = 3\n"
                        "encoder.hidden_dims = 8\n"
                        "encoder.embed_dim = 4\n")
    metrics = tmp_path / "m.csv"
    rc = main(["train", "--data", data_csv, "--config", str(cfg_file),
               "--metrics-out", str(metrics)])
    assert rc == 0
    _, rows = read_metrics(metrics)
    assert len(rows) == 3


# ------------------------------------------------------------------ eval


@pytest.fixture(scope="module")
def trained(data_csv, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_trained")
    metrics = root / "m.csv"
    ckpt = root / "c.npz"
    rc = main(["train", "--data", data_csv, *FAST_SET,
               "--metrics-out", str(metrics), "--checkpoint-out", str(ckpt)])
    assert rc == 0
    return {"metrics": metrics, "ckpt": ckpt}


def test_eval_prints_report(trained, data_csv, capsys):
    rc = main(["eval", "--checkpoint", str(trained["ckpt"]),
               "--data", data_csv])
    assert rc == 0
    out = capsys.readouterr().out
    assert "test accuracy" in out
    assert "eval.t_prime = 0.1" in out


def test_eval_on_hidden_labels_reports_precision_as_na(tmp_path, capsys):
    data = tmp_path / "hidden.csv"
    ckpt = tmp_path / "c.npz"
    assert main(GEN_ARGS + ["--hide-unlabeled", "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), *FAST_SET, "--epochs", "1",
                 "--checkpoint-out", str(ckpt)]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 0
    out = capsys.readouterr().out
    assert "pseudo precision    n/a\n" in out
    assert re.search(r"^pseudo coverage     [01]\.\d{4}$", out, re.M)


def test_eval_t_prime_flag_is_echoed(trained, data_csv, capsys):
    rc = main(["eval", "--checkpoint", str(trained["ckpt"]),
               "--data", data_csv, "--t-prime", "0.5"])
    assert rc == 0
    assert "eval.t_prime = 0.5" in capsys.readouterr().out


def test_eval_append_adds_parseable_row(trained, data_csv, tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_bytes(trained["metrics"].read_bytes())
    _, before = read_metrics(log)
    rc = main(["eval", "--checkpoint", str(trained["ckpt"]),
               "--data", data_csv, "--append", str(log)])
    assert rc == 0
    assert f"appended to {log}" in capsys.readouterr().out
    _, after = read_metrics(log)
    assert len(after) == len(before) + 1
    row = after[-1]
    assert row["step"] == "8"       # checkpoint holds the completed run
    assert row["epoch"] == "2"
    assert row["lr"] == "" and row["loss"] == ""
    assert 0.0 <= float(row["test_acc"]) <= 1.0


def test_eval_past_the_cutoff_reports_without_the_entropy_gate(data_csv, tmp_path, capsys):
    # the gate stops after epoch 1.0 of 2, so the last trained step (epoch 1) ran
    # without it; tau = 0.99 leaves samples for the gate to select
    ckpt, log = tmp_path / "c.npz", tmp_path / "m.csv"
    assert main(["train", "--data", data_csv, *FAST_SET, "--set", "gate.cutoff_fraction=0.5",
                 "--set", "gate.tau=0.99",
                 "--metrics-out", str(log), "--checkpoint-out", str(ckpt)]) == 0
    config, state = load_checkpoint(ckpt)
    dataset = load_csv(data_csv)
    gate = config.gate(dataset.num_classes)
    off = build_report(state.encoder, state.bank, dataset, gate, False, config.t_prime)
    on = build_report(state.encoder, state.bank, dataset, gate, True, config.t_prime)
    assert on.entropy_selected >= 1  # the gate would change the report here
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", data_csv,
                 "--append", str(log)]) == 0
    assert format_report(off) in capsys.readouterr().out
    row = read_metrics(log)[1][-1]
    assert (row["step"], row["epoch"]) == ("8", "2")
    assert (row["confident"], row["entropy_selected"]) == (str(off.confident), "0")


def test_eval_append_to_a_missing_file_creates_nothing(trained, data_csv, tmp_path, capsys):
    log = tmp_path / "missing.csv"
    assert main(["eval", "--checkpoint", str(trained["ckpt"]), "--data", data_csv,
                 "--append", str(log)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not log.exists()


def test_eval_append_refuses_a_dataset_csv(trained, data_csv, tmp_path, capsys):
    target = tmp_path / "data.csv"
    shutil.copyfile(data_csv, target)
    before = target.read_bytes()
    assert main(["eval", "--checkpoint", str(trained["ckpt"]), "--data", str(target),
                 "--append", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: .*, line \d+: expected metrics header '.*'\n", err)
    assert target.read_bytes() == before


def test_eval_refuses_a_non_positive_t_prime(trained, data_csv, capsys):
    # class_probabilities checks t_prime at call time: the flag is passed in as given
    assert main(["eval", "--checkpoint", str(trained["ckpt"]), "--data", data_csv,
                 "--t-prime", "0"]) == 1
    assert capsys.readouterr().err == "error: t_prime must be positive, got 0.0\n"


def test_eval_class_count_mismatch_fails_validation(trained, tmp_path, capsys):
    other = tmp_path / "four.csv"
    argv = [a if a != "3" else "4" for a in GEN_ARGS]
    assert main(argv + ["--out", str(other)]) == 0
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(trained["ckpt"]),
               "--data", str(other)])
    assert rc == 1
    assert "classes" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fresh_ckpt(data_csv, tmp_path_factory):
    """A checkpoint of the FAST_SET run at step 0."""
    path = tmp_path_factory.mktemp("cli_fresh") / "step0.npz"
    cfg = fast_train_config()
    save_checkpoint(path, cfg, init_train_state(cfg, load_csv(data_csv)))
    return path


@pytest.mark.parametrize("classes, dim", [(4, 6), (3, 6), (4, 4)])
@pytest.mark.parametrize("command", ["eval", "resume-finished", "resume-step0"])
def test_dataset_of_another_shape_is_refused(trained, fresh_ckpt, tmp_path, capsys,
                                             command, classes, dim):
    # the checkpoints hold a 4-feature, 3-class model
    other = tmp_path / "other.csv"
    argv = list(GEN_ARGS)
    argv[argv.index("--classes") + 1] = str(classes)
    argv[argv.index("--dim") + 1] = str(dim)
    assert main(argv + ["--out", str(other)]) == 0
    ckpt = fresh_ckpt if command == "resume-step0" else trained["ckpt"]
    metrics = tmp_path / "m.csv"
    argv = _argv(command.partition("-")[0], ckpt, str(other))
    if command != "eval":
        argv += ["--metrics-out", str(metrics)]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: dataset has {dim} features and {classes} classes, "
        "checkpoint expects 4 features and 3 classes\n")
    assert not metrics.exists()


@pytest.mark.parametrize("command", ["eval", "resume-finished", "resume-step0"])
def test_dataset_of_the_same_shape_but_other_data_is_refused(trained, fresh_ckpt, data_csv,
                                                             tmp_path, capsys, command):
    other = tmp_path / "seed8.csv"
    assert main([a if a != "7" else "8" for a in GEN_ARGS] + ["--out", str(other)]) == 0
    ckpt = fresh_ckpt if command == "resume-step0" else trained["ckpt"]
    metrics = tmp_path / "m.csv"
    argv = _argv(command.partition("-")[0], ckpt, str(other))
    if command != "eval":
        argv += ["--metrics-out", str(metrics)]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: dataset has SHA-256 {load_csv(other).sha256()}, "
        f"checkpoint expects {load_csv(data_csv).sha256()}\n")
    assert not metrics.exists()


def test_eval_refuses_the_hidden_label_export_of_its_training_data(trained, data_csv,
                                                                    tmp_path, capsys):
    # the hash covers every label, the unlabeled split's hidden truth too, so
    # the export without that truth is other data to the checkpoint
    hidden = tmp_path / "hidden.csv"
    assert main(GEN_ARGS + ["--hide-unlabeled", "--out", str(hidden)]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(trained["ckpt"]), "--data", str(hidden)]) == 1
    assert capsys.readouterr().err == (
        f"error: dataset has SHA-256 {load_csv(hidden).sha256()}, "
        f"checkpoint expects {load_csv(data_csv).sha256()}\n")


def test_eval_missing_checkpoint_is_io_error(data_csv, tmp_path, capsys):
    rc = main(["eval", "--checkpoint", str(tmp_path / "ghost.npz"),
               "--data", data_csv])
    assert rc == 2


def _damaged_checkpoint(good, tmp_path, damage):
    path = tmp_path / f"{damage}.npz"
    if damage == "truncated":
        path.write_bytes(good.read_bytes()[:-40])
    elif damage == "empty":
        path.write_bytes(b"")
    elif damage == "first_3_bytes":
        path.write_bytes(good.read_bytes()[:3])
    elif damage == "text":
        path.write_text("not a checkpoint\n")
    elif damage == "npy":
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))
    else:  # an .npz without its meta entry, or with one that is not JSON
        with np.load(good, allow_pickle=False) as npz:
            arrays = {k: npz[k] for k in npz.files if k != "meta"}
        if damage == "meta_not_json":
            arrays["meta"] = np.array(b"format_version = 4")
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
    return path


def _argv(command, ckpt, data_csv):
    if command == "eval":
        return ["eval", "--checkpoint", str(ckpt), "--data", data_csv]
    return ["train", "--data", data_csv, "--resume", str(ckpt)]


@pytest.mark.parametrize("damage", ["truncated", "empty", "first_3_bytes", "text", "npy",
                                    "no_meta", "meta_not_json"])
@pytest.mark.parametrize("command", ["eval", "resume"])
def test_broken_checkpoint_is_a_one_line_format_error(trained, data_csv, tmp_path,
                                                      capsys, command, damage):
    ckpt = _damaged_checkpoint(trained["ckpt"], tmp_path, damage)
    capsys.readouterr()
    rc = main(_argv(command, ckpt, data_csv))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {ckpt}: not a complete checkpoint")


@pytest.mark.parametrize("command", ["eval", "resume"])
def test_checkpoint_of_another_format_version_fails_validation(trained, data_csv, tmp_path,
                                                               capsys, command):
    with np.load(trained["ckpt"], allow_pickle=False) as npz:
        arrays = {k: npz[k] for k in npz.files}
    meta = json.loads(arrays["meta"].item())
    meta["format_version"] = 1
    arrays["meta"] = np.array(json.dumps(meta).encode())
    ckpt = tmp_path / "v1.npz"
    with open(ckpt, "wb") as fh:
        np.savez(fh, **arrays)
    capsys.readouterr()
    rc = main(_argv(command, ckpt, data_csv))
    assert rc == 1
    assert capsys.readouterr().err == "error: checkpoint format 1 not supported (expected 4)\n"


@pytest.mark.parametrize("command", ["eval", "resume"])
def test_checkpoint_with_an_overflowing_prototype_is_one_error_line(trained, data_csv,
                                                                   tmp_path, capsys, command):
    with np.load(trained["ckpt"], allow_pickle=False) as npz:
        arrays = {k: npz[k] for k in npz.files}
    arrays["prototypes"][0] = 0.0
    arrays["prototypes"][0, 0] = 1e200
    ckpt = tmp_path / "huge.npz"
    with open(ckpt, "wb") as fh:
        np.savez(fh, **arrays)
    capsys.readouterr()
    assert main(_argv(command, ckpt, data_csv)) == 1
    assert capsys.readouterr().err == (
        f"error: {ckpt}: prototype row 0 must be unit norm (got inf)\n")


@pytest.mark.parametrize("entry", ["set", "config-file", "checkpoint-eval",
                                   "checkpoint-resume", "gate-sim", "EntropyGate"])
def test_bad_lambda_reject_gets_one_message_at_every_entry(trained, data_csv, tmp_path,
                                                           capsys, entry):
    if entry == "EntropyGate":
        with pytest.raises(ValueError, match=r"^lambda_reject must be in \[0, 1\], got -0\.1$"):
            EntropyGate(num_classes=3, tau=0.9, tau_ent=0.4, w_min=0.2, lambda_reject=-0.1)
        return
    if entry == "set":
        argv, where = ["train", "--data", data_csv, "--set", "gate.lambda_reject=1.5"], "--set: "
    elif entry == "config-file":
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gate.lambda_reject = 1.5\n")
        argv, where = ["train", "--data", data_csv, "--config", str(cfg)], f"{cfg}: "
    elif entry == "gate-sim":
        argv, where = ["gate-sim", "--lambda-reject", "1.5"], ""
    else:  # a checkpoint whose stored config holds the bad value
        with np.load(trained["ckpt"], allow_pickle=False) as npz:
            arrays = {k: npz[k] for k in npz.files}
        meta = json.loads(arrays["meta"].item())
        meta["config"] = [line.replace("gate.lambda_reject = 0.2", "gate.lambda_reject = 1.5")
                          for line in meta["config"]]
        arrays["meta"] = np.array(json.dumps(meta).encode())
        ckpt = tmp_path / "bad.npz"
        with open(ckpt, "wb") as fh:
            np.savez(fh, **arrays)
        argv, where = _argv(entry.partition("-")[2], ckpt, data_csv), f"{ckpt}: config: "
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {where}lambda_reject must be in [0, 1], got 1.5\n"


# ------------------------------------------------------------- gradcheck


def test_gradcheck_passes_and_reports_both_variants(capsys):
    rc = main(["gradcheck", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ssc max_rel_err" in out
    assert "ssc-e max_rel_err" in out
    assert "encoder+ssc max_rel_err" in out
    assert "encoder+ssc-e max_rel_err" in out
    assert "gradcheck PASS" in out


def test_gradcheck_variant_filter(capsys):
    rc = main(["gradcheck", "--variant", "ssc", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ssc max_rel_err" in out
    assert "ssc-e max_rel_err" not in out
    assert "encoder+ssc-e" not in out


def test_gradcheck_impossible_tolerance_exits_three(capsys):
    rc = main(["gradcheck", "--tol", "1e-30", "--seed", "0"])
    assert rc == 3
    assert "gradcheck FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_gradcheck_refuses_a_tolerance_that_is_not_finite_and_positive(tol, capsys):
    # `worst > nan` is false, so --tol nan would pass every run
    assert main(["gradcheck", f"--tol={tol}", "--seed", "0"]) == 1
    out, err = capsys.readouterr()
    assert "max_rel_err" not in out
    assert err == f"error: need a finite --tol > 0, got {float(tol)}\n"


# -------------------------------------------------------------- gate-sim


def gate_sim_rows(text):
    """Parse gate-sim CSV output into row dicts (skips echo and comments)."""
    lines = text.splitlines()
    start = lines.index("tau,tau_ent,sample_index,kind,label,weight,entropy,max_prob")
    header = lines[start].split(",")
    return [dict(zip(header, line.split(",")))
            for line in lines[start + 1:] if line and not line.startswith("#")]


def test_gate_sim_synthetic_stdout(capsys):
    rc = main(["gate-sim", "--classes", "4", "--samples", "6", "--seed", "0"])
    assert rc == 0
    rows = gate_sim_rows(capsys.readouterr().out)
    assert len(rows) == 6
    assert all(set(r) == {"tau", "tau_ent", "sample_index", "kind", "label",
                          "weight", "entropy", "max_prob"} for r in rows)
    assert all(r["kind"] in ("confident", "entropy_selected", "rejected")
               for r in rows)


def test_gate_sim_one_hot_rows_are_confident(tmp_path, capsys):
    src = tmp_path / "onehot.csv"
    src.write_text("p_0,p_1,p_2,p_3\n" + "\n".join(
        ",".join("1.0" if j == i else "0.0" for j in range(4))
        for i in range(4)) + "\n")
    rc = main(["gate-sim", "--input", str(src)])
    assert rc == 0
    rows = gate_sim_rows(capsys.readouterr().out)
    assert [r["kind"] for r in rows] == ["confident"] * 4
    assert [r["label"] for r in rows] == ["0", "1", "2", "3"]
    assert all(r["weight"] == "1.0" for r in rows)


def test_gate_sim_uniform_rows_are_rejected(tmp_path, capsys):
    src = tmp_path / "uniform.csv"
    src.write_text("p_0,p_1,p_2,p_3\n" + "0.25,0.25,0.25,0.25\n" * 3)
    rc = main(["gate-sim", "--input", str(src), "--lambda-reject", "0.3"])
    assert rc == 0
    rows = gate_sim_rows(capsys.readouterr().out)
    assert [r["kind"] for r in rows] == ["rejected"] * 3
    # rejected labels are unique: num_classes + position
    assert [r["label"] for r in rows] == ["4", "5", "6"]
    assert all(r["weight"] == "0.3" for r in rows)


def test_gate_sim_selection_grows_with_the_entropy_threshold(capsys):
    rc = main(["gate-sim", "--classes", "4", "--samples", "60", "--seed", "3",
               "--tau-ent", "0.3,0.5,0.8"])
    assert rc == 0
    rows = gate_sim_rows(capsys.readouterr().out)
    kept = {}
    for r in rows:
        kept.setdefault(r["tau_ent"], set())
        if r["kind"] != "rejected":
            kept[r["tau_ent"]].add(r["sample_index"])
    assert kept["0.3"] <= kept["0.5"] <= kept["0.8"]
    assert len(kept["0.8"]) > len(kept["0.3"])


def test_gate_sim_writes_output_file(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    rc = main(["gate-sim", "--samples", "5", "--tau", "0.9,0.95",
               "--out", str(out)])
    assert rc == 0
    assert f"wrote {out}" in capsys.readouterr().out
    text = out.read_text()
    assert text.startswith("# gate_sim.input = (synthetic)")
    assert len(gate_sim_rows(text)) == 10  # 5 samples x 2 tau values


def test_gate_sim_malformed_input_is_io_error(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    src.write_text("p_0,p_1,p_2\n0.5,0.5\n")
    rc = main(["gate-sim", "--input", str(src)])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


def test_gate_sim_bad_header_is_io_error(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    src.write_text("q_0,q_1\n0.5,0.5\n")
    rc = main(["gate-sim", "--input", str(src)])
    assert rc == 2
    assert "p_0" in capsys.readouterr().err


def test_gate_sim_invalid_probability_row_fails_validation(tmp_path, capsys):
    src = tmp_path / "notprob.csv"
    src.write_text("p_0,p_1,p_2\n0.5,0.3,0.2\n0.9,0.9,0.1\n")
    rc = main(["gate-sim", "--input", str(src)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {src}, line 3: probabilities must sum to 1 (got 1.9000000000000001)\n")
    for row, reason in (("nan,0.5,0.5", "must contain only finite values"),
                        ("-0.1,0.6,0.5", "must be non-negative")):
        src.write_text(f"p_0,p_1,p_2\n# a comment\n0.5,0.3,0.2\n{row}\n")
        assert main(["gate-sim", "--input", str(src)]) == 2
        assert capsys.readouterr().err == f"error: {src}, line 4: probabilities {reason}\n"


@pytest.mark.parametrize("rows, problem", [
    ("0.5,abc\n", ", line 2: non-numeric probability cell"),
    ("# a comment\n", ": no probability rows"),
    ("inf,-inf\n", ", line 2: probabilities must contain only finite values"),
    ("1e308,1e308\n", ", line 2: probabilities must sum to 1 (got inf)"),
])
def test_gate_sim_bad_input_is_one_error_line(rows, problem, tmp_path, capsys):
    src = tmp_path / "rows.csv"
    src.write_text("p_0,p_1\n" + rows)
    assert main(["gate-sim", "--input", str(src)]) == 2
    assert capsys.readouterr() == ("", f"error: {src}{problem}\n")


def test_gate_sim_input_records_the_class_count_it_uses(tmp_path, capsys):
    src = tmp_path / "two.csv"
    src.write_text("p_0,p_1\n0.5,0.5\n")
    out = tmp_path / "grid.csv"
    assert main(["gate-sim", "--input", str(src), "--out", str(out)]) == 0
    assert "gate_sim.classes = 2" in capsys.readouterr().out.splitlines()
    text = out.read_text()
    assert "# gate_sim.classes = 2\n" in text
    # a rejected row's label is the class count plus its position
    assert [(r["kind"], r["label"]) for r in gate_sim_rows(text)] == [("rejected", "2")]


@pytest.mark.parametrize("classes", ["1", "0", "-1", "one-column file"])
def test_gate_sim_class_count_gets_the_gate_message(classes, tmp_path, capsys):
    if classes == "one-column file":
        src = tmp_path / "one.csv"
        src.write_text("p_0\n1.0\n")
        argv, classes = ["--input", str(src)], "1"
    else:
        argv = ["--classes", classes]
    assert main(["gate-sim", *argv]) == 1
    assert capsys.readouterr().err == f"error: need at least 2 classes, got {classes}\n"


def test_gate_sim_needs_a_sample(capsys):
    assert main(["gate-sim", "--samples", "0"]) == 1
    assert capsys.readouterr().err == "error: need --samples >= 1, got 0\n"


@pytest.mark.parametrize("alpha", ["0", "nan"])
def test_gate_sim_refuses_a_concentration_that_is_not_finite_and_positive(alpha, capsys):
    assert main(["gate-sim", "--alpha", alpha]) == 1
    assert capsys.readouterr().err == f"error: need a finite --alpha > 0, got {float(alpha)}\n"


@pytest.mark.parametrize("argv", [["--tau", ""], ["--tau", ","], ["--tau-ent", ""]],
                         ids=["tau-empty", "tau-comma", "tau-ent-empty"])
def test_gate_sim_refuses_an_empty_grid(argv, capsys):
    # with no gate, nothing would check the class count and the run would exit 0
    assert main(["gate-sim", "--classes", "1", "--samples", "2", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: sscent gate-sim ")
    assert err.endswith(f"\nsscent gate-sim: argument {argv[0]}: "
                        f"expected comma-separated floats, got {argv[1]!r}\n")


def _reference_gate_sim_rows(probs, taus, tau_ents):
    """The decision rows as the earlier per-record writer formatted them."""
    lines = []
    for tau in taus:
        for tau_ent in tau_ents:
            gate = EntropyGate(num_classes=probs.shape[1], tau=tau, tau_ent=tau_ent,
                               w_min=0.2, lambda_reject=0.2)
            for i, d in enumerate(assign_pseudo_labels(probs, gate, True)):
                lines.append(",".join([repr(float(gate.tau)), repr(float(gate.tau_ent)), str(i),
                                       d.kind.name.lower(), str(d.assigned_label),
                                       repr(float(d.weight)), repr(float(d.entropy)),
                                       repr(float(d.max_prob))]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("source", ["input", "synthetic"])
def test_gate_sim_matches_the_per_record_reference(source, tmp_path):
    grid = ["--tau", "0.5,0.9,0.95", "--tau-ent", "0.2,0.4,0.8"]
    if source == "input":
        # one-hot rows have entropy -0.0; the others carry a subnormal, a sum
        # off 1 by round-off, and ties
        probs = np.vstack([np.eye(4), [[5e-324, 1.0, 0.0, 0.0], [0.1 + 0.2, 0.7, 0.0, 0.0],
                                       [0.25] * 4, [0.5, 0.5, 0.0, 0.0]],
                           np.random.default_rng(2).dirichlet(np.full(4, 0.5), size=12)])
        src = tmp_path / "probs.csv"
        src.write_text("p_0,p_1,p_2,p_3\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in probs.tolist()))
        argv = ["--input", str(src)]
    else:
        probs = np.random.default_rng(5).dirichlet(np.full(3, 0.5), size=20)
        argv = ["--classes", "3", "--samples", "20", "--seed", "5"]
    out = tmp_path / "decisions.csv"
    assert main(["gate-sim", *argv, *grid, "--out", str(out)]) == 0
    text = out.read_bytes().decode()
    body = text.split("tau,tau_ent,sample_index,kind,label,weight,entropy,max_prob\n")[1]
    assert body == _reference_gate_sim_rows(probs, [0.5, 0.9, 0.95], [0.2, 0.4, 0.8])
    if source == "input":
        assert ",confident,0,1.0,-0.0,1.0\n" in body


def test_gate_sim_stdout_is_the_recorded_one(capsys):
    # the bytes of a fixed tau x tau_ent grid; a change of the decision
    # format must keep them
    assert main(["gate-sim", "--classes", "4", "--samples", "64", "--tau", "0.5,0.9,0.95",
                 "--tau-ent", "0.2,0.4,0.8", "--seed", "3"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "3d1ae63d68aeaaae35048afc2b489a277dc67563af04ab29e6c86a302903fc0f")


# --------------------------------------------------------------- compare


@pytest.fixture()
def two_logs(data_csv, tmp_path):
    paths = []
    for method, seed in (("ssc", "0"), ("ssc-e", "0")):
        path = tmp_path / f"{method}.csv"
        rc = main(["train", "--data", data_csv, *FAST_SET,
                   "--method", method, "--seed", seed,
                   "--metrics-out", str(path)])
        assert rc == 0
        paths.append(str(path))
    return paths


def test_compare_tabulates_runs_and_means(two_logs, tmp_path, capsys):
    out = tmp_path / "table.csv"
    rc = main(["compare", *two_logs, "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "final_test_acc" in text
    assert "mean" in text
    lines = out.read_text().splitlines()
    assert lines[0] == "method,labels_per_class,seed,final_test_acc"
    # 2 per-run rows, then one mean row per method
    assert len(lines) == 5
    cells = [line.split(",") for line in lines[1:]]
    assert [(c[0], c[2]) for c in cells] == [
        ("ssc", "0"), ("ssc-e", "0"), ("ssc", "mean"), ("ssc-e", "mean")]


def test_compare_mean_matches_the_member_runs(two_logs, tmp_path):
    out = tmp_path / "table.csv"
    assert main(["compare", *two_logs, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    singles = {r[0]: float(r[3]) for r in rows if r[2] != "mean"}
    means = {r[0]: float(r[3]) for r in rows if r[2] == "mean"}
    assert means == singles  # one run per group: mean equals the run


def test_compare_out_keeps_a_per_class_label_list_in_one_cell(data_csv, tmp_path):
    # one labeled class-2 row dropped: the logs record labels_per_class 4,4,3
    with open(data_csv, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    drop = max(i for i, line in enumerate(lines) if line.endswith(",2,labeled\n"))
    data = tmp_path / "uneven.csv"
    data.write_text("".join(lines[:drop] + lines[drop + 1:]))
    logs = []
    for method in ("ssc", "ssc-e"):
        logs.append(str(tmp_path / f"{method}.csv"))
        assert main(["train", "--data", str(data), *FAST_SET, "--method", method,
                     "--metrics-out", logs[-1]]) == 0
    assert read_metrics(logs[0])[0]["data.labels_per_class"] == "4,4,3"
    out = tmp_path / "table.csv"
    assert main(["compare", *logs, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()]
    assert rows[0] == ["method", "labels_per_class", "seed", "final_test_acc"]
    assert [len(row) for row in rows] == [4] * 5
    assert {row[1] for row in rows[1:]} == {"4;4;3"}


def test_compare_orders_the_means_as_the_runs(data_csv, tmp_path, capsys):
    ten = tmp_path / "ten.csv"
    argv = [a if a != "4" else "10" for a in GEN_ARGS]  # --labels-per-class 10
    assert main(argv + ["--out", str(ten)]) == 0
    logs = [str(tmp_path / "lpc10.csv"), str(tmp_path / "lpc4.csv")]
    for data, log in zip((ten, data_csv), logs):
        assert main(["train", "--data", str(data), *FAST_SET, "--metrics-out", log]) == 0
    capsys.readouterr()
    out = tmp_path / "table.csv"
    assert main(["compare", *logs, "--out", str(out)]) == 0
    printed = [line.split()[1:3] for line in capsys.readouterr().out.splitlines()[1:-1]]
    order = [["4", "0"], ["10", "0"], ["4", "mean"], ["10", "mean"]]
    assert printed == order
    assert [row.split(",")[1:3] for row in out.read_text().splitlines()[1:]] == order


def test_compare_refuses_a_log_without_test_acc(data_csv, tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    assert main(["train", "--data", data_csv, *FAST_SET, "--epochs", "0",
                 "--metrics-out", str(empty)]) == 0
    capsys.readouterr()
    assert main(["compare", str(empty), str(empty)]) == 1
    assert capsys.readouterr() == ("", f"error: {empty}: no test_acc values recorded\n")


@pytest.mark.parametrize("cell", ["abc", "nan"])
def test_compare_names_the_line_of_a_malformed_test_acc(two_logs, capsys, cell):
    with open(two_logs[1], "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    last = len(lines)  # the final row carries the last eval's test_acc
    assert lines[-1].rsplit(",", 1)[1]
    lines[-1] = lines[-1].rsplit(",", 1)[0] + "," + cell
    with open(two_logs[1], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert main(["compare", *two_logs]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {two_logs[1]}, line {last}: "
                   f"test_acc must be a number in [0, 1], got {cell!r}\n")


def test_compare_missing_log_is_io_error(two_logs, tmp_path, capsys):
    ghost = str(tmp_path / "ghost.csv")
    rc = main(["compare", two_logs[0], ghost])
    assert rc == 2
    assert ghost in capsys.readouterr().err


def test_compare_needs_two_logs(two_logs, capsys):
    rc = main(["compare", two_logs[0]])
    assert rc == 1
    assert "at least 2" in capsys.readouterr().err
