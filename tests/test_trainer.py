"""Tests for configuration, the LR schedule, batch assembly, and training."""

import copy
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import sscent.checkpoint as checkpoint_mod
import sscent.trainer as trainer_mod
from sscent import (
    ConfigError,
    ContrastiveBatch,
    LossResult,
    NonFiniteLossError,
    TrainConfig,
    assemble_batch,
    assign_pseudo_labels,
    class_probabilities,
    generate_gaussian_clusters,
    init_train_state,
    split_dataset,
    train,
    train_step,
)
from sscent.trainer import (
    HISTORY_DTYPE,
    METRICS_HEADER,
    MetricHistory,
    StepMetrics,
    config_to_lines,
    cosine_lr,
    format_metrics_row,
    gate_active,
    parse_config_file,
    parse_config_lines,
    read_metrics,
    write_metrics,
)
from sscent.data import CsvFormatError


def tiny_dataset(seed=0, per_class=40, separation=10.0, classes=3, dim=6,
                 labels_per_class=4, test_fraction=0.25):
    ds = generate_gaussian_clusters(num_classes=classes, dim=dim,
                                    per_class=per_class, cluster_sigma=1.0,
                                    separation=separation, seed=seed)
    return split_dataset(ds, labels_per_class=labels_per_class,
                         test_fraction=test_fraction, seed=seed)


def tiny_config(**overrides):
    base = dict(labeled_batch_size=4, mu=2, epochs=2, steps_per_epoch=4,
                hidden_dims=(8,), embed_dim=4, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# config dataclass and file format


def test_config_defaults_are_reference_scale():
    cfg = TrainConfig()
    assert cfg.labeled_batch_size == 64
    assert cfg.mu == 7
    assert cfg.temperature == 0.1
    assert cfg.eta0 == 0.03
    assert cfg.momentum == 0.9
    assert cfg.epochs == 256
    assert cfg.steps_per_epoch == 1024
    assert cfg.tau == 0.95
    assert cfg.tau_ent == 0.4
    assert cfg.w_min == 0.2
    assert cfg.lambda_reject == 0.2
    assert cfg.gate_cutoff_fraction == 0.78125
    assert cfg.method == "ssc-e"


def test_config_validation_errors():
    bad = [
        dict(method="infonce"),
        dict(labeled_batch_size=0),
        dict(mu=0),
        dict(temperature=0.0),
        dict(eta0=-0.1),
        dict(momentum=1.0),
        dict(momentum=-0.1),
        dict(epochs=-1),
        dict(steps_per_epoch=0),
        dict(tau=0.0),
        dict(tau_ent=1.5),
        dict(w_min=-0.1),
        dict(w_min=1.5),
        dict(lambda_reject=-0.2),
        dict(gate_cutoff_fraction=1.5),
        dict(t_prime=0.0),
        dict(hidden_dims=(8, 0)),
        dict(weak_sigma=0.9, strong_sigma=0.5),
        dict(strong_dropout=2.0),
        dict(strong_dropout=1.0),
        dict(seed=-1),
        dict(eval_every=-1),
    ]
    for kwargs in bad:
        with pytest.raises(ConfigError):
            tiny_config(**kwargs)


def test_a_negative_seed_is_named_with_its_value():
    # the generator would refuse it only at the first draw, without the key
    with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
        tiny_config(seed=-1)


@pytest.mark.parametrize("kwargs, message", [
    (dict(labeled_batch_size=0), "labeled_batch_size must be >= 1, got 0"),
    (dict(mu=0), "mu must be >= 1, got 0"),
    (dict(eta0=-1.0), "eta0 must be >= 0, got -1.0"),
    (dict(epochs=-1), "epochs must be >= 0, got -1"),
    (dict(steps_per_epoch=0), "steps_per_epoch must be >= 1, got 0"),
    (dict(eval_every=-1), "eval_every must be >= 0, got -1"),
    (dict(checkpoint_every=-1), "checkpoint_every must be >= 0, got -1"),
    # two bad values: the earlier field is reported
    (dict(checkpoint_every=-1, epochs=-2), "epochs must be >= 0, got -2"),
], ids=lambda v: ",".join(v) if isinstance(v, dict) else None)
def test_a_setting_below_its_bound_is_named_with_its_value(kwargs, message):
    with pytest.raises(ConfigError) as err:
        tiny_config(**kwargs)
    assert str(err.value) == message


@pytest.mark.parametrize("field", ["temperature", "t_prime"])
def test_a_non_positive_temperature_is_named_with_its_value(field):
    with pytest.raises(ConfigError, match=rf"^{field} must be positive, got -0\.5$"):
        tiny_config(**{field: -0.5})
    # a public entry point checks again at call time, with the same message
    with pytest.raises(ValueError, match=r"^temperature must be positive, got -0\.5$"):
        ContrastiveBatch(np.eye(2), np.zeros(2), np.ones(2), -0.5)


def test_parse_config_lines_overrides_and_skips_comments():
    lines = [
        "# a comment",
        "",
        "train.method = ssc",
        "train.epochs = 8",
        "gate.tau_ent = 0.3",
        "encoder.hidden_dims = 32,16",
        "aug.strong_dropout = 0.1",
        "train.eta0 = 0.05",
        "gate.enabled = false",
    ]
    cfg = parse_config_lines(lines)
    assert cfg.method == "ssc"
    assert cfg.epochs == 8
    assert cfg.tau_ent == 0.3
    assert cfg.hidden_dims == (32, 16)
    assert cfg.strong_dropout == 0.1
    assert cfg.eta0 == 0.05
    assert cfg.gate_enabled is False
    # untouched keys keep their defaults
    assert cfg.mu == 7


def test_parse_config_reports_offending_line():
    with pytest.raises(ConfigError) as err:
        parse_config_lines(["train.epochs = 4", "train.bogus = 1"])
    assert "line 2" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config_lines(["train.epochs = x"])
    assert "line 1" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config_lines(["gate.enabled = yes"])  # strict true/false
    with pytest.raises(ConfigError):
        parse_config_lines(["just-a-token"])


def test_config_lines_round_trip():
    cfg = tiny_config(method="ssc", tau_ent=0.35, gate_enabled=False,
                      hidden_dims=(12, 6), eta0=0.007, positives_only=True)
    assert parse_config_lines(config_to_lines(cfg)) == cfg


# every field away from its default, each value within TrainConfig's checks
EVERY_FIELD_CHANGED = dict(
    labeled_batch_size=3, mu=2, temperature=0.25, eta0=0.05, momentum=0.5,
    epochs=2, steps_per_epoch=3, seed=11, method="ssc", eval_every=2,
    checkpoint_every=4, t_prime=0.2, tau=0.9, tau_ent=0.5, w_min=0.3,
    lambda_reject=0.1, gate_enabled=False, gate_cutoff_fraction=0.5,
    positives_only=True, hidden_dims=(12, 6), embed_dim=5,
    weak_sigma=0.05, strong_sigma=0.4, strong_dropout=0.1)


def test_every_field_declares_one_config_key_in_echo_order():
    fields = dataclasses.fields(TrainConfig)
    assert [f.name for f in fields] == list(EVERY_FIELD_CHANGED)
    keys = [f.metadata["key"] for f in fields]
    assert len(set(keys)) == len(keys)
    for key in keys:
        section, dot, name = key.partition(".")
        assert section in {"train", "gate", "encoder", "aug"} and dot and name, key
    assert [line.partition(" = ")[0] for line in config_to_lines(TrainConfig())] == keys
    bounded = {f.name for f in fields if f.metadata["least"] is not None}
    assert bounded == {"labeled_batch_size", "mu", "seed", "eta0", "epochs",
                       "steps_per_epoch", "eval_every", "checkpoint_every"}
    # one `key = value` line sets its field and nothing else
    default, changed = TrainConfig(), TrainConfig(**EVERY_FIELD_CHANGED)
    for field, line in zip(fields, config_to_lines(changed)):
        cfg = parse_config_lines([line])
        want = getattr(changed, field.name)
        assert getattr(cfg, field.name) == want != getattr(default, field.name), line
        assert dataclasses.replace(default, **{field.name: want}) == cfg, line


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("train.seed = 9\ntrain.mu = 2\n")
    cfg = parse_config_file(path)
    assert cfg.seed == 9 and cfg.mu == 2
    with pytest.raises(OSError):
        parse_config_file(tmp_path / "absent.cfg")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_every_non_finite_float(value):
    floats = [f.name for f in dataclasses.fields(TrainConfig)
              if isinstance(getattr(TrainConfig(), f.name), float)]
    assert len(floats) == 12
    for name in floats:
        with pytest.raises(ConfigError) as err:
            tiny_config(**{name: value})
        assert str(err.value) == f"{name} must be finite, got {value}"


# ---------------------------------------------------------------------------
# schedule


def test_cosine_lr_endpoints_and_midpoint():
    eta0, total = 0.03, 4096
    assert cosine_lr(0, total, eta0) == eta0
    end = cosine_lr(total, total, eta0)
    assert abs(end - eta0 * math.cos(7 * math.pi / 16)) < 1e-12
    assert abs(end - eta0 * 0.19509032201612825) < 1e-12
    mid = cosine_lr(total // 2, total, eta0)
    assert abs(mid - eta0 * math.cos(7 * math.pi / 32)) < 1e-12


def test_cosine_lr_strictly_decreasing_and_positive():
    total = 1000
    values = [cosine_lr(t, total, 0.03) for t in range(total + 1)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > 0.0


def test_cosine_lr_domain_errors():
    with pytest.raises(ValueError):
        cosine_lr(-1, 10, 0.03)
    with pytest.raises(ValueError):
        cosine_lr(11, 10, 0.03)
    with pytest.raises(ValueError):
        cosine_lr(0, 0, 0.03)


def test_gate_active_window():
    cfg = tiny_config(epochs=256, method="ssc-e", gate_enabled=True)
    # 0.78125 * 256 = 200 exactly
    assert gate_active(cfg, 0)
    assert gate_active(cfg, 199)
    assert not gate_active(cfg, 200)
    assert not gate_active(cfg, 255)
    assert not gate_active(tiny_config(method="ssc"), 0)
    assert not gate_active(tiny_config(gate_enabled=False), 0)


# ---------------------------------------------------------------------------
# state initialization


def test_init_state_deterministic():
    ds = tiny_dataset()
    cfg = tiny_config()
    a = init_train_state(cfg, ds)
    b = init_train_state(cfg, ds)
    for pa, pb in zip(a.encoder.parameters(), b.encoder.parameters()):
        assert np.array_equal(pa, pb)
    assert np.array_equal(a.bank.prototypes, b.bank.prototypes)
    assert a.step == 0 and len(a.history) == 0


def test_init_state_requires_full_class_coverage():
    ds = tiny_dataset()
    # strip class 2's labeled rows
    tags = ds.split.copy()
    tags[(ds.split == "labeled") & (ds.labels == 2)] = "unlabeled"
    broken = dataclasses.replace(ds, split=tags)
    with pytest.raises(ValueError) as err:
        init_train_state(tiny_config(), broken)
    assert "2" in str(err.value)
    # no labeled rows at all: every class is missing
    tags[ds.split == "labeled"] = "unlabeled"
    with pytest.raises(ValueError, match=r"^labeled split is missing classes \[0, 1, 2\]$"):
        init_train_state(tiny_config(), dataclasses.replace(ds, split=tags))


# ---------------------------------------------------------------------------
# batch assembly


def make_step_inputs(cfg, ds):
    state = init_train_state(cfg, ds)
    return state, cfg.gate(ds.num_classes), cfg.policy()


def test_assemble_batch_size_and_blocks():
    ds = tiny_dataset()
    cfg = tiny_config(labeled_batch_size=2, mu=1)
    state, gate, policy = make_step_inputs(cfg, ds)
    batch, decisions, cache = assemble_batch(
        state, cfg, gate, policy, ds.labeled_features(), ds.labeled_labels(),
        ds.unlabeled_features(), entropy_gate_enabled=True)
    # N = B + 2 mu B + K = 2 + 4 + 3
    assert batch.size == 9
    assert len(decisions) == 2
    # one cache for the encoded rows [labeled | strong 1 | strong 2]
    assert np.array_equal(cache.embeddings, batch.embeddings[:6])
    # labeled block and prototype block carry weight 1
    assert np.all(batch.weights[:2] == 1.0)
    assert np.all(batch.weights[-3:] == 1.0)
    # prototype rows are the bank itself with class labels
    assert np.array_equal(batch.embeddings[-3:], state.bank.prototypes)
    assert np.array_equal(batch.labels[-3:], np.arange(3))
    # both strong views share each decision's label and weight
    for i, d in enumerate(decisions):
        assert batch.labels[2 + i] == d.assigned_label
        assert batch.labels[4 + i] == d.assigned_label
        assert batch.weights[2 + i] == d.weight
        assert batch.weights[4 + i] == d.weight
    assert batch.temperature == cfg.temperature


def test_assemble_batch_matches_scripted_replay():
    # replays the documented draw order (labeled idx, unlabeled idx, weak
    # block, then each strong view's noise block and uniform block) and the
    # two forwards ([labeled | strong 1 | strong 2], then weak alone) on a
    # cloned state, and checks every block, including that labeled rows reach
    # the encoder un-augmented
    ds = tiny_dataset()
    cfg = tiny_config(labeled_batch_size=3, mu=2)
    state, gate, policy = make_step_inputs(cfg, ds)
    clone = copy.deepcopy(state)

    batch, decisions, cache = assemble_batch(
        state, cfg, gate, policy, ds.labeled_features(), ds.labeled_labels(),
        ds.unlabeled_features(), entropy_gate_enabled=True)

    rng = clone.rng
    lab_x = ds.labeled_features()
    unl_x = ds.unlabeled_features()
    b, mu_b = 3, 6
    lab_idx = rng.choice(lab_x.shape[0], size=b, replace=lab_x.shape[0] < b)
    unl_idx = rng.choice(unl_x.shape[0], size=mu_b,
                         replace=unl_x.shape[0] < mu_b)
    chosen = unl_x[unl_idx]
    weak = chosen + rng.normal(0.0, policy.weak_sigma, size=chosen.shape)
    strong = []
    for _ in range(2):
        view = chosen + rng.normal(0.0, policy.strong_sigma, size=chosen.shape)
        uniforms = rng.random(chosen.shape)
        view[(uniforms < policy.strong_dropout)
             & (uniforms < uniforms.max(axis=1, keepdims=True))] = 0.0
        strong.append(view)

    z, _ = clone.encoder.forward(np.vstack([lab_x[lab_idx], *strong]))
    z_weak, _ = clone.encoder.forward(weak)

    assert np.array_equal(batch.embeddings[:b + 2 * mu_b], z)
    assert np.array_equal(cache.activations[0], np.vstack([lab_x[lab_idx], *strong]))
    assert np.array_equal(batch.labels[:b], ds.labeled_labels()[lab_idx])
    probs = class_probabilities(z_weak, clone.bank, cfg.t_prime)
    assert np.array_equal(decisions, assign_pseudo_labels(probs, gate, True))
    assert rng.bit_generator.state == state.rng.bit_generator.state


def test_assemble_batch_all_rejected_when_nothing_confident():
    # tau = 1.0 makes max_prob > tau impossible, so with no confident
    # samples every unlabeled row is rejected into its own class
    ds = tiny_dataset()
    cfg = tiny_config(labeled_batch_size=2, mu=1, tau=1.0, lambda_reject=0.2)
    state, gate, policy = make_step_inputs(cfg, ds)
    batch, decisions, _ = assemble_batch(
        state, cfg, gate, policy, ds.labeled_features(), ds.labeled_labels(),
        ds.unlabeled_features(), entropy_gate_enabled=True)
    assert [d.assigned_label for d in decisions] == [3, 4]
    assert all(d.weight == 0.2 for d in decisions)
    assert np.all(batch.weights[2:6] == 0.2)
    assert np.array_equal(batch.labels[2:6], [3, 4, 3, 4])


def test_assemble_batch_positives_only_masks_selected_views():
    ds = tiny_dataset()
    cfg = tiny_config(labeled_batch_size=2, mu=2, positives_only=True,
                      tau=0.4, tau_ent=1.0)
    state, gate, policy = make_step_inputs(cfg, ds)
    batch, decisions, _ = assemble_batch(
        state, cfg, gate, policy, ds.labeled_features(), ds.labeled_labels(),
        ds.unlabeled_features(), entropy_gate_enabled=True)
    assert batch.anchor_mask is not None
    b, mu_b = 2, 4
    from sscent import DecisionKind
    for i, d in enumerate(decisions):
        expected = d.kind is not DecisionKind.ENTROPY_SELECTED
        assert batch.anchor_mask[b + i] == expected
        assert batch.anchor_mask[b + mu_b + i] == expected
    assert np.all(batch.anchor_mask[:b])
    assert np.all(batch.anchor_mask[b + 2 * mu_b:])


# ---------------------------------------------------------------------------
# single steps


def test_train_step_zero_lr_leaves_parameters_untouched():
    ds = tiny_dataset()
    cfg = tiny_config(eta0=0.0)
    state, gate, policy = make_step_inputs(cfg, ds)
    before = [p.copy() for p in state.encoder.parameters()]
    protos = state.bank.prototypes.copy()
    metrics = train_step(state, cfg, gate, policy, ds.labeled_features(),
                         ds.labeled_labels(), ds.unlabeled_features(),
                         t_total=8)
    for p, keep in zip(state.encoder.parameters(), before):
        assert np.array_equal(p, keep)
    assert np.array_equal(state.bank.prototypes, protos)
    assert math.isfinite(metrics.loss)
    assert metrics.lr == 0.0
    assert state.step == 1


def test_train_step_first_update_is_plain_gradient_step():
    # from a fresh state the velocity is zero, so p1 = p0 - eta0 * g; the
    # expected update is rebuilt from a cloned state without the optimizer
    ds = tiny_dataset()
    cfg = tiny_config(eta0=0.02)
    state, gate, policy = make_step_inputs(cfg, ds)
    clone = copy.deepcopy(state)

    train_step(state, cfg, gate, policy, ds.labeled_features(),
               ds.labeled_labels(), ds.unlabeled_features(), t_total=8)

    batch, _, cache = assemble_batch(
        clone, cfg, gate, policy, ds.labeled_features(), ds.labeled_labels(),
        ds.unlabeled_features(), entropy_gate_enabled=True)
    from sscent import ssc_e_loss
    res = ssc_e_loss(batch)
    b, mu_b = cfg.labeled_batch_size, cfg.mu * cfg.labeled_batch_size
    grads = clone.encoder.backward(cache, res.grad[:b + 2 * mu_b])
    for p_new, p_old, g in zip(state.encoder.parameters(),
                               clone.encoder.parameters(), grads):
        assert np.array_equal(p_new, p_old - 0.02 * g)
    # prototypes moved too (renormalized momentum step on the tail block)
    proto_g = res.grad[b + 2 * mu_b:]
    stepped = clone.bank.prototypes - 0.02 * proto_g
    stepped /= np.linalg.norm(stepped, axis=1, keepdims=True)
    assert np.max(np.abs(state.bank.prototypes - stepped)) < 1e-15


def test_train_step_metrics_reflect_decisions():
    ds = tiny_dataset()
    cfg = tiny_config(tau=1.0, lambda_reject=0.25)
    state, gate, policy = make_step_inputs(cfg, ds)
    metrics = train_step(state, cfg, gate, policy, ds.labeled_features(),
                         ds.labeled_labels(), ds.unlabeled_features(),
                         t_total=8)
    assert metrics.confident == 0
    assert metrics.entropy_selected == 0
    assert metrics.mean_unlabeled_weight == 0.25
    assert metrics.test_acc is None
    assert metrics.step == 0 and metrics.epoch == 0


def test_train_step_counts_are_python_ints():
    # the checkpoint's JSON encoding rejects NumPy integers
    ds = tiny_dataset()
    cfg = tiny_config(tau=0.4, tau_ent=1.0)
    state, gate, policy = make_step_inputs(cfg, ds)
    metrics = train_step(state, cfg, gate, policy, ds.labeled_features(),
                         ds.labeled_labels(), ds.unlabeled_features(),
                         t_total=8)
    assert type(metrics.confident) is int
    assert type(metrics.entropy_selected) is int
    assert metrics.confident + metrics.entropy_selected > 0
    json.dumps(vars(metrics))


def test_train_step_raises_on_non_finite_loss(monkeypatch):
    ds = tiny_dataset()
    cfg = tiny_config()
    state, gate, policy = make_step_inputs(cfg, ds)

    def bad_loss(batch):
        return LossResult(value=float("nan"), grad=np.zeros_like(batch.embeddings))

    monkeypatch.setattr(trainer_mod, "ssc_e_loss", bad_loss)
    with pytest.raises(NonFiniteLossError) as err:
        train_step(state, cfg, gate, policy, ds.labeled_features(),
                   ds.labeled_labels(), ds.unlabeled_features(), t_total=8)
    assert err.value.step == 0
    assert err.value.batch is not None


# ---------------------------------------------------------------------------
# full runs


def test_train_zero_epochs_returns_empty_history():
    ds = tiny_dataset()
    state, history = train(tiny_config(epochs=0), ds)
    assert len(history) == 0
    assert state.step == 0


def test_train_requires_all_three_splits():
    ds = tiny_dataset(test_fraction=0.0)
    with pytest.raises(ValueError):
        train(tiny_config(), ds)


def test_train_refuses_a_state_trained_on_other_data(tmp_path):
    a, b = tiny_dataset(seed=0), tiny_dataset(seed=1)
    assert (a.num_features, a.num_classes) == (b.num_features, b.num_classes)
    state, _ = train(tiny_config(epochs=1), a)
    ckpt, metrics = tmp_path / "run.npz", tmp_path / "m.csv"
    with pytest.raises(ValueError) as err:
        train(tiny_config(epochs=2), b, state=state, metrics_path=metrics,
              checkpoint_path=ckpt)
    assert str(err.value) == (
        f"dataset has SHA-256 {b.sha256()}, checkpoint expects {a.sha256()}")
    assert state.step == 4
    assert not ckpt.exists() and not metrics.exists()


@pytest.mark.parametrize("where", ["metrics-missing-dir", "metrics-is-dir",
                                   "checkpoint-missing-dir", "checkpoint-is-dir"])
def test_train_refuses_an_unwritable_output_before_its_first_step(tmp_path, where):
    ds = tiny_dataset()
    cfg = tiny_config()
    state = init_train_state(cfg, ds)
    name, _, problem = where.partition("-")
    path = tmp_path / "absent" / "out" if problem == "missing-dir" else tmp_path
    error = FileNotFoundError if problem == "missing-dir" else IsADirectoryError
    with pytest.raises(error) as err:
        train(cfg, ds, state=state, **{f"{name}_path": path})
    assert err.value.filename == str(path)
    assert state.step == 0 and len(state.history) == 0
    assert list(tmp_path.iterdir()) == []  # no .tmp file beside the checkpoint either


def test_train_saves_each_checkpoint_once(tmp_path, monkeypatch):
    saves = []
    real_save = checkpoint_mod.save_checkpoint

    def spy(path, config, state):
        saves.append(state.step)
        real_save(path, config, state)

    monkeypatch.setattr(checkpoint_mod, "save_checkpoint", spy)
    ds = tiny_dataset()
    ckpt = tmp_path / "run.npz"
    state, _ = train(tiny_config(checkpoint_every=4), ds, checkpoint_path=ckpt)
    assert saves == [4, 8]
    # a zero-step run still writes its checkpoint
    train(tiny_config(checkpoint_every=4), ds, state=state, checkpoint_path=ckpt)
    assert saves == [4, 8, 8]


def test_train_history_follows_schedule_and_cadence():
    ds = tiny_dataset()
    cfg = tiny_config(epochs=2, steps_per_epoch=4, eval_every=3)
    state, history = train(cfg, ds)
    assert len(history) == 8
    assert [m.step for m in history] == list(range(8))
    assert [m.epoch for m in history] == [0, 0, 0, 0, 1, 1, 1, 1]
    for m in history:
        assert abs(m.lr - cosine_lr(m.step, 8, cfg.eta0)) < 1e-12
    lrs = [m.lr for m in history]
    assert all(a > b for a, b in zip(lrs, lrs[1:]))
    # eval at steps 2, 5 (1-based multiples of 3) and on the last step
    evaluated = [m.step for m in history if m.test_acc is not None]
    assert evaluated == [2, 5, 7]


def test_train_deterministic_across_runs(tmp_path):
    ds = tiny_dataset()
    cfg = tiny_config(eval_every=4)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    train(cfg, ds, metrics_path=path_a)
    train(cfg, ds, metrics_path=path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_train_seed_changes_stream():
    ds = tiny_dataset()
    _, hist_a = train(tiny_config(), ds)
    _, hist_b = train(tiny_config(seed=1), ds)
    assert [m.loss for m in hist_a] != [m.loss for m in hist_b]


def test_uniform_weights_make_methods_identical(tmp_path):
    # with the gate off and lambda_reject = 1 every sample carries weight
    # 1, so the pair-weighted loss degenerates to the anchor-weighted one
    # and the full training trajectories coincide
    ds = tiny_dataset()
    common = dict(gate_enabled=False, lambda_reject=1.0, eval_every=4)
    _, hist_a = train(tiny_config(method="ssc", **common), ds)
    _, hist_b = train(tiny_config(method="ssc-e", **common), ds)
    rows_a = [(m.lr, m.loss, m.test_acc) for m in hist_a]
    rows_b = [(m.lr, m.loss, m.test_acc) for m in hist_b]
    assert rows_a == rows_b


def test_methods_diverge_once_weights_differ():
    # tau = 0.7 leaves some samples entropy-selected with fractional
    # weights, which is exactly where the two weighting schemes part ways
    ds = tiny_dataset(separation=4.0, per_class=60)
    common = dict(tau=0.7, tau_ent=0.9, epochs=3, steps_per_epoch=8)
    _, hist_a = train(tiny_config(method="ssc", **common), ds)
    _, hist_b = train(tiny_config(method="ssc-e", **common), ds)
    assert sum(m.entropy_selected for m in hist_b) > 0
    assert [m.loss for m in hist_a] != [m.loss for m in hist_b]


def test_gate_cutoff_stops_entropy_selection():
    # moderate separation and a permissive gate keep entropy selection
    # active early; after the cutoff epoch the count must drop to zero
    ds = tiny_dataset(separation=4.0, per_class=60)
    cfg = tiny_config(epochs=4, steps_per_epoch=8, tau=0.7, tau_ent=0.9,
                      gate_cutoff_fraction=0.5, labeled_batch_size=4, mu=3)
    _, history = train(cfg, ds)
    cutoff = 0.5 * 4  # epochs strictly below 2 keep the gate on
    before = [m.entropy_selected for m in history if m.epoch < cutoff]
    after = [m.entropy_selected for m in history if m.epoch >= cutoff]
    assert sum(before) > 0, "fixture never triggered entropy selection"
    assert all(c == 0 for c in after)


def test_short_run_reaches_high_accuracy():
    # 200 steps on a well-separated fixture should classify nearly
    # everything; this is the desk-scale sanity bar
    ds = tiny_dataset(separation=10.0, per_class=60)
    cfg = tiny_config(labeled_batch_size=8, mu=3, epochs=4,
                      steps_per_epoch=50, hidden_dims=(32,), embed_dim=8)
    _, history = train(cfg, ds)
    assert history[-1].test_acc is not None
    assert history[-1].test_acc >= 0.9


# ---------------------------------------------------------------------------
# metrics CSV


def test_metrics_round_trip(tmp_path):
    ds = tiny_dataset()
    cfg = tiny_config(eval_every=4)
    path = tmp_path / "metrics.csv"
    _, history = train(cfg, ds, metrics_path=path)
    meta, rows = read_metrics(path)
    assert meta["train.method"] == "ssc-e"
    assert meta["data.classes"] == "3"
    assert len(rows) == len(history)
    for row, m in zip(rows, history):
        assert int(row["step"]) == m.step
        assert float(row["lr"]) == m.lr
        assert float(row["loss"]) == m.loss
        if m.test_acc is None:
            assert row["test_acc"] == ""
        else:
            assert float(row["test_acc"]) == m.test_acc


def test_unbalanced_labeled_split_keeps_its_metrics_csv(tmp_path):
    ds = tiny_dataset()
    # label one more class-0 row: the labeled split holds 5, 4 and 4 rows
    tags = ds.split.copy()
    tags[np.flatnonzero((ds.split == "unlabeled") & (ds.labels == 0))[0]] = "labeled"
    ds = dataclasses.replace(ds, split=tags)
    path = tmp_path / "m.csv"
    _, history = train(tiny_config(), ds, metrics_path=path)
    meta, rows = read_metrics(path)
    assert meta["data.labels_per_class"] == "5,4,4"
    assert meta["data.labeled"] == "13"
    assert len(rows) == len(history) == 8


def test_metrics_header_and_blank_test_acc(tmp_path):
    from sscent import StepMetrics
    path = tmp_path / "m.csv"
    rows = [StepMetrics(step=0, epoch=0, lr=0.5, loss=1.25, confident=3,
                        entropy_selected=1, mean_unlabeled_weight=0.75),
            StepMetrics(step=1, epoch=0, lr=0.25, loss=1.0, confident=4,
                        entropy_selected=0, mean_unlabeled_weight=1.0,
                        test_acc=0.875)]
    write_metrics(path, history_of(rows), comments=["train.seed = 0"])
    text = path.read_text().split("\n")
    assert text[0] == "# train.seed = 0"
    assert text[1] == METRICS_HEADER
    assert text[2] == "0,0,0.5,1.25,3,1,0.75,"
    assert text[3] == "1,0,0.25,1.0,4,0,1.0,0.875"


def test_metrics_row_leaves_none_float_cells_empty():
    # the row `eval --append` writes has no lr, loss or unlabeled weight
    row = StepMetrics(step=2, epoch=1, lr=None, loss=None, confident=5,
                      entropy_selected=0, mean_unlabeled_weight=None, test_acc=0.5)
    assert format_metrics_row(row) == "2,1,,,5,0,,0.5"


def test_read_metrics_collects_comments_after_the_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(f"# train.seed = 3\n{METRICS_HEADER}\n0,0,0.5,1.0,1,0,1.0,\n"
                    "# eval.t_prime = 0.5\n#no key here\n1,0,0.5,1.0,1,0,1.0,0.75\n")
    meta, rows = read_metrics(path)
    assert meta == {"train.seed": "3", "eval.t_prime": "0.5"}
    assert [r["test_acc"] for r in rows] == ["", "0.75"]


def test_read_metrics_comment_only_file_is_empty(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("# train.seed = 3\n\n")
    with pytest.raises(CsvFormatError, match="file is empty") as err:
        read_metrics(path)
    assert err.value.line_number is None


def test_read_metrics_rejects_malformed_files(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("step,loss\n0,1.0\n")
    with pytest.raises(CsvFormatError):
        read_metrics(bad_header)
    bad_row = tmp_path / "r.csv"
    bad_row.write_text(METRICS_HEADER + "\n0,0,0.5\n")
    with pytest.raises(CsvFormatError) as err:
        read_metrics(bad_row)
    assert err.value.line_number == 2


# ---------------------------------------------------------------------------
# metric history


def metric_rows(n, steps_per_epoch=4, seed=0):
    """`n` StepMetrics in step order; every float column has some None cells."""
    rng = np.random.default_rng(seed)
    floats = rng.random((4, n)).tolist()
    counts = rng.integers(0, 50, (2, n)).tolist()
    blank = rng.random((4, n)) < 0.3
    cells = [[None if blank[j][i] else floats[j][i] for i in range(n)] for j in range(4)]
    return [StepMetrics(step=i, epoch=i // steps_per_epoch, lr=cells[0][i], loss=cells[1][i],
                        confident=counts[0][i], entropy_selected=counts[1][i],
                        mean_unlabeled_weight=cells[2][i], test_acc=cells[3][i])
            for i in range(n)]


def history_of(rows, steps_per_epoch=4):
    history = MetricHistory(steps_per_epoch)
    for m in rows:
        history.append(m)
    return history


@pytest.mark.parametrize("field, value, message", [
    ("step", 4, "history row 3 has step 4, expected 3"),
    ("step", 2, "history row 3 has step 2, expected 3"),
    ("epoch", 1, "history row 3 has epoch 1, expected 0"),
])
def test_history_append_refuses_a_row_out_of_step(field, value, message):
    rows = metric_rows(4)
    history = history_of(rows[:3])
    with pytest.raises(ValueError, match=f"^{message}$"):
        history.append(dataclasses.replace(rows[3], **{field: value}))
    assert list(history) == rows[:3]
    history.append(rows[3])
    assert list(history) == rows


def test_history_keeps_a_copy_of_each_row():
    rows = metric_rows(3)
    history = history_of(rows)
    expected = copy.deepcopy(rows)
    rows[1].loss, rows[1].test_acc, rows[1].confident = 99.0, 0.5, 7
    history[1].loss = 99.0
    assert list(history) == expected


def test_history_reads_like_a_list_of_rows():
    # past the first capacity of 64 rows, and two blocks of iteration
    rows = metric_rows(1100)
    history = history_of(rows)
    assert len(history) == len(rows)
    assert list(history) == rows
    for i in [*range(-1100, -1030), *range(-70, 70), *range(1030, 1100)]:
        assert history[i] == rows[i]
    for i in (1100, -1101):
        with pytest.raises(IndexError):
            history[i]
    for key in (slice(None), slice(5, 9), slice(-3, None), slice(None, None, 64),
                slice(None, None, -7), slice(60, 10, -3), slice(1200, 1300), slice(3, 3)):
        assert history[key] == rows[key]


@pytest.mark.parametrize("field", ["lr", "loss", "mean_unlabeled_weight", "test_acc"])
def test_history_stores_none_as_nan(field):
    m = StepMetrics(step=0, epoch=0, lr=0.5, loss=1.25, confident=3, entropy_selected=1,
                    mean_unlabeled_weight=0.75, test_acc=0.875)
    history = history_of([dataclasses.replace(m, **{field: None})])
    table = history.table()
    assert [name for name in ("lr", "loss", "mean_unlabeled_weight", "test_acc")
            if np.isnan(table[name][0])] == [field]
    assert history[0] == dataclasses.replace(m, **{field: None})


def test_history_wraps_a_table_without_copying():
    rows = metric_rows(5)
    table = history_of(rows).table().copy()
    history = MetricHistory(4, table)
    assert history.table() is not table and np.shares_memory(history.table(), table)
    assert list(history) == rows
    history.append(metric_rows(6)[5])
    assert len(history) == 6 and history[:5] == rows


def test_write_metrics_matches_the_row_by_row_reference(tmp_path):
    def real(x):
        return "" if x is None else repr(float(x))

    rows = metric_rows(300)
    # values whose shortest repr takes an exponent, or a sign on zero
    for m, lr in zip(rows, (1e-05, 5e-324, 1e16, 123456789012345.6, -0.0, 0.1)):
        m.lr = lr
    path = tmp_path / "m.csv"
    write_metrics(path, history_of(rows), comments=["a = 1"])
    expected = ["# a = 1", METRICS_HEADER] + [
        ",".join([str(m.step), str(m.epoch), real(m.lr), real(m.loss), str(m.confident),
                  str(m.entropy_selected), real(m.mean_unlabeled_weight), real(m.test_acc)])
        for m in rows]
    assert path.read_text() == "\n".join(expected) + "\n"


def test_reference_length_history_allocates_at_most_two_tables():
    # the paper preset's 262,144 steps; the StepMetrics list this replaced held 71 MB
    n = 256 * 1024
    history = MetricHistory(1024)
    m = StepMetrics(step=0, epoch=0, lr=0.1, loss=1.0, confident=3, entropy_selected=1,
                    mean_unlabeled_weight=0.5)
    tracemalloc.start()
    try:
        for i in range(n):
            m.step, m.epoch = i, i // 1024
            history.append(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(history) == n
    assert peak <= 2 * n * HISTORY_DTYPE.itemsize  # 2 x 10.5 MB
