"""Training loop: batch assembly, pseudo-labeling, schedule, optimizer steps.

Every step samples a labeled block and an unlabeled block, builds one weak
and two strong views of the unlabeled block, pseudo-labels via the weak
view, and optimizes the contrastive loss over the concatenation
[labeled | strong view 1 | strong view 2 | prototypes]. The weak view never
enters the loss batch.

All randomness flows through the single generator in TrainState. Draw
order is fixed and documented per function so checkpointed runs resume
bit-exactly: init consumes encoder weights then prototypes; each step
consumes labeled indices, unlabeled indices, the weak view's noise block,
then each strong view's draws (see `augment`), first view before second.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import AugmentationPolicy, Dataset, augment, read_table
from .encoder import EncoderConfig, MlpEncoder, OptimizerState, update_prototypes
from .evaluate import evaluate
from .losses import ContrastiveBatch, ssc_e_loss, ssc_loss
from .pseudo import DecisionKind, EntropyGate, PrototypeBank, assign_pseudo_labels, class_probabilities

__all__ = [
    "METRICS_HEADER",
    "ConfigError",
    "NonFiniteLossError",
    "StepMetrics",
    "TrainConfig",
    "TrainState",
    "assemble_batch",
    "config_to_lines",
    "cosine_lr",
    "format_metrics_row",
    "gate_active",
    "init_train_state",
    "parse_config_file",
    "parse_config_lines",
    "read_metrics",
    "train",
    "train_step",
    "write_metrics",
]

METHODS = ("ssc", "ssc-e")

METRICS_HEADER = "step,epoch,lr,loss,confident,entropy_selected,mean_unlabeled_weight,test_acc"


class ConfigError(ValueError):
    """Bad key, bad value, or malformed line in a config source (named when given)."""

    def __init__(self, message: str, source: Optional[str] = None,
                 line_number: Optional[int] = None):
        where = source if line_number is None else f"{source}, line {line_number}"
        super().__init__(message if source is None else f"{where}: {message}")


class NonFiniteLossError(RuntimeError):
    """Loss or gradient went NaN/Inf; carries the offending batch."""

    def __init__(self, message: str, step: int, batch: ContrastiveBatch):
        super().__init__(message)
        self.step = step
        self.batch = batch


@dataclass(frozen=True)
class TrainConfig:
    """Full run configuration; defaults are the reference settings."""

    labeled_batch_size: int = 64
    mu: int = 7
    temperature: float = 0.1
    eta0: float = 0.03
    momentum: float = 0.9
    epochs: int = 256
    steps_per_epoch: int = 1024
    seed: int = 0
    method: str = "ssc-e"
    eval_every: int = 0
    checkpoint_every: int = 0
    t_prime: float = 0.1
    tau: float = 0.95
    tau_ent: float = 0.4
    w_min: float = 0.2
    lambda_reject: float = 0.2
    gate_enabled: bool = True
    gate_cutoff_fraction: float = 0.78125
    positives_only: bool = False
    hidden_dims: tuple = (64, 64)
    embed_dim: int = 16
    activation: str = "tanh"
    weak_sigma: float = 0.1
    strong_sigma: float = 0.5
    strong_dropout: float = 0.2

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.labeled_batch_size < 1:
            raise ConfigError(f"labeled_batch_size must be >= 1, got {self.labeled_batch_size}")
        if self.mu < 1:
            raise ConfigError(f"mu must be >= 1, got {self.mu}")
        if self.temperature <= 0 or self.t_prime <= 0:
            raise ConfigError("temperatures must be > 0")
        if self.eta0 < 0:
            raise ConfigError(f"eta0 must be >= 0, got {self.eta0}")
        if self.epochs < 0 or self.steps_per_epoch < 1:
            raise ConfigError("epochs must be >= 0 and steps_per_epoch >= 1")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.eval_every < 0 or self.checkpoint_every < 0:
            raise ConfigError("eval_every and checkpoint_every must be >= 0")
        if not 0.0 <= self.lambda_reject <= 1.0:
            raise ConfigError(f"lambda_reject must be in [0, 1], got {self.lambda_reject}")
        if not 0.0 < self.gate_cutoff_fraction <= 1.0:
            raise ConfigError(
                f"gate_cutoff_fraction must be in (0, 1], got {self.gate_cutoff_fraction}")
        # reuse the constructors' own range checks
        try:
            EncoderConfig(input_dim=1, hidden_dims=self.hidden_dims,
                          embed_dim=self.embed_dim, activation=self.activation)
            AugmentationPolicy(self.weak_sigma, self.strong_sigma,
                               self.strong_dropout)
            EntropyGate.for_classes(2, self.tau, self.tau_ent, self.w_min)
            OptimizerState(self.momentum, 0.0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected 'true' or 'false', got {text!r}")


def _parse_int_tuple(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part.strip()) for part in text.split(","))


def key_lines(values: dict, section: str = "") -> list:
    """`section.key = value` for each item of `values` in order (the key as
    given without a section): booleans as true/false, sequences
    comma-joined, anything else by str(), a float's shortest repr."""
    lines = []
    for key, value in values.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, (tuple, list)):
            value = ",".join(map(str, value))
        lines.append(f"{section}.{key} = {value}" if section else f"{key} = {value}")
    return lines


# config-file key -> (TrainConfig field, parser); order defines echo order
CONFIG_SCHEMA = {
    "train.labeled_batch_size": ("labeled_batch_size", int),
    "train.mu": ("mu", int),
    "train.temperature": ("temperature", float),
    "train.eta0": ("eta0", float),
    "train.momentum": ("momentum", float),
    "train.epochs": ("epochs", int),
    "train.steps_per_epoch": ("steps_per_epoch", int),
    "train.seed": ("seed", int),
    "train.method": ("method", str),
    "train.eval_every": ("eval_every", int),
    "train.checkpoint_every": ("checkpoint_every", int),
    "gate.t_prime": ("t_prime", float),
    "gate.tau": ("tau", float),
    "gate.tau_ent": ("tau_ent", float),
    "gate.w_min": ("w_min", float),
    "gate.lambda_reject": ("lambda_reject", float),
    "gate.enabled": ("gate_enabled", _parse_bool),
    "gate.cutoff_fraction": ("gate_cutoff_fraction", float),
    "gate.positives_only": ("positives_only", _parse_bool),
    "encoder.hidden_dims": ("hidden_dims", _parse_int_tuple),
    "encoder.embed_dim": ("embed_dim", int),
    "encoder.activation": ("activation", str),
    "aug.weak_sigma": ("weak_sigma", float),
    "aug.strong_sigma": ("strong_sigma", float),
    "aug.strong_dropout": ("strong_dropout", float),
}


def parse_config_lines(lines, base: Optional[TrainConfig] = None,
                       source: str = "<config>") -> TrainConfig:
    """Apply `section.key = value` lines on top of `base` (or the defaults).

    Blank lines and lines starting with '#' are ignored. Unknown keys and
    unparseable values are errors.
    """
    updates = {}
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'section.key = value', got {line!r}",
                              source, number)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config key {key!r}", source, number)
        attr, parse = CONFIG_SCHEMA[key]
        try:
            updates[attr] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}", source, number) from None
    base = base if base is not None else TrainConfig()
    try:
        return dataclasses.replace(base, **updates)
    except ConfigError as exc:
        raise ConfigError(str(exc), source) from None


def parse_config_file(path, base: Optional[TrainConfig] = None) -> TrainConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_lines(fh.read().splitlines(), base=base, source=str(path))


def config_to_lines(config: TrainConfig) -> list:
    """The config as lines: the echo, the CSV comments, the checkpoint's config."""
    return key_lines({key: getattr(config, attr) for key, (attr, _) in CONFIG_SCHEMA.items()})


def cosine_lr(t: int, total_steps: int, eta0: float) -> float:
    """Learning rate eta0 * cos(7*pi*t / (16*total_steps)) at global step t.

    Strictly decreasing on 0..total_steps, ending at eta0*cos(7pi/16),
    about 0.195*eta0, never zero.
    """
    if total_steps <= 0:
        raise ValueError(f"total_steps must be > 0, got {total_steps}")
    if not 0 <= t <= total_steps:
        raise ValueError(f"step {t} outside 0..{total_steps}")
    return eta0 * math.cos(7.0 * math.pi * t / (16.0 * total_steps))


def gate_active(config: TrainConfig, epoch: int) -> bool:
    """Entropy gate runs only for SSC-E, only before the cutoff epoch."""
    if config.method != "ssc-e" or not config.gate_enabled:
        return False
    return epoch < config.gate_cutoff_fraction * config.epochs


@dataclass
class StepMetrics:
    step: int
    epoch: int
    lr: Optional[float]
    loss: Optional[float]
    confident: int
    entropy_selected: int
    mean_unlabeled_weight: Optional[float]
    test_acc: Optional[float] = None


def format_metrics_row(m: StepMetrics) -> str:
    """The CSV row of `m`; a float cell that is None is left empty."""
    def real(x):
        return "" if x is None else repr(float(x))

    return ",".join([str(m.step), str(m.epoch), real(m.lr), real(m.loss),
                     str(m.confident), str(m.entropy_selected),
                     real(m.mean_unlabeled_weight), real(m.test_acc)])


def write_metrics(path, history, comments=()) -> None:
    """Metrics CSV: `# key = value` comment block, header, one row per step."""
    lines = [f"# {c}" for c in comments]
    lines.append(METRICS_HEADER)
    lines.extend(format_metrics_row(m) for m in history)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_metrics(path):
    """Parse a metrics CSV into (comment key/value dict, list of row dicts).

    Row values stay strings; empty test_acc comes back as ''.
    """
    columns = METRICS_HEADER.split(",")
    comments = []
    rows = read_table(path, lambda cells: None if cells == columns else
                      f"expected metrics header {METRICS_HEADER!r}", comments)
    next(rows)
    rows = [dict(zip(columns, cells)) for _, cells in rows]
    meta = {}
    for body in comments:
        key, sep, value = body.partition("=")
        if sep:
            meta[key.strip()] = value.strip()
    return meta, rows


@dataclass
class TrainState:
    encoder: MlpEncoder
    bank: PrototypeBank
    opt: OptimizerState
    proto_opt: OptimizerState
    rng: np.random.Generator
    step: int = 0
    history: list = field(default_factory=list)


def new_train_state(config: TrainConfig, input_dim: int, num_classes: int,
                    rng: np.random.Generator) -> TrainState:
    """State at step 0 whose generator is `rng`.

    Draw order: encoder layer weights in order, then prototype directions.
    """
    enc_config = EncoderConfig(input_dim=input_dim,
                               hidden_dims=config.hidden_dims,
                               embed_dim=config.embed_dim,
                               activation=config.activation)
    encoder = MlpEncoder(enc_config, rng)
    bank = PrototypeBank.random(num_classes, config.embed_dim, rng)
    opt = OptimizerState.for_params(encoder.parameters(), config.momentum)
    proto_opt = OptimizerState.for_params([bank.prototypes], config.momentum)
    return TrainState(encoder=encoder, bank=bank, opt=opt, proto_opt=proto_opt,
                      rng=rng)


def init_train_state(config: TrainConfig, dataset: Dataset) -> TrainState:
    """Fresh state for `dataset`, seeded from config.seed."""
    k = dataset.num_classes
    if k < 2:
        raise ValueError(f"dataset must contain at least 2 classes, got {k}")
    labeled = dataset.labeled_labels()
    if labeled.size == 0:
        raise ValueError("dataset has no labeled rows")
    present = np.bincount(labeled, minlength=k)
    if np.any(present == 0):
        missing = np.flatnonzero(present == 0).tolist()
        raise ValueError(f"labeled split is missing classes {missing}")
    return new_train_state(config, dataset.num_features, k,
                           np.random.default_rng(config.seed))


def _sample_indices(rng: np.random.Generator, pool_size: int, count: int) -> np.ndarray:
    """Seeded draw of `count` indices; with replacement only when the pool
    is smaller than the request."""
    if pool_size < 1:
        raise ValueError("cannot sample from an empty pool")
    return rng.choice(pool_size, size=count, replace=pool_size < count)


def assemble_batch(state: TrainState, config: TrainConfig, gate: EntropyGate,
                   policy: AugmentationPolicy, labeled_x: np.ndarray,
                   labeled_y: np.ndarray, unlabeled_x: np.ndarray,
                   entropy_gate_enabled: bool):
    """One contrastive batch of N = B + 2*mu*B + K rows.

    Layout: [labeled | strong view 1 | strong view 2 | prototypes], labels
    [true | assigned | assigned | 0..K-1], weights [1 | lambda | lambda | 1].
    Labeled inputs are not augmented. The weak view exists only long enough
    to produce pseudo-label decisions. Both strong views of unlabeled
    sample i share its decision's label and weight.

    Draws labeled indices, unlabeled indices, then the weak, first-strong
    and second-strong views of the unlabeled block, one `augment` call each.

    Returns (batch, decisions, caches): the decision records of the
    unlabeled samples in batch order, and the forward caches for the
    labeled block and the two strong blocks.
    """
    b = config.labeled_batch_size
    mu_b = config.mu * b
    rng = state.rng
    lab_idx = _sample_indices(rng, labeled_x.shape[0], b)
    unl_idx = _sample_indices(rng, unlabeled_x.shape[0], mu_b)
    chosen = unlabeled_x[unl_idx]
    weak = augment(chosen, policy, "weak", rng)
    strong1 = augment(chosen, policy, "strong", rng)
    strong2 = augment(chosen, policy, "strong", rng)

    z_lab, cache_lab = state.encoder.forward(labeled_x[lab_idx])
    z_weak, _ = state.encoder.forward(weak)
    z_s1, cache_s1 = state.encoder.forward(strong1)
    z_s2, cache_s2 = state.encoder.forward(strong2)

    probs = class_probabilities(z_weak, state.bank, config.t_prime)
    decisions = assign_pseudo_labels(probs, gate, config.lambda_reject,
                                     entropy_gate_enabled)
    labels_u = decisions["assigned_label"]
    weights_u = decisions["weight"]

    k = state.bank.num_classes
    embeddings = np.vstack([z_lab, z_s1, z_s2, state.bank.prototypes])
    labels = np.concatenate([labeled_y[lab_idx], labels_u, labels_u, np.arange(k)])
    weights = np.concatenate([np.ones(b), weights_u, weights_u, np.ones(k)])
    anchor_mask = None
    if config.positives_only:
        kept = decisions["kind"] != DecisionKind.ENTROPY_SELECTED
        anchor_mask = np.concatenate([np.ones(b, dtype=bool), kept, kept,
                                      np.ones(k, dtype=bool)])
    batch = ContrastiveBatch(embeddings=embeddings, labels=labels,
                             weights=weights, temperature=config.temperature,
                             anchor_mask=anchor_mask)
    return batch, decisions, (cache_lab, cache_s1, cache_s2)


def train_step(state: TrainState, config: TrainConfig, gate: EntropyGate,
               policy: AugmentationPolicy, labeled_x, labeled_y, unlabeled_x,
               t_total: int) -> StepMetrics:
    """One optimization step; advances state.step. test_acc is left unset."""
    step = state.step
    epoch = step // config.steps_per_epoch
    lr = cosine_lr(step, t_total, config.eta0)
    enabled = gate_active(config, epoch)
    batch, decisions, caches = assemble_batch(
        state, config, gate, policy, labeled_x, labeled_y, unlabeled_x, enabled)
    loss_fn = ssc_e_loss if config.method == "ssc-e" else ssc_loss
    result = loss_fn(batch)
    if not np.isfinite(result.value) or not np.all(np.isfinite(result.grad)):
        raise NonFiniteLossError(
            f"non-finite loss at step {step}: value {result.value}", step, batch)

    b = config.labeled_batch_size
    mu_b = config.mu * b
    g = result.grad
    blocks = (g[:b], g[b:b + mu_b], g[b + mu_b:b + 2 * mu_b])
    parts = [state.encoder.backward(cache, block) for cache, block in zip(caches, blocks)]
    grads = [lab + s1 + s2 for lab, s1, s2 in zip(*parts)]
    state.opt.lr = lr
    state.proto_opt.lr = lr
    state.encoder.apply_gradients(grads, state.opt)
    update_prototypes(state.bank, g[b + 2 * mu_b:], state.proto_opt)

    kinds = decisions["kind"].tolist()
    metrics = StepMetrics(
        step=step,
        epoch=epoch,
        lr=lr,
        loss=float(result.value),
        confident=kinds.count(DecisionKind.CONFIDENT),
        entropy_selected=kinds.count(DecisionKind.ENTROPY_SELECTED),
        mean_unlabeled_weight=float(np.mean(batch.weights[b:b + mu_b])),
    )
    state.step = step + 1
    return metrics


def _dataset_comment_lines(dataset: Dataset, labeled_y: np.ndarray) -> list:
    """`data.*` lines; labels_per_class lists the class counts when they differ."""
    per_class = np.bincount(labeled_y, minlength=dataset.num_classes).tolist()
    counts = dataset.split_counts()
    return key_lines({
        "classes": dataset.num_classes,
        "dim": dataset.num_features,
        "labels_per_class": per_class[0] if len(set(per_class)) == 1 else per_class,
        "labeled": counts["labeled"],
        "unlabeled": counts["unlabeled"],
        "test": counts["test"],
    }, "data")


def train(config: TrainConfig, dataset: Dataset, state: Optional[TrainState] = None,
          metrics_path=None, checkpoint_path=None):
    """Run (or resume) a full training schedule.

    Evaluates on the test split every `eval_every` steps (if nonzero) and
    always on the final step; checkpoints every `checkpoint_every` steps
    and always at the end when a path is given. Passing a restored state
    continues its metric history, so the final CSV matches an
    uninterrupted run byte for byte.

    Returns (state, history).
    """
    labeled_x = dataset.labeled_features()
    labeled_y = dataset.labeled_labels()
    unlabeled_x = dataset.unlabeled_features()
    test_x = dataset.test_features()
    test_y = dataset.test_labels()
    if labeled_x.shape[0] == 0 or unlabeled_x.shape[0] == 0 or test_x.shape[0] == 0:
        raise ValueError("training needs non-empty labeled, unlabeled, and test splits")
    comments = config_to_lines(config) + _dataset_comment_lines(dataset, labeled_y)
    if state is None:
        state = init_train_state(config, dataset)
    gate = EntropyGate.for_classes(dataset.num_classes, config.tau,
                                   config.tau_ent, config.w_min)
    policy = AugmentationPolicy(config.weak_sigma, config.strong_sigma,
                                config.strong_dropout)
    t_total = config.epochs * config.steps_per_epoch

    from .checkpoint import save_checkpoint  # deferred: checkpoint imports this module

    for gstep in range(state.step, t_total):
        metrics = train_step(state, config, gate, policy, labeled_x, labeled_y,
                             unlabeled_x, t_total)
        due = config.eval_every > 0 and (gstep + 1) % config.eval_every == 0
        if due or gstep == t_total - 1:
            metrics.test_acc = evaluate(state.encoder, state.bank, test_x,
                                        test_y, config.t_prime)
        state.history.append(metrics)
        if (checkpoint_path is not None and config.checkpoint_every > 0
                and (gstep + 1) % config.checkpoint_every == 0):
            save_checkpoint(checkpoint_path, config, state)

    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, config, state)
    if metrics_path is not None:
        write_metrics(metrics_path, state.history, comments)
    return state, state.history
