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
then the noise and dropout blocks of strong view 1, then 2 (see `augment`).
"""

from __future__ import annotations

import dataclasses
import errno
import math
import operator
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import AugmentationPolicy, CsvFormatError, Dataset, augment, csv_rows, read_table
from .encoder import EncoderConfig, MlpEncoder, update_prototypes
from .evaluate import evaluate
from .losses import METHODS, ContrastiveBatch, ssc_e_loss, ssc_loss
from .pseudo import (DecisionKind, EntropyGate, PrototypeBank, assign_pseudo_labels,
                     check_temperature, class_probabilities, kind_counts)

__all__ = [
    "HISTORY_DTYPE",
    "METRICS_HEADER",
    "ConfigError",
    "MetricHistory",
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


def _key(key: str, default, least=None):
    """A TrainConfig field with config-file key `key`; `least` is the lower
    bound TrainConfig checks itself (None: a component's constructor checks it)."""
    return dataclasses.field(default=default, metadata={"key": key, "least": least})


@dataclass(frozen=True)
class TrainConfig:
    """Full run configuration; defaults are the reference settings. Field
    order is the order of the config echo."""

    labeled_batch_size: int = _key("train.labeled_batch_size", 64, least=1)
    mu: int = _key("train.mu", 7, least=1)
    temperature: float = _key("train.temperature", 0.1)
    eta0: float = _key("train.eta0", 0.03, least=0)
    momentum: float = _key("train.momentum", 0.9)
    epochs: int = _key("train.epochs", 256, least=0)
    steps_per_epoch: int = _key("train.steps_per_epoch", 1024, least=1)
    seed: int = _key("train.seed", 0, least=0)
    method: str = _key("train.method", "ssc-e")
    eval_every: int = _key("train.eval_every", 0, least=0)
    checkpoint_every: int = _key("train.checkpoint_every", 0, least=0)
    t_prime: float = _key("gate.t_prime", 0.1)
    tau: float = _key("gate.tau", 0.95)
    tau_ent: float = _key("gate.tau_ent", 0.4)
    w_min: float = _key("gate.w_min", 0.2)
    lambda_reject: float = _key("gate.lambda_reject", 0.2)
    gate_enabled: bool = _key("gate.enabled", True)
    gate_cutoff_fraction: float = _key("gate.cutoff_fraction", 0.78125)
    positives_only: bool = _key("gate.positives_only", False)
    hidden_dims: tuple = _key("encoder.hidden_dims", (64, 64))
    embed_dim: int = _key("encoder.embed_dim", 16)
    activation: str = _key("encoder.activation", "tanh")
    weak_sigma: float = _key("aug.weak_sigma", 0.1)
    strong_sigma: float = _key("aug.strong_sigma", 0.5)
    strong_dropout: float = _key("aug.strong_dropout", 0.2)

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        for field in dataclasses.fields(self):
            least, value = field.metadata["least"], getattr(self, field.name)
            if least is not None and value < least:
                raise ConfigError(f"{field.name} must be >= {least}, got {value}")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if not 0.0 < self.gate_cutoff_fraction <= 1.0:
            raise ConfigError(
                f"gate_cutoff_fraction must be in (0, 1], got {self.gate_cutoff_fraction}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        # reuse the constructors' own range checks
        try:
            check_temperature(self.temperature, "temperature")
            check_temperature(self.t_prime, "t_prime")
            self.encoder(1)
            self.policy()
            self.gate(2)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def encoder(self, input_dim: int) -> EncoderConfig:
        """The encoder architecture these settings define for `input_dim` features."""
        return EncoderConfig(input_dim=input_dim, hidden_dims=self.hidden_dims,
                             embed_dim=self.embed_dim, activation=self.activation)

    def gate(self, num_classes: int) -> EntropyGate:
        """The pseudo-label rule these settings define for `num_classes` classes."""
        return EntropyGate(num_classes=num_classes, tau=self.tau, tau_ent=self.tau_ent,
                           w_min=self.w_min, lambda_reject=self.lambda_reject)

    def policy(self) -> AugmentationPolicy:
        """The augmentation policy these settings define."""
        return AugmentationPolicy(self.weak_sigma, self.strong_sigma, self.strong_dropout)


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


# a TrainConfig field's annotation -> the parser of its config-file value
_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool,
            "tuple": _parse_int_tuple}

# config-file key -> (TrainConfig field, parser), in field order; a field
# annotation without a parser fails here, at import
CONFIG_SCHEMA = {field.metadata["key"]: (field.name, _PARSERS[field.type])
                 for field in dataclasses.fields(TrainConfig)}


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


# one row per step, in StepMetrics field order without step and epoch
HISTORY_DTYPE = np.dtype([("lr", np.float64), ("loss", np.float64),
                          ("confident", np.int32), ("entropy_selected", np.int32),
                          ("mean_unlabeled_weight", np.float64), ("test_acc", np.float64)])

_row_values = operator.attrgetter(*HISTORY_DTYPE.names)

# rows turned into Python objects at a time when reading or writing a history
_BLOCK_ROWS = 1024


def format_metrics_row(m: StepMetrics) -> str:
    """The CSV row of `m`; a float cell that is None is left empty."""
    row = np.array([_row_values(m)], HISTORY_DTYPE)
    return csv_rows([[m.step], [m.epoch], *(row[name] for name in HISTORY_DTYPE.names)])[0]


class MetricHistory:
    """The metric rows of a run, append-only, row i for step i.

    Rows are kept as one array of HISTORY_DTYPE records whose capacity
    doubles as rows arrive; None is stored as NaN. A row's step is its
    index and its epoch step // steps_per_epoch. Indexing, slicing and
    iteration give StepMetrics copies (NaN back to None); `table()` gives
    the filled rows as a view. A given `table` of HISTORY_DTYPE rows, such
    as a loaded checkpoint's, is wrapped without a copy.
    """

    def __init__(self, steps_per_epoch: int, table: Optional[np.ndarray] = None):
        self.steps_per_epoch = steps_per_epoch
        self._rows = np.empty(0, HISTORY_DTYPE) if table is None else table
        self._size = self._rows.size

    def __len__(self) -> int:
        return self._size

    def append(self, m: StepMetrics) -> None:
        """Copy the values of `m` in as the next row; ValueError unless
        `m` is that row's step and epoch."""
        n = self._size
        for name, want in (("step", n), ("epoch", n // self.steps_per_epoch)):
            have = getattr(m, name)
            if have != want:
                raise ValueError(f"history row {n} has {name} {have}, expected {want}")
        if n == self._rows.size:
            grown = np.empty(max(2 * n, 64), HISTORY_DTYPE)
            grown[:n] = self._rows
            self._rows = grown
        self._rows[n] = _row_values(m)
        self._size = n + 1

    def table(self) -> np.ndarray:
        """The filled rows, a view that later appends may detach from."""
        return self._rows[:self._size]

    def __getitem__(self, key):
        if isinstance(key, slice):
            steps = range(self._size)[key]
            table = self.table()[key]
            columns = [[None if x != x else x for x in table[name].tolist()]
                       if HISTORY_DTYPE[name].kind == "f" else table[name].tolist()
                       for name in HISTORY_DTYPE.names]
            epochs = [step // self.steps_per_epoch for step in steps]
            return list(map(StepMetrics, steps, epochs, *columns))
        i = range(self._size)[key]  # IndexError when out of range
        return self[i:i + 1][0]

    def __iter__(self):
        for start in range(0, self._size, _BLOCK_ROWS):
            yield from self[start:start + _BLOCK_ROWS]


def write_metrics(path, history: MetricHistory, comments=()) -> None:
    """Metrics CSV: `# key = value` comment block, header, one row per step.

    Rows are formatted from whole columns, a block at a time, so the
    strings held at once stay few however long the run.
    """
    table = history.table()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(f"# {c}\n" for c in comments) + METRICS_HEADER + "\n")
        for start in range(0, table.size, _BLOCK_ROWS):
            block = table[start:start + _BLOCK_ROWS]
            steps = np.arange(start, start + block.size)
            rows = csv_rows([steps, steps // history.steps_per_epoch,
                             *(block[name] for name in HISTORY_DTYPE.names)])
            fh.write("\n".join(rows) + "\n")


def metrics_header_problem(cells):
    """`read_table`'s header rule for a metrics CSV."""
    if cells != METRICS_HEADER.split(","):
        return f"expected metrics header {METRICS_HEADER!r}"


def read_metrics(path):
    """Parse a metrics CSV into (comment key/value dict, list of row dicts).

    Row values stay strings; empty test_acc comes back as ''. A non-empty
    test_acc that is not a number in [0, 1] raises CsvFormatError at its line.
    """
    comments = []
    table = read_table(path, metrics_header_problem, comments)
    columns = next(table)
    rows = []
    for number, cells in table:
        rows.append(dict(zip(columns, cells)))
        acc = rows[-1]["test_acc"]
        try:
            valid = not acc or 0.0 <= float(acc) <= 1.0  # NaN is outside
        except ValueError:
            valid = False
        if not valid:
            raise CsvFormatError(path, number, f"test_acc must be a number in [0, 1], got {acc!r}")
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
    velocities: list  # momentum buffers, one per encoder.parameters() entry, in order
    proto_velocity: np.ndarray  # momentum buffer of bank.prototypes
    rng: np.random.Generator
    data_sha256: str  # Dataset.sha256() of the data the run trains on
    history: MetricHistory
    step: int = 0


def new_train_state(config: TrainConfig, input_dim: int, num_classes: int,
                    rng: np.random.Generator, data_sha256: str) -> TrainState:
    """State at step 0 whose generator is `rng`.

    Draw order: encoder layer weights in order, then prototype directions.
    """
    encoder = MlpEncoder(config.encoder(input_dim), rng)
    bank = PrototypeBank.random(num_classes, config.embed_dim, rng)
    return TrainState(encoder=encoder, bank=bank,
                      velocities=[np.zeros_like(p) for p in encoder.parameters()],
                      proto_velocity=np.zeros_like(bank.prototypes), rng=rng,
                      data_sha256=data_sha256, history=MetricHistory(config.steps_per_epoch))


def init_train_state(config: TrainConfig, dataset: Dataset) -> TrainState:
    """Fresh state for `dataset`, seeded from config.seed."""
    k = dataset.num_classes
    if k < 2:
        raise ValueError(f"dataset must contain at least 2 classes, got {k}")
    present = np.bincount(dataset.labeled_labels(), minlength=k)
    if np.any(present == 0):
        missing = np.flatnonzero(present == 0).tolist()
        raise ValueError(f"labeled split is missing classes {missing}")
    return new_train_state(config, dataset.num_features, k,
                           np.random.default_rng(config.seed), dataset.sha256())


def check_dataset_fits(state: TrainState, dataset: Dataset) -> None:
    """Refuse a dataset whose feature or class count, or whose SHA-256,
    differs from a restored state's."""
    have = (dataset.num_features, dataset.num_classes)
    want = (state.encoder.config.input_dim, state.bank.num_classes)
    if have != want:
        raise ValueError(f"dataset has {have[0]} features and {have[1]} classes, "
                         f"checkpoint expects {want[0]} features and {want[1]} classes")
    digest = dataset.sha256()
    if digest != state.data_sha256:
        raise ValueError(f"dataset has SHA-256 {digest}, checkpoint expects {state.data_sha256}")


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
    Encodes [labeled | strong 1 | strong 2] at once, then the weak view alone.

    Returns (batch, decisions, cache): the decision records of the
    unlabeled samples in batch order, and the forward cache of the batch's
    first B + 2*mu*B rows.
    """
    b = config.labeled_batch_size
    rng = state.rng
    lab_idx = _sample_indices(rng, labeled_x.shape[0], b)
    unl_idx = _sample_indices(rng, unlabeled_x.shape[0], config.mu * b)
    chosen = unlabeled_x[unl_idx]
    weak = augment(chosen, policy, "weak", rng)
    strong1 = augment(chosen, policy, "strong", rng)
    strong2 = augment(chosen, policy, "strong", rng)

    z, cache = state.encoder.forward(np.vstack([labeled_x[lab_idx], strong1, strong2]))
    z_weak, _ = state.encoder.forward(weak)

    probs = class_probabilities(z_weak, state.bank, config.t_prime)
    decisions = assign_pseudo_labels(probs, gate, entropy_gate_enabled)
    labels_u = decisions["assigned_label"]
    weights_u = decisions["weight"]

    k = state.bank.num_classes
    embeddings = np.vstack([z, state.bank.prototypes])
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
    return batch, decisions, cache


def train_step(state: TrainState, config: TrainConfig, gate: EntropyGate,
               policy: AugmentationPolicy, labeled_x, labeled_y, unlabeled_x,
               t_total: int) -> StepMetrics:
    """One optimization step; advances state.step. test_acc is left unset."""
    step = state.step
    epoch = step // config.steps_per_epoch
    lr = cosine_lr(step, t_total, config.eta0)
    enabled = gate_active(config, epoch)
    batch, decisions, cache = assemble_batch(
        state, config, gate, policy, labeled_x, labeled_y, unlabeled_x, enabled)
    loss_fn = ssc_e_loss if config.method == "ssc-e" else ssc_loss
    result = loss_fn(batch)
    if not np.isfinite(result.value) or not np.isfinite(result.grad).all():
        raise NonFiniteLossError(
            f"non-finite loss at step {step}: value {result.value}", step, batch)

    b = config.labeled_batch_size
    rows = len(cache.embeddings)
    grads = state.encoder.backward(cache, result.grad[:rows])
    state.encoder.apply_gradients(grads, state.velocities, config.momentum, lr)
    update_prototypes(state.bank, result.grad[rows:], state.proto_velocity, config.momentum, lr)

    confident, entropy_selected, _ = kind_counts(decisions)
    metrics = StepMetrics(
        step=step,
        epoch=epoch,
        lr=lr,
        loss=float(result.value),
        confident=confident,
        entropy_selected=entropy_selected,
        mean_unlabeled_weight=float(np.mean(batch.weights[b:b + len(decisions)])),
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


def _check_output_path(path) -> None:
    """Raise the OSError that writing `path` would: it is a directory, or
    its directory does not exist."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), os.fspath(path))


def train(config: TrainConfig, dataset: Dataset, state: Optional[TrainState] = None,
          metrics_path=None, checkpoint_path=None):
    """Run (or resume) a full training schedule.

    Evaluates on the test split every `eval_every` steps (if nonzero) and
    always on the final step; checkpoints every `checkpoint_every` steps
    and once at the end when a path is given. Passing a restored state
    continues its metric history, so the final CSV matches an
    uninterrupted run byte for byte; a dataset other than the one the
    state was trained on raises ValueError before any step or write, and
    a metrics or checkpoint path that is a directory, or whose directory
    does not exist, raises that OSError then too.

    Returns (state, history): the history is state.history, whose rows
    read as StepMetrics.
    """
    labeled_x = dataset.labeled_features()
    labeled_y = dataset.labeled_labels()
    unlabeled_x = dataset.unlabeled_features()
    test_x = dataset.test_features()
    test_y = dataset.test_labels()
    if labeled_x.shape[0] == 0 or unlabeled_x.shape[0] == 0 or test_x.shape[0] == 0:
        raise ValueError("training needs non-empty labeled, unlabeled, and test splits")
    for path in (checkpoint_path, metrics_path):  # the checkpoint's .tmp sits beside it
        if path is not None:
            _check_output_path(path)
    comments = config_to_lines(config) + _dataset_comment_lines(dataset, labeled_y)
    if state is None:
        state = init_train_state(config, dataset)
    else:
        check_dataset_fits(state, dataset)
    gate = config.gate(dataset.num_classes)
    policy = config.policy()
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
                and (gstep + 1) % config.checkpoint_every == 0 and gstep + 1 < t_total):
            save_checkpoint(checkpoint_path, config, state)

    if checkpoint_path is not None:  # also after the last step, and when no step ran
        save_checkpoint(checkpoint_path, config, state)
    if metrics_path is not None:
        write_metrics(metrics_path, state.history, comments)
    return state, state.history
