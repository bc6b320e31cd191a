"""Synthetic cluster datasets, vector-space augmentations, CSV persistence.

Datasets are flat tables: an (n, d) feature matrix, integer labels, and a
split tag per row (labeled / unlabeled / test). The unlabeled split keeps
its true labels so evaluation can score pseudo-labeling quality, but the
trainer only ever sees `unlabeled_features()`.

Augmentations are the vector-space stand-ins for image transforms: weak is
small additive Gaussian noise, strong is larger noise followed by random
coordinate dropout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

__all__ = [
    "SPLIT_TAGS",
    "AugmentationPolicy",
    "CsvFormatError",
    "Dataset",
    "augment",
    "generate_gaussian_clusters",
    "load_csv",
    "read_table",
    "save_csv",
    "split_dataset",
]

SPLIT_TAGS = ("labeled", "unlabeled", "test")

HIDDEN_LABEL = -1


class CsvFormatError(ValueError):
    """Malformed dataset or metrics CSV; carries the offending line number."""

    def __init__(self, path, line_number: Optional[int], message: str):
        self.path = str(path)
        self.line_number = line_number
        where = f"{path}" if line_number is None else f"{path}, line {line_number}"
        super().__init__(f"{where}: {message}")


@dataclass
class Dataset:
    """Feature table with per-row labels and split tags.

    labels hold true classes everywhere except trainer-facing exports,
    where unlabeled rows may carry -1 (hidden).
    """

    features: np.ndarray
    labels: np.ndarray
    split: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.split = np.asarray(self.split, dtype=object)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {self.features.shape}")
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.split.shape != (n,):
            raise ValueError(
                f"row count mismatch: {n} feature rows, {self.labels.shape} labels, "
                f"{self.split.shape} split tags")
        if n and not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        bad = set(self.split) - set(SPLIT_TAGS)
        if bad:
            raise ValueError(f"unknown split tags {sorted(bad)}, expected {SPLIT_TAGS}")
        if np.any(self.labels < HIDDEN_LABEL):
            raise ValueError("labels must be >= -1")
        hidden_outside = (self.labels == HIDDEN_LABEL) & (self.split != "unlabeled")
        if np.any(hidden_outside):
            raise ValueError("hidden label -1 is only allowed on unlabeled rows")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        visible = self.labels[self.labels >= 0]
        return int(visible.max()) + 1 if visible.size else 0

    def _mask(self, tag: str) -> np.ndarray:
        return self.split == tag

    def labeled_features(self) -> np.ndarray:
        return self.features[self._mask("labeled")]

    def labeled_labels(self) -> np.ndarray:
        return self.labels[self._mask("labeled")]

    def unlabeled_features(self) -> np.ndarray:
        """Trainer-facing view: features only, no labels."""
        return self.features[self._mask("unlabeled")]

    def unlabeled_true_labels(self) -> np.ndarray:
        """Evaluation-only view of the hidden truth; errors if truly hidden."""
        y = self.labels[self._mask("unlabeled")]
        if np.any(y == HIDDEN_LABEL):
            raise ValueError("true labels of the unlabeled split are hidden in this dataset")
        return y

    def test_features(self) -> np.ndarray:
        return self.features[self._mask("test")]

    def test_labels(self) -> np.ndarray:
        return self.labels[self._mask("test")]

    def split_counts(self) -> dict[str, int]:
        return {tag: int(np.sum(self._mask(tag))) for tag in SPLIT_TAGS}


def generate_gaussian_clusters(num_classes: int, dim: int, per_class: int,
                               cluster_sigma: float, separation: float,
                               seed: int) -> Dataset:
    """Isotropic Gaussian blobs around seeded random directions.

    Class means are unit directions scaled by `separation`; each sample is
    its class mean plus N(0, cluster_sigma^2) noise. Rows come out grouped
    by class; all rows are tagged unlabeled until split_dataset assigns
    roles. Draw order: means first, then one noise block per class.
    """
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    if dim < 1 or per_class < 1:
        raise ValueError(f"dim and per_class must be >= 1, got {dim}, {per_class}")
    if cluster_sigma < 0:
        raise ValueError(f"cluster_sigma must be >= 0, got {cluster_sigma}")
    if separation <= 0:
        raise ValueError(f"separation must be > 0, got {separation}")
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(num_classes, dim))
    means = raw / np.linalg.norm(raw, axis=1)[:, None] * separation
    blocks = [means[c] + rng.normal(0.0, cluster_sigma, size=(per_class, dim))
              for c in range(num_classes)]
    features = np.vstack(blocks)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    split = np.full(len(labels), "unlabeled", dtype=object)
    return Dataset(features, labels, split)


def split_dataset(ds: Dataset, labels_per_class: int, test_fraction: float,
                  seed: int) -> Dataset:
    """Assign labeled/unlabeled/test tags; row order is preserved.

    Picks exactly `labels_per_class` rows per class (seeded), then splits
    the remainder into test and unlabeled by `test_fraction` (rounded).
    Draw order: one permutation per class in class order, then one
    permutation of the pooled remainder.
    """
    if labels_per_class < 1:
        raise ValueError(f"labels_per_class must be >= 1, got {labels_per_class}")
    if not 0.0 <= test_fraction <= 1.0:
        raise ValueError(f"test_fraction must be in [0, 1], got {test_fraction}")
    if np.any(ds.labels < 0):
        raise ValueError("cannot split a dataset with hidden labels")
    rng = np.random.default_rng(seed)
    k = ds.num_classes
    labeled_idx = []
    for c in range(k):
        members = np.flatnonzero(ds.labels == c)
        if members.size < labels_per_class:
            raise ValueError(
                f"class {c} has {members.size} samples, needs >= {labels_per_class}")
        labeled_idx.append(rng.permutation(members)[:labels_per_class])
    labeled_idx = np.concatenate(labeled_idx)
    remainder = np.setdiff1d(np.arange(len(ds)), labeled_idx)
    remainder = rng.permutation(remainder)
    n_test = int(round(test_fraction * remainder.size))
    split = np.full(len(ds), "unlabeled", dtype=object)
    split[labeled_idx] = "labeled"
    split[remainder[:n_test]] = "test"
    return Dataset(ds.features.copy(), ds.labels.copy(), split)


@dataclass(frozen=True)
class AugmentationPolicy:
    """Noise scales for the weak view and the two strong views.

    weak_noise_sigma may equal strong_noise_sigma (both zero gives the
    identity transform) but never exceed it; dropout 1.0 zeroes every
    coordinate.
    """

    weak_noise_sigma: float = 0.1
    strong_noise_sigma: float = 0.5
    strong_dropout_prob: float = 0.2

    def __post_init__(self):
        if self.weak_noise_sigma < 0 or self.strong_noise_sigma < 0:
            raise ValueError("noise sigmas must be >= 0")
        if self.weak_noise_sigma > self.strong_noise_sigma:
            raise ValueError(
                f"weak sigma {self.weak_noise_sigma} exceeds strong sigma "
                f"{self.strong_noise_sigma}")
        if not 0.0 <= self.strong_dropout_prob <= 1.0:
            raise ValueError(
                f"strong_dropout_prob must be in [0, 1], got {self.strong_dropout_prob}")


def augment(v, policy: AugmentationPolicy, kind: str, rng: np.random.Generator):
    """One augmented copy of a vector, or of each row of an (n, d) block.

    weak: v + N(0, weak_sigma^2). strong: v + N(0, strong_sigma^2), then
    each coordinate independently zeroed with strong_dropout_prob. Two
    strong calls on the same rng realize two independent views. Draw
    order: weak draws one noise block, which fills row after row; strong
    draws, row after row, the noise row and then its dropout uniforms. So
    a block call equals one call per row, in draws and in bits.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2):
        raise ValueError(f"augment expects a vector or an (n, d) block, got shape {v.shape}")
    if kind == "weak":
        return v + rng.normal(0.0, policy.weak_noise_sigma, size=v.shape)
    if kind == "strong":
        noise, uniforms = np.empty((2,) + v.shape)
        for noise_row, uniform_row in zip(*np.atleast_2d(noise, uniforms)):
            noise_row[...] = rng.normal(0.0, policy.strong_noise_sigma, size=noise_row.shape)
            rng.random(out=uniform_row)
        out = v + noise
        out[uniforms < policy.strong_dropout_prob] = 0.0
        return out
    raise ValueError(f"unknown augmentation kind {kind!r}, expected 'weak' or 'strong'")


def _format_float(x: float) -> str:
    # repr gives the shortest string that round-trips a double
    return repr(float(x))


def save_csv(ds: Dataset, path, hide_unlabeled_labels: bool = False,
             header_comments: Iterable[str] = ()) -> None:
    """Write the dataset with header feat_0..feat_{d-1},label,split.

    Floats use round-trip formatting, lines end with LF. Optional comment
    lines are written first, each prefixed with '# '. With
    hide_unlabeled_labels the unlabeled rows export label -1
    (trainer-facing view).
    """
    d = ds.num_features
    header = [f"feat_{j}" for j in range(d)] + ["label", "split"]
    lines = [f"# {c}" for c in header_comments]
    lines.append(",".join(header))
    for i in range(len(ds)):
        label = ds.labels[i]
        if hide_unlabeled_labels and ds.split[i] == "unlabeled":
            label = HIDDEN_LABEL
        cells = [_format_float(x) for x in ds.features[i]]
        cells.append(str(int(label)))
        cells.append(str(ds.split[i]))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table(path, header_problem, comments=None):
    """Yield a CSV's header cells, then (line number, cells) per row.

    Reads one line at a time and skips blank lines and '#' comments (their
    text after the '#' goes to `comments` when a list is given). Raises
    CsvFormatError at a header for which `header_problem(cells)` returns a
    message, at a row whose width differs from the header's, and for a file
    without a header.
    """
    header = None
    with open(path, "r", encoding="utf-8") as fh:
        for number, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if line.startswith("#"):
                if comments is not None:
                    comments.append(line[1:])
                continue
            if not line:
                continue
            cells = line.split(",")
            if header is None:
                problem = header_problem(cells)
                if problem:
                    raise CsvFormatError(path, number, problem)
                header = cells
                yield header
            elif len(cells) != len(header):
                raise CsvFormatError(path, number,
                                     f"expected {len(header)} columns, found {len(cells)}")
            else:
                yield number, cells
    if header is None:
        raise CsvFormatError(path, None, "file is empty")


def _dataset_header_problem(cols):
    if len(cols) < 3 or cols[-2:] != ["label", "split"]:
        return "header must end with 'label,split'"
    d = len(cols) - 2
    if cols[:d] != [f"feat_{j}" for j in range(d)]:
        return f"feature columns must be feat_0..feat_{d - 1}"
    return None


def load_csv(path) -> Dataset:
    """Parse a dataset CSV; every structural defect names its line."""
    rows = read_table(path, _dataset_header_problem)
    d = len(next(rows)) - 2
    features, labels, split = [], [], []
    for number, cells in rows:
        try:
            feat = [float(c) for c in cells[:d]]
        except ValueError:
            raise CsvFormatError(path, number, "non-numeric feature cell") from None
        if not all(np.isfinite(feat)):
            raise CsvFormatError(path, number, "non-finite feature value")
        try:
            label = int(cells[d])
        except ValueError:
            raise CsvFormatError(path, number, f"label {cells[d]!r} is not an integer") from None
        tag = cells[d + 1]
        if tag not in SPLIT_TAGS:
            raise CsvFormatError(path, number,
                                 f"split {tag!r} not in {SPLIT_TAGS}")
        if label < HIDDEN_LABEL:
            raise CsvFormatError(path, number, f"label {label} is below -1")
        if label == HIDDEN_LABEL and tag != "unlabeled":
            raise CsvFormatError(path, number, "label -1 on a non-unlabeled row")
        features.append(feat)
        labels.append(label)
        split.append(tag)
    return Dataset(np.array(features).reshape(-1, d), np.array(labels, dtype=np.int64),
                   np.array(split, dtype=object))
