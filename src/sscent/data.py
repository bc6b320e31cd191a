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

import hashlib
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .pseudo import normalize_rows

__all__ = [
    "SPLIT_TAGS",
    "AugmentationPolicy",
    "CsvFormatError",
    "Dataset",
    "augment",
    "csv_rows",
    "dataset_row_problem",
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
        problem = dataset_row_problem(self.features, self.labels, self.split)
        if problem:
            raise ValueError("row {}: {}".format(*problem))

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

    def sha256(self) -> str:
        """Hex SHA-256 of the features, labels and split tags, in row order."""
        digest = hashlib.sha256(self.features.astype("<f8").tobytes())
        digest.update(self.labels.astype("<i8").tobytes())
        digest.update(",".join(self.split.tolist()).encode())
        return digest.hexdigest()


def dataset_row_problem(features: np.ndarray, labels: np.ndarray, split: np.ndarray):
    """(row, reason) for the first row with a non-finite feature, a split tag
    outside SPLIT_TAGS, a label below -1 or label -1 on a row that is not
    unlabeled (the first that applies, in that order); None for none."""
    finite = np.isfinite(features).all(axis=1)
    known = np.logical_or.reduce([split == tag for tag in SPLIT_TAGS])
    above = labels >= HIDDEN_LABEL
    hidden_ok = (labels != HIDDEN_LABEL) | (split == "unlabeled")
    bad = ~(finite & known & above & hidden_ok)
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    return row, ("non-finite feature value" if not finite[row] else
                 f"split {split[row]!r} not in {SPLIT_TAGS}" if not known[row] else
                 f"label {labels[row]} is below -1" if not above[row] else
                 "label -1 on a non-unlabeled row")


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
    if not 0 <= cluster_sigma < np.inf:  # NaN fails too
        raise ValueError(f"cluster_sigma must be finite and >= 0, got {cluster_sigma}")
    if not 0 < separation < np.inf:
        raise ValueError(f"separation must be finite and > 0, got {separation}")
    rng = np.random.default_rng(seed)
    means = normalize_rows(rng.normal(size=(num_classes, dim)), "class mean")[0] * separation
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
    """Noise scales for the weak view and the two strong views (`aug.*` keys).

    weak_sigma may equal strong_sigma (both zero gives the identity
    transform) but never exceed it. strong_dropout is below 1; a strong row
    always keeps the coordinate of its largest dropout uniform.
    """

    weak_sigma: float = 0.1
    strong_sigma: float = 0.5
    strong_dropout: float = 0.2

    def __post_init__(self):
        if self.weak_sigma < 0 or self.strong_sigma < 0:
            raise ValueError("weak_sigma and strong_sigma must be >= 0")
        if self.weak_sigma > self.strong_sigma:
            raise ValueError(
                f"weak_sigma {self.weak_sigma} exceeds strong_sigma {self.strong_sigma}")
        if not 0.0 <= self.strong_dropout < 1.0:
            raise ValueError(f"strong_dropout must be in [0, 1), got {self.strong_dropout}")


def augment(v, policy: AugmentationPolicy, kind: str, rng: np.random.Generator):
    """One augmented copy of a vector, or of each row of an (n, d) block.

    weak: v + N(0, weak_sigma^2). strong: v + N(0, strong_sigma^2), then a
    coordinate is zeroed when its uniform is below strong_dropout and below
    its row's largest uniform, so every row keeps at least one coordinate.
    Two strong calls on the same rng realize two independent views. Draw
    order: weak draws one noise block; strong draws the whole noise block,
    then the whole block of dropout uniforms, each filled row after row.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2):
        raise ValueError(f"augment expects a vector or an (n, d) block, got shape {v.shape}")
    if kind == "weak":
        return v + rng.normal(0.0, policy.weak_sigma, size=v.shape)
    if kind == "strong":
        out = v + rng.normal(0.0, policy.strong_sigma, size=v.shape)
        uniforms = rng.random(v.shape)
        out[(uniforms < policy.strong_dropout)
            & (uniforms < uniforms.max(axis=-1, keepdims=True))] = 0.0
        return out
    raise ValueError(f"unknown augmentation kind {kind!r}, expected 'weak' or 'strong'")


def save_csv(ds: Dataset, path, hide_unlabeled_labels: bool = False,
             header_comments: Iterable[str] = ()) -> None:
    """Write the dataset with header feat_0..feat_{d-1},label,split.

    Floats use round-trip formatting, lines end with LF. Optional comment
    lines are written first, each prefixed with '# '. With
    hide_unlabeled_labels the unlabeled rows export label -1
    (trainer-facing view).
    """
    header = [f"feat_{j}" for j in range(ds.num_features)] + ["label", "split"]
    labels = np.where(hide_unlabeled_labels & (ds.split == "unlabeled"), HIDDEN_LABEL, ds.labels)
    lines = [*(f"# {c}" for c in header_comments), ",".join(header),
             *csv_rows([*ds.features.T, labels, ds.split])]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def csv_rows(columns) -> list:
    """CSV rows from whole columns, one row per entry: a float column's
    cells by repr() (the shortest round-trip form) with NaN left empty,
    every other column's by str()."""
    cells = [["" if x != x else repr(x) for x in column.tolist()] if column.dtype.kind == "f"
             else list(map(str, column.tolist())) for column in map(np.asarray, columns)]
    return list(map(",".join, zip(*cells)))


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
    """Parse a dataset CSV row by row, then check the dataset rules once
    over the whole table; every defect names its line."""
    rows = read_table(path, _dataset_header_problem)
    d = len(next(rows)) - 2
    numbers, features, labels, split = [], [], [], []
    for number, cells in rows:
        try:
            features.append([float(c) for c in cells[:d]])
        except ValueError:
            raise CsvFormatError(path, number, "non-numeric feature cell") from None
        try:
            labels.append(int(cells[d]))
        except ValueError:
            raise CsvFormatError(path, number, f"label {cells[d]!r} is not an integer") from None
        if not -2**63 <= labels[-1] < 2**63:
            raise CsvFormatError(path, number, f"label {cells[d]!r} is outside the int64 range")
        numbers.append(number)
        split.append(cells[d + 1])
    features = np.array(features, dtype=np.float64).reshape(-1, d)
    labels = np.array(labels, dtype=np.int64)
    split = np.array(split, dtype=object)
    problem = dataset_row_problem(features, labels, split)
    if problem:
        raise CsvFormatError(path, numbers[problem[0]], problem[1])
    return Dataset(features, labels, split)
