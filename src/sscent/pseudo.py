"""Pseudo-label assignment for unlabeled samples.

Class probabilities are predicted from cosine similarity against a bank of
unit-norm class prototypes. Samples whose top probability clears a
confidence threshold are accepted with weight 1. With the entropy gate
enabled, the remaining samples whose predictive entropy falls below a
gate threshold are also accepted, carrying an adaptive confidence weight
that interpolates between 1 (entropy at or below the noisiest confident
sample) and a configurable floor (entropy at the gate threshold). Anything
else is rejected: it receives a unique per-sample label so its two
augmented views only pair with each other, and a small fixed weight.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DECISION_DTYPE",
    "DecisionKind",
    "EntropyGate",
    "GateDegenerateError",
    "PROB_SUM_TOL",
    "PrototypeBank",
    "UNIT_NORM_TOL",
    "adaptive_weight",
    "assign_pseudo_labels",
    "class_probabilities",
]

# Tolerance on each embedding's and prototype's norm == 1.
UNIT_NORM_TOL = 1e-6

# Tolerance on each probability row's sum == 1.
PROB_SUM_TOL = 1e-9


@np.errstate(over="ignore")  # squares that overflow give an inf norm, which callers refuse
def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row: NumPy's own vector-norm formula, so its bits."""
    return np.sqrt(np.add.reduce(rows * rows, axis=1))


def normalize_rows(rows: np.ndarray, name: str):
    """(rows / norms, norms); FloatingPointError names the first row whose
    norm is zero or not finite (a NaN row, or one whose squares overflow)."""
    norms = row_norms(rows)
    # a NaN norm carries through min and max and fails both comparisons
    if not (norms.min(initial=np.inf) >= 1e-150 and norms.max(initial=0.0) < np.inf):
        row = int(np.argmax(~((norms >= 1e-150) & (norms < np.inf))))
        problem = "zero norm" if norms[row] < 1e-150 else "a non-finite norm"
        raise FloatingPointError(f"{name} row {row} has {problem}")
    return rows / norms[:, None], norms


def check_unit_rows(rows: np.ndarray, name: str) -> None:
    """Raise ValueError naming the first non-finite row or norm off 1 by > UNIT_NORM_TOL."""
    norms = row_norms(rows)
    off = ~(np.abs(norms - 1.0) <= UNIT_NORM_TOL)  # a NaN or inf row is off too
    if off.any():
        row = int(np.argmax(off))
        if not np.isfinite(rows[row]).all():
            raise ValueError(f"{name} row {row} must contain only finite values")
        raise ValueError(f"{name} row {row} must be unit norm (got {float(norms[row])})")


def check_temperature(value, name: str) -> None:
    """Raise ValueError unless the temperature `value` is finite and > 0."""
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


@np.errstate(over="ignore", invalid="ignore")  # an inf or NaN sum is a bad row below
def probability_row_problem(mat: np.ndarray):
    """(row, reason) for the first row of an (n, K) array that is not a
    probability vector (a non-finite or negative entry, or a sum off 1 by
    more than PROB_SUM_TOL); None when every row is one."""
    negative = (mat < 0.0).any(axis=1)
    sums = mat.sum(axis=1)
    bad = negative | ~(np.abs(sums - 1.0) <= PROB_SUM_TOL)  # a non-finite row sums to NaN or inf
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    return row, ("must contain only finite values" if not np.isfinite(mat[row]).all() else
                 "must be non-negative" if negative[row] else
                 f"must sum to 1 (got {float(sums[row])})")


class GateDegenerateError(ValueError):
    """The adaptive-weight interpolation pivot is at or above the gate threshold."""


class DecisionKind(enum.IntEnum):
    """The gate's outcome for one sample, stored in a decision array as its int8 code."""
    CONFIDENT = 0
    ENTROPY_SELECTED = 1
    REJECTED = 2


@dataclass
class PrototypeBank:
    """One unit vector per class: row k of the (K, d) `prototypes` array is
    the prototype of class k."""

    prototypes: np.ndarray

    def __post_init__(self):
        self.prototypes = np.asarray(self.prototypes, dtype=np.float64)
        if self.prototypes.ndim != 2 or self.prototypes.shape[0] < 1:
            raise ValueError(f"prototypes must be a (K, d) matrix, got {self.prototypes.shape}")
        check_unit_rows(self.prototypes, "prototype")

    @property
    def num_classes(self) -> int:
        return self.prototypes.shape[0]

    @property
    def dim(self) -> int:
        return self.prototypes.shape[1]

    @classmethod
    def random(cls, num_classes: int, dim: int, rng: np.random.Generator) -> "PrototypeBank":
        """Seeded isotropic directions, unit-normalized."""
        return cls(prototypes=normalize_rows(rng.normal(size=(num_classes, dim)), "prototype")[0])

    def scores_by_class(self, embeddings: np.ndarray) -> np.ndarray:
        """Cosine scores against each prototype; column k is class k.

        Each row is its own (1, d) @ (d, K) product, so its bits do not
        depend on the rows scored with it; a single (n, d) @ (d, K) product
        can differ in the last place.
        """
        z = np.atleast_2d(embeddings)
        return (z[:, None, :] @ self.prototypes.T)[:, 0, :]


@dataclass(frozen=True, kw_only=True)
class EntropyGate:
    """The pseudo-label rule: thresholds tau and tau_ent, weights w_min and lambda_reject.

    Derived, not stored: h_max = log(num_classes), and h_base = tau_ent *
    h_max, the entropy below which non-confident samples may be selected.
    """

    num_classes: int
    tau: float
    tau_ent: float
    w_min: float
    lambda_reject: float

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if not 0.0 < self.tau_ent <= 1.0:
            raise ValueError(f"tau_ent must be in (0, 1], got {self.tau_ent}")
        if self.num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.num_classes}")
        if not 0.0 <= self.w_min <= 1.0:
            raise ValueError(f"w_min must be in [0, 1], got {self.w_min}")
        if not 0.0 <= self.lambda_reject <= 1.0:
            raise ValueError(f"lambda_reject must be in [0, 1], got {self.lambda_reject}")

    @property
    def h_max(self) -> float:
        return math.log(self.num_classes)

    @property
    def h_base(self) -> float:
        return self.tau_ent * self.h_max


def class_probabilities(z_w, bank: PrototypeBank, t_prime: float) -> np.ndarray:
    """Class probabilities for an (n, d) block of unit embeddings.

    Row-wise softmax over the prototype cosines at temperature t_prime.
    Column k of the (n, K) result is class k, and each row is bit-identical
    to that row passed on its own.
    """
    z = np.asarray(z_w, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != bank.dim:
        raise ValueError(f"embeddings have shape {z.shape}, prototypes expect (n, {bank.dim})")
    check_unit_rows(z, "embedding")
    check_temperature(t_prime, "t_prime")
    with np.errstate(over="ignore"):  # an overflow is reported by the check below
        scaled = bank.scores_by_class(z) / float(t_prime)
    if not np.isfinite(scaled).all():
        raise ValueError("temperature too small for the given scores")
    exps = np.exp(scaled - scaled.max(axis=1, keepdims=True))
    return exps / exps.sum(axis=1, keepdims=True)


def adaptive_weight(h_i, e_min: float, h_base: float, w_min: float):
    """Confidence weight, linear in entropy between e_min (-> 1) and h_base (-> w_min).

    h_i is a scalar (a float is returned) or an array (an array of the same
    shape is returned). It is clamped into [e_min, h_base]; the boundary
    values are returned exactly. Raises GateDegenerateError when
    e_min >= h_base, where the interpolation is undefined.
    """
    if e_min >= h_base:
        raise GateDegenerateError(
            f"entropy pivot {e_min} is not below the gate threshold {h_base}")
    h = np.asarray(h_i, dtype=np.float64)
    scale = (h_base - h) / (h_base - e_min)
    w = np.where(h <= e_min, 1.0,
                 np.where(h >= h_base, float(w_min), w_min + (1.0 - w_min) * scale))
    return float(w) if w.ndim == 0 else w


class _DecisionRecord(np.record):
    """One decision read by attribute; `kind` reads as its DecisionKind member.

    Only perfbench's traced mode needs the member (`d.kind.name`); this class
    can go once that reads the codes."""
    @property
    def kind(self) -> DecisionKind:
        return DecisionKind(self["kind"])


# one record per unlabeled sample, at its sample index, read by attribute; padded so that
# each column is an aligned view, and read by key in C (a plain ndarray, not np.recarray)
DECISION_DTYPE = np.dtype((_DecisionRecord, np.dtype([
    ("kind", np.int8), ("assigned_label", np.int64), ("weight", np.float64),
    ("entropy", np.float64), ("max_prob", np.float64)], align=True)))


def assign_pseudo_labels(probs, gate: EntropyGate, entropy_gate_enabled: bool) -> np.ndarray:
    """Turn an (n, K) block of class probabilities into pseudo-label decisions.

    Returns DECISION_DTYPE records, one per input row, in input order: columns
    by key (`decisions["kind"]` holds DecisionKind codes), rows by attribute.

    Samples whose top probability strictly exceeds gate.tau are accepted
    with weight 1; the largest entropy among them is e_min. When the gate
    is enabled and e_min exists, the remaining samples are considered:

    * e_min < h_base: samples with entropy below h_base are selected with
      the argmax class; weight 1 when entropy <= e_min, else the adaptive
      interpolated weight.
    * e_min >= h_base (degenerate gate): samples with entropy <= e_min are
      selected with weight 1; the interpolation branch is skipped.

    Everything else is rejected with a unique label num_classes + position
    and weight gate.lambda_reject. Argmax ties break toward the lowest class
    index. Entropies are in nats with 0 * log 0 := 0; a one-hot row's
    entropy is -0.0.
    """
    mat = np.asarray(np.atleast_2d(probs), dtype=np.float64)
    if mat.ndim != 2 or mat.shape[1] != gate.num_classes:
        raise ValueError(
            f"probabilities have shape {mat.shape}, gate expects (n, {gate.num_classes})")
    problem = probability_row_problem(mat)
    if problem:
        raise ValueError("probabilities row {} {}".format(*problem))

    n = mat.shape[0]
    max_prob = mat.max(axis=1)
    labels = mat.argmax(axis=1)  # first maximum: lowest class index on ties
    terms = np.where(mat > 0.0, mat * np.log(np.where(mat > 0.0, mat, 1.0)), 0.0)
    entropies = -terms.sum(axis=1)
    # clamp round-off below zero; np.maximum would turn a one-hot row's -0.0 into 0.0
    entropies = np.where(entropies < 0.0, 0.0, entropies)
    confident = max_prob > gate.tau
    kinds = np.where(confident, 0, 2)
    weights = np.where(confident, 1.0, float(gate.lambda_reject))
    if entropy_gate_enabled and confident.any():
        e_min = np.max(entropies, where=confident, initial=-np.inf)
        if e_min < gate.h_base:
            selected = ~confident & (entropies < gate.h_base)
            gated = adaptive_weight(entropies, e_min, gate.h_base, gate.w_min)
        else:
            selected = ~confident & (entropies <= e_min)
            gated = 1.0
        kinds[selected] = 1
        weights = np.where(selected, gated, weights)
    labels = np.where(kinds == 2, gate.num_classes + np.arange(n), labels)
    decisions = np.empty(n, DECISION_DTYPE)
    decisions["kind"] = kinds
    decisions["assigned_label"] = labels
    decisions["weight"] = weights
    decisions["entropy"] = entropies
    decisions["max_prob"] = max_prob
    return decisions


def kind_counts(decisions) -> tuple[int, int, int]:
    """(confident, entropy_selected, rejected) counts of a decision array."""
    return tuple(np.bincount(decisions["kind"], minlength=3).tolist())
