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
    "DecisionKind",
    "EntropyGate",
    "GateDegenerateError",
    "PROB_SUM_TOL",
    "PROTOTYPE_NORM_TOL",
    "PrototypeBank",
    "PseudoLabelDecision",
    "adaptive_weight",
    "assign_pseudo_labels",
    "class_probabilities",
]

PROTOTYPE_NORM_TOL = 1e-6

# Tolerance on each probability row's sum == 1.
PROB_SUM_TOL = 1e-9


def as_finite_array(values, name: str) -> np.ndarray:
    """Convert to a float64 array, rejecting NaN/Inf entries.

    The error for a matrix names its first bad row.
    """
    arr = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(arr)
    if not finite.all():
        where = f" row {int(np.argmin(finite.all(axis=1)))}" if arr.ndim == 2 else ""
        raise ValueError(f"{name}{where} must contain only finite values")
    return arr


class GateDegenerateError(ValueError):
    """The adaptive-weight interpolation pivot is at or above the gate threshold."""


class DecisionKind(enum.Enum):
    CONFIDENT = "confident"
    ENTROPY_SELECTED = "entropy_selected"
    REJECTED = "rejected"


@dataclass
class PrototypeBank:
    """One unit vector per class.

    prototypes: (K, d) array with unit-norm rows.
    class_ids: (K,) array, a permutation of 0..K-1; class_ids[k] is the
        class represented by row k.
    """

    prototypes: np.ndarray
    class_ids: np.ndarray

    def __post_init__(self):
        self.prototypes = as_finite_array(self.prototypes, "prototypes")
        if self.prototypes.ndim != 2 or self.prototypes.shape[0] < 1:
            raise ValueError(f"prototypes must be a (K, d) matrix, got {self.prototypes.shape}")
        norms = np.linalg.norm(self.prototypes, axis=1)
        if np.any(np.abs(norms - 1.0) > PROTOTYPE_NORM_TOL):
            worst = float(np.abs(norms - 1.0).max())
            raise ValueError(f"prototype rows must be unit norm (worst deviation {worst:.2e})")
        self.class_ids = np.asarray(self.class_ids, dtype=np.int64)
        k = self.prototypes.shape[0]
        if self.class_ids.shape != (k,) or sorted(self.class_ids.tolist()) != list(range(k)):
            raise ValueError("class_ids must be a permutation of 0..K-1")

    @property
    def num_classes(self) -> int:
        return self.prototypes.shape[0]

    @property
    def dim(self) -> int:
        return self.prototypes.shape[1]

    @classmethod
    def random(cls, num_classes: int, dim: int, rng: np.random.Generator) -> "PrototypeBank":
        """Seeded isotropic directions, unit-normalized, identity class ids."""
        raw = rng.normal(size=(num_classes, dim))
        raw /= np.linalg.norm(raw, axis=1)[:, None]
        return cls(prototypes=raw, class_ids=np.arange(num_classes))

    def scores_by_class(self, embeddings: np.ndarray) -> np.ndarray:
        """Cosine scores against each prototype, columns ordered by class id.

        Each row is its own (1, d) @ (d, K) product, so its bits do not
        depend on the rows scored with it; a single (n, d) @ (d, K) product
        can differ in the last place.
        """
        z = np.atleast_2d(embeddings)
        scores = (z[:, None, :] @ self.prototypes.T)[:, 0, :]
        return scores[:, np.argsort(self.class_ids)]


@dataclass(frozen=True)
class EntropyGate:
    """Per-batch gating parameters.

    h_max is log(num_classes); h_base = tau_ent * h_max is the entropy
    threshold below which non-confident samples may still be selected.
    """

    tau: float
    tau_ent: float
    num_classes: int
    h_max: float
    h_base: float
    w_min: float

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if not 0.0 < self.tau_ent <= 1.0:
            raise ValueError(f"tau_ent must be in (0, 1], got {self.tau_ent}")
        if self.num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.num_classes}")
        if not 0.0 <= self.w_min <= 1.0:
            raise ValueError(f"w_min must be in [0, 1], got {self.w_min}")
        if self.h_max != math.log(self.num_classes):
            raise ValueError("h_max must equal log(num_classes)")
        if self.h_base != self.tau_ent * self.h_max:
            raise ValueError("h_base must equal tau_ent * h_max")
        if not 0.0 < self.h_base <= self.h_max:
            raise ValueError("h_base must lie in (0, h_max]")

    @classmethod
    def for_classes(cls, num_classes: int, tau: float, tau_ent: float,
                    w_min: float = 0.2) -> "EntropyGate":
        h_max = math.log(num_classes)
        return cls(tau=tau, tau_ent=tau_ent, num_classes=num_classes,
                   h_max=h_max, h_base=tau_ent * h_max, w_min=w_min)


@dataclass(frozen=True)
class PseudoLabelDecision:
    """Outcome for one unlabeled sample within a batch."""

    sample_index: int
    kind: DecisionKind
    assigned_label: int
    weight: float
    entropy: float
    max_prob: float


def class_probabilities(z_w, bank: PrototypeBank, t_prime: float) -> np.ndarray:
    """Class probabilities for an (n, d) block of unit embeddings.

    Row-wise softmax over the prototype cosines at temperature t_prime. The
    (n, K) result has its columns indexed by class id (not by prototype
    row), and each row is bit-identical to that row passed on its own.
    """
    z = as_finite_array(z_w, "embedding")
    if z.ndim != 2 or z.shape[1] != bank.dim:
        raise ValueError(f"embeddings have shape {z.shape}, prototypes expect (n, {bank.dim})")
    norms = np.linalg.norm(z, axis=1)
    off = np.abs(norms - 1.0) > PROTOTYPE_NORM_TOL
    if off.any():
        row = int(np.argmax(off))
        raise ValueError(f"embedding row {row} must be unit norm (got {float(norms[row])})")
    if not np.isfinite(t_prime) or t_prime <= 0:
        raise ValueError(f"temperature must be positive, got {t_prime}")
    with np.errstate(over="ignore"):  # an overflow is reported by the check below
        scaled = bank.scores_by_class(z) / float(t_prime)
    if not np.all(np.isfinite(scaled)):
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


# decision kinds are coded 0, 1, 2 (indices into this tuple) while the block is whole-array
_KINDS = (DecisionKind.CONFIDENT, DecisionKind.ENTROPY_SELECTED, DecisionKind.REJECTED)


def assign_pseudo_labels(probs, gate: EntropyGate, lambda_reject: float,
                         entropy_gate_enabled: bool) -> list[PseudoLabelDecision]:
    """Turn an (n, K) block of class probabilities into pseudo-label decisions.

    Samples whose top probability strictly exceeds gate.tau are accepted
    with weight 1; the largest entropy among them is e_min. When the gate
    is enabled and e_min exists, the remaining samples are considered:

    * e_min < h_base: samples with entropy below h_base are selected with
      the argmax class; weight 1 when entropy <= e_min, else the adaptive
      interpolated weight.
    * e_min >= h_base (degenerate gate): samples with entropy <= e_min are
      selected with weight 1; the interpolation branch is skipped.

    Everything else is rejected with a unique label num_classes + position
    and weight lambda_reject. Argmax ties break toward the lowest class
    index; output order matches input order. Entropies are in nats with
    0 * log 0 := 0; a one-hot row's entropy is -0.0.
    """
    if not 0.0 <= lambda_reject <= 1.0:
        raise ValueError(f"lambda_reject must be in [0, 1], got {lambda_reject}")
    mat = as_finite_array(np.atleast_2d(probs), "probabilities")
    if mat.ndim != 2 or mat.shape[1] != gate.num_classes:
        raise ValueError(
            f"probabilities have shape {mat.shape}, gate expects (n, {gate.num_classes})")
    sums = mat.sum(axis=1)
    negative = (mat < 0.0).any(axis=1)
    bad = negative | (np.abs(sums - 1.0) > PROB_SUM_TOL)
    if bad.any():
        row = int(np.argmax(bad))
        if negative[row]:
            raise ValueError(f"probabilities row {row} must be non-negative")
        raise ValueError(f"probabilities row {row} must sum to 1 (got {float(sums[row])})")

    n = mat.shape[0]
    max_prob = mat.max(axis=1)
    labels = mat.argmax(axis=1)  # first maximum: lowest class index on ties
    terms = np.where(mat > 0.0, mat * np.log(np.where(mat > 0.0, mat, 1.0)), 0.0)
    entropies = -terms.sum(axis=1)
    # clamp round-off below zero; np.maximum would turn a one-hot row's -0.0 into 0.0
    entropies = np.where(entropies < 0.0, 0.0, entropies)
    confident = max_prob > gate.tau
    kinds = np.where(confident, 0, 2)
    weights = np.where(confident, 1.0, float(lambda_reject))
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
    return [PseudoLabelDecision(i, _KINDS[k], label, w, h, p)
            for i, (k, label, w, h, p) in enumerate(zip(
                kinds.tolist(), labels.tolist(), weights.tolist(),
                entropies.tolist(), max_prob.tolist()))]
