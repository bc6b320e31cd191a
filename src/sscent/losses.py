"""Pair-weighted supervised contrastive losses with analytic gradients.

Two variants share one row-blocked kernel. With s_ij = z_i . z_j / T and
P(i) the other rows with i's label:

* "ssc" weighs every pair of anchor i by the anchor weight alone,
      L = (1 / sum_k lam_k) * sum_i (-lam_i / |P(i)|) *
          sum_{p in P(i)} log( exp(s_ip) / sum_{j != i} exp(s_ij) )
  with the normalizer running over anchors that have positives.

* "ssc-e" weighs each pair by the geometric mean sqrt(lam_i * lam_p) and
  normalizes by the sum of the anchor-wise averaged pair weights
  lam_bar_i = (1/|P(i)|) * sum_p sqrt(lam_i * lam_p).

Both factor the pair weight on P(i) as W_ip = a_i * b_p: a = lam/|P| and
b = 1 ("ssc"), or a = sqrt(lam)/|P| and b = sqrt(lam) ("ssc-e"); a_i = 0 for
anchors without positives or masked out. So r_i = sum_p W_ip, W Z and W^T Z
are sums over label classes, and the normalizer is sum_i r_i.

With m_i row i's largest s_ij (j != i), E_ij = exp(s_ij - m_i) and rem_i the
sum of E_ij over j != i without one argmax entry, a pair term is
log1p(rem_i) + (m_i - s_ip), two non-negative numbers, so nothing cancels
however small the loss (Blanchard, Higham & Mary, arXiv:1909.03469):
      L = [sum_i r_i log1p(rem_i) + sum_i a_i sum_p b_p (m_i - s_ip)] / norm
      dL/dZ = [-W Z - W^T Z + (r/den) o (E Z) + E^T ((r/den) o Z)] / (norm T)
with den = 1 + rem. E is formed in blocks of at most _BLOCK rows: no N x N
array exists and nothing is kept between calls.

loss_oracle recomputes either variant with literal nested loops and
extended-precision scalars; grad_check compares the analytic gradient
against central finite differences through finite_difference_error. Both
exist purely for verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .pseudo import check_temperature, check_unit_rows

__all__ = [
    "METHODS",
    "ContrastiveBatch",
    "LossResult",
    "ZeroNormalizerError",
    "finite_difference_error",
    "grad_check",
    "loss_oracle",
    "ssc_e_loss",
    "ssc_loss",
]

# the loss variants, which are also the training methods
METHODS = ("ssc", "ssc-e")

# exp() on 80-bit long doubles overflows around 11356; shift above this.
_ORACLE_EXP_GUARD = 11000.0

# rows per block: a block's two (64, N) float arrays stay in L2 at N ~ 1000
_BLOCK = 64


class ZeroNormalizerError(ValueError):
    """No anchor contributes positive weight, so the loss is undefined."""


@dataclass
class ContrastiveBatch:
    """Immutable inputs for one loss evaluation.

    embeddings: (N, d) float64, unit-norm rows (the loss does not
        re-normalize; dot products are taken as-is).
    labels: (N,) integers; equal labels define positive pairs.
    weights: (N,) floats in [0, 1].
    temperature: positive similarity scale.
    anchor_mask: optional (N,) booleans; False rows contribute no anchor
        terms (they still appear as positives and denominators of others).
    """

    embeddings: np.ndarray
    labels: np.ndarray
    weights: np.ndarray
    temperature: float
    anchor_mask: Optional[np.ndarray] = None

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.embeddings.ndim != 2:
            raise ValueError(f"embeddings must be (N, d), got {self.embeddings.shape}")
        n = self.embeddings.shape[0]
        if n < 2:
            raise ValueError(f"need at least 2 embeddings, got {n}")
        if self.labels.shape != (n,) or self.weights.shape != (n,):
            raise ValueError("labels and weights must each have one entry per embedding")
        if not np.all(np.isfinite(self.embeddings)):
            raise ValueError("embeddings must be finite")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")
        if np.any(self.weights < 0.0) or np.any(self.weights > 1.0):
            raise ValueError("weights must lie in [0, 1]")
        check_temperature(self.temperature, "temperature")
        check_unit_rows(self.embeddings, "embedding")
        if self.anchor_mask is not None:
            self.anchor_mask = np.asarray(self.anchor_mask, dtype=bool)
            if self.anchor_mask.shape != (n,):
                raise ValueError("anchor_mask must have one entry per embedding")

    @property
    def size(self) -> int:
        return self.embeddings.shape[0]


@dataclass
class LossResult:
    value: float
    grad: np.ndarray  # (N, d), d(loss)/d(embeddings)


def _check_variant(variant: str) -> None:
    if variant not in METHODS:
        raise ValueError(f"unknown loss variant {variant!r}, expected one of {METHODS}")


def _positive_sums(cls, a, b, embeddings):
    """-W Z - W^T Z from class sums of b z and a z (its own function so that
    these (N, 2, d) temporaries are freed before the row blocks exist)."""
    n = len(cls)
    coef = np.empty((n, 2, 1))
    coef[:, 0, 0] = b
    coef[:, 1, 0] = a
    parts = coef * embeddings[:, None]
    w = parts[0].size
    # one bincount over (class, column) pairs sums every column
    sums = np.bincount((cls[:, None] * w + np.arange(w)).ravel(), parts.ravel(), n * w)
    parts -= sums.reshape(parts.shape)[cls]
    return np.add.reduce(coef[:, ::-1] * parts, axis=1)


def _pair_factors(labels, weights, anchor_mask, variant):
    """Class ids, the factors a and b of W_ip = a_i b_p on P(i), the row sums
    r_i = sum_p W_ip and the contributing anchors."""
    n = len(labels)
    # a row's class is the first sorted position of its label: two calls, where
    # np.unique would cost a third of a call at small N
    cls = np.sort(labels).searchsorted(labels)
    count = np.bincount(cls)[cls] - 1
    contributing = count > 0
    if anchor_mask is not None:
        contributing &= anchor_mask
    if variant == "ssc":
        a, b, positive_b = weights, np.ones(n), count  # sum_p b_p is |P(i)|
    else:
        a = b = np.sqrt(weights)
        positive_b = np.bincount(cls, b)[cls] - b
    a = np.divide(a, count, out=np.zeros(n), where=contributing)
    return cls, a, b, a * positive_b, contributing


def _evaluate(embeddings, labels, weights, temperature, anchor_mask, variant):
    n = len(labels)
    cls, a, b, r, _ = _pair_factors(labels, weights, anchor_mask, variant)
    normalizer = np.add.reduce(r)
    if normalizer <= 0.0:
        raise ZeroNormalizerError(
            "total anchor weight is zero; no anchor with positives carries weight")

    scaled = embeddings / temperature
    # a contiguous right operand: the GEMM of a transposed view has other
    # bits at another BLAS thread count
    columns = np.ascontiguousarray(embeddings.T)
    rem, gaps = np.empty(n), np.empty(n)
    grad = _positive_sums(cls, a, b, embeddings)
    s_buf = np.empty((min(_BLOCK, n), n))
    e_buf = np.empty_like(s_buf)
    for start in range(0, n, _BLOCK):
        block = slice(start, start + _BLOCK)
        s, e = s_buf[:n - start], e_buf[:n - start]
        at = np.arange(len(s))
        diagonal = (at, at + start)
        np.matmul(scaled[block], columns, out=s)
        s[diagonal] = -np.inf
        top = (at, s.argmax(axis=1))
        np.subtract(s, s[top][:, None], out=s)  # s - m: 0 at the argmax, -inf at i
        np.exp(s, out=e)
        # the argmax entry leaves the sum instead of a 1 being subtracted after it
        e[top] = 0.0
        np.add.reduce(e, axis=1, out=rem[block])
        e[top] = 1.0
        s[diagonal] = 0.0  # i is in its own label mask; a zero gap keeps inf * 0 out
        s *= labels[block, None] == labels
        np.matmul(s, b, out=gaps[block])  # -sum_p b_p (m_i - s_ip)
        rho = (r[block] / (1.0 + rem[block]))[:, None]
        grad[block] += rho * (e @ embeddings)
        grad += e.T @ (rho * embeddings[block])
    value = float((r @ np.log1p(rem) - a @ gaps) / normalizer)
    grad /= normalizer * temperature
    return value, grad


def _loss(batch, variant):
    return LossResult(*_evaluate(batch.embeddings, batch.labels, batch.weights,
                                 batch.temperature, batch.anchor_mask, variant))


def ssc_loss(batch: ContrastiveBatch) -> LossResult:
    """Anchor-weighted contrastive loss with its analytic gradient."""
    return _loss(batch, "ssc")


def ssc_e_loss(batch: ContrastiveBatch) -> LossResult:
    """Pair-weighted contrastive loss (geometric-mean weights) with gradient."""
    return _loss(batch, "ssc-e")


def loss_oracle(batch: ContrastiveBatch, variant: str) -> float:
    """Reference loss value from literal nested loops, for verification only.

    Accumulates in extended precision (numpy long double) with no
    algebraic rearrangement; the only concession is an exponent shift when
    a term would overflow even the long-double range.
    """
    _check_variant(variant)
    z = np.asarray(batch.embeddings, dtype=np.longdouble)
    lam = np.asarray(batch.weights, dtype=np.longdouble)
    temp = np.longdouble(batch.temperature)
    y = batch.labels
    n = batch.size
    mask = batch.anchor_mask if batch.anchor_mask is not None else np.ones(n, dtype=bool)
    sims = z @ z.T  # raw dot products, extended precision

    total = np.longdouble(0.0)
    normalizer = np.longdouble(0.0)
    for i in range(n):
        pos = [j for j in range(n) if j != i and y[j] == y[i]]
        if not pos or not mask[i]:
            continue
        if variant == "ssc":
            normalizer = normalizer + lam[i]
        else:
            acc = np.longdouble(0.0)
            for p in pos:
                acc = acc + np.sqrt(lam[i] * lam[p])
            normalizer = normalizer + acc / len(pos)
        exponents = sims[i] / temp
        others = [j for j in range(n) if j != i]
        shift = np.longdouble(0.0)
        largest = max(float(exponents[j]) for j in others)
        if largest > _ORACLE_EXP_GUARD:
            shift = np.longdouble(largest)
        for p in pos:
            numerator = np.exp(exponents[p] - shift)
            denominator = np.longdouble(0.0)
            for j in others:
                denominator = denominator + np.exp(exponents[j] - shift)
            if variant == "ssc":
                w = lam[i]
            else:
                w = np.sqrt(lam[i] * lam[p])
            total = total + (-w / len(pos)) * np.log(numerator / denominator)
    if normalizer <= 0.0:
        raise ZeroNormalizerError(
            "total anchor weight is zero; no anchor with positives carries weight")
    return float(total / normalizer)


def finite_difference_error(arrays, grads, value, epsilon: float) -> float:
    """Max relative error between `grads` and central differences of `value()`.

    Each entry x of each array is set to x + epsilon and x - epsilon in place
    around a `value()` call and then restored. The relative error divides by
    max(|analytic|, |numeric|, 1e-8) so dead coordinates cannot blow it up.
    """
    worst = 0.0
    for arr, grad in zip(arrays, grads):
        for idx in np.ndindex(arr.shape):
            keep = arr[idx]
            arr[idx] = keep + epsilon
            up = value()
            arr[idx] = keep - epsilon
            down = value()
            arr[idx] = keep
            numeric = (up - down) / (2.0 * epsilon)
            denom = max(abs(grad[idx]), abs(numeric), 1e-8)
            worst = max(worst, abs(grad[idx] - numeric) / denom)
    return worst


def grad_check(batch: ContrastiveBatch, variant: str, epsilon: float = 1e-5) -> float:
    """finite_difference_error of the analytic gradient over the embeddings.

    The batch is left untouched: the differences are taken on a copy.
    """
    _check_variant(variant)
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError(f"epsilon must lie in [1e-7, 1e-3], got {epsilon}")
    z = batch.embeddings.copy()
    rest = (batch.labels, batch.weights, batch.temperature, batch.anchor_mask, variant)
    analytic = _evaluate(z, *rest)[1]
    return finite_difference_error([z], [analytic], lambda: _evaluate(z, *rest)[0], epsilon)
