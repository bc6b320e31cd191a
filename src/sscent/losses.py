"""Pair-weighted supervised contrastive losses with analytic gradients.

Two variants share one vectorized core. Writing s_ij = z_i . z_j and
q_i(j) = softmax_{j != i}(s_ij / T):

* "ssc" weighs every pair of anchor i by the anchor weight alone,
      L = (1 / sum_k lam_k) * sum_i (-lam_i / |P(i)|) *
          sum_{p in P(i)} log( exp(s_ip/T) / sum_{j != i} exp(s_ij/T) )
  with the normalizer running over anchors that have positives.

* "ssc-e" weighs each pair by the geometric mean sqrt(lam_i * lam_p) and
  normalizes by the sum of the anchor-wise averaged pair weights
  lam_bar_i = (1/|P(i)|) * sum_p sqrt(lam_i * lam_p).

Both reduce to the same bits when all weights are equal to 1, and agree to
rounding error for any other constant weight.

The gradient is computed in closed form. With W[i,p] the per-pair weight
divided by |P(i)| (zero outside positive sets), r_i = sum_p W[i,p], and
M = -W - W^T + diag(r) Q + Q^T diag(r), the gradient of the loss with
respect to the embedding matrix Z is (M Z) / (norm * T).

loss_oracle recomputes either variant with literal nested loops and
extended-precision scalars; grad_check compares the analytic gradient
against central finite differences. Both exist purely for verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "EMBEDDING_NORM_TOL",
    "ContrastiveBatch",
    "LossResult",
    "ZeroNormalizerError",
    "grad_check",
    "loss_oracle",
    "ssc_e_loss",
    "ssc_loss",
]

EMBEDDING_NORM_TOL = 1e-6

_VARIANTS = ("ssc", "ssc-e")

# exp() on 80-bit long doubles overflows around 11356; shift above this.
_ORACLE_EXP_GUARD = 11000.0


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
        if not np.isfinite(self.temperature) or self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        norms = np.linalg.norm(self.embeddings, axis=1)
        worst = float(np.abs(norms - 1.0).max())
        if worst > EMBEDDING_NORM_TOL:
            raise ValueError(f"embedding rows must be unit norm (worst deviation {worst:.2e})")
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
    anchor_count: int  # anchors with a non-empty positive set that contributed


def _check_variant(variant: str) -> None:
    if variant not in _VARIANTS:
        raise ValueError(f"unknown loss variant {variant!r}, expected one of {_VARIANTS}")


def _pair_weights(labels, weights, anchor_mask, variant):
    """Per-pair weight matrix (already divided by |P(i)|) and the normalizer."""
    # dense N x N steps: a (rows, cols) pair list is slower and larger when one label dominates
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    count = same.sum(axis=1)
    contributing = count > 0
    if anchor_mask is not None:
        contributing &= anchor_mask
    same &= contributing[:, None]
    size = np.maximum(count, 1)[:, None]
    if variant == "ssc":
        wmat = same * (weights[:, None] / size)
        anchor = weights
    else:
        pair = np.multiply.outer(weights, weights)
        np.sqrt(pair, out=pair)
        # the positive pairs of every contributing row, row after row
        flat = pair[same]
        length = np.where(contributing, count, 0)
        start = np.cumsum(length) - length
        anchor = np.zeros(len(labels))
        # anchors with equal |P(i)| form one C-contiguous block whose row sums round as 1-d sums
        for c in np.unique(count[contributing]):
            group = np.flatnonzero(contributing & (count == c))
            anchor[group] = flat[start[group][:, None] + np.arange(c)].sum(axis=1) / c
        pair /= size
        pair *= same
        wmat = pair
    # cumsum adds the anchors one by one in index order, as a running total does
    normalizer = np.cumsum(np.where(contributing, anchor, 0.0))[-1]
    return wmat, contributing, normalizer


def _two_sum_rows(exps):
    """Row sums of `exps` as (hi, lo) pairs, bit for bit what a Knuth two-sum
    loop over the columns gives, plus the N x N buffer `run` for reuse.

    The loop keeps a running total hi and adds each column's rounding error
    (hi - (s - xv)) + (x - xv), with s = hi + x and xv = s - hi, to a second
    running total lo. np.cumsum (like np.add.accumulate) adds strictly left
    to right and rounds after every addition, unlike the pairwise np.sum,
    so its columns are the loop's successive hi. Each error term is then an
    elementwise function of two neighbouring running sums and one column,
    and accumulating the terms left to right gives the loop's lo. Column
    0's term is exactly zero (hi starts at 0, so s = xv = x) and is left out.
    """
    run = np.cumsum(exps, axis=1)
    xv = np.subtract(run[:, 1:], run[:, :-1])
    err = np.subtract(run[:, 1:], xv)
    np.subtract(run[:, :-1], err, out=err)
    np.subtract(exps[:, 1:], xv, out=xv)
    err += xv
    np.add.accumulate(err, axis=1, out=err)
    return run[:, -1].copy(), err[:, -1].copy(), run


def _evaluate(embeddings, labels, weights, temperature, anchor_mask, variant,
              want_grad=True):
    wmat, contributing, normalizer = _pair_weights(labels, weights, anchor_mask, variant)
    if normalizer <= 0.0:
        raise ZeroNormalizerError(
            "total anchor weight is zero; no anchor with positives carries weight")
    scaled = embeddings @ embeddings.T
    scaled /= temperature
    exps = scaled.copy()
    np.fill_diagonal(exps, -np.inf)
    row_max = exps.max(axis=1)
    exps -= row_max[:, None]
    np.exp(exps, out=exps)  # diagonal becomes exp(-inf) = 0

    # row sums as hi+lo pairs: a pair term is log(denom_i) - (s_ip - m_i),
    # and when that pair's own exp dominates the denominator the plain
    # difference cancels away the whole value. Keeping the low bits lets
    # the remainder denom_i - exp_ip survive, and log1p(remainder/exp_ip)
    # stays accurate however small the term.
    denom_hi, denom_lo, terms = _two_sum_rows(exps)
    denom = denom_hi + denom_lo
    lse = row_max + np.log(denom)

    np.subtract(denom_hi[:, None], exps, out=terms)
    terms += denom_lo[:, None]
    pos = exps > 0.0
    np.divide(terms, exps, out=terms, where=pos)
    np.log1p(terms, out=terms, where=pos)
    # underflowed exps (shifted logit < -745) fall back to the direct
    # form, which cannot cancel there: the term is >= hundreds
    np.subtract(lse[:, None], scaled, out=terms, where=~pos)
    terms *= wmat
    value = float(terms.sum() / normalizer)
    if not want_grad:
        return value, None, int(contributing.sum())
    exps /= denom[:, None]  # q, the softmax over j != i
    exps *= wmat.sum(axis=1)[:, None]
    coeff = np.negative(wmat, out=terms)
    coeff -= wmat.T
    coeff += exps
    coeff += exps.T
    grad = (coeff @ embeddings) / (normalizer * temperature)
    return value, grad, int(contributing.sum())


def ssc_loss(batch: ContrastiveBatch) -> LossResult:
    """Anchor-weighted contrastive loss with its analytic gradient."""
    value, grad, count = _evaluate(batch.embeddings, batch.labels, batch.weights,
                                   batch.temperature, batch.anchor_mask, "ssc")
    return LossResult(value=value, grad=grad, anchor_count=count)


def ssc_e_loss(batch: ContrastiveBatch) -> LossResult:
    """Pair-weighted contrastive loss (geometric-mean weights) with gradient."""
    value, grad, count = _evaluate(batch.embeddings, batch.labels, batch.weights,
                                   batch.temperature, batch.anchor_mask, "ssc-e")
    return LossResult(value=value, grad=grad, anchor_count=count)


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


def grad_check(batch: ContrastiveBatch, variant: str, epsilon: float = 1e-5) -> float:
    """Max relative error between the analytic gradient and central differences.

    Per coordinate, the relative error uses max(|analytic|, |numeric|, 1e-8)
    as the denominator so dead coordinates cannot blow up the ratio.
    """
    _check_variant(variant)
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError(f"epsilon must lie in [1e-7, 1e-3], got {epsilon}")
    _, analytic, _ = _evaluate(batch.embeddings, batch.labels, batch.weights,
                               batch.temperature, batch.anchor_mask, variant)
    z = batch.embeddings
    worst = 0.0
    for a in range(z.shape[0]):
        for k in range(z.shape[1]):
            bumped = z.copy()
            bumped[a, k] += epsilon
            up, _, _ = _evaluate(bumped, batch.labels, batch.weights,
                                 batch.temperature, batch.anchor_mask, variant,
                                 want_grad=False)
            bumped[a, k] -= 2.0 * epsilon
            down, _, _ = _evaluate(bumped, batch.labels, batch.weights,
                                   batch.temperature, batch.anchor_mask, variant,
                                   want_grad=False)
            numeric = (up - down) / (2.0 * epsilon)
            denom = max(abs(analytic[a, k]), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic[a, k] - numeric) / denom)
    return worst
