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

import threading
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

_TINY = np.finfo(np.float64).tiny


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


class _Workspace(threading.local):
    """The calling thread's N x N buffers, reused while N stays the same.

    Blocks this large go back to the OS when they are freed, so fresh
    arrays on every call fault in every page again. `floats` holds five
    (N, N) arrays: the scaled logits (0), exps (1) and three that are the
    two-sum's scratch first, then `ssc-e` class blocks (2, 3) and W (4),
    and last `terms` and `coeff` (2); `flags` holds `same` and then `pos`.
    """

    n = -1

    def arrays(self, n):
        if n != self.n:
            self.floats = self.flags = None  # release the old ones first
            self.floats = tuple(np.empty((5, n, n)))  # one block, five views
            self.flags = np.empty((n, n), dtype=bool)
            self.n = n
        return self.floats, self.flags


_WORK = _Workspace()


def _pair_weights(labels, weights, anchor_mask, variant):
    """Per-pair weight matrix (already divided by |P(i)|), the contributing
    anchors and the normalizer. W is array 4 of the thread's workspace."""
    n = len(labels)
    floats, same = _WORK.arrays(n)
    # dense N x N steps: a (rows, cols) pair list is slower and larger when one label dominates
    np.equal(labels[:, None], labels[None, :], out=same)
    same.reshape(-1)[::n + 1] = False
    count = same.sum(axis=1)
    contributing = count > 0
    if anchor_mask is not None:
        contributing &= anchor_mask
    same &= contributing[:, None]
    size = np.maximum(count, 1)[:, None]
    wmat = floats[4]
    if variant == "ssc":
        np.multiply(same, weights[:, None] / size, out=wmat)
        anchor = weights
    else:
        anchor = np.zeros(n)
        # a stable sort lays each label class out as one run, in index order,
        # and P(i) is i's class without i
        order = np.argsort(labels, kind="stable")
        ranked = count[order]
        for c in np.unique(ranked[ranked > 0]):
            members = order[ranked == c].reshape(-1, c + 1)
            g, k = members.shape
            lam = weights[members]
            block = floats[2].reshape(-1)[:g * k * k].reshape(g, k, k)
            np.multiply(lam[:, :, None], lam[:, None, :], out=block)
            np.sqrt(block, out=block)
            # after its first entry a k x k block splits into c rows of k + 1,
            # each ending on a diagonal entry; without those the entries run
            # row after row of the block, c per row
            rows = floats[3].reshape(-1)[:g * k * c].reshape(g, k, c)
            np.copyto(rows.reshape(g, c, k),
                      block.reshape(g, k * k)[:, 1:].reshape(g, c, k + 1)[:, :, :k])
            # C-contiguous rows of |P(i)| sum exactly like a 1-d sum over P(i)
            anchor[members] = rows.sum(axis=2) / c
        np.multiply.outer(weights, weights, out=wmat)
        np.sqrt(wmat, out=wmat)
        wmat /= size
        wmat *= same
    # cumsum adds the anchors one by one in index order, as a running total does
    normalizer = np.cumsum(np.where(contributing, anchor, 0.0))[-1]
    return wmat, contributing, normalizer


def _two_sum_rows(exps, scratch):
    """Row sums of the (R, C) `exps` as (hi, lo), bit for bit what a Knuth
    two-sum loop over the columns gives. `scratch` is three (C, R) arrays.

    The loop keeps a running total hi and adds each column's rounding error
    (hi - (s - xv)) + (x - xv), with s = hi + x and xv = s - hi, to a second
    running total lo. On the transpose, np.cumsum along axis 0 adds the rows
    strictly in order and rounds after every addition, so row j holds the
    loop's hi after column j. Each error term is then an elementwise
    function of two neighbouring running sums and one column, and a sum
    over the outer axis adds the terms row after row, exactly like lo (a sum
    along the contiguous axis is pairwise and would not). Column 0's term is
    exactly zero (hi starts at 0, so s = xv = x) and is left out.
    """
    xt, run, err = scratch
    np.copyto(xt, exps.T)
    np.cumsum(xt, axis=0, out=run)
    x, xv = xt[1:], err[1:]
    np.subtract(run[1:], run[:-1], out=xv)
    np.subtract(x, xv, out=x)
    np.subtract(run[1:], xv, out=xv)
    np.subtract(run[:-1], xv, out=xv)
    xv += x
    return run[-1].copy(), xv.sum(axis=0)


def _evaluate(embeddings, labels, weights, temperature, anchor_mask, variant,
              want_grad=True):
    n = len(labels)
    floats, pos = _WORK.arrays(n)
    scaled, exps, terms = floats[:3]
    np.matmul(embeddings, embeddings.T, out=scaled)
    scaled /= temperature
    # the row maxima skip the diagonal, which is restored afterwards
    diagonal = scaled.reshape(-1)[::n + 1]
    kept = diagonal.copy()
    diagonal[:] = -np.inf
    row_max = scaled.max(axis=1)
    np.subtract(scaled, row_max[:, None], out=exps)
    np.exp(exps, out=exps)  # diagonal becomes exp(-inf) = 0
    diagonal[:] = kept

    # row sums as hi+lo pairs: a pair term is log(denom_i) - (s_ip - m_i),
    # and when that pair's own exp dominates the denominator the plain
    # difference cancels away the whole value. Keeping the low bits lets
    # the remainder denom_i - exp_ip survive, and log1p(remainder/exp_ip)
    # stays accurate however small the term.
    denom_hi, denom_lo = _two_sum_rows(exps, floats[2:])
    # W and the class blocks take the two-sum's scratch once it is done
    wmat, contributing, normalizer = _pair_weights(labels, weights, anchor_mask, variant)
    if normalizer <= 0.0:
        raise ZeroNormalizerError(
            "total anchor weight is zero; no anchor with positives carries weight")
    denom = denom_hi + denom_lo
    lse = row_max + np.log(denom)

    np.subtract(denom_hi[:, None], exps, out=terms)
    terms += denom_lo[:, None]
    # the remainder is below N (N - 1 terms of at most 1), so remainder/exp
    # is finite for exps of at least N * tiny; smaller ones (shifted logit
    # below about -700) take the direct form, which cannot cancel there:
    # the term is hundreds
    np.greater_equal(exps, n * _TINY, out=pos)
    np.divide(terms, exps, out=terms, where=pos)
    np.log1p(terms, out=terms, where=pos)
    np.subtract(lse[:, None], scaled, out=terms, where=np.logical_not(pos, out=pos))
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
