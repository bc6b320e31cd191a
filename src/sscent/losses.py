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
with den = 1 + rem. E is formed in place in one buffer of at most _BLOCK
rows: no N x N array exists and nothing is kept between calls.

The gaps sum_p b_p (s_ip - m_i) of a block's rows are read before exp
overwrites it, with s_ii = 0 standing in for i; every summed term is <= 0,
so none cancels. A class of more than max(1, N // _BLOCK) rows is large and
owns a column of an (N, C + 1) matrix that holds b_p in row p, so one
(block x N) @ (N x (C + 1)) GEMM sums the gaps of all their rows, each read
at its own class's column. A row of any other class gathers b_p s_ip over
its class instead, at most max(1, N // _BLOCK) terms. As every large class
has more than N // _BLOCK rows, C + 1 <= _BLOCK whatever the labels: the
matrix is no larger than the row block and the GEMM costs at most _BLOCK
multiply-adds per entry of s, so a call stays O(N^2 d + N^2 _BLOCK). A
trainer batch's K real classes are normally large; the two views of each
rejected sample form a two-row class, large below N = 128 and gathered
above.

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

# rows per block: a block's (64, N) float array stays in L2 at N ~ 1000
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

    @np.errstate(over="ignore")  # for check_unit_rows
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
        in_range = (self.weights >= 0.0) & (self.weights <= 1.0)  # NaN is not
        if not np.logical_and.reduce(in_range):
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
    """-W Z - W^T Z, row i a_i (b_i z_i - B_c) + b_i (a_i z_i - A_c) with B_c
    and A_c the sums of b z and a z over i's class c (its own function so that
    these temporaries are freed before the row block exists)."""
    n, d = embeddings.shape
    a, b = a[:, None], b[:, None]
    # a bincount over (class, column) pairs sums every column
    index = (cls[:, None] * d + np.arange(d)).ravel()
    bz, az = b * embeddings, a * embeddings
    bz -= np.bincount(index, bz.ravel(), n * d).reshape(n, d)[cls]
    az -= np.bincount(index, az.ravel(), n * d).reshape(n, d)[cls]
    bz *= a
    az *= b
    bz += az
    return bz


def _classes(labels):
    """The stable sort order of the labels, each row's class (the first
    sorted position of its label) and each class's size (at that position)."""
    order = labels.argsort(kind="stable")
    cls = labels[order].searchsorted(labels)
    return order, cls, np.bincount(cls, minlength=len(labels))


def _gap_plan(order, cls, size, b):
    """How each row's gap sum_p b_p (s_ip - m_i) is summed in its block.

    A class of more than max(1, N // _BLOCK) rows is large and owns a column
    c of the (N, C + 1) matrix class_b, which holds b_p in row p; column 0
    is zero. column_at is each row's own column in the flattened
    (block, C + 1) product s @ class_b. Every other class with positives
    is gathered: member_at holds the flat block indices of the rows of the
    row's class, in as many slots as the largest such class has rows, and
    member_b their b_p, 0 in the slots past the row's class. Either pair is
    None if no class takes that way.
    """
    n = len(cls)
    block_row = np.arange(n) % _BLOCK  # each row's row in its block
    cut = max(1, n // _BLOCK)
    large = size > cut
    columns = members = None
    column = large.cumsum()  # the last entry counts the large classes
    if column[-1]:
        width = column[-1] + 1
        column *= large
        column = column[cls]
        class_b = np.zeros((n, width))
        class_b[np.arange(n), column] = b
        class_b[:, 0] = 0.0
        columns = class_b, block_row * width + column
    if cut > 1:  # else no class of 2 .. cut rows exists
        span = np.where(large | (size < 2), 0, size)[cls]
        slots = np.maximum.reduce(span)
        if slots:
            slot = np.arange(slots)
            member_at = order[np.minimum(np.add.outer(cls, slot), n - 1)]
            member_b = b[member_at] * np.greater.outer(span, slot)
            member_at += (block_row * n)[:, None]
            members = member_at, member_b
    return columns, members


def _pair_factors(cls, count, weights, anchor_mask, variant):
    """The factors a and b of W_ip = a_i b_p on P(i), the row sums
    r_i = sum_p W_ip and the contributing anchors."""
    n = len(cls)
    contributing = count > 0
    if anchor_mask is not None:
        contributing &= anchor_mask
    if variant == "ssc":
        a, b, positive_b = weights, np.ones(n), count  # sum_p b_p is |P(i)|
    else:
        a = b = np.sqrt(weights)
        positive_b = np.bincount(cls, b)[cls] - b
    a = np.divide(a, count, out=np.zeros(n), where=contributing)
    return a, b, a * positive_b, contributing


def _evaluate(embeddings, labels, weights, temperature, anchor_mask, variant):
    n = len(labels)
    order, cls, size = _classes(labels)
    count = size[cls] - 1
    a, b, r, _ = _pair_factors(cls, count, weights, anchor_mask, variant)
    normalizer = np.add.reduce(r)
    if normalizer <= 0.0:
        raise ZeroNormalizerError(
            "total anchor weight is zero; no anchor with positives carries weight")

    scaled = embeddings / temperature
    # a contiguous right operand: the GEMM of a transposed view has other
    # bits at another BLAS thread count
    columns = np.ascontiguousarray(embeddings.T)
    column_sums, member_sums = _gap_plan(order, cls, size, b)
    rem, gaps = np.empty(n), np.zeros(n)
    grad = _positive_sums(cls, a, b, embeddings)
    s_buf = np.empty((min(_BLOCK, n), n))
    row_at = np.arange(0, len(s_buf) * n, n)  # where a block row starts in flat
    for start in range(0, n, _BLOCK):
        block = slice(start, start + _BLOCK)
        s = s_buf[:n - start]
        flat = s.reshape(-1)
        diagonal = flat[start::n + 1]  # s_ii of the block's rows
        np.matmul(scaled[block], columns, out=s)
        diagonal.fill(-np.inf)
        top = row_at[:len(s)] + s.argmax(axis=1)
        np.subtract(s, flat[top][:, None], out=s)  # s - m: 0 at the argmax
        # -sum_p b_p (m_i - s_ip) of each row, from its class column or its
        # gather: s_ii = 0 stands in for i
        diagonal.fill(0.0)
        if column_sums:
            class_b, column_at = column_sums
            gaps[block] = (s @ class_b).take(column_at[block])
        if member_sums:
            member_at, member_b = member_sums
            gaps[block] += np.add.reduce(flat[member_at[block]] * member_b[block], axis=1)
        diagonal.fill(-np.inf)
        e = np.exp(s, out=s)
        # the argmax entry leaves the sum instead of a 1 being subtracted after it
        flat[top] = 0.0
        np.add.reduce(e, axis=1, out=rem[block])
        flat[top] = 1.0
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
