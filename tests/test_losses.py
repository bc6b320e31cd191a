"""Tests for both contrastive loss variants, the oracle, and gradients."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from sscent import (
    ContrastiveBatch,
    ZeroNormalizerError,
    grad_check,
    loss_oracle,
    ssc_e_loss,
    ssc_loss,
)

from sscent.encoder import EncoderConfig, MlpEncoder
from sscent.losses import (_BLOCK, _classes, _evaluate, _gap_plan, _pair_factors,
                           finite_difference_error)

from conftest import circle_batch, random_batch, unit_rows

# Reference values for the four-point circle fixture (angles 0.3, 1.2,
# 2.1, 4.0 rad; labels 0,0,1,1; T=0.5), frozen from a 50-digit
# computation of the defining sums.
CIRCLE_UNIFORM = 0.8998998808447269
CIRCLE_ANCHOR_MIXED = 1.0542209720065436   # per-anchor weights 1, .5, 1, .2
CIRCLE_PAIR_MIXED = 0.801612876951586      # same weights, pair-geometric form
MIXED_WEIGHTS = [1.0, 0.5, 1.0, 0.2]


# ---------------------------------------------------------------------------
# batch validation


def test_batch_rejects_non_unit_rows():
    z = np.array([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValueError, match=r"^embedding row 1 must be unit norm \(got 2\.0\)$"):
        ContrastiveBatch(z, np.array([0, 0]), np.ones(2), 0.5)


def test_batch_rejects_bad_weights_and_temperature():
    z = np.eye(2)
    with pytest.raises(ValueError):
        ContrastiveBatch(z, np.array([0, 0]), np.array([0.5, 1.5]), 0.5)
    with pytest.raises(ValueError):
        ContrastiveBatch(z, np.array([0, 0]), np.array([-0.1, 0.5]), 0.5)
    with pytest.raises(ValueError):
        ContrastiveBatch(z, np.array([0, 0]), np.ones(2), 0.0)
    with pytest.raises(ValueError):
        ContrastiveBatch(z[:1], np.array([0]), np.ones(1), 0.5)


def test_batch_names_a_non_finite_embedding_row_and_a_nan_weight():
    z = np.eye(3)
    z[2, 1] = np.nan
    with pytest.raises(ValueError, match=r"^embedding row 2 must contain only finite values$"):
        ContrastiveBatch(z, np.array([0, 0, 1]), np.ones(3), 0.5)
    with pytest.raises(ValueError, match=r"^weights must lie in \[0, 1\]$"):
        ContrastiveBatch(np.eye(3), np.array([0, 0, 1]), np.array([1.0, np.nan, 1.0]), 0.5)


def test_batch_rejects_mismatched_anchor_mask():
    z = np.eye(2)
    with pytest.raises(ValueError):
        ContrastiveBatch(z, np.array([0, 0]), np.ones(2), 0.5,
                         anchor_mask=np.array([True]))


# ---------------------------------------------------------------------------
# pair weights and the positive sets


def reference_pair_weights(labels, weights, anchor_mask, variant):
    """Dense pair-weight matrix from a per-anchor loop over the positive sets P(i).

    P(i) holds the sorted indices j != i with labels[j] == labels[i]; each
    anchor's mean pair weight is a 1-d sum over P(i) alone, and the
    normalizer adds the anchors one by one in index order.
    """
    n = len(labels)
    mask = anchor_mask if anchor_mask is not None else np.ones(n, dtype=bool)
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    positives = [np.flatnonzero(row) for row in same]
    wmat = np.zeros((n, n))
    contributing = np.zeros(n, dtype=bool)
    normalizer = 0.0
    for i, pos in enumerate(positives):
        if pos.size == 0 or not mask[i]:
            continue
        contributing[i] = True
        if variant == "ssc":
            wmat[i, pos] = weights[i] / pos.size
            normalizer += weights[i]
        else:
            pair = np.sqrt(weights[i] * weights[pos])
            wmat[i, pos] = pair / pos.size
            normalizer += pair.sum() / pos.size
    return wmat, contributing, normalizer


# (B, mu) of a trainer batch with K=3 prototypes: N = B + 2*mu*B + K
LAYOUTS = {6: (1, 1), 123: (8, 7), 963: (64, 7)}


def trainer_layout(rng, n, regime, lambda_reject=0.2, w_min=0.2, k=3, shape=None):
    """Labels, weights, hidden classes and pseudo-label kinds of a trainer batch.

    Rows are [labeled | view 1 | view 2 | prototypes], as assemble_batch
    lays them out, with (B, mu) = `shape`, by default LAYOUTS[n]. Unlabeled
    kinds are 0 (confident), 1 (entropy-selected) or 2 (rejected); a rejected
    sample gets the unique label k + position, shared by its two views.
    Regimes: "typical" mixes all three kinds, "collapsed" gives every
    unlabeled view label 0, "rejected" rejects all.
    """
    b, mu = shape or LAYOUTS[n]
    mu_b = mu * b
    truth = rng.integers(0, k, size=b + mu_b)
    kinds = {"typical": rng.integers(0, 3, size=mu_b),
             "collapsed": rng.integers(0, 2, size=mu_b),
             "rejected": np.full(mu_b, 2)}[regime]
    assigned = np.zeros(mu_b, dtype=int) if regime == "collapsed" else truth[b:]
    labels_u = np.where(kinds == 2, k + np.arange(mu_b), assigned)
    weights_u = np.select([kinds == 0, kinds == 1],
                          [1.0, rng.uniform(w_min, 1.0, size=mu_b)], lambda_reject)
    labels = np.concatenate([truth[:b], labels_u, labels_u, np.arange(k)])
    weights = np.concatenate([np.ones(b), weights_u, weights_u, np.ones(k)])
    return labels, weights, truth, kinds


def factored_pair_weights(labels, weights, anchor_mask, variant):
    """The kernel's W = a b^T on the positive sets, its anchors and normalizer."""
    _, cls, size = _classes(labels)
    a, b, r, contributing = _pair_factors(cls, size[cls] - 1, weights, anchor_mask, variant)
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    return np.outer(a, b) * same, contributing, np.add.reduce(r)


@pytest.mark.parametrize("regime", ["typical", "collapsed", "rejected"])
@pytest.mark.parametrize("n", sorted(LAYOUTS))
@pytest.mark.parametrize("variant", ["ssc", "ssc-e"])
def test_pair_weights_match_per_anchor_loop(variant, n, regime):
    # a_i b_p rounds once more than the loop's weight (sqrt(lam_i) sqrt(lam_p)
    # against sqrt(lam_i lam_p) for "ssc-e", (lam/|P|)|P| in r_i), so entries
    # agree to a few ulps and the normalizer to its summation order; zeros and
    # the contributing anchors are exact
    rng = np.random.default_rng(45)
    eps = np.finfo(float).eps
    for trial in range(30 if n == 6 else 4):
        zero = trial % 2 == 1
        labels, weights, _, kinds = trainer_layout(
            rng, n, regime, lambda_reject=0.0 if zero else 0.2,
            w_min=0.0 if zero else 0.2)
        b, mu = LAYOUTS[n]
        selected = np.concatenate([np.zeros(b, dtype=bool), kinds == 1, kinds == 1,
                                   np.zeros(3, dtype=bool)])
        for w in (weights, np.ones(n)):
            for mask in (None, ~selected):
                fast = factored_pair_weights(labels, w, mask, variant)
                slow = reference_pair_weights(labels, w, mask, variant)
                np.testing.assert_allclose(fast[0], slow[0], rtol=4 * eps, atol=0)
                assert np.array_equal(fast[1], slow[1])
                assert fast[2] == pytest.approx(slow[2], rel=n * eps, abs=0)
        # with unit weights and no mask, the support of W is the positive-set
        # relation itself: symmetric, empty on the diagonal
        support = factored_pair_weights(labels, np.ones(n), None, variant)[0] > 0
        assert np.array_equal(support, support.T)
        assert not support.diagonal().any()


# P(i) holds the other rows with i's label


def positive_set_batch(labels):
    z = unit_rows(np.random.default_rng(56), len(labels), 4)
    return ContrastiveBatch(z, np.array(labels), np.ones(len(labels)), 0.5)


def assert_matches_oracle(batch):
    for variant, fn in (("ssc", ssc_loss), ("ssc-e", ssc_e_loss)):
        oracle = loss_oracle(batch, variant)
        assert abs(fn(batch).value - oracle) / abs(oracle) < 1e-9


def test_positive_index_mixed_labels():
    batch = positive_set_batch([0, 0, 1])  # a unique label has no positives
    assert_matches_oracle(batch)


def test_positive_index_all_distinct_and_all_same():
    distinct = positive_set_batch([3, 1, 2])
    for fn in (ssc_loss, ssc_e_loss):
        with pytest.raises(ZeroNormalizerError):
            fn(distinct)
    same = positive_set_batch([7, 7, 7])
    assert_matches_oracle(same)


# ---------------------------------------------------------------------------
# class layouts: each way the kernel sums a row's positives


# class sizes of the hand-made layouts, in label order before shuffling; a
# class of more than max(1, N // _BLOCK) rows owns a class-sum column, the
# rows of a smaller one gather their class
CLASS_SIZES = {
    # N = 130: every pair is gathered, no class-sum column
    "pairs-and-singletons": [2] * 60 + [1] * 10,
    # N = 23: every class with positives owns a column
    "mixed": [1, 2, 3, 1, 5, 2, 4, 2, 3],
    # N = 195: classes of 2 and 3 rows gathered, larger ones in columns
    "gathered-and-columns": [3] * 30 + [2] * 20 + [1] * 10 + [4, 5, 6, 8, 12, 20],
}
CLASS_LAYOUTS = [*CLASS_SIZES, "ten-class-trainer"]


def class_layout_batch(rng, layout, masked):
    """A batch of unit rows in one of CLASS_LAYOUTS, weights in [0.2, 1].

    "ten-class-trainer" is a typical trainer batch with B=4, mu=2 and K=10
    prototypes, masked as under gate.positives_only (its entropy-selected
    views are no anchors); the other layouts shuffle classes of the given
    sizes and mask a random third of the rows.
    """
    if layout == "ten-class-trainer":
        b, mu, k = 4, 2, 10
        labels, weights, _, kinds = trainer_layout(rng, None, "typical", k=k, shape=(b, mu))
        kept = kinds != 1
        mask = np.concatenate([np.ones(b, dtype=bool), kept, kept, np.ones(k, dtype=bool)])
    else:
        sizes = CLASS_SIZES[layout]
        labels = rng.permutation(np.repeat(rng.permutation(200)[:len(sizes)], sizes))
        weights = rng.uniform(0.2, 1.0, size=labels.size)
        mask = rng.random(labels.size) >= 1 / 3
    z = unit_rows(rng, labels.size, 8)
    return ContrastiveBatch(z, labels, weights, 0.3, anchor_mask=mask if masked else None)


def summed_rows(labels, b):
    """For each row, {p: weight} of the s_ip its gap sums, from _gap_plan."""
    n = labels.size
    order, cls, size = _classes(labels)
    column_sums, member_sums = _gap_plan(order, cls, size, b)
    rows = [{} for _ in range(n)]
    if column_sums:
        class_b, column_at = column_sums
        width = class_b.shape[1]
        assert width <= _BLOCK
        for i in range(n):
            c = column_at[i] - i % _BLOCK * width
            rows[i].update({p: class_b[p, c] for p in np.flatnonzero(class_b[:, c])})
    if member_sums:
        member_at, member_b = member_sums
        assert member_at.shape[1] <= max(1, n // _BLOCK)
        for i in range(n):
            for at, weight in zip(member_at[i] - i % _BLOCK * n, member_b[i]):
                if weight:
                    assert at not in rows[i]  # one way per row
                    rows[i][at] = weight
    return rows, column_sums is not None, member_sums is not None


def test_class_layouts_take_each_positive_sum_path():
    rng = np.random.default_rng(59)
    ways = {"pairs-and-singletons": (False, True), "mixed": (True, False),
            "gathered-and-columns": (True, True), "ten-class-trainer": (True, False)}
    for layout in CLASS_LAYOUTS:
        labels = class_layout_batch(rng, layout, False).labels
        b = rng.uniform(0.2, 1.0, size=labels.size)
        rows, columned, gathered = summed_rows(labels, b)
        assert (columned, gathered) == ways[layout]
        # a row with positives sums b_p over its whole class (s_ii is 0 then);
        # a singleton sums nothing
        for i, summed in enumerate(rows):
            same = np.flatnonzero(labels == labels[i])
            expect = {p: b[p] for p in same} if same.size > 1 else {}
            assert summed == expect


# ---------------------------------------------------------------------------
# loss values


def test_two_sample_positive_pair_loss_is_zero():
    z = unit_rows(np.random.default_rng(32), 2, 3)
    batch = ContrastiveBatch(z, np.array([5, 5]), np.ones(2), 0.3)
    assert ssc_loss(batch).value == 0.0
    assert ssc_e_loss(batch).value == 0.0
    assert loss_oracle(batch, "ssc") == 0.0


def test_circle_fixture_uniform_weights():
    batch = circle_batch()
    for fn in (ssc_loss, ssc_e_loss):
        res = fn(batch)
        assert abs(res.value - CIRCLE_UNIFORM) / CIRCLE_UNIFORM < 1e-12
    for variant in ("ssc", "ssc-e"):
        oracle = loss_oracle(batch, variant)
        assert abs(oracle - CIRCLE_UNIFORM) / CIRCLE_UNIFORM < 1e-9


def test_circle_fixture_mixed_weights():
    batch = circle_batch(weights=MIXED_WEIGHTS)
    anchor = ssc_loss(batch).value
    pair = ssc_e_loss(batch).value
    assert abs(anchor - CIRCLE_ANCHOR_MIXED) / CIRCLE_ANCHOR_MIXED < 1e-12
    assert abs(pair - CIRCLE_PAIR_MIXED) / CIRCLE_PAIR_MIXED < 1e-12
    # the two weighting schemes genuinely differ here
    assert abs(anchor - pair) > 0.1


def test_uniform_weights_reduce_pair_form_to_anchor_form():
    rng = np.random.default_rng(33)
    for _ in range(200):
        batch = random_batch(rng)
        uniform = ContrastiveBatch(batch.embeddings, batch.labels,
                                   np.ones(batch.size), batch.temperature)
        a = ssc_loss(uniform)
        b = ssc_e_loss(uniform)
        assert a.value == b.value  # sqrt(1*1) keeps the arithmetic identical
        assert np.array_equal(a.grad, b.grad)


def test_constant_weights_reduce_within_tolerance():
    rng = np.random.default_rng(34)
    for c in (0.25, 0.37, 0.9):
        for _ in range(50):
            batch = random_batch(rng)
            const = ContrastiveBatch(batch.embeddings, batch.labels,
                                     np.full(batch.size, c), batch.temperature)
            a = ssc_loss(const).value
            b = ssc_e_loss(const).value
            assert abs(a - b) / max(abs(a), 1e-12) < 1e-12


def test_matches_oracle_on_random_batches():
    rng = np.random.default_rng(35)
    batches = [random_batch(rng, zero_weight=bool(rng.integers(0, 2))) for _ in range(100)]
    batches += [class_layout_batch(rng, layout, masked) for layout in CLASS_LAYOUTS
                for masked in (False, True) for _ in range(5)]
    for batch in batches:
        for variant, fn in (("ssc", ssc_loss), ("ssc-e", ssc_e_loss)):
            fast = fn(batch).value
            slow = loss_oracle(batch, variant)
            assert abs(fast - slow) / max(abs(slow), 1e-12) < 1e-9


def longdouble_loss(batch, variant):
    """Whole-matrix long-double reference: the direct form log(e_ip / sum_j e_ij).

    Returns the loss and the matrix of exp terms (zero on the diagonal).
    Unit rows keep every exponent within 1/T, far inside long-double range.
    """
    z = batch.embeddings.astype(np.longdouble)
    lam = batch.weights.astype(np.longdouble)
    same = batch.labels[:, None] == batch.labels[None, :]
    np.fill_diagonal(same, False)
    contributing = same.any(axis=1)
    if batch.anchor_mask is not None:
        contributing &= batch.anchor_mask
    same &= contributing[:, None]
    if variant == "ssc":
        pair = np.broadcast_to(lam[:, None], same.shape)
    else:
        pair = np.sqrt(np.multiply.outer(lam, lam))
    pair = np.where(same, pair / np.maximum(same.sum(axis=1), 1)[:, None], 0)
    e = np.exp((z @ z.T) / np.longdouble(batch.temperature))
    np.fill_diagonal(e, 0)
    log_q = np.log(np.where(same, e, 1) / e.sum(axis=1, keepdims=True))
    return float(-(pair * log_q).sum() / pair.sum()), e


def clustered_batch(rng, n, temperature, d=16, noise=0.05, k=3):
    """A "typical" trainer batch of unit rows, noise 0.05 around K=3 centres.

    Labeled rows and the views of accepted samples sit around their hidden
    class centre, prototypes are the centres themselves, and the two views
    of a rejected sample sit around a random direction of their own, so at
    a low temperature each is the other's dominant term.
    """
    labels, weights, truth, kinds = trainer_layout(rng, n, "typical")
    b, mu = LAYOUTS[n]
    mu_b = mu * b
    centres = rng.normal(size=(k + mu_b, d))
    centres /= np.linalg.norm(centres, axis=1, keepdims=True)
    home = np.concatenate([truth[:b], np.where(kinds == 2, k + np.arange(mu_b), truth[b:])])
    rows = np.concatenate([home, home[b:]])
    z = np.vstack([centres[rows] + noise * rng.normal(size=(rows.size, d)), centres[:k]])
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return ContrastiveBatch(z, labels, weights, temperature)


@pytest.mark.parametrize("temperature", [0.1, 0.01])
@pytest.mark.parametrize("n", [123, 963])
def test_matches_longdouble_reference_at_trainer_scale(n, temperature):
    batch = clustered_batch(np.random.default_rng(46), n, temperature)
    for variant, fn in (("ssc", ssc_loss), ("ssc-e", ssc_e_loss)):
        reference, e = longdouble_loss(batch, variant)
        assert abs(fn(batch).value - reference) / abs(reference) <= 1e-9
    if temperature == 0.01:
        # the cancellation regime: one positive term carries its whole row
        same = batch.labels[:, None] == batch.labels[None, :]
        np.fill_diagonal(same, False)
        share = np.where(same, e, 0) / e.sum(axis=1, keepdims=True)
        assert share.max() > 1 - 1e-6


def twin_pairs_batch(rng, noise, pairs=481, d=16, temperature=0.01):
    """`pairs` random directions, each taken twice with `noise` added.

    A row's twin is its only positive and carries all but about 1e-9 of its
    denominator, so every pair term, and the loss, is about 1e-9.
    """
    z = np.repeat(unit_rows(rng, pairs, d), 2, axis=0)
    z += noise * rng.normal(size=z.shape)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return ContrastiveBatch(z, np.repeat(np.arange(pairs), 2),
                            rng.uniform(0.2, 1.0, size=2 * pairs), temperature)


@pytest.mark.parametrize("noise", [0.01, 0.001])
def test_matches_longdouble_reference_where_twins_dominate(noise):
    # a form that subtracts log(1) from log(denominator) would keep only the
    # last bits of a loss this small
    batch = twin_pairs_batch(np.random.default_rng(57), noise)
    for variant, fn in (("ssc", ssc_loss), ("ssc-e", ssc_e_loss)):
        reference, _ = longdouble_loss(batch, variant)
        assert 0.0 < reference < 1e-8
        assert abs(fn(batch).value - reference) / reference <= 1e-9


def tied_rows_batch(ties=400, temperature=0.002):
    """`ties` equal rows and one row at shifted logit -706 from them.

    Each tied row's denominator is `ties`, so remainder / exp overflows
    there although exp(-706) is a normal number.
    """
    s = 1.0 - 706 * temperature
    z = np.zeros((ties + 2, 4))
    z[:ties, 0] = 1.0
    z[ties] = [s, math.sqrt(1.0 - s * s), 0.0, 0.0]
    z[ties + 1, 2] = 1.0
    labels = np.repeat([0, 1], [ties, 2])
    return ContrastiveBatch(z, labels, np.ones(ties + 2), temperature)


def test_low_temperature_loss_finite_where_exp_nearly_underflows():
    # at T = 0.002 some shifted logits fall in (-745, -708), where exp() is
    # subnormal
    rng = np.random.default_rng(50)
    batches = []
    for _ in range(20):
        labels, weights, _, _ = trainer_layout(rng, 123, "typical")
        batches.append(ContrastiveBatch(unit_rows(rng, 123, 16), labels, weights, 0.002))
    near_subnormal = 0
    for batch in batches + [tied_rows_batch()]:
        logits = batch.embeddings @ batch.embeddings.T / batch.temperature
        np.fill_diagonal(logits, -np.inf)
        shifted = logits - logits.max(axis=1, keepdims=True)
        near_subnormal += int(((shifted > -745) & (shifted < -708)).sum())
        for variant, fn in (("ssc", ssc_loss), ("ssc-e", ssc_e_loss)):
            result = fn(batch)
            assert np.isfinite(result.value)
            assert np.all(np.isfinite(result.grad))
            reference, _ = longdouble_loss(batch, variant)
            assert abs(result.value - reference) / abs(reference) <= 1e-9
    assert near_subnormal > 0


# ---------------------------------------------------------------------------
# the row-blocked kernel against a dense float64 reference


def loop_two_sum(exps):
    """Knuth two-sum over the columns of `exps`: one running (hi, lo) per row."""
    denom_hi = np.zeros(exps.shape[0])
    denom_lo = np.zeros(exps.shape[0])
    for col in range(exps.shape[1]):
        x = exps[:, col]
        s = denom_hi + x
        xv = s - denom_hi
        denom_lo += (denom_hi - (s - xv)) + (x - xv)
        denom_hi = s
    return denom_hi, denom_lo


def reference_evaluate(embeddings, labels, weights, temperature, anchor_mask, variant):
    """The loss on whole N x N float64 matrices, the oracle of _evaluate.

    Pair weights come from the per-anchor loop, the row sums from
    loop_two_sum, and each pair term is log1p(remainder / exp) where exp is
    normal, so the value stays accurate where one term dominates its row.
    """
    wmat, _, normalizer = reference_pair_weights(labels, weights, anchor_mask, variant)
    if normalizer <= 0.0:
        raise ZeroNormalizerError("total anchor weight is zero")
    scaled = (embeddings @ embeddings.T) / temperature
    off_diag = scaled.copy()
    np.fill_diagonal(off_diag, -np.inf)
    row_max = off_diag.max(axis=1)
    exps = np.exp(off_diag - row_max[:, None])
    denom_hi, denom_lo = loop_two_sum(exps)
    denom = denom_hi + denom_lo
    lse = row_max + np.log(denom)
    rem = (denom_hi[:, None] - exps) + denom_lo[:, None]
    # rem < N, so rem / exps is finite wherever exps >= N * tiny
    pos = exps >= len(labels) * np.finfo(np.float64).tiny
    ratio = np.where(pos, rem, 0.0) / np.where(pos, exps, 1.0)
    terms = np.where(pos, np.log1p(ratio), lse[:, None] - scaled)
    value = float((wmat * terms).sum() / normalizer)
    q = exps / denom[:, None]
    weighted_q = wmat.sum(axis=1)[:, None] * q
    coeff = -wmat - wmat.T + weighted_q + weighted_q.T
    grad = (coeff @ embeddings) / (normalizer * temperature)
    return value, grad, exps


def kernel_cases(rng, n, regime):
    """Labels, weight vectors and anchor masks of a batch of N rows.

    N = 2 (regime "pair") is one positive pair; larger N are trainer layouts
    in the given regime of trainer_layout, each with
    paper-style weights, with zero weights planted, and with unit weights,
    and each with no mask and with the positives-only mask.
    """
    if n == 2:
        labels = np.array([4, 4])
        for w in (rng.uniform(0.2, 1.0, size=2), np.array([1.0, 0.0]), np.ones(2)):
            yield labels, w, None
        return
    for zero in (False, True):
        labels, weights, _, kinds = trainer_layout(
            rng, n, regime, lambda_reject=0.0 if zero else 0.2, w_min=0.0 if zero else 0.2)
        b, mu = LAYOUTS[n]
        kept = kinds != 1
        mask = np.concatenate([np.ones(b, dtype=bool), kept, kept, np.ones(3, dtype=bool)])
        for w in ((weights, np.ones(n)) if zero else (weights,)):
            yield labels, w, None
            yield labels, w, mask


def antipodal_rows(rng, n, d=8, noise=0.01):
    """Unit rows near the six directions +-e_0, +-e_1, +-e_2.

    Similarities cluster near 1, 0 and -1, so at T = 0.002 a row's shifted
    logits cluster near 0, -500 and -1000: the last underflow exp() to an
    exact zero while no logit comes near the subnormal range.
    """
    axes = np.vstack([np.eye(d)[:3], -np.eye(d)[:3]])
    z = axes[rng.integers(0, 6, size=n)] + noise * rng.normal(size=(n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


@pytest.mark.parametrize("temperature", [0.1, 0.01, 0.002])
@pytest.mark.parametrize("n, regime", [(2, "pair")] + [
    (n, regime) for n in sorted(LAYOUTS) for regime in ("typical", "collapsed")])
def test_evaluate_matches_column_loop_reference(n, regime, temperature):
    rng = np.random.default_rng(47)
    underflowed = 0
    for labels, weights, mask in kernel_cases(rng, n, regime):
        if temperature == 0.002:
            z = antipodal_rows(rng, n)
        else:
            z = unit_rows(rng, n, 16)
        for variant in ("ssc", "ssc-e"):
            args = (z, labels, weights, temperature, mask, variant)
            try:
                value, grad, exps = reference_evaluate(*args)
            except ZeroNormalizerError:
                with pytest.raises(ZeroNormalizerError):
                    _evaluate(*args)
                continue
            fast = _evaluate(*args)
            assert abs(fast[0] - value) <= 1e-12 * abs(value)
            assert np.max(np.abs(fast[1] - grad)) <= 1e-12 * max(1.0, np.max(np.abs(grad)))
            np.fill_diagonal(exps, 1.0)
            underflowed += int((exps == 0.0).sum())
    # the direct-form fallback for exp() underflow is exercised
    assert (underflowed > 0) == (temperature == 0.002 and n > 2)


@pytest.mark.parametrize("fn", [ssc_loss, ssc_e_loss])
def test_loss_peak_memory_at_paper_shape(fn):
    # at most seven N x N float64 buffers alive at once (N = 963, ~52 MB),
    # after a call at N = 4
    rng = np.random.default_rng(49)
    n = 963
    labels, weights, _, _ = trainer_layout(rng, n, "typical")
    batch = ContrastiveBatch(unit_rows(rng, n, 16), labels, weights, 0.1)
    fn(circle_batch())
    tracemalloc.start()
    try:
        fn(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * n * n * 8


@pytest.mark.parametrize("fn", [ssc_loss, ssc_e_loss])
def test_warm_loss_call_allocates_no_square_array(fn):
    # a warm call holds row blocks only
    rng = np.random.default_rng(51)
    n = 963
    labels, weights, _, _ = trainer_layout(rng, n, "typical")
    batch = ContrastiveBatch(unit_rows(rng, n, 16), labels, weights, 0.1)
    fn(batch)
    tracemalloc.start()
    try:
        fn(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * n * n * 8


def paper_batches(rng, sizes=(123, 963)):
    batches = []
    for n in sizes:
        labels, weights, _, _ = trainer_layout(rng, n, "typical")
        batches.append(ContrastiveBatch(unit_rows(rng, n, 16), labels, weights, 0.1))
    return batches


def test_threads_alternating_sizes_match_sequential_calls():
    batches = paper_batches(np.random.default_rng(52))
    fns = (ssc_loss, ssc_e_loss)
    expected = [[fn(batch) for batch in batches] for fn in fns]
    results = [[] for _ in range(3)]  # more threads than cores

    def work(slot):
        for rep in range(2):
            for i in ((0, 1) if (slot + rep) % 2 == 0 else (1, 0)):
                for v, fn in enumerate(fns):
                    results[slot].append((v, i, fn(batches[i])))

    threads = [threading.Thread(target=work, args=(slot,)) for slot in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for done in results:
        assert len(done) == 8
        for v, i, result in done:
            assert result.value == expected[v][i].value
            assert np.array_equal(result.grad, expected[v][i].grad)


def test_results_survive_later_calls_and_resizes():
    small, large = paper_batches(np.random.default_rng(53))
    first = ssc_e_loss(large)
    grad = first.grad.copy()
    ssc_loss(large)
    ssc_e_loss(small)
    assert np.array_equal(first.grad, grad)
    # a call at N = 6 right after one at N = 963 matches the oracle, and a
    # call that did not follow one
    rng = np.random.default_rng(54)
    for labels, weights, mask in kernel_cases(rng, 6, "typical"):
        z = unit_rows(rng, 6, 16)
        for variant in ("ssc", "ssc-e"):
            args = (z, labels, weights, 0.1, mask, variant)
            try:
                fresh = _evaluate(*args)
            except ZeroNormalizerError:
                continue
            ssc_loss(large)
            after = _evaluate(*args)
            oracle = loss_oracle(ContrastiveBatch(*args[:4], anchor_mask=mask), variant)
            assert abs(after[0] - oracle) / max(abs(oracle), 1e-12) < 1e-9
            assert after[0] == fresh[0]
            assert np.array_equal(after[1], fresh[1])


def test_pair_weight_zeroes_terms_with_dead_sample():
    # three samples share a label; the middle one has weight zero, so in
    # the pair-weighted form only the (0,2)/(2,0) terms survive
    z = unit_rows(np.random.default_rng(36), 3, 4)
    batch = ContrastiveBatch(z, np.array([0, 0, 0]),
                             np.array([1.0, 0.0, 1.0]), 0.4)
    sims = z @ z.T / 0.4
    expected = 0.0
    for i, p in ((0, 2), (2, 0)):
        others = [j for j in range(3) if j != i]
        log_q = sims[i, p] - math.log(sum(math.exp(sims[i, j]) for j in others))
        expected += -0.5 * log_q  # pair weight 1, |P(i)| = 2
    expected /= 1.0  # normalizer: mean pair weights 0.5 + 0 + 0.5
    value = ssc_e_loss(batch).value
    assert abs(value - expected) < 1e-12


def test_loss_ignores_weight_of_sample_with_no_positives():
    # sample 2 has a unique label; its weight never enters either form,
    # though the sample still serves as a contrast term
    z = unit_rows(np.random.default_rng(37), 3, 5)
    labels = np.array([1, 1, 4])
    values = []
    for w2 in (0.0, 0.3, 1.0):
        batch = ContrastiveBatch(z, labels, np.array([0.8, 0.6, w2]), 0.7)
        values.append((ssc_loss(batch).value, ssc_e_loss(batch).value))
    assert values[0] == values[1] == values[2]
    # but removing the sample changes the denominators
    smaller = ContrastiveBatch(z[:2], labels[:2], np.array([0.8, 0.6]), 0.7)
    assert abs(ssc_loss(smaller).value - values[0][0]) > 1e-6


def test_fully_positive_batch_approaches_log_n_minus_one():
    # at very high temperature every similarity ratio flattens to 1/(N-1)
    rng = np.random.default_rng(38)
    for n in (4, 8, 12):
        z = unit_rows(rng, n, 5)
        batch = ContrastiveBatch(z, np.zeros(n, dtype=int), np.ones(n), 1e3)
        target = math.log(n - 1)
        assert abs(ssc_loss(batch).value - target) < 1e-3
        assert abs(ssc_e_loss(batch).value - target) < 1e-3


def test_zero_normalizer_raises():
    z = unit_rows(np.random.default_rng(39), 3, 4)
    no_pairs = ContrastiveBatch(z, np.array([0, 1, 2]), np.ones(3), 0.5)
    all_dead = ContrastiveBatch(z, np.array([0, 0, 0]), np.zeros(3), 0.5)
    for batch in (no_pairs, all_dead):
        with pytest.raises(ZeroNormalizerError):
            ssc_loss(batch)
        with pytest.raises(ZeroNormalizerError):
            ssc_e_loss(batch)
        with pytest.raises(ZeroNormalizerError):
            loss_oracle(batch, "ssc")


def test_anchor_mask_drops_numerator_terms_only():
    z = unit_rows(np.random.default_rng(41), 4, 4)
    labels = np.array([0, 0, 0, 1])
    mask = np.array([True, False, True, True])
    masked = ContrastiveBatch(z, labels, np.ones(4), 0.5, anchor_mask=mask)
    full = ContrastiveBatch(z, labels, np.ones(4), 0.5)
    res = ssc_loss(masked)
    assert res.value != ssc_loss(full).value
    # the oracle applies the same mask semantics
    assert abs(res.value - loss_oracle(masked, "ssc")) < 1e-9
    # the masked row still contrasts inside other anchors' denominators:
    # dropping it entirely gives a different value
    without = ContrastiveBatch(z[[0, 2, 3]], labels[[0, 2, 3]], np.ones(3), 0.5)
    assert abs(ssc_loss(without).value - res.value) > 1e-6


# ---------------------------------------------------------------------------
# gradients


def test_grad_check_random_batches():
    rng = np.random.default_rng(42)
    batches = [random_batch(rng, max_size=10) for _ in range(10)]
    batches += [class_layout_batch(rng, layout, masked) for layout in CLASS_LAYOUTS
                for masked in (False, True)]
    for batch in batches:
        for variant in ("ssc", "ssc-e"):
            assert grad_check(batch, variant) < 1e-4


def test_grad_check_circle_fixture():
    assert grad_check(circle_batch(MIXED_WEIGHTS), "ssc") < 1e-4
    assert grad_check(circle_batch(MIXED_WEIGHTS), "ssc-e") < 1e-4


def test_grad_check_epsilon_domain():
    batch = circle_batch()
    with pytest.raises(ValueError):
        grad_check(batch, "ssc", epsilon=1e-8)
    with pytest.raises(ValueError):
        grad_check(batch, "ssc", epsilon=1e-2)
    with pytest.raises(ValueError):
        grad_check(batch, "nonsense")


def test_finite_differences_leave_inputs_bit_identical():
    eps = 1e-5
    batch = random_batch(np.random.default_rng(45), max_size=10)
    embeddings = batch.embeddings.copy()
    assert grad_check(batch, "ssc-e", epsilon=eps) < 1e-4
    assert np.array_equal(batch.embeddings, embeddings)

    rng = np.random.default_rng(46)
    enc = MlpEncoder(EncoderConfig(input_dim=5, hidden_dims=(8,), embed_dim=4), rng)
    x = rng.normal(size=(6, 5))
    batch = ContrastiveBatch(enc.forward(x)[0], np.array([0, 0, 1, 1, 2, 2]),
                             rng.uniform(0.2, 1.0, size=6), 0.3)

    def value():
        return ssc_loss(ContrastiveBatch(enc.forward(x)[0], batch.labels,
                                         batch.weights, 0.3)).value

    params = [p.copy() for p in enc.parameters()]
    # stepping +eps, -2 eps, +eps would not bring these entries back
    assert any(((v + eps) - 2 * eps) + eps != v for p in params for v in p.ravel())
    grads = enc.backward(enc.forward(x)[1], ssc_loss(batch).grad)
    assert finite_difference_error(enc.parameters(), grads, value, eps) < 1e-4
    for p, before in zip(enc.parameters(), params):
        assert np.array_equal(p, before)


def test_gradient_zero_on_dead_coordinate():
    # all embeddings live in the first two coordinates; the third carries
    # no signal, so both the analytic gradient and finite differences must
    # put (numerically) nothing there
    rng = np.random.default_rng(43)
    flat = unit_rows(rng, 5, 2)
    z = np.concatenate([flat, np.zeros((5, 1))], axis=1)
    batch = ContrastiveBatch(z, np.array([0, 0, 1, 1, 0]),
                             rng.uniform(0.2, 1.0, size=5), 0.5)
    for fn in (ssc_loss, ssc_e_loss):
        grad = fn(batch).grad
        assert np.max(np.abs(grad[:, 2])) < 1e-10
    assert grad_check(batch, "ssc-e") < 1e-4


def test_gradient_permutation_equivariance():
    rng = np.random.default_rng(44)
    for _ in range(50):
        batch = random_batch(rng)
        perm = rng.permutation(batch.size)
        permuted = ContrastiveBatch(batch.embeddings[perm], batch.labels[perm],
                                    batch.weights[perm], batch.temperature)
        for fn in (ssc_loss, ssc_e_loss):
            a = fn(batch)
            b = fn(permuted)
            assert abs(a.value - b.value) < 1e-12
            assert np.max(np.abs(a.grad[perm] - b.grad)) < 1e-12


def test_gradient_descent_direction_reduces_loss():
    batch = circle_batch(MIXED_WEIGHTS)
    res = ssc_e_loss(batch)
    stepped = batch.embeddings - 1e-4 * res.grad
    stepped /= np.linalg.norm(stepped, axis=1, keepdims=True)
    after = ssc_e_loss(ContrastiveBatch(stepped, batch.labels, batch.weights,
                                        batch.temperature))
    assert after.value < res.value
