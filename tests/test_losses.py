"""Tests for both contrastive loss variants, the oracle, and gradients."""

import math

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

from sscent.losses import _pair_weights

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
    with pytest.raises(ValueError):
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


def test_batch_rejects_mismatched_anchor_mask():
    z = np.eye(2)
    with pytest.raises(ValueError):
        ContrastiveBatch(z, np.array([0, 0]), np.ones(2), 0.5,
                         anchor_mask=np.array([True]))


# ---------------------------------------------------------------------------
# pair weights


def reference_pair_weights(labels, weights, anchor_mask, variant):
    """Per-anchor loop over the positive sets P(i), the oracle of _pair_weights.

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


def trainer_layout(rng, n, regime, lambda_reject=0.2, w_min=0.2, k=3):
    """Labels, weights, hidden classes and pseudo-label kinds of a trainer batch.

    Rows are [labeled | view 1 | view 2 | prototypes], as assemble_batch
    lays them out. Unlabeled kinds are 0 (confident), 1 (entropy-selected)
    or 2 (rejected); a rejected sample gets the unique label k + position,
    shared by its two views. Regimes: "typical" mixes all three kinds,
    "collapsed" gives every unlabeled view label 0, "rejected" rejects all.
    """
    b, mu = LAYOUTS[n]
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


@pytest.mark.parametrize("regime", ["typical", "collapsed", "rejected"])
@pytest.mark.parametrize("n", sorted(LAYOUTS))
@pytest.mark.parametrize("variant", ["ssc", "ssc-e"])
def test_pair_weights_match_per_anchor_loop(variant, n, regime):
    # at N >= 123 positive sets exceed eight members, where NumPy's pairwise
    # sum of a masked full row rounds differently from a sum over P(i) alone
    rng = np.random.default_rng(45)
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
                fast = _pair_weights(labels, w, mask, variant)
                slow = reference_pair_weights(labels, w, mask, variant)
                assert np.array_equal(fast[0], slow[0])
                assert np.array_equal(fast[1], slow[1])
                assert fast[2] == slow[2]
        # with unit weights and no mask, the support of W is the positive-set
        # relation itself: symmetric, empty on the diagonal
        support = _pair_weights(labels, np.ones(n), None, variant)[0] > 0
        assert np.array_equal(support, support.T)
        assert not support.diagonal().any()


# the positive index P(i) is the support of row i of W under unit weights


def test_positive_index_mixed_labels():
    for variant in ("ssc", "ssc-e"):
        wmat, contributing, normalizer = _pair_weights(
            np.array([0, 0, 1]), np.ones(3), None, variant)
        assert np.array_equal(wmat, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        assert list(contributing) == [True, True, False]  # a unique label has no positives
        assert normalizer == 2.0


def test_positive_index_all_distinct_and_all_same():
    for variant in ("ssc", "ssc-e"):
        wmat, contributing, _ = _pair_weights(np.array([3, 1, 2]), np.ones(3), None, variant)
        assert not wmat.any() and not contributing.any()
        wmat, _, _ = _pair_weights(np.array([7, 7, 7]), np.ones(3), None, variant)
        assert np.array_equal(wmat, 0.5 * (1 - np.eye(3)))


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
        assert res.anchor_count == 4
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
    for _ in range(100):
        batch = random_batch(rng, zero_weight=bool(rng.integers(0, 2)))
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


def test_anchor_count_reports_contributing_anchors():
    z = unit_rows(np.random.default_rng(40), 4, 3)
    batch = ContrastiveBatch(z, np.array([0, 0, 1, 2]), np.ones(4), 0.5)
    assert ssc_loss(batch).anchor_count == 2


def test_anchor_mask_drops_numerator_terms_only():
    z = unit_rows(np.random.default_rng(41), 4, 4)
    labels = np.array([0, 0, 0, 1])
    mask = np.array([True, False, True, True])
    masked = ContrastiveBatch(z, labels, np.ones(4), 0.5, anchor_mask=mask)
    full = ContrastiveBatch(z, labels, np.ones(4), 0.5)
    res = ssc_loss(masked)
    assert res.anchor_count == 2
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
    for _ in range(10):
        batch = random_batch(rng, max_size=10)
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
