"""Tests for accuracy scoring and pseudo-label quality reporting."""

import numpy as np
import pytest

from sscent import (
    AugmentationPolicy,
    DecisionKind,
    EncoderConfig,
    EntropyGate,
    MlpEncoder,
    PrototypeBank,
    TrainConfig,
    build_report,
    evaluate,
    generate_gaussian_clusters,
    init_train_state,
    split_dataset,
    train,
)
from sscent.evaluate import format_report, pseudo_metrics, weight_histogram
from sscent.pseudo import DECISION_DTYPE

from conftest import unit_rows


def make_decisions(rows):
    """Decision records from (kind, label, weight) rows, in sample order."""
    records = [(kind, label, weight, 0.5, 0.9) for kind, label, weight in rows]
    return np.array(records, dtype=DECISION_DTYPE)


def trained_fixture(seed=0, separation=10.0):
    ds = generate_gaussian_clusters(3, 6, 40, 1.0, separation, seed)
    ds = split_dataset(ds, labels_per_class=4, test_fraction=0.25, seed=seed)
    cfg = TrainConfig(labeled_batch_size=4, mu=2, epochs=2, steps_per_epoch=8,
                      hidden_dims=(8,), embed_dim=4, seed=seed)
    state, _ = train(cfg, ds)
    return ds, cfg, state


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_perfect_when_prototypes_are_class_embeddings():
    # zero-noise clusters: every sample of a class encodes to the same
    # point, and using those points as prototypes classifies perfectly
    ds = generate_gaussian_clusters(3, 5, 10, 0.0, 4.0, seed=0)
    enc = MlpEncoder(EncoderConfig(input_dim=5, hidden_dims=(8,), embed_dim=4),
                     np.random.default_rng(1))
    protos = []
    for c in range(3):
        z, _ = enc.forward(ds.features[ds.labels == c][:1])
        protos.append(z[0])
    bank = PrototypeBank(prototypes=np.stack(protos))
    acc = evaluate(enc, bank, ds.features, ds.labels, t_prime=0.1)
    assert acc == 1.0


def test_evaluate_random_prototypes_near_chance():
    # labels are shuffled independently of the features, so accuracy
    # concentrates around 1/K; 3 binomial standard errors at n = 3000
    rng = np.random.default_rng(2)
    enc = MlpEncoder(EncoderConfig(input_dim=4, hidden_dims=(8,), embed_dim=6),
                     rng)
    bank = PrototypeBank.random(3, 6, rng)
    features = rng.normal(size=(3000, 4))
    labels = rng.integers(0, 3, size=3000)
    acc = evaluate(enc, bank, features, labels, t_prime=0.1)
    p = 1.0 / 3.0
    se = np.sqrt(p * (1 - p) / 3000)
    assert abs(acc - p) < 3 * se


def test_evaluate_temperature_invariant():
    ds, cfg, state = trained_fixture()
    accs = {evaluate(state.encoder, state.bank, ds.test_features(),
                     ds.test_labels(), t_prime=t)
            for t in (0.05, 0.1, 1.0)}
    assert len(accs) == 1


def test_evaluate_matches_direct_recomputation():
    ds, cfg, state = trained_fixture()
    acc = evaluate(state.encoder, state.bank, ds.test_features(),
                   ds.test_labels(), t_prime=0.1)
    z, _ = state.encoder.forward(ds.test_features())
    cosines = z @ state.bank.prototypes.T
    expected = float(np.mean(np.argmax(cosines, axis=1) == ds.test_labels()))
    assert acc == expected


def test_evaluate_ties_go_to_lowest_class():
    # identical prototypes produce bit-equal scores for every class, so
    # the argmax lands on class 0 for every row
    rng = np.random.default_rng(3)
    enc = MlpEncoder(EncoderConfig(input_dim=3, hidden_dims=(4,), embed_dim=2),
                     rng)
    p = unit_rows(rng, 1, 2)[0]
    bank = PrototypeBank(prototypes=np.stack([p, p, p]))
    features = rng.normal(size=(10, 3))
    assert evaluate(enc, bank, features, np.zeros(10, dtype=int), 0.1) == 1.0
    assert evaluate(enc, bank, features, np.full(10, 2), 0.1) == 0.0


def test_evaluate_input_validation():
    ds, cfg, state = trained_fixture()
    with pytest.raises(ValueError):
        evaluate(state.encoder, state.bank, np.zeros((0, 6)), np.zeros(0), 0.1)
    with pytest.raises(ValueError):
        evaluate(state.encoder, state.bank, ds.test_features(),
                 ds.test_labels()[:-1], 0.1)


# ---------------------------------------------------------------------------
# pseudo metrics


def test_pseudo_metrics_all_rejected():
    decisions = make_decisions([(DecisionKind.REJECTED, 5 + i, 0.2)
                                for i in range(4)])
    coverage, precision = pseudo_metrics(decisions, [0, 1, 0, 1])
    assert coverage == 0.0
    assert precision is None


def test_pseudo_metrics_all_correct():
    decisions = make_decisions([(DecisionKind.CONFIDENT, lab, 1.0)
                                for lab in [0, 1, 2]])
    coverage, precision = pseudo_metrics(decisions, [0, 1, 2])
    assert coverage == 1.0
    assert precision == 1.0


def test_pseudo_metrics_hand_counted_mixture():
    decisions = make_decisions([
        (DecisionKind.CONFIDENT, 0, 1.0),
        (DecisionKind.CONFIDENT, 0, 1.0),
        (DecisionKind.ENTROPY_SELECTED, 0, 0.5),
        (DecisionKind.ENTROPY_SELECTED, 0, 1.0),
        (DecisionKind.REJECTED, 8, 0.2),
        (DecisionKind.REJECTED, 9, 0.2),
    ])
    hidden = [0, 0, 1, 0, 2, 2]
    coverage, precision = pseudo_metrics(decisions, hidden)
    assert coverage == 4 / 6
    assert precision == 3 / 4


def test_pseudo_metrics_without_truth_report_coverage_only():
    decisions = make_decisions([(DecisionKind.CONFIDENT, 0, 1.0),
                                (DecisionKind.REJECTED, 1, 0.2)])
    assert pseudo_metrics(decisions, None) == (0.5, None)


def test_pseudo_metrics_validation():
    decisions = make_decisions([(DecisionKind.CONFIDENT, 0, 1.0)])
    with pytest.raises(ValueError):
        pseudo_metrics(decisions, [0, 1])
    with pytest.raises(ValueError):
        pseudo_metrics(make_decisions([]), [])


# ---------------------------------------------------------------------------
# weight histogram


def test_weight_histogram_known_placement():
    decisions = make_decisions([
        (DecisionKind.REJECTED, 5, 0.2),
        (DecisionKind.ENTROPY_SELECTED, 0, 0.55),
        (DecisionKind.CONFIDENT, 1, 1.0),
        (DecisionKind.CONFIDENT, 1, 1.0),
    ])
    counts = weight_histogram(decisions)
    assert counts.sum() == 4
    assert counts[2] == 1   # 0.2 lands in [0.2, 0.3)
    assert counts[5] == 1   # 0.55 lands in [0.5, 0.6)
    assert counts[9] == 2   # 1.0 lands in the closed last bin


# ---------------------------------------------------------------------------
# full report


def test_build_report_internally_consistent():
    ds, cfg, state = trained_fixture()
    gate = EntropyGate(num_classes=3, tau=0.8, tau_ent=0.6, w_min=0.2, lambda_reject=0.2)
    report = build_report(state.encoder, state.bank, ds, gate,
                          entropy_gate_enabled=True, t_prime=0.1)
    total = ds.unlabeled_features().shape[0]
    assert report.confident + report.entropy_selected + report.rejected == total
    assert report.weight_histogram.sum() == total
    expected_cov = (report.confident + report.entropy_selected) / total
    assert abs(report.pseudo_coverage - expected_cov) < 1e-12
    assert (report.pseudo_precision is None) == (expected_cov == 0.0)
    assert 0.0 <= report.test_accuracy <= 1.0


def test_build_report_gate_on_covers_at_least_gate_off():
    ds, cfg, state = trained_fixture(separation=4.0)
    gate = EntropyGate(num_classes=3, tau=0.9, tau_ent=0.8, w_min=0.2, lambda_reject=0.2)
    on = build_report(state.encoder, state.bank, ds, gate,
                      entropy_gate_enabled=True, t_prime=0.1)
    off = build_report(state.encoder, state.bank, ds, gate,
                       entropy_gate_enabled=False, t_prime=0.1)
    assert on.pseudo_coverage >= off.pseudo_coverage
    assert off.entropy_selected == 0


def test_format_report_lines():
    ds, cfg, state = trained_fixture()
    gate = EntropyGate(num_classes=3, tau=0.95, tau_ent=0.4, w_min=0.2, lambda_reject=0.2)
    report = build_report(state.encoder, state.bank, ds, gate,
                          entropy_gate_enabled=True, t_prime=0.1)
    text = format_report(report)
    assert "test accuracy" in text
    assert "pseudo coverage" in text
    assert "(10 bins over [0, 1])" in text
    none_report = report
    none_report.pseudo_precision = None
    assert "n/a" in format_report(none_report)
