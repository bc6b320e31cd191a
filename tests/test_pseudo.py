"""Tests for prototype scoring, the entropy gate, and pseudo-label assignment."""

import math

import numpy as np
import pytest

from sscent import (
    DecisionKind,
    EntropyGate,
    GateDegenerateError,
    PrototypeBank,
    adaptive_weight,
    assign_pseudo_labels,
    class_probabilities,
)
from sscent.pseudo import kind_counts, normalize_rows, row_norms

from conftest import unit_rows

# Hand-built probability table exercising every decision branch at
# tau=0.95, tau_ent=0.4, K=4.  Reference entropies and the interpolated
# weight for row 2 were computed at 50-digit precision.
FIXTURE_PROBS = np.array([
    [0.97, 0.01, 0.01, 0.01],
    [0.96, 0.02, 0.01, 0.01],
    [0.90, 0.06, 0.02, 0.02],
    [0.95, 0.05, 0.00, 0.00],
    [0.50, 0.30, 0.10, 0.10],
    [0.25, 0.25, 0.25, 0.25],
])
FIXTURE_ENTROPIES = [
    0.16770053683981004,
    0.20953297856776967,
    0.4201100273147717,
    0.19851524334587256,
    1.1682824501765625,
    1.3862943611198906,
]
FIXTURE_E_MIN = 0.20953297856776967
FIXTURE_ROW2_WEIGHT = 0.5116838316967641


def fixture_gate():
    return EntropyGate(num_classes=4, tau=0.95, tau_ent=0.4, w_min=0.2, lambda_reject=0.2)


# ---------------------------------------------------------------------------
# prototype bank


@pytest.mark.parametrize("bad, row, problem", [
    ([[3.0, 4.0], [0.0, 0.0], [np.nan, 1.0]], 1, "zero norm"),
    ([[3.0, 4.0], [np.nan, 1.0], [0.0, 0.0]], 1, "a non-finite norm"),
    ([[3.0, 4.0], [1e200, 1.0]], 1, "a non-finite norm"),  # its squares overflow
    ([[np.inf, 0.0]], 0, "a non-finite norm"),
])
def test_normalize_rows_names_the_first_row_without_a_usable_norm(bad, row, problem):
    with pytest.raises(FloatingPointError, match=rf"^z row {row} has {problem}$"):
        normalize_rows(np.array(bad), "z")


def test_normalize_rows_keeps_the_bits_of_a_plain_division():
    scales = [[1e-140], [1e-3], [1.0], [1e3], [1e140]]
    rows = np.random.default_rng(41).normal(size=(5, 3)) * scales
    unit, norms = normalize_rows(rows, "z")
    assert np.array_equal(norms, row_norms(rows))
    assert np.array_equal(unit, rows / row_norms(rows)[:, None])
    assert normalize_rows(np.empty((0, 3)), "z")[0].shape == (0, 3)


def test_bank_requires_unit_rows():
    rng = np.random.default_rng(0)
    protos = unit_rows(rng, 3, 5)
    PrototypeBank(prototypes=protos)
    protos[1] *= 2.0
    with pytest.raises(ValueError, match=r"^prototype row 1 must be unit norm \(got 2\.0"):
        PrototypeBank(prototypes=protos)


def test_bank_with_an_overflowing_row_is_refused_without_a_warning():
    protos = np.array([[1e200, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match=r"^prototype row 0 must be unit norm \(got inf\)$"):
        PrototypeBank(prototypes=protos)


def test_bank_random_unit_and_deterministic():
    a = PrototypeBank.random(4, 6, np.random.default_rng(7))
    b = PrototypeBank.random(4, 6, np.random.default_rng(7))
    assert np.array_equal(a.prototypes, b.prototypes)
    norms = np.linalg.norm(a.prototypes, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_scores_by_class_reorders_shuffled_rows():
    # rows hold e1, e2, e0: a bank that is not symmetric, so reading it
    # transposed (or in any other row order) moves the scores
    bank = PrototypeBank(prototypes=np.eye(3)[[1, 2, 0]])
    z = np.array([[0.6, 0.8, 0.0]])
    # column k must be the cosine with prototype row k
    assert bank.scores_by_class(z).tolist() == [[0.8, 0.0, 0.6]]


# ---------------------------------------------------------------------------
# gate construction


def gate_args(**overrides):
    return dict(dict(num_classes=3, tau=0.9, tau_ent=0.4, w_min=0.2, lambda_reject=0.2),
                **overrides)


def test_gate_derived_quantities_exact():
    g = EntropyGate(**gate_args(num_classes=5, tau_ent=0.3))
    assert g.h_max == math.log(5)
    assert g.h_base == 0.3 * math.log(5)


def test_gate_is_keyword_only():
    with pytest.raises(TypeError):
        EntropyGate(3, 0.9, 0.4, 0.2, 0.2)


def test_gate_parameter_domains():
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError, match=f"tau must be in \\(0, 1\\], got {bad}"):
            EntropyGate(**gate_args(tau=bad))
        with pytest.raises(ValueError, match=f"tau_ent must be in \\(0, 1\\], got {bad}"):
            EntropyGate(**gate_args(tau_ent=bad))
    for bad in (-0.1, 1.5, float("nan")):
        for name in ("w_min", "lambda_reject"):
            with pytest.raises(ValueError, match=f"{name} must be in \\[0, 1\\], got {bad}"):
                EntropyGate(**gate_args(**{name: bad}))
    with pytest.raises(ValueError, match="need at least 2 classes, got 1"):
        EntropyGate(**gate_args(num_classes=1))
    # the closed ends of [0, 1] are valid weights
    for edge in (0.0, 1.0):
        EntropyGate(**gate_args(w_min=edge, lambda_reject=edge))


# ---------------------------------------------------------------------------
# class probabilities


def test_class_probabilities_two_orthogonal_prototypes():
    bank = PrototypeBank(prototypes=np.eye(2))
    probs = class_probabilities(np.array([[1.0, 0.0]]), bank, t_prime=1.0)
    assert probs.shape == (1, 2)
    # softmax([1, 0]) at T=1, computed at 50-digit precision
    expected = np.array([0.7310585786300049, 0.2689414213699951])
    assert np.max(np.abs(probs[0] - expected)) < 1e-15


def test_class_probabilities_two_logits_frozen():
    # a two-row block: scores [1, 0] and [0, 1] at T' = 1 give the frozen
    # softmax([1, 0]) values, the second row in reverse order
    bank = PrototypeBank(prototypes=np.eye(2))
    probs = class_probabilities(np.eye(2), bank, t_prime=1.0)
    assert probs.shape == (2, 2)
    expected = np.array([0.7310585786300049, 0.2689414213699951])
    assert np.max(np.abs(probs[0] - expected)) < 1e-15
    assert np.max(np.abs(probs[1] - expected[::-1])) < 1e-15


def test_class_probabilities_frozen_three_class():
    # z = (p0 + 0.5 p1)/sqrt(1.25) against the standard basis, T' = 0.1;
    # cosines are (2/sqrt5, 1/sqrt5, 0), probabilities frozen from a
    # 50-digit computation
    bank = PrototypeBank(prototypes=np.eye(3))
    z = (np.array([1.0, 0.0, 0.0]) + 0.5 * np.array([0.0, 1.0, 0.0]))
    z = z / np.sqrt(1.25)
    probs = class_probabilities(z[None, :], bank, t_prime=0.1)[0]
    expected = np.array([0.9885785824697357,
                         0.01129242538602786,
                         0.0001289921442364551])
    assert np.max(np.abs(probs - expected) / expected) < 1e-12


def test_class_probabilities_sharp_temperature_frozen():
    # z = e0 against prototypes with cosines exactly (0.9, 0.1, 0.0), T' = 0.1:
    # softmax([0.9, 0.1, 0.0] / 0.1), 50-digit reference
    bank = PrototypeBank(prototypes=np.array([
        [0.9, math.sqrt(0.19), 0.0, 0.0],
        [0.1, 0.0, math.sqrt(0.99), 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]))
    probs = class_probabilities(np.array([[1.0, 0.0, 0.0, 0.0]]), bank, t_prime=0.1)[0]
    expected = np.array([0.999541338035342,
                         0.00033530876395452874,
                         0.0001233532007034791])
    assert np.max(np.abs(probs - expected) / expected) < 1e-12


def test_class_probabilities_extreme_scores_finite():
    # cosines (1, 0, -1) at T' = 1e-3 are scaled scores (1000, 0, -1000)
    bank = PrototypeBank(prototypes=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))
    probs = class_probabilities(np.array([[1.0, 0.0]]), bank, t_prime=1e-3)
    assert np.all(np.isfinite(probs))
    assert abs(probs.sum() - 1.0) < 1e-12
    with pytest.raises(ValueError, match="temperature too small"):
        class_probabilities(np.array([[1.0, 0.0]]), bank, t_prime=1e-310)


def test_class_probabilities_bad_temperature_rejected():
    bank = PrototypeBank(prototypes=np.eye(2))
    for t in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"^t_prime must be positive, got {t}$"):
            class_probabilities(np.array([[1.0, 0.0]]), bank, t_prime=t)


def test_class_probabilities_identical_prototypes_uniform():
    p = np.array([0.6, 0.8])
    bank = PrototypeBank(prototypes=np.stack([p, p, p]))
    probs = class_probabilities(np.array([[0.0, 1.0]]), bank, t_prime=0.1)
    assert np.max(np.abs(probs - 1.0 / 3.0)) < 1e-15


def test_class_probabilities_constant_scores_uniform():
    # distinct prototypes, each at the same cosine 1/sqrt(3) to z, T' = 0.2
    bank = PrototypeBank(prototypes=np.eye(3))
    z = np.full((1, 3), 1.0 / math.sqrt(3.0))
    probs = class_probabilities(z, bank, t_prime=0.2)
    assert np.max(np.abs(probs - 1.0 / 3.0)) < 1e-15


def test_class_probabilities_respects_class_id_order():
    # rows hold e1, e2, e0 (not symmetric): the cosines of z with rows 0, 1, 2
    # are 0.8, 0.0, 0.6, and column k of the probabilities is class k = row k
    bank = PrototypeBank(prototypes=np.eye(3)[[1, 2, 0]])
    probs = class_probabilities(np.array([[0.6, 0.8, 0.0]]), bank, t_prime=1.0)[0]
    assert probs[0] > probs[2] > probs[1]
    expected = np.exp([0.8, 0.0, 0.6]) / np.exp([0.8, 0.0, 0.6]).sum()
    assert np.max(np.abs(probs - expected)) < 1e-15


def test_class_probabilities_input_validation():
    bank = PrototypeBank(prototypes=np.eye(3))
    with pytest.raises(ValueError):
        class_probabilities(np.array([[1.0, 0.0]]), bank, t_prime=1.0)
    with pytest.raises(ValueError):
        class_probabilities(np.array([[2.0, 0.0, 0.0]]), bank, t_prime=1.0)
    with pytest.raises(ValueError):
        class_probabilities(np.array([[1.0, 0.0, 0.0]]), bank, t_prime=0.0)
    # a single 1-d embedding is not an (n, d) block
    with pytest.raises(ValueError, match="shape"):
        class_probabilities(np.array([1.0, 0.0, 0.0]), bank, t_prime=1.0)


def test_class_probabilities_errors_name_the_bad_row():
    bank = PrototypeBank(prototypes=np.eye(3))
    z = np.eye(3)
    z[1] *= 2.0
    with pytest.raises(ValueError, match=r"embedding row 1 must be unit norm \(got 2\.0\)"):
        class_probabilities(z, bank, t_prime=1.0)
    z = np.eye(3)
    z[2, 0] = np.nan
    with pytest.raises(ValueError, match="embedding row 2 must contain only finite values"):
        class_probabilities(z, bank, t_prime=1.0)


@pytest.mark.parametrize("n", [56, 448])
def test_class_probabilities_rows_independent_of_batch(n):
    # desk and paper-shaped weak-view blocks (muB rows, 16-dim embeddings):
    # every row must carry the same bits as when scored alone, which a
    # single (n, d) @ (d, K) product does not guarantee
    rng = np.random.default_rng(n)
    bank = PrototypeBank.random(3, 16, rng)
    z = unit_rows(rng, n, 16)
    block = class_probabilities(z, bank, t_prime=0.1)
    for i in range(n):
        assert np.array_equal(block[i], class_probabilities(z[i:i + 1], bank, 0.1)[0])


# ---------------------------------------------------------------------------
# the adaptive weight


def test_adaptive_weight_boundaries_exact():
    assert adaptive_weight(0.3, e_min=0.3, h_base=0.9, w_min=0.2) == 1.0
    assert adaptive_weight(0.9, e_min=0.3, h_base=0.9, w_min=0.2) == 0.2
    # clamping outside the interval
    assert adaptive_weight(0.1, e_min=0.3, h_base=0.9, w_min=0.2) == 1.0
    assert adaptive_weight(1.5, e_min=0.3, h_base=0.9, w_min=0.2) == 0.2


def test_adaptive_weight_midpoint():
    e_min, h_base = 0.3, 0.9
    w = adaptive_weight((e_min + h_base) / 2, e_min, h_base, w_min=0.2)
    assert abs(w - 0.6) < 1e-12


def test_adaptive_weight_degenerate_interval():
    with pytest.raises(GateDegenerateError):
        adaptive_weight(0.5, e_min=0.9, h_base=0.9, w_min=0.2)
    with pytest.raises(GateDegenerateError):
        adaptive_weight(0.5, e_min=1.0, h_base=0.9, w_min=0.2)


def test_adaptive_weight_monotone_sweep():
    e_min, h_base = 0.2, 1.1
    hs = np.linspace(0.0, 1.4, 1000)
    ws = [adaptive_weight(float(h), e_min, h_base, 0.2) for h in hs]
    assert all(a >= b for a, b in zip(ws, ws[1:]))
    assert all(0.2 <= w <= 1.0 for w in ws)


def test_adaptive_weight_array_matches_scalar():
    e_min, h_base, w_min = 0.2, 1.1, 0.25
    hs = np.concatenate([np.linspace(0.0, 1.4, 333), [e_min, h_base]])
    ws = adaptive_weight(hs, e_min, h_base, w_min)
    assert isinstance(ws, np.ndarray) and ws.shape == hs.shape
    assert ws.tolist() == [adaptive_weight(float(h), e_min, h_base, w_min) for h in hs]
    assert ws[-2] == 1.0 and ws[-1] == w_min
    assert type(adaptive_weight(0.5, e_min, h_base, w_min)) is float


# ---------------------------------------------------------------------------
# full assignment


def entropies_of(probs):
    gate = EntropyGate(**gate_args(num_classes=np.shape(probs)[1], tau=1.0, tau_ent=1.0))
    return [d.entropy for d in assign_pseudo_labels(probs, gate, False)]


def test_fixture_entropies_match_reference():
    for h, expected in zip(entropies_of(FIXTURE_PROBS), FIXTURE_ENTROPIES):
        assert abs(h - expected) < 1e-12


def test_entropy_uniform_is_log_c():
    for c in (2, 5, 10):
        (h,) = entropies_of(np.full((1, c), 1.0 / c))
        assert abs(h - math.log(c)) < 1e-12


def test_entropy_one_hot_is_negative_zero():
    (h,) = entropies_of(np.array([[1.0, 0.0, 0.0, 0.0]]))
    assert h == 0.0
    # -0.0 is what gate-sim prints for a one-hot row; keep the bits
    assert math.copysign(1.0, h) == -1.0


def test_entropy_half_half_with_zeros():
    (h,) = entropies_of(np.array([[0.5, 0.5, 0.0, 0.0]]))
    assert abs(h - math.log(2)) < 1e-12


def test_entropy_bounds_and_permutation_invariance():
    rng = np.random.default_rng(15)
    for _ in range(50):
        c = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(c), size=4)
        hs = entropies_of(p)
        assert all(0.0 <= h <= math.log(c) + 1e-12 for h in hs)
        permuted = entropies_of(p[:, rng.permutation(c)])
        assert max(abs(a - b) for a, b in zip(hs, permuted)) < 1e-14


def test_assign_gate_on_full_decision_table():
    decisions = assign_pseudo_labels(FIXTURE_PROBS, fixture_gate(),
                                     entropy_gate_enabled=True)
    kinds = [d.kind for d in decisions]
    assert kinds == [
        DecisionKind.CONFIDENT,
        DecisionKind.CONFIDENT,
        DecisionKind.ENTROPY_SELECTED,
        DecisionKind.ENTROPY_SELECTED,
        DecisionKind.REJECTED,
        DecisionKind.REJECTED,
    ]
    assert [d.assigned_label for d in decisions] == [0, 0, 0, 0, 8, 9]
    assert decisions[0].weight == 1.0
    assert decisions[1].weight == 1.0
    # row 2 sits strictly between e_min and h_base
    assert abs(decisions[2].weight - FIXTURE_ROW2_WEIGHT) < 1e-12
    # row 3 is non-confident (0.95 is not > 0.95) but its entropy is below
    # e_min, so it gets full weight
    assert decisions[3].weight == 1.0
    assert decisions[4].weight == 0.2
    assert decisions[5].weight == 0.2
    for d, h in zip(decisions, FIXTURE_ENTROPIES):
        assert abs(d.entropy - h) < 1e-12
    assert decisions[0].max_prob == pytest.approx(0.97, abs=1e-15)


def test_assign_gate_off_rejects_all_non_confident():
    decisions = assign_pseudo_labels(FIXTURE_PROBS, fixture_gate(),
                                     entropy_gate_enabled=False)
    kinds = [d.kind for d in decisions]
    assert kinds[:2] == [DecisionKind.CONFIDENT, DecisionKind.CONFIDENT]
    assert all(k == DecisionKind.REJECTED for k in kinds[2:])
    assert [d.assigned_label for d in decisions[2:]] == [6, 7, 8, 9]
    assert all(d.weight == 0.2 for d in decisions[2:])


def test_assign_no_confident_rejects_everything():
    probs = np.array([[0.5, 0.5], [0.6, 0.4]])
    gate = EntropyGate(**gate_args(num_classes=2, tau=0.95, lambda_reject=0.3))
    decisions = assign_pseudo_labels(probs, gate, entropy_gate_enabled=True)
    assert all(d.kind == DecisionKind.REJECTED for d in decisions)
    assert [d.assigned_label for d in decisions] == [2, 3]
    assert all(d.weight == 0.3 for d in decisions)


def test_assign_degenerate_e_min_keeps_low_entropy_samples():
    # the confident row's entropy exceeds h_base, so the interpolation
    # interval is empty; rows at or below e_min still get weight 1
    probs = np.array([
        [0.50, 0.25, 0.25],   # confident at tau=0.45, h ~ 1.0397
        [0.45, 0.45, 0.10],   # h ~ 0.9489 <= e_min -> selected, weight 1
        [1 / 3, 1 / 3, 1 / 3],  # h = log 3 > e_min -> rejected
    ])
    gate = EntropyGate(**gate_args(tau=0.45, tau_ent=0.6))
    decisions = assign_pseudo_labels(probs, gate, entropy_gate_enabled=True)
    assert decisions[0].entropy >= gate.h_base  # degenerate premise
    assert decisions[0].kind == DecisionKind.CONFIDENT
    assert decisions[1].kind == DecisionKind.ENTROPY_SELECTED
    assert decisions[1].weight == 1.0
    assert decisions[1].assigned_label == 0  # first index of the tied max
    assert decisions[2].kind == DecisionKind.REJECTED
    assert decisions[2].assigned_label == 3 + 2


def test_assign_tie_break_takes_first_argmax():
    probs = np.array([[0.5, 0.5]])
    gate = EntropyGate(**gate_args(num_classes=2, tau=0.4, tau_ent=0.9))
    decisions = assign_pseudo_labels(probs, gate, entropy_gate_enabled=True)
    assert decisions[0].kind == DecisionKind.CONFIDENT
    assert decisions[0].assigned_label == 0


def test_assign_validates_inputs():
    gate = fixture_gate()
    with pytest.raises(ValueError):
        assign_pseudo_labels(np.array([[0.9, 0.2, 0.0, 0.0]]), gate,
                             entropy_gate_enabled=True)
    with pytest.raises(ValueError):
        assign_pseudo_labels(np.array([[0.5, 0.5]]), gate,
                             entropy_gate_enabled=True)


def test_assign_rejects_bad_probability_rows_by_index():
    gate = EntropyGate(**gate_args(num_classes=2))
    good = [0.3, 0.7]
    cases = [
        ([0.5, 0.6], r"row 1 must sum to 1 \(got 1\.1\)"),
        ([-0.1, 1.1], "row 1 must be non-negative"),
        ([np.nan, 1.0], "row 1 must contain only finite values"),
    ]
    for bad, message in cases:
        with pytest.raises(ValueError, match=message):
            assign_pseudo_labels(np.array([good, bad, good]), gate, True)
    # a row summing to 1 within 1e-9 passes
    assign_pseudo_labels(np.array([good, [0.3, 0.7 + 5e-10]]), gate, True)


def test_gate_on_selection_is_superset_of_gate_off():
    rng = np.random.default_rng(21)
    for _ in range(100):
        c = int(rng.integers(2, 7))
        n = int(rng.integers(1, 20))
        probs = rng.dirichlet(np.full(c, 0.5), size=n)
        gate = EntropyGate(**gate_args(num_classes=c,
                                       tau=float(rng.uniform(0.3, 0.99)),
                                       tau_ent=float(rng.uniform(0.1, 1.0))))
        on = assign_pseudo_labels(probs, gate, entropy_gate_enabled=True)
        off = assign_pseudo_labels(probs, gate, entropy_gate_enabled=False)
        sel_on = {i for i, d in enumerate(on) if d.kind != DecisionKind.REJECTED}
        sel_off = {i for i, d in enumerate(off) if d.kind != DecisionKind.REJECTED}
        assert sel_off <= sel_on
        # class labels agree wherever both select
        lab_on = {i: d.assigned_label for i, d in enumerate(on)}
        for i in sel_off:
            assert lab_on[i] == off[i].assigned_label


def test_emitted_weights_stay_in_contract_range():
    rng = np.random.default_rng(22)
    for _ in range(100):
        c = int(rng.integers(2, 6))
        probs = rng.dirichlet(np.ones(c), size=int(rng.integers(1, 16)))
        gate = EntropyGate(num_classes=c, tau=0.9, tau_ent=float(rng.uniform(0.2, 0.9)),
                           w_min=0.25, lambda_reject=0.15)
        decisions = assign_pseudo_labels(probs, gate, entropy_gate_enabled=True)
        for d in decisions:
            if d.kind == DecisionKind.REJECTED:
                assert d.weight == 0.15
            else:
                assert 0.25 <= d.weight <= 1.0


def test_selected_weights_monotone_in_entropy_within_batch():
    rng = np.random.default_rng(23)
    checked = 0
    for trial in range(200):
        probs = rng.dirichlet(np.full(3, 0.6), size=12)
        gate = EntropyGate(**gate_args(tau=0.85, tau_ent=0.8))
        decisions = assign_pseudo_labels(probs, gate, entropy_gate_enabled=True)
        picked = [d for d in decisions
                  if d.kind == DecisionKind.ENTROPY_SELECTED]
        picked.sort(key=lambda d: d.entropy)
        for a, b in zip(picked, picked[1:]):
            assert a.weight >= b.weight - 1e-12
            checked += 1
    assert checked > 50  # the sweep actually exercised the branch


def test_assignment_is_deterministic():
    a = assign_pseudo_labels(FIXTURE_PROBS, fixture_gate(), True)
    b = assign_pseudo_labels(FIXTURE_PROBS, fixture_gate(), True)
    assert (a == b).all()


def test_decision_records_and_columns_agree():
    decisions = assign_pseudo_labels(FIXTURE_PROBS, fixture_gate(), True)
    names = ("kind", "assigned_label", "weight", "entropy", "max_prob")
    assert decisions.dtype.names == names
    assert len(decisions) == len(FIXTURE_PROBS)
    for i, d in enumerate(decisions):
        for name in names:
            assert getattr(d, name) == decisions[name][i] == decisions[i][name]
    # the kind column holds the members' codes
    assert decisions["kind"].tolist() == [0, 0, 1, 1, 2, 2]


def test_decision_kinds_are_int8_codes_read_as_members():
    decisions = assign_pseudo_labels(FIXTURE_PROBS, fixture_gate(), True)
    assert decisions.dtype["kind"] == np.int8
    assert all(decisions.dtype[name] != object for name in decisions.dtype.names)
    expected = [DecisionKind.CONFIDENT] * 2 + [DecisionKind.ENTROPY_SELECTED] * 2 \
        + [DecisionKind.REJECTED] * 2
    assert all(d.kind is k for d, k in zip(decisions, expected))
    assert [k.name for k in DecisionKind] == ["CONFIDENT", "ENTROPY_SELECTED", "REJECTED"]
    assert [int(k) for k in DecisionKind] == [0, 1, 2]


def test_sharper_temperature_concentrates_probability():
    rng = np.random.default_rng(24)
    bank = PrototypeBank.random(4, 6, rng)
    for _ in range(50):
        z = unit_rows(rng, 1, 6)
        sharp = class_probabilities(z, bank, t_prime=0.05)
        soft = class_probabilities(z, bank, t_prime=0.5)
        assert sharp.max() >= soft.max() - 1e-12


# ---------------------------------------------------------------------------
# per-row reference gate


def per_row_oracle(probs, gate, entropy_gate_enabled):
    """The pseudo-labeling rule applied one row at a time: the slow
    reference for the whole-array assignment. Each row's entropy is summed
    by numpy, as the batched path does, so decisions agree bit for bit."""
    rows = [[float(p) for p in row] for row in probs]
    entropies = []
    for row in np.asarray(probs):
        terms = np.where(row > 0.0, row * np.log(np.where(row > 0.0, row, 1.0)), 0.0)
        entropies.append(max(float(-terms.sum()), 0.0))  # max keeps -0.0
    confident = [max(row) > gate.tau for row in rows]
    e_min = None
    for c, h in zip(confident, entropies):
        if c and (e_min is None or h > e_min):
            e_min = h
    out = []
    for i, (row, h, c) in enumerate(zip(rows, entropies, confident)):
        mp = max(row)
        label = row.index(mp)
        if c:
            out.append((DecisionKind.CONFIDENT, label, 1.0))
            continue
        if entropy_gate_enabled and e_min is not None:
            if e_min < gate.h_base and h < gate.h_base:
                out.append((DecisionKind.ENTROPY_SELECTED, label,
                            1.0 if h <= e_min else adaptive_weight(
                                h, e_min, gate.h_base, gate.w_min)))
                continue
            if e_min >= gate.h_base and h <= e_min:
                out.append((DecisionKind.ENTROPY_SELECTED, label, 1.0))
                continue
        out.append((DecisionKind.REJECTED, gate.num_classes + i, float(gate.lambda_reject)))
    return out, entropies


def test_assignment_matches_per_row_oracle():
    rng = np.random.default_rng(25)
    for trial in range(300):
        c = int(rng.integers(2, 7))
        probs = rng.dirichlet(np.full(c, float(rng.uniform(0.2, 2.0))),
                              size=int(rng.integers(1, 40)))
        probs[rng.random(len(probs)) < 0.1] = np.eye(c)[0]  # one-hot rows
        gate = EntropyGate(num_classes=c,
                           tau=float(rng.uniform(0.3, 1.0)),
                           tau_ent=float(rng.uniform(0.05, 1.0)),
                           w_min=float(rng.uniform(0.0, 1.0)), lambda_reject=0.2)
        enabled = bool(trial % 4)
        decisions = assign_pseudo_labels(probs, gate, enabled)
        expected, entropies = per_row_oracle(probs, gate, enabled)
        assert [(d.kind, d.assigned_label, d.weight) for d in decisions] == expected
        assert kind_counts(decisions) == tuple(
            sum(kind is want for kind, _, _ in expected) for want in DecisionKind)
        # bit-identical entropies, including the sign of a one-hot row's zero
        for d, h in zip(decisions, entropies):
            assert (d.entropy, math.copysign(1.0, d.entropy)) == (h, math.copysign(1.0, h))
        assert [d.max_prob for d in decisions] == probs.max(axis=1).tolist()
