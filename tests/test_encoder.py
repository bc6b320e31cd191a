"""Tests for the MLP encoder, its backward pass, and momentum SGD."""

import copy

import numpy as np
import pytest

from sscent import (
    ContrastiveBatch,
    EncoderConfig,
    MlpEncoder,
    PrototypeBank,
    ssc_e_loss,
    update_prototypes,
)
from sscent.encoder import _BACKWARD_ROWS, StaleCacheError, sgd_momentum_step

from conftest import unit_rows


def small_encoder(seed=0):
    cfg = EncoderConfig(input_dim=5, hidden_dims=(6,), embed_dim=3)
    return MlpEncoder(cfg, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# construction and forward pass


def test_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(input_dim=0)
    with pytest.raises(ValueError):
        EncoderConfig(input_dim=4, hidden_dims=(8, 0))


def test_init_shapes_and_bound():
    enc = small_encoder()
    assert [w.shape for w in enc.weights] == [(5, 6), (6, 3)]
    assert [b.shape for b in enc.biases] == [(6,), (3,)]
    assert np.max(np.abs(enc.weights[0])) <= 1.0 / np.sqrt(5)
    assert np.max(np.abs(enc.weights[1])) <= 1.0 / np.sqrt(6)
    assert all(np.all(b == 0.0) for b in enc.biases)


def test_init_deterministic_under_seed():
    a = small_encoder(seed=3)
    b = small_encoder(seed=3)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa, pb)


def test_zero_weights_route_bias_through():
    # with all weights zeroed the network output is the normalized final
    # bias, independent of the input
    enc = MlpEncoder(EncoderConfig(input_dim=4, hidden_dims=(3,), embed_dim=2),
                     np.random.default_rng(0))
    for w in enc.weights:
        w[...] = 0.0
    enc.biases[1][...] = np.array([3.0, 4.0])
    enc.mark_parameters_changed()
    z, _ = enc.forward(np.random.default_rng(1).normal(size=(5, 4)))
    assert np.allclose(z, np.tile([0.6, 0.8], (5, 1)), atol=1e-15)


def test_forward_matches_straight_line_recomputation():
    enc = small_encoder(seed=9)
    x = np.random.default_rng(5).normal(size=(7, 5))
    z, _ = enc.forward(x)
    h = x
    for w, b in zip(enc.weights[:-1], enc.biases[:-1]):
        h = np.tanh(h @ w + b)
    u = h @ enc.weights[-1] + enc.biases[-1]
    expected = u / np.linalg.norm(u, axis=1, keepdims=True)
    assert np.max(np.abs(z - expected)) < 1e-14


def test_forward_unit_norm_and_repeat_rows():
    enc = small_encoder(seed=11)
    x = np.random.default_rng(2).normal(size=(4, 5))
    doubled = np.concatenate([x, x[:1]], axis=0)
    z, _ = enc.forward(doubled)
    assert np.max(np.abs(np.linalg.norm(z, axis=1) - 1.0)) < 1e-9
    assert np.array_equal(z[0], z[4])


def test_forward_deterministic():
    enc = small_encoder(seed=13)
    x = np.random.default_rng(3).normal(size=(6, 5))
    z1, _ = enc.forward(x)
    z2, _ = enc.forward(x)
    assert np.array_equal(z1, z2)


def test_forward_input_validation():
    enc = small_encoder()
    with pytest.raises(ValueError):
        enc.forward(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        enc.forward(np.array([[1.0, np.nan, 0.0, 0.0, 0.0]]))


def test_forward_zero_input_row_with_zero_biases_is_a_zero_norm_error():
    # a fresh encoder's biases are zero and tanh(0) = 0, so an all-zero input
    # row reaches the normalization as an all-zero row
    enc = small_encoder()
    x = np.random.default_rng(5).normal(size=(3, 5))
    x[1] = 0.0
    with pytest.raises(FloatingPointError, match=r"^embedding row 1 has zero norm$"):
        enc.forward(x)


def test_forward_overflowing_embedding_is_a_non_finite_norm_error():
    # the last layer's outputs are finite, but their squares overflow to inf
    enc = small_encoder()
    enc.weights[-1][...] = 1e200
    with pytest.raises(FloatingPointError, match=r"^embedding row 0 has a non-finite norm$"):
        enc.forward(np.random.default_rng(6).normal(size=(3, 5)))


# ---------------------------------------------------------------------------
# backward pass


def test_backward_zero_gradient_gives_zero_param_grads():
    enc = small_encoder(seed=17)
    x = np.random.default_rng(4).normal(size=(5, 5))
    z, cache = enc.forward(x)
    grads = enc.backward(cache, np.zeros_like(z))
    assert all(np.all(g == 0.0) for g in grads)
    assert len(grads) == len(enc.parameters())


def test_backward_gradient_tangential_to_embedding():
    # the normalization Jacobian projects out the radial component; for a
    # single-row batch the final-layer bias gradient equals the
    # pre-normalization gradient, which must be orthogonal to z
    enc = small_encoder(seed=19)
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = rng.normal(size=(1, 5))
        z, cache = enc.forward(x)
        g = rng.normal(size=z.shape)
        grads = enc.backward(cache, g)
        grad_b_last = grads[-1]
        radial = abs(float(grad_b_last @ z[0]))
        assert radial < 1e-8 * max(1.0, np.linalg.norm(grad_b_last))


def test_backward_rejects_stale_cache():
    enc = small_encoder(seed=23)
    x = np.random.default_rng(7).normal(size=(3, 5))
    z, cache = enc.forward(x)
    grads = enc.backward(cache, np.ones_like(z))
    enc.apply_gradients(grads, [np.zeros_like(p) for p in enc.parameters()], 0.9, 0.01)
    with pytest.raises(StaleCacheError):
        enc.backward(cache, np.ones_like(z))


def _single_pass_backward(enc, cache, g):
    """The backward over every row at once, without row blocks."""
    z = cache.embeddings
    upstream = (g - (g * z).sum(axis=1, keepdims=True) * z) / cache.norms[:, None]
    grads = [None] * (2 * enc.num_layers)
    for layer in range(enc.num_layers - 1, -1, -1):
        grads[2 * layer] = cache.activations[layer].T @ upstream
        grads[2 * layer + 1] = upstream.sum(axis=0)
        if layer > 0:
            acts = cache.activations[layer]
            upstream = (upstream @ enc.weights[layer].T) * (1.0 - acts * acts)
    return grads


def paper_shaped_encoder(seed=0):
    return MlpEncoder(EncoderConfig(input_dim=8, hidden_dims=(64, 64), embed_dim=16),
                      np.random.default_rng(seed))


@pytest.mark.parametrize("rows", [0, 1, 64, _BACKWARD_ROWS])
def test_backward_of_one_block_is_the_single_pass_bit_for_bit(rows):
    enc = paper_shaped_encoder()
    rng = np.random.default_rng(rows)
    z, cache = enc.forward(rng.normal(size=(rows, 8)))
    g = rng.normal(size=z.shape)
    for got, want in zip(enc.backward(cache, g), _single_pass_backward(enc, cache, g)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [_BACKWARD_ROWS + 1, 960])
def test_backward_over_many_rows_is_the_sum_of_its_blocks(rows):
    enc = paper_shaped_encoder()
    rng = np.random.default_rng(rows)
    x = rng.normal(size=(rows, 8))
    z, cache = enc.forward(x)
    g = rng.normal(size=z.shape)
    total = enc.backward(cache, g)
    parts = []
    for start in range(0, rows, _BACKWARD_ROWS):
        block = slice(start, start + _BACKWARD_ROWS)
        parts.append(enc.backward(enc.forward(x[block])[1], g[block]))
    for got, *blocks in zip(total, *parts):
        assert np.max(np.abs(got - sum(blocks))) <= 1e-12
    # the single pass over every row differs from the blocked sum by rounding only
    for got, want in zip(total, _single_pass_backward(enc, cache, g)):
        assert np.max(np.abs(got - want)) <= 1e-12


def test_backward_matches_finite_differences_end_to_end():
    # perturb every parameter of a tiny encoder and compare the chain
    # loss -> embeddings -> parameters against central differences
    cfg = EncoderConfig(input_dim=4, hidden_dims=(5,), embed_dim=3)
    enc = MlpEncoder(cfg, np.random.default_rng(29))
    rng = np.random.default_rng(8)
    x = rng.normal(size=(6, 4))
    labels = np.array([0, 0, 1, 1, 2, 2])
    weights = rng.uniform(0.3, 1.0, size=6)

    def loss_value():
        z, _ = enc.forward(x)
        return ssc_e_loss(ContrastiveBatch(z, labels, weights, 0.4)).value

    z, cache = enc.forward(x)
    res = ssc_e_loss(ContrastiveBatch(z, labels, weights, 0.4))
    analytic = enc.backward(cache, res.grad)

    eps = 1e-5
    worst = 0.0
    for param, grad in zip(enc.parameters(), analytic):
        flat_p = param.reshape(-1)
        flat_g = grad.reshape(-1)
        for k in range(flat_p.size):
            orig = flat_p[k]
            flat_p[k] = orig + eps
            up = loss_value()
            flat_p[k] = orig - eps
            down = loss_value()
            flat_p[k] = orig
            numeric = (up - down) / (2 * eps)
            denom = max(abs(flat_g[k]), abs(numeric), 1e-8)
            worst = max(worst, abs(flat_g[k] - numeric) / denom)
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# momentum SGD


def test_sgd_zero_momentum_is_plain_descent():
    p = np.array([1.0, -2.0, 3.0])
    g = np.array([0.5, 0.5, -1.0])
    sgd_momentum_step([p], [g], [np.zeros(3)], 0.0, 0.1)
    assert np.array_equal(p, np.array([1.0, -2.0, 3.0]) - 0.1 * g)


def test_sgd_velocity_decays_under_zero_gradient():
    p = np.zeros(2)
    g = np.array([1.0, 2.0])
    v = np.zeros(2)
    sgd_momentum_step([p], [g], [v], 0.5, 0.0)
    assert np.array_equal(v, g)
    sgd_momentum_step([p], [np.zeros(2)], [v], 0.5, 0.0)
    assert np.array_equal(v, 0.5 * g)
    sgd_momentum_step([p], [np.zeros(2)], [v], 0.5, 0.0)
    assert np.array_equal(v, 0.25 * g)


def test_sgd_two_steps_constant_gradient_recurrence():
    # v1 = g, p1 = p0 - eta*g; v2 = (1+m)g, p2 = p1 - eta*(1+m)g
    eta, m = 0.03, 0.9
    p0 = np.array([0.4, -1.2])
    g = np.array([2.0, 1.0])
    p = p0.copy()
    v = np.zeros(2)
    sgd_momentum_step([p], [g], [v], m, eta)
    sgd_momentum_step([p], [g], [v], m, eta)
    expected = p0 - eta * g - eta * (1 + m) * g
    assert np.max(np.abs(p - expected)) < 1e-15
    # total displacement equals -eta*(2+m)*g ~ -0.087*g here
    assert np.max(np.abs((p - p0) + 0.087 * g)) < 1e-15


def test_sgd_updates_params_and_velocities_in_place():
    p, v = np.ones(3), np.zeros(3)
    assert sgd_momentum_step([p], [np.ones(3)], [v], 0.9, 0.5) is None
    assert np.array_equal(p, np.full(3, 0.5))
    assert np.array_equal(v, np.ones(3))


def test_sgd_refuses_misaligned_buffers():
    p = np.ones(2)
    with pytest.raises(ValueError, match="must align"):
        sgd_momentum_step([p], [np.ones(2)], [], 0.5, 0.0)
    with pytest.raises(ValueError, match="shape mismatch"):
        sgd_momentum_step([p], [np.ones(3)], [np.zeros(2)], 0.5, 0.0)


# ---------------------------------------------------------------------------
# prototype updates


def test_update_prototypes_zero_gradient_is_identity():
    rng = np.random.default_rng(33)
    bank = PrototypeBank.random(3, 4, rng)
    before = bank.prototypes.copy()
    update_prototypes(bank, np.zeros_like(before), np.zeros_like(before), 0.9, 0.05)
    assert np.array_equal(bank.prototypes, before)


def test_update_prototypes_zero_lr_accumulates_velocity_only():
    rng = np.random.default_rng(34)
    bank = PrototypeBank.random(3, 4, rng)
    before = bank.prototypes.copy()
    g = rng.normal(size=before.shape)
    velocity = np.zeros_like(before)
    update_prototypes(bank, g, velocity, 0.9, 0.0)
    assert np.array_equal(bank.prototypes, before)
    assert np.array_equal(velocity, g)


def test_update_prototypes_radial_gradient_keeps_direction():
    rng = np.random.default_rng(35)
    bank = PrototypeBank.random(3, 5, rng)
    before = bank.prototypes.copy()
    # gradient parallel to each prototype shrinks the radius only; the
    # renormalization restores the original direction
    g = 0.7 * before
    update_prototypes(bank, g, np.zeros_like(before), 0.0, 0.1)
    assert np.max(np.abs(bank.prototypes - before)) < 1e-12


def test_update_prototypes_renormalizes_rows():
    rng = np.random.default_rng(36)
    bank = PrototypeBank.random(4, 6, rng)
    g = rng.normal(size=bank.prototypes.shape)
    before = bank.prototypes.copy()
    update_prototypes(bank, g, np.zeros_like(g), 0.9, 0.1)
    norms = np.linalg.norm(bank.prototypes, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9
    assert not np.array_equal(bank.prototypes, before)


def test_update_prototypes_collapse_to_zero_is_a_zero_norm_error():
    # momentum 0 and lr 1 step each row by its whole gradient: row 1 lands on zero
    bank = PrototypeBank.random(3, 4, np.random.default_rng(38))
    g = np.zeros_like(bank.prototypes)
    g[1] = bank.prototypes[1]
    with pytest.raises(FloatingPointError, match=r"^prototype row 1 has zero norm$"):
        update_prototypes(bank, g, np.zeros_like(g), 0.0, 1.0)


def test_update_prototypes_at_an_overflowing_rate_is_a_non_finite_norm_error():
    # at lr 1e200 every row's squared norm overflows; its rows would divide to zero
    bank = PrototypeBank.random(3, 4, np.random.default_rng(39))
    g = np.random.default_rng(40).normal(size=bank.prototypes.shape)
    with pytest.raises(FloatingPointError, match=r"^prototype row 0 has a non-finite norm$"):
        update_prototypes(bank, g, np.zeros_like(g), 0.9, 1e200)


def test_update_prototypes_velocity_carries_across_calls():
    # a first call under lr=0 banks velocity; a second call with zero
    # gradient still moves the prototypes through the decayed velocity
    rng = np.random.default_rng(37)
    bank = PrototypeBank.random(2, 3, rng)
    g = rng.normal(size=bank.prototypes.shape)
    velocity = np.zeros_like(g)
    update_prototypes(bank, g, velocity, 0.9, 0.0)
    before = bank.prototypes.copy()
    update_prototypes(bank, np.zeros_like(g), velocity, 0.9, 0.05)
    assert not np.array_equal(bank.prototypes, before)


def test_apply_gradients_descends_on_simple_objective():
    # one long optimization of <z, target> confirms the full wiring:
    # forward, backward, apply_gradients, fresh cache each step
    enc = small_encoder(seed=41)
    rng = np.random.default_rng(10)
    x = rng.normal(size=(8, 5))
    target = unit_rows(rng, 8, 3)
    velocities = [np.zeros_like(p) for p in enc.parameters()]

    def objective(z):
        return float(-np.sum(z * target))

    z, cache = enc.forward(x)
    first = objective(z)
    for _ in range(60):
        z, cache = enc.forward(x)
        grads = enc.backward(cache, -target)
        enc.apply_gradients(grads, velocities, 0.9, 0.05)
    z, _ = enc.forward(x)
    assert objective(z) < first - 0.5
