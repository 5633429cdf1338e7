"""Rate activation, initializers, top-fraction masks, budget loss, straight-through gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustprune.tensor as T
from robustprune.adversary import AttackConfig, DivergenceError, RobustLossConfig, robust_step
from robustprune.config import RunConfig
from robustprune.data import ingest
from robustprune.network import LayerSpec, Network, PrunableLayer, build_network
from robustprune.pipeline import stage_prune
from robustprune.pruning import (
    CompressionConfig,
    build_masks,
    g_activation,
    g_derivative,
    hw_loss,
    init_rate,
    init_scores_channel,
    init_scores_weight,
    prune_epoch,
    top_fraction_mask,
)
from robustprune.tensor import Tensor

from helpers import brute_force_mask, rel_err


# --- rate activation ---


def test_g_limits():
    assert g_activation(40.0, 0.01) == pytest.approx(1.0, abs=1e-12)
    assert g_activation(-40.0, 0.01) == pytest.approx(0.01, abs=1e-12)


def test_g_at_zero():
    assert g_activation(0.0, 0.001) == pytest.approx(0.5005, abs=1e-12)


def test_g_strictly_increasing():
    rs = np.linspace(-6, 6, 200)
    vals = [g_activation(r, 0.05) for r in rs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_g_derivative_at_zero():
    # k_min -> 0 limit gives the plain sigmoid slope 0.25
    assert g_derivative(0.0, 1e-12) == pytest.approx(0.25, rel=1e-9)


def test_g_derivative_matches_finite_difference():
    h = 1e-6
    for r in np.linspace(-4, 4, 17):
        fd = (g_activation(r + h, 0.01) - g_activation(r - h, 0.01)) / (2 * h)
        assert rel_err(g_derivative(r, 0.01), fd) < 1e-8


def test_g_limits_where_exp_overflows():
    # math.exp(-r) overflows for r below about -709; the limits come back instead
    k_min = 0.001
    assert g_activation(-1000.0, k_min) == k_min
    assert g_derivative(-1000.0, k_min) == 0.0
    assert g_activation(1000.0, k_min) == 1.0
    assert g_derivative(1000.0, k_min) == 0.0
    # just inside the float range the formula itself still runs
    assert g_derivative(-709.0, k_min) > 0.0


def test_g_derivative_saturates():
    assert g_derivative(20.0, 0.0001) < 1e-8
    assert g_derivative(-20.0, 0.0001) < 1e-8
    assert g_derivative(20.0, 0.0001) > 0.0


# --- rate initialization ---


def test_init_rate_hand_value():
    r = init_rate(0.1, 0.001)
    assert r == pytest.approx(math.log(0.099 / 0.9), abs=1e-12)
    assert r == pytest.approx(-2.2073, abs=5e-5)


def test_init_rate_zero_point():
    k_min = 0.04
    k_init = (1 + k_min) / 2
    assert init_rate(k_init, k_min) == pytest.approx(0.0, abs=1e-12)
    assert g_activation(0.0, k_min) == pytest.approx(k_init, abs=1e-12)


def test_init_rate_rejects_out_of_range():
    with pytest.raises(ValueError):
        init_rate(1.0, 0.01)
    with pytest.raises(ValueError):
        init_rate(0.005, 0.01)


@given(st.floats(1e-4, 0.5), st.floats(0.01, 0.99))
@settings(max_examples=100, deadline=None)
def test_init_rate_roundtrip(k_min, frac):
    k = k_min + frac * (1.0 - k_min)
    if not k_min < k < 1.0 - 1e-9:
        return
    assert abs(g_activation(init_rate(k, k_min), k_min) - k) < 1e-12


# --- score initialization ---


def test_score_init_eta():
    theta = np.array([3.0, -1.0, 2.0])
    s = init_scores_weight(theta, fan_in=27)
    eta = math.sqrt(6.0 / 27.0)
    assert eta == pytest.approx(0.4714, abs=5e-5)
    assert s[0] == pytest.approx(eta)
    assert np.allclose(s, eta * theta / 3.0)


def test_score_init_endpoints():
    theta = np.array([0.7, -0.7, 0.1])
    s = init_scores_weight(theta, fan_in=6)
    assert s[0] == pytest.approx(1.0)   # eta = sqrt(6/6) = 1
    assert s[1] == pytest.approx(-1.0)


def test_score_init_preserves_order():
    rng = np.random.default_rng(2)
    theta = rng.normal(size=(5, 4, 3, 3))
    s = init_scores_weight(theta, fan_in=45)
    assert np.array_equal(np.argsort(s.ravel()), np.argsort(theta.ravel()))
    # magnitude ranking is preserved too (positive scaling)
    assert np.array_equal(np.argsort(np.abs(s).ravel()), np.argsort(np.abs(theta).ravel()))


def test_score_init_rejects_zero_layer():
    with pytest.raises(ValueError):
        init_scores_weight(np.zeros((2, 2)), fan_in=4)
    with pytest.raises(ValueError):
        init_scores_channel(np.zeros((2, 2, 3, 3)), fan_in=18)


def test_channel_score_single_mass_channel():
    theta = np.zeros((3, 2, 3, 3))
    theta[1] = 0.5
    s = init_scores_channel(theta, fan_in=27)
    eta = math.sqrt(6.0 / 27.0)
    assert s[1] == pytest.approx(eta)
    assert s[0] == 0.0 and s[2] == 0.0


def test_channel_score_uniform_magnitudes():
    theta = np.full((4, 2, 3, 3), -0.25)
    s = init_scores_channel(theta, fan_in=36)
    assert np.allclose(s, math.sqrt(6.0 / 36.0))


def test_channel_score_hand_sums():
    # channel 0: |1|+|2|=3 ; channel 1: |3|+|4|=7 -> scores eta*(3/7, 1)
    theta = np.array([[[[1.0]], [[-2.0]]], [[[3.0]], [[-4.0]]]])  # (2, 2, 1, 1)
    s = init_scores_channel(theta, fan_in=2)
    eta = math.sqrt(3.0)
    assert np.allclose(s, [eta * 3 / 7, eta])


# --- percentile masks ---


def test_percentile_mask_sorted_example():
    mask = top_fraction_mask(np.array([1.0, 2.0, 3.0, 4.0]), 0.5)
    assert np.array_equal(mask, [0, 0, 1, 1])


def test_percentile_alpha_zero_keeps_all():
    # pruning fraction 0 (rate 1) keeps every entry, including the lowest float
    scores = np.array([0.5, -1.0, 2.0, -np.finfo(np.float64).max])
    assert np.array_equal(top_fraction_mask(scores, 1.0), np.ones(4))


def test_percentile_tie_break_by_flat_index():
    mask = top_fraction_mask(np.full(4, 7.0), 0.5)
    assert np.array_equal(mask, [1, 1, 0, 0])


def test_mask_floor_keeps_one():
    mask = top_fraction_mask(np.array([3.0, 9.0, 1.0]), 0.0001)
    assert mask.sum() == 1
    assert mask[1] == 1.0


@given(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=60),
    st.floats(0.001, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_percentile_mask_matches_brute_force(scores, rate):
    scores = np.array(scores)
    mine = top_fraction_mask(scores, rate)
    assert np.array_equal(mine, brute_force_mask(scores, rate))
    keep = max(1, int(math.floor(rate * scores.size + 0.5)))
    assert mine.sum() == min(keep, scores.size)


def test_empty_scores_rejected():
    with pytest.raises(ValueError, match="empty"):
        top_fraction_mask(np.array([]), 0.5)


def test_build_masks_cardinalities():
    rng = np.random.default_rng(3)
    net = build_network("mlp-small", (1, 8, 8), 2, seed=3)
    k_min = 0.01
    for layer, k in zip(net.layers, (1.0, 0.25, k_min)):
        layer.scores = Tensor(rng.normal(size=layer.spec.weight_shape))
        if k >= 1.0:
            r = 40.0  # saturated high: rate 1
        elif k <= k_min:
            r = -40.0  # saturated low: rate k_min
        else:
            r = init_rate(k, k_min)
        layer.quota = Tensor(np.asarray(r))
    build_masks(net, k_min)
    sizes = [l.spec.weight_count for l in net.layers]
    assert net.layers[0].mask.sum() == sizes[0]  # rate 1: all ones
    assert net.layers[1].mask.sum() == round(0.25 * sizes[1])
    assert net.layers[2].mask.sum() == max(1, math.floor(k_min * sizes[2] + 0.5))
    # retained set is exactly the top-k fraction by score
    for layer in net.layers:
        expect = brute_force_mask(layer.scores.values, layer.mask.sum() / layer.spec.weight_count)
        assert np.array_equal(layer.mask, expect)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_scores_rejected(bad):
    scores = np.array([0.5, -1.0, 2.0, 1.5])
    scores[3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        top_fraction_mask(scores, 1.0)


@pytest.mark.parametrize("where", ["scores", "quota"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_build_masks_names_layer_with_non_finite_state(where, bad):
    net = build_network("mlp-small", (1, 8, 8), 2, seed=3)
    for layer in net.layers:
        layer.scores = Tensor(np.ones(layer.spec.weight_shape))
        layer.quota = Tensor(np.asarray(0.0))
    getattr(net.layers[1], where).values.flat[0] = bad
    with pytest.raises(DivergenceError, match="fc2"):
        build_masks(net, 0.01)


def test_build_masks_thousand_weight_floor_example():
    # k = k_min = 0.01 on a 1000-weight layer keeps exactly 10
    scores = np.random.default_rng(0).normal(size=1000)
    assert top_fraction_mask(scores, 0.01).sum() == 10


# --- budget loss ---


def test_hw_loss_on_budget_is_zero():
    assert hw_loss(10, 1000, 0.01) == 0.0


def test_hw_loss_overshoot_value():
    assert hw_loss(20, 1000, 0.01) == pytest.approx(1.0)


def test_hw_loss_under_budget_clamped():
    assert hw_loss(3, 1000, 0.01) == 0.0


def test_hw_loss_flops_same_arithmetic():
    assert hw_loss(0.5 * 1000, 1000.0, 0.5) == 0.0
    assert hw_loss(2 * 0.5 * 1000, 1000.0, 0.5) == pytest.approx(1.0)


@given(st.integers(0, 10_000), st.integers(1, 10_000), st.floats(0.001, 1.0))
@settings(max_examples=200, deadline=None)
def test_hw_loss_clamp_property(preserved, total, k_t):
    value = hw_loss(preserved, total, k_t)
    if preserved <= k_t * total:
        assert value == 0.0
    else:
        assert value > 0.0


# --- straight-through gradients ---
# A layer's mask tensor is a tape leaf: after backward its gradient is
# d(loss)/d(theta * mask) * theta, whatever the mask holds.


def _mask_grad(spec, theta, upstream, mask):
    """The layer whose mask tensor took one backward with d(loss)/d(theta * mask) = upstream."""
    layer = PrunableLayer(spec, Tensor(theta, requires_grad=True))
    layer.set_mask(mask)
    with T.scoped_tape():
        theta_hat = T.mul(layer.params, layer.mask_tensor)
        T.backward(T.tensor_sum(T.mul(theta_hat, Tensor(upstream))))
    return layer


def test_ste_score_grad_single_weight():
    layer = _mask_grad(LayerSpec("toy", "fc", 1, 1), np.array([[2.0]]), np.array([[3.0]]),
                       np.ones((1, 1)))
    assert layer.mask_tensor.grad[0, 0] == 6.0


def test_ste_score_grad_zero_theta():
    layer = _mask_grad(LayerSpec("toy", "fc", 3, 3), np.zeros((3, 3)), np.ones((3, 3)),
                       np.ones((3, 3)))
    assert np.array_equal(layer.mask_tensor.grad, np.zeros((3, 3)))


def test_ste_score_grad_channel_reduction():
    # one pruned channel holding both weights still receives 1*3 + 2*4 = 11
    layer = _mask_grad(LayerSpec("toy", "conv", 1, 2, kernel=1),
                       np.array([1.0, 2.0]).reshape(1, 2, 1, 1),
                       np.array([3.0, 4.0]).reshape(1, 2, 1, 1), np.zeros(1))
    g = layer.reduce_to_mask(layer.mask_tensor.grad)
    assert g.shape == (1,)
    assert g[0] == 11.0


def _toy_prune_epoch(theta_row, x, k_t=1.0, gamma=0.0, quota=3.0):
    """One prune_epoch batch, without optimizers, on a net of one fc layer: a single
    input, one class per weight of ``theta_row``, label 0 and no attack.

    Returns the layer and the closed-form straight-through gradient of the
    cross-entropy, x * (softmax(x * theta) - onehot(0)) * theta per weight.
    """
    n = len(theta_row)
    layer = PrunableLayer(LayerSpec("toy", "fc", 1, n), Tensor(np.array([theta_row]),
                                                                requires_grad=True))
    layer.scores = Tensor(np.ones((1, n)))
    layer.quota = Tensor(np.asarray(quota))  # a rate that keeps every weight
    net = Network("toy", [layer], (1,), n, steps=[("toy", "fc", None)])
    batch = (np.array([[x]]), np.array([0]))
    prune_epoch(net, CompressionConfig(k_t=k_t, k_init=0.5), gamma, RobustLossConfig(),
                AttackConfig(0.0, 0.0, 1), [batch], None, None, np.random.default_rng(0))
    assert layer.mask.sum() == n
    logits = x * np.asarray(theta_row)
    p = np.exp(logits - logits.max()) / np.exp(logits - logits.max()).sum()
    return layer, x * (p - np.eye(n)[0]) * np.asarray(theta_row)


def test_ste_rate_grad_composition():
    # the quota receives (straight-through sum + gamma * budget slope per weight) * g'(r);
    # at k_t 0.5 both weights overshoot a budget of one by 1/(0.5 * 2) each
    layer, ste = _toy_prune_epoch([2.0, -1.0], 1.0, k_t=0.5, gamma=0.5)
    slope = g_derivative(3.0, 0.05)
    assert layer.scores.grad == pytest.approx(ste[None, :] + 0.5, rel=1e-12)
    assert float(layer.quota.grad) == pytest.approx((ste.sum() + 0.5 * 2) * slope, rel=1e-12)


def test_ste_rate_grad_zero_upstream():
    # a zero input gives the weights a zero upstream, so nothing passes through
    layer, _ = _toy_prune_epoch([2.0, -1.0], 0.0)
    assert float(layer.quota.grad) == 0.0
    assert np.array_equal(layer.scores.grad, np.zeros((1, 2)))


def test_ste_rate_grad_sign_follows_sum():
    pos_layer, pos = _toy_prune_epoch([-1.0, 2.0], 1.0)
    neg_layer, neg = _toy_prune_epoch([-1.0, 2.0], -1.0)
    assert pos.sum() > 0 > neg.sum()
    assert float(pos_layer.quota.grad) > 0 > float(neg_layer.quota.grad)
    for layer, ste in ((pos_layer, pos), (neg_layer, neg)):
        assert float(layer.quota.grad) == pytest.approx(ste.sum() * g_derivative(3.0, 0.1),
                                                        rel=1e-12)


@pytest.mark.parametrize("arch", ["mlp-small", "resnet-tiny"])
@pytest.mark.parametrize("kind", ["trades", "pgd-at"])
def test_mask_grad_is_straight_through_over_every_forward(kind, arch):
    # under all-ones masks the oracle is d(loss)/d(theta) * theta; TRADES runs two
    # differentiable forwards, natural and adversarial, and both must count
    net = build_network(arch, (1, 8, 8), 2, seed=9)
    rng = np.random.default_rng(9)
    x, y = rng.uniform(0, 1, size=(16, 1, 8, 8)), rng.integers(0, 2, size=16)
    robust_step(net, x, y, RobustLossConfig(kind), AttackConfig(8 / 255, 2 / 255, 2), rng, "test")
    for layer in net.layers:
        oracle = layer.params.grad * layer.params.values
        np.testing.assert_allclose(layer.mask_tensor.grad, oracle, rtol=1e-12,
                                   atol=1e-12 * np.abs(oracle).max(), err_msg=layer.spec.name)


# --- gamma schedule ---


def _scripted_prune(monkeypatch, gamma_step, hw_losses):
    """stage_prune with prune_epoch replaced by one reporting these mean budget losses."""
    cfg = RunConfig(seed=3, arch="mlp-small")
    cfg.dataset = {"kind": "synthetic", "n": 40, "size": 8, "classes": 2, "test_fraction": 0.5}
    cfg.prune_epochs = len(hw_losses)
    cfg.compression = CompressionConfig(k_t=0.5, gamma_step=gamma_step)
    scripted = iter(hw_losses)
    monkeypatch.setattr("robustprune.pipeline.prune_epoch", lambda *args: {
        "robust_loss": 0.5, "hw_loss": next(scripted), "global_rate": 0.5,
        "layer_rates": [0.5] * 3})
    train, _ = ingest(cfg.dataset, cfg.seed)
    _, history = stage_prune(cfg, build_network(cfg.arch, (1, 8, 8), 2, seed=3), train)
    return [row["gamma"] for row in history.epochs], history.arrival_epoch


def test_gamma_ramp_value(monkeypatch):
    gammas, arrival = _scripted_prune(monkeypatch, 0.01, [1.0] * 5)
    assert gammas[-1] == pytest.approx(0.05)
    assert arrival is None


def test_gamma_freezes_at_first_zero(monkeypatch):
    gammas, arrival = _scripted_prune(monkeypatch, 0.01, [1.0] * 10 + [0.0] + [0.5] * 9)
    assert arrival == 11
    assert gammas[10] == pytest.approx(0.11)
    assert gammas[11:] == pytest.approx([0.11] * 9)


def test_gamma_small_step_never_arrives(monkeypatch):
    gammas, arrival = _scripted_prune(monkeypatch, 0.001, [2.0] * 20)
    assert arrival is None
    assert gammas == pytest.approx([0.001 * e for e in range(1, 21)])
    assert all(a <= b for a, b in zip(gammas, gammas[1:]))


def test_compression_config_invariants():
    cfg = CompressionConfig(k_t=0.01)
    assert cfg.k_min == pytest.approx(0.001)
    with pytest.raises(ValueError):
        CompressionConfig(k_t=0.0)
    with pytest.raises(ValueError):
        CompressionConfig(k_t=0.5, k_init=0.01)  # below k_min
    with pytest.raises(ValueError):
        CompressionConfig(k_t=0.5, budget="flops", granularity="weight")
