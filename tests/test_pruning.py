"""Rate activation, initializers, top-fraction masks, budget losses, STE gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustprune.adversary import DivergenceError
from robustprune.network import LayerSpec, PrunableLayer, build_network
from robustprune.pruning import (
    CompressionConfig,
    GammaSchedule,
    build_masks,
    g_activation,
    g_derivative,
    gamma_update,
    hw_loss_count,
    hw_loss_flops,
    init_rate,
    init_scores_channel,
    init_scores_weight,
    ste_rate_grad,
    ste_score_grad,
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


# --- budget losses ---


def test_hw_loss_on_budget_is_zero():
    assert hw_loss_count(10, 1000, 0.01) == 0.0


def test_hw_loss_overshoot_value():
    assert hw_loss_count(20, 1000, 0.01) == pytest.approx(1.0)


def test_hw_loss_under_budget_clamped():
    assert hw_loss_count(3, 1000, 0.01) == 0.0


def test_hw_loss_flops_same_arithmetic():
    assert hw_loss_flops(0.5 * 1000, 1000.0, 0.5) == 0.0
    assert hw_loss_flops(2 * 0.5 * 1000, 1000.0, 0.5) == pytest.approx(1.0)


@given(st.integers(0, 10_000), st.integers(1, 10_000), st.floats(0.001, 1.0))
@settings(max_examples=200, deadline=None)
def test_hw_loss_clamp_property(preserved, total, k_t):
    value = hw_loss_count(preserved, total, k_t)
    if preserved <= k_t * total:
        assert value == 0.0
    else:
        assert value > 0.0


# --- straight-through gradients ---


def test_ste_score_grad_single_weight():
    g = ste_score_grad(np.array([3.0]), np.array([2.0]))
    assert g[0] == 6.0


def test_ste_score_grad_zero_theta():
    g = ste_score_grad(np.ones((3, 3)), np.zeros((3, 3)))
    assert np.array_equal(g, np.zeros((3, 3)))


def test_ste_score_grad_channel_reduction():
    theta = np.array([[1.0], [2.0]]).reshape(1, 2, 1, 1).transpose(1, 0, 2, 3)
    up = np.array([[3.0], [4.0]]).reshape(1, 2, 1, 1).transpose(1, 0, 2, 3)
    # one channel holding both weights: 1*3 + 2*4 = 11
    theta2 = np.array([1.0, 2.0]).reshape(1, 2, 1, 1)
    up2 = np.array([3.0, 4.0]).reshape(1, 2, 1, 1)
    layer = PrunableLayer(LayerSpec("toy", "conv", 1, 2, kernel=1), Tensor(theta2))
    layer.set_mask(np.ones(1))
    g = layer.reduce_to_mask(ste_score_grad(up2, theta2))
    assert g.shape == (1,)
    assert g[0] == 11.0


def test_ste_rate_grad_composition():
    # single weight theta=2, upstream=3, r=0, k_min=0: 6 * 0.25 = 1.5
    g = ste_rate_grad(np.array([3.0]), np.array([2.0]), r=0.0, k_min=1e-12)
    assert g == pytest.approx(1.5, rel=1e-9)


def test_ste_rate_grad_zero_upstream():
    assert ste_rate_grad(np.zeros((4, 4)), np.ones((4, 4)), r=1.0, k_min=0.01) == 0.0


def test_ste_rate_grad_sign_follows_sum():
    theta = np.array([1.0, -1.0, 2.0])
    up = np.array([1.0, 1.0, 1.0])
    pos = ste_rate_grad(up, theta, r=0.3, k_min=0.01)
    neg = ste_rate_grad(-up, theta, r=0.3, k_min=0.01)
    assert pos > 0 > neg
    assert pos == pytest.approx(-neg)


# --- gamma schedule ---


def test_gamma_ramp_value():
    sched = GammaSchedule(step=0.01)
    for epoch in range(1, 6):
        gamma_update(sched, epoch, hw_loss_value=1.0)
    assert sched.current == pytest.approx(0.05)
    assert not sched.frozen


def test_gamma_freezes_at_first_zero():
    sched = GammaSchedule(step=0.01)
    for epoch in range(1, 11):
        gamma_update(sched, epoch, hw_loss_value=1.0)
    gamma_update(sched, 11, hw_loss_value=0.0)
    assert sched.frozen and sched.arrival_epoch == 11
    assert sched.current == pytest.approx(0.11)
    for epoch in range(12, 21):
        assert gamma_update(sched, epoch, hw_loss_value=0.5) == pytest.approx(0.11)
    assert sched.arrival_epoch == 11


def test_gamma_small_step_never_arrives():
    sched = GammaSchedule(step=0.001)
    values = [gamma_update(sched, e, hw_loss_value=2.0) for e in range(1, 21)]
    assert sched.arrival_epoch is None
    assert values == pytest.approx([0.001 * e for e in range(1, 21)])
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_compression_config_invariants():
    cfg = CompressionConfig(k_t=0.01)
    assert cfg.k_min == pytest.approx(0.001)
    with pytest.raises(ValueError):
        CompressionConfig(k_t=0.0)
    with pytest.raises(ValueError):
        CompressionConfig(k_t=0.5, k_init=0.01)  # below k_min
    with pytest.raises(ValueError):
        CompressionConfig(k_t=0.5, budget="flops", granularity="weight")
