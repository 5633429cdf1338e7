"""Network builders, masked forward equivalence, preserved counts, FLOPs."""

import numpy as np
import pytest

import robustprune.tensor as T
from robustprune import adversary
from robustprune.adversary import AttackConfig, RobustLossConfig, pgd, robust_step
from robustprune.network import (POOL, RELU, SAVE, LayerSpec, Network, PrunableLayer, build_network,
                                 count_preserved, flops)
from robustprune.tensor import Tensor

from helpers import brute_force_preserved, mac_count


def _input(rng, n=5, size=16):
    return Tensor(rng.uniform(0, 1, size=(n, 1, size, size)))


def test_conv_small_construction_contract():
    net = build_network("conv-small", (1, 16, 16), 2, seed=1)
    assert len(net.layers) >= 4
    assert net.total_params >= 10_000


def test_resnet_tiny_has_residual_links():
    net = build_network("resnet-tiny", (1, 16, 16), 2, seed=1)
    assert net.residual_links


def test_mlp_final_layer_matches_classes():
    net = build_network("mlp-small", (1, 16, 16), 2, seed=1)
    assert net.layers[-1].spec.c_o == 2


def test_unknown_arch_rejected():
    with pytest.raises(ValueError, match="unknown architecture"):
        build_network("vgg-19", (1, 16, 16), 2)


# Layer tables at input (1, 8, 8) and 3 classes, written out by hand.
# Checkpoints and CSV columns depend on the names, order and shapes.
EXPECTED_SPECS = {
    "mlp-small": [LayerSpec("fc1", "fc", 64, 64), LayerSpec("fc2", "fc", 64, 32),
                  LayerSpec("fc3", "fc", 32, 3)],
    "conv-small": [
        LayerSpec("conv1", "conv", 1, 12, kernel=3, spatial_out=8, padding=1),
        LayerSpec("conv2", "conv", 12, 24, kernel=3, spatial_out=4, padding=1),
        LayerSpec("conv3", "conv", 24, 24, kernel=3, spatial_out=2, padding=1),
        LayerSpec("fc1", "fc", 96, 32), LayerSpec("fc2", "fc", 32, 3),
    ],
    "resnet-tiny": [
        LayerSpec("conv1", "conv", 1, 16, kernel=3, spatial_out=8, padding=1),
        LayerSpec("block.conv_a", "conv", 16, 16, kernel=3, spatial_out=4, padding=1),
        LayerSpec("block.conv_b", "conv", 16, 16, kernel=3, spatial_out=4, padding=1),
        LayerSpec("block.shortcut", "shortcut-conv", 16, 16, kernel=1, spatial_out=4),
        LayerSpec("fc", "fc", 64, 3),
    ],
}
# Per-layer sums of the seed-0 initial weights: the init RNG order is fixed.
EXPECTED_INIT_SUMS = {
    "mlp-small": [-13.423574334654127, -3.0583809070022205, 0.14832359825793906],
    "conv-small": [-0.5290489354344402, -8.183843310241409, 0.14755040502273786,
                   -17.97538472761234, 1.1714508417077694],
    "resnet-tiny": [-1.5400858976073544, -5.869554317569336, -1.880466026015258,
                    3.4261133641305306, -2.346727238660426],
}


@pytest.mark.parametrize("arch", sorted(EXPECTED_SPECS))
def test_step_list_derives_layer_table_and_init(arch):
    net = build_network(arch, (1, 8, 8), 3, seed=0)
    assert [l.spec for l in net.layers] == EXPECTED_SPECS[arch]
    assert net.residual_links == ([(1, 3)] if arch == "resnet-tiny" else [])
    sums = [float(l.params.values.sum()) for l in net.layers]
    assert sums == pytest.approx(EXPECTED_INIT_SUMS[arch], rel=1e-12)


@pytest.mark.parametrize("arch", ["conv-small", "resnet-tiny"])
def test_spatial_dims_must_survive_both_pools(arch):
    with pytest.raises(ValueError, match="divisible by 4"):
        build_network(arch, (1, 18, 18), 2)


def test_layers_must_match_the_step_list():
    layer = PrunableLayer(LayerSpec("fc1", "fc", 4, 2), Tensor(np.ones((4, 2))))
    with pytest.raises(ValueError, match="step list"):
        Network("mlp-small", [layer], (4,), 2)
    net = Network("mlp-small", [layer], (4,), 2, steps=[("fc1", "fc", None)])
    assert np.array_equal(net.forward(Tensor(np.ones((3, 4)))).values, np.full((3, 2), 4.0))


# The step lists as first written, with relu before each pool.
RELU_THEN_POOL = {
    "conv-small": [
        ("conv1", "conv", 12), RELU, POOL,
        ("conv2", "conv", 24), RELU, POOL,
        ("conv3", "conv", 24), RELU,
        ("fc1", "fc", 32), RELU,
        ("fc2", "fc", None),
    ],
    "resnet-tiny": [
        ("conv1", "conv", 16), RELU, POOL, SAVE,
        ("block.conv_a", "conv", 16), RELU,
        ("block.conv_b", "conv", 16),
        ("block.shortcut", "shortcut-conv", 16), RELU, POOL,
        ("fc", "fc", None),
    ],
}


@pytest.mark.parametrize("kind", ["pgd-at", "trades"])
@pytest.mark.parametrize("arch", sorted(RELU_THEN_POOL))
def test_pool_before_relu_matches_relu_before_pool(arch, kind, monkeypatch):
    # max is monotone: both orders give the same logits, attack and gradients,
    # up to the sign of zeros, which np.array_equal does not see
    net = build_network(arch, (1, 8, 8), 3, seed=4)
    relu_first = Network(arch, net.layers, (1, 8, 8), 3, steps=RELU_THEN_POOL[arch])
    assert net.steps != relu_first.steps
    rng = np.random.default_rng(4)
    for layer in net.layers:
        layer.set_mask((rng.uniform(size=layer.spec.weight_shape) > 0.3).astype(float))
    x, y = rng.uniform(0, 1, size=(16, 1, 8, 8)), rng.integers(0, 3, size=16)
    attacks = []

    def recording_pgd(*args, **kwargs):
        attacks.append(pgd(*args, **kwargs))
        return attacks[-1]

    monkeypatch.setattr(adversary, "pgd", recording_pgd)

    def step(n):
        with T.no_grad():
            logits = n.forward(Tensor(x)).values
        loss = robust_step(n, x, y, RobustLossConfig(kind), AttackConfig(8 / 255, 2 / 255, 3),
                           np.random.default_rng(5), "test")
        grads = [(l.params.grad, l.mask_tensor.grad) for l in n.layers]
        return [loss, logits, attacks[-1]] + [g for pair in grads for g in pair]

    for i, (a, b) in enumerate(zip(step(net), step(relu_first), strict=True)):
        assert np.array_equal(a, b), i


def test_build_is_deterministic():
    a = build_network("conv-small", (1, 16, 16), 2, seed=9)
    b = build_network("conv-small", (1, 16, 16), 2, seed=9)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.params.values, lb.params.values)


def test_fan_in_convention():
    net = build_network("conv-small", (1, 16, 16), 2, seed=0)
    conv, fc = net.layers[1].spec, net.layers[3].spec
    assert conv.fan_in == conv.c_i * conv.kernel**2
    assert fc.fan_in == fc.c_i


@pytest.mark.parametrize("arch", ["mlp-small", "conv-small", "resnet-tiny"])
def test_all_ones_mask_is_identity(arch):
    # all-ones masks of either shape leave the weights the forward multiplies bit-identical
    net = build_network(arch, (1, 16, 16), 3, seed=4)
    for mask_shape in (lambda s: s.weight_shape, lambda s: (s.c_i,)):
        for layer in net.layers:
            layer.set_mask(np.ones(mask_shape(layer.spec)))
            masked, plain = T.mul(layer.params, layer.mask_tensor).values, layer.params.values
            assert np.array_equal(masked, plain)


def test_all_zero_masks_make_logits_constant():
    rng = np.random.default_rng(5)
    net = build_network("conv-small", (1, 16, 16), 2, seed=5)
    for layer in net.layers:
        layer.set_mask(np.zeros(layer.spec.weight_shape))
    with T.no_grad():
        a = net.forward(_input(rng)).values
        b = net.forward(_input(rng)).values
    assert np.array_equal(a, b)
    assert np.array_equal(a, np.zeros_like(a))


def test_zeroed_weight_equals_zeroed_mask_entry():
    rng = np.random.default_rng(6)
    net = build_network("conv-small", (1, 16, 16), 2, seed=6)
    x = _input(rng)
    mask = np.ones(net.layers[1].spec.weight_shape)
    mask[3, 5, 1, 2] = 0.0
    net.layers[1].set_mask(mask)
    with T.no_grad():
        via_mask = net.forward(x).values
    net.layers[1].set_mask(np.ones_like(mask))
    net.layers[1].params.values[3, 5, 1, 2] = 0.0
    with T.no_grad():
        via_theta = net.forward(x).values
    assert np.array_equal(via_mask, via_theta)


@pytest.mark.parametrize("arch,granularity", [
    ("conv-small", "weight"),
    ("resnet-tiny", "channel"),
    ("mlp-small", "channel"),
])
def test_masked_forward_equivalence_oracle(arch, granularity):
    # masked forward must be bit-identical to overwriting theta <- theta*mask
    rng = np.random.default_rng(7)
    net = build_network(arch, (1, 16, 16), 2, seed=7)
    _random_masks(net, granularity, rng)
    x = _input(rng)
    with T.no_grad():
        masked = net.forward(x).values
    for layer in net.layers:
        layer.params.values *= layer.broadcast_mask()
        layer.set_mask(np.ones(layer.spec.weight_shape))
    with T.no_grad():
        overwritten = net.forward(x).values
    assert np.array_equal(masked, overwritten)


@pytest.mark.parametrize("granularity", ["weight", "channel"])
@pytest.mark.parametrize("arch", ["mlp-small", "conv-small", "resnet-tiny"])
def test_logits_do_not_depend_on_what_the_tape_records(arch, granularity):
    # a natural forward may share its logits between evaluation (no_grad), the attack
    # (input_grads_only) and training (full tape) only if all three are bit-identical
    rng = np.random.default_rng(9)
    net = build_network(arch, (1, 16, 16), 3, seed=9)
    _random_masks(net, granularity, rng)
    x = rng.uniform(0, 1, size=(6, 1, 16, 16))
    with T.no_grad():
        untraced = net.forward(Tensor(x)).values
    with T.scoped_tape(), T.input_grads_only():
        input_grads = net.forward(Tensor(x, requires_grad=True)).values
    with T.scoped_tape():
        full = net.forward(Tensor(x)).values
    assert np.array_equal(untraced, input_grads) and np.array_equal(untraced, full)


def _random_masks(net, granularity, rng):
    """Install a random {0,1} mask on every layer, weight-shaped or one entry per channel."""
    for layer in net.layers:
        if granularity == "weight":
            layer.set_mask((rng.uniform(size=layer.spec.weight_shape) > 0.3).astype(float))
        else:
            m = (rng.uniform(size=layer.spec.c_i) > 0.3).astype(float)
            m[0] = 1.0  # keep at least one channel alive
            layer.set_mask(m)


def test_count_preserved_all_ones():
    net = build_network("conv-small", (1, 16, 16), 2, seed=8)
    total, per_layer = count_preserved(net)
    assert total == net.total_params
    assert per_layer == [l.spec.weight_count for l in net.layers]


def test_count_preserved_half_masked():
    net = build_network("mlp-small", (1, 16, 16), 2, seed=8)
    layer = net.layers[1]  # 64x32 = 2048 weights
    mask = np.ones(layer.spec.weight_shape)
    mask.ravel()[: mask.size // 2] = 0.0
    layer.set_mask(mask)
    _, per_layer = count_preserved(net)
    assert per_layer[1] == mask.size // 2


def test_count_preserved_channel_mask_broadcast():
    # 4x8x3x3 conv keeping 2 of 4 input channels -> 2*8*9 = 144 weights
    spec = LayerSpec("toy", "conv", 4, 8, kernel=3, spatial_out=4)
    toy = PrunableLayer(spec, Tensor(np.random.default_rng(0).normal(size=spec.weight_shape)))
    toy.set_mask(np.array([1.0, 0.0, 1.0, 0.0]))
    preserved = int(np.count_nonzero(toy.masked_weights()))
    assert preserved == 144
    assert preserved == brute_force_preserved(toy.params.values, toy.mask)


@pytest.mark.parametrize("mask", [np.array([1.0, 0.0, 1.0, 1.0]),
                                  (np.arange(4 * 8 * 9).reshape(4, 8, 3, 3) % 3 > 0) * 1.0],
                         ids=["channel", "weight"])
def test_masked_weights_is_theta_times_the_broadcast_mask(mask):
    spec = LayerSpec("toy", "conv", 4, 8, kernel=3, spatial_out=4)
    toy = PrunableLayer(spec, Tensor(np.random.default_rng(1).normal(size=spec.weight_shape)))
    toy.set_mask(mask)
    assert np.array_equal(toy.masked_weights(), toy.params.values * toy.broadcast_mask())


def test_count_preserved_matches_brute_force_randomized():
    rng = np.random.default_rng(12)
    net = build_network("mlp-small", (1, 8, 8), 2, seed=12)
    for _ in range(100):
        for layer in net.layers:
            if rng.uniform() < 0.5:
                layer.set_mask((rng.uniform(size=layer.spec.weight_shape) > rng.uniform()).astype(float))
            else:
                layer.set_mask((rng.uniform(size=layer.spec.c_i) > rng.uniform()).astype(float))
        total, per_layer = count_preserved(net)
        expected = [brute_force_preserved(l.params.values, l.mask) for l in net.layers]
        assert per_layer == expected
        assert total == sum(expected)


def test_flops_unpruned_conv_and_fc():
    net = build_network("conv-small", (1, 16, 16), 2, seed=3)
    _, per_layer = flops(net)
    specs = [l.spec for l in net.layers]
    for cost, s in zip(per_layer, specs):
        assert cost == mac_count(s.c_i, s.c_o, s.kernel, s.spatial_out, s.kind == "fc")
    # hand value: conv c_i=3, c_o=8, k=3, spatial 8 -> 13824 MACs
    assert mac_count(3, 8, 3, 8, False) == 13824.0
    toy_total = 3 * 8 * 9 * 64
    assert toy_total == 13824
    # fc 10 -> 2 unpruned costs 20
    assert mac_count(10, 2, 1, 1, True) == 20.0


def test_flops_halves_with_half_input_channels():
    net = build_network("resnet-tiny", (1, 16, 16), 2, seed=3)
    layer = net.layers[1]
    _, before = flops(net)
    mask = np.ones(layer.spec.c_i)
    mask[: layer.spec.c_i // 2] = 0.0
    layer.set_mask(mask)
    _, after = flops(net)
    assert after[1] == pytest.approx(before[1] / 2)


def test_flops_monotone_in_mask_entries():
    rng = np.random.default_rng(13)
    net = build_network("conv-small", (1, 16, 16), 2, seed=13)
    masks = [(rng.uniform(size=l.spec.weight_shape) > 0.2).astype(float) for l in net.layers]
    for layer, m in zip(net.layers, masks):
        layer.set_mask(m)
    total_before, _ = flops(net)
    for _ in range(50):
        li = rng.integers(len(masks))
        flat = masks[li].ravel()
        ones = np.flatnonzero(flat)
        if ones.size == 0:
            continue
        flat[rng.choice(ones)] = 0.0
        net.layers[li].set_mask(masks[li])
        total_after, _ = flops(net)
        assert total_after <= total_before
        total_before = total_after


def test_input_shape_mismatch_is_descriptive():
    net = build_network("conv-small", (1, 16, 16), 2, seed=1)
    with pytest.raises(T.ShapeError, match="conv-small"):
        net.forward(Tensor(np.zeros((2, 1, 8, 8))))
