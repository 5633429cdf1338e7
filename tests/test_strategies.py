"""Allocation baselines against brute-force oracles and paper-scale geometry."""

import csv
from types import SimpleNamespace

import numpy as np
import pytest

from robustprune import pruning, strategies
from robustprune.adversary import MetricRow
from robustprune.config import RunConfig
from robustprune.network import LayerSpec, PrunableLayer, Network, build_network, flops
from robustprune.pipeline import write_reports
from robustprune.pruning import top_fraction_mask
from robustprune.strategies import (
    apply_strategy,
    erk_strategy,
    lamp_scores,
    lamp_strategy,
    uniform_strategy,
)
from robustprune.tensor import Tensor

from helpers import erk_water_fill, lamp_scores_loop, lamp_scores_naive

# Layer geometry of the 16-layer cascade used in the paper-scale checks:
# thirteen 3x3 convs followed by three fully-connected layers.
CASCADE = (
    [("conv1", 3, 64, 3), ("conv2", 64, 64, 3), ("conv3", 64, 128, 3),
     ("conv4", 128, 128, 3), ("conv5", 128, 256, 3), ("conv6", 256, 256, 3),
     ("conv7", 256, 256, 3), ("conv8", 256, 512, 3)]
    + [(f"conv{i}", 512, 512, 3) for i in range(9, 14)]
    + [("fc1", 512, 1024, 1), ("fc2", 1024, 64, 1), ("fc3", 256, 10, 1)]
)


class _StubLayer(SimpleNamespace):
    """A layer of geometry only; it keeps an installed mask as booleans."""

    def set_mask(self, mask):
        self.mask = mask.astype(bool)


def _cascade_stub():
    layers = []
    for name, ci, co, k in CASCADE:
        kind = "fc" if k == 1 else "conv"
        layers.append(_StubLayer(spec=LayerSpec(name, kind, ci, co, kernel=k)))
    total = sum(l.spec.weight_count for l in layers)
    return SimpleNamespace(layers=layers, total_params=total)


def _toy_net(seed=0, arch="mlp-small"):
    return build_network(arch, (1, 8, 8), 2, seed=seed)


def _preserved(net, rates):
    """The kept counts of the masks apply_strategy installs at these rates (all scores tied)."""
    apply_strategy(net, rates, [np.broadcast_to(0.0, l.spec.weight_shape) for l in net.layers])
    return [int(l.mask.sum()) for l in net.layers]


# --- uniform ---


def test_uniform_rate_one_keeps_everything():
    net = _toy_net()
    rates = uniform_strategy(net, 1.0)
    assert rates == [1.0] * len(net.layers)
    assert sum(_preserved(net, rates)) == net.total_params


def test_uniform_cascade_preserved_counts():
    # per-layer counts at 99.9% sparsity on the cascade geometry; the final
    # fc layer keeps exactly 3 of its 2560 weights
    stub = _cascade_stub()
    expected = [2, 37, 74, 147, 295, 590, 590, 1180,
                2359, 2359, 2359, 2359, 2359, 524, 66, 3]
    assert _preserved(stub, uniform_strategy(stub, 0.001)) == expected


def test_uniform_rounding_stays_near_budget():
    stub = _cascade_stub()
    total = sum(_preserved(stub, uniform_strategy(stub, 0.001)))
    assert abs(total - 0.001 * stub.total_params) <= 0.001 * 0.001 * stub.total_params


# --- erk ---


def test_erk_identical_layers_get_equal_rates():
    specs = [("a", 16, 16, 3), ("b", 16, 16, 3)]
    stub = SimpleNamespace(
        layers=[SimpleNamespace(spec=LayerSpec(n, "conv", ci, co, kernel=k))
                for n, ci, co, k in specs],
        total_params=2 * 16 * 16 * 9,
    )
    rates = erk_strategy(stub, 0.3)
    assert rates[0] == pytest.approx(rates[1])


def test_erk_matches_water_fill_oracle():
    net = _toy_net(seed=5)
    for k_t in (0.5, 0.1, 0.02):
        rates = erk_strategy(net, k_t)
        sizes = [l.spec.weight_count for l in net.layers]
        raws = [(s.c_i + s.c_o + 2 * s.kernel) / (s.c_i * s.c_o * s.kernel**2)
                for s in (l.spec for l in net.layers)]
        expect = erk_water_fill(sizes, raws, k_t * net.total_params)
        assert rates == pytest.approx(expect, rel=1e-12)


def test_erk_caps_and_redistributes():
    # one tiny layer hits density 1 and hands its surplus to the big layer
    layers = [
        SimpleNamespace(spec=LayerSpec("small", "fc", 4, 4)),
        SimpleNamespace(spec=LayerSpec("big", "fc", 100, 100)),
    ]
    stub = SimpleNamespace(layers=layers, total_params=16 + 10_000)
    rates = erk_strategy(stub, 0.5)
    assert rates[0] == 1.0
    sizes = [16, 10_000]
    raws = [(4 + 4 + 2) / 16, (100 + 100 + 2) / 10_000]
    expect = erk_water_fill(sizes, raws, 0.5 * stub.total_params)
    assert rates[1] == pytest.approx(expect[1], rel=1e-12)


def test_erk_cascade_endpoints_dominate_middle():
    # the cascade run keeps front and back layers at far higher rates; the
    # observed endpoint rates sit near 0.058 and 0.143 at 99.9% sparsity
    rates = erk_strategy(_cascade_stub(), 0.001)
    first, last, middle = rates[0], rates[-1], rates[9]
    assert 0.05 < first < 0.07
    assert 0.13 < last < 0.16
    assert first > 50 * middle and last > 100 * middle


def test_erk_infeasible_budget_rejected():
    stub = SimpleNamespace(
        layers=[SimpleNamespace(spec=LayerSpec("a", "fc", 2, 2))],
        total_params=4,
    )
    with pytest.raises(ValueError):
        erk_strategy(stub, 1.0000001)


# --- lamp ---


def test_lamp_hand_example():
    scores = lamp_scores(np.array([1.0, 2.0, 3.0]))
    assert scores == pytest.approx([1 / 14, 4 / 13, 1.0])


def test_lamp_scores_match_naive():
    rng = np.random.default_rng(3)
    for _ in range(10):
        w = rng.normal(size=rng.integers(2, 30))
        assert np.allclose(lamp_scores(w), lamp_scores_naive(w), atol=1e-12)


def test_lamp_scores_equal_loop_reference():
    rng = np.random.default_rng(11)
    for _ in range(200):
        shape = tuple(rng.integers(1, 9, size=rng.integers(1, 4)))
        w = rng.normal(size=shape)
        tied = rng.random(shape) < 0.5  # ties, zeros and sign flips of equal magnitudes
        w[tied] = rng.integers(-3, 4, size=int(tied.sum())) * 0.5
        assert np.array_equal(lamp_scores(w), lamp_scores_loop(w))
    zeros = np.zeros((3, 4))
    assert np.array_equal(lamp_scores(zeros), lamp_scores_loop(zeros))


def test_lamp_score_tie_grouping():
    w = np.array([2.0, 2.0, 1.0])
    # tied pair shares the denominator 4+4=8; singleton sees 4+4+1=9
    assert lamp_scores(w) == pytest.approx([4 / 8, 4 / 8, 1 / 9])
    naive = lamp_scores_naive(w)
    assert np.allclose(lamp_scores(w), naive)


def test_lamp_single_layer_equals_magnitude_pruning():
    rng = np.random.default_rng(4)
    w = rng.normal(size=(10, 10))
    net = Network("mlp-small",
                  [PrunableLayer(LayerSpec("fc1", "fc", 10, 10), Tensor(w))],
                  (10,), 10, steps=[("fc1", "fc", None)])
    rates = lamp_strategy(net, 0.4)
    apply_strategy(net, rates, [lamp_scores(w)])
    by_magnitude = top_fraction_mask(np.abs(w), rates[0])
    assert np.array_equal(net.layers[0].mask, by_magnitude)


def test_lamp_duplicated_layers_get_equal_rates():
    rng = np.random.default_rng(5)
    w = rng.normal(size=(8, 8))
    layers = [
        PrunableLayer(LayerSpec("a", "fc", 8, 8), Tensor(w.copy())),
        PrunableLayer(LayerSpec("b", "fc", 8, 8), Tensor(w.copy())),
    ]
    net = Network("mlp-small", layers, (8,), 8, steps=[("a", "fc", 8), ("b", "fc", None)])
    rates = lamp_strategy(net, 0.25)
    assert rates[0] == rates[1]


def test_lamp_rates_permutation_invariant():
    rng = np.random.default_rng(6)
    w = rng.normal(size=64)
    net1 = Network("mlp-small", [PrunableLayer(LayerSpec("a", "fc", 8, 8), Tensor(w.reshape(8, 8)))],
                   (8,), 8, steps=[("a", "fc", None)])
    shuffled = w.copy()
    rng.shuffle(shuffled)
    net2 = Network("mlp-small", [PrunableLayer(LayerSpec("a", "fc", 8, 8), Tensor(shuffled.reshape(8, 8)))],
                   (8,), 8, steps=[("a", "fc", None)])
    assert lamp_strategy(net1, 0.3) == lamp_strategy(net2, 0.3)


def test_lamp_three_layer_oracle():
    # brute force: every layer keeps its best weight, then global score order
    rng = np.random.default_rng(7)
    net = _toy_net(seed=7)
    k_t = 0.1
    rates = lamp_strategy(net, k_t)
    budget = round(k_t * net.total_params)
    entries = []
    for li, layer in enumerate(net.layers):
        s = lamp_scores_naive(layer.params.values).ravel()
        for fi in range(s.size):
            entries.append((-s[fi], li, fi))
    entries.sort()
    best_seen = set()
    reserved = []
    for neg, li, fi in entries:
        if li not in best_seen:
            best_seen.add(li)
            reserved.append((li, fi))
    chosen = {(li, fi) for li, fi in reserved}
    for neg, li, fi in entries:
        if len(chosen) >= budget:
            break
        chosen.add((li, fi))
    counts = [sum(1 for li, _ in chosen if li == i) for i in range(len(net.layers))]
    assert rates == [c / l.spec.weight_count for c, l in zip(counts, net.layers)]


def test_lamp_budget_conservation():
    net = _toy_net(seed=8)
    for k_t in (0.3, 0.05):
        rates = lamp_strategy(net, k_t)
        total = sum(_preserved(net, rates))
        assert abs(total - k_t * net.total_params) <= len(net.layers)
        assert all(0 < r <= 1 for r in rates)


def test_erk_budget_conservation():
    net = _toy_net(seed=9)
    for k_t in (0.3, 0.05):
        total = sum(_preserved(net, erk_strategy(net, k_t)))
        assert abs(total - k_t * net.total_params) <= len(net.layers)


# --- apply_strategy ---


def test_apply_strategy_is_the_pruning_mask_installer():
    assert strategies.apply_strategy is pruning.apply_strategy


def test_apply_rates_one_gives_all_ones():
    net = _toy_net(seed=10)
    apply_strategy(net, uniform_strategy(net, 1.0), [np.abs(l.params.values) for l in net.layers])
    for layer in net.layers:
        assert layer.mask.sum() == layer.spec.weight_count


def test_apply_uniform_magnitude_is_lwm():
    net = _toy_net(seed=11)
    apply_strategy(net, uniform_strategy(net, 0.2), [np.abs(l.params.values) for l in net.layers])
    for layer in net.layers:
        lwm = top_fraction_mask(np.abs(layer.params.values), 0.2)
        assert np.array_equal(layer.mask, lwm)


def test_apply_ranks_by_magnitude():
    """Masks rank |scores|: the weights and their magnitudes install the same masks, and so do
    signed scores and theirs."""
    net = _toy_net(seed=14)
    rates = uniform_strategy(net, 0.2)
    apply_strategy(net, rates, [l.params.values for l in net.layers])
    signed = [l.mask.copy() for l in net.layers]
    apply_strategy(net, rates, [np.abs(l.params.values) for l in net.layers])
    for before, layer in zip(signed, net.layers):
        assert np.array_equal(before, layer.mask), layer.spec.name
    rng = np.random.default_rng(14)
    for layer in net.layers:
        layer.scores = Tensor(rng.normal(size=layer.spec.weight_shape))
    apply_strategy(net, rates)
    for rate, layer in zip(rates, net.layers):
        expect = top_fraction_mask(np.abs(layer.scores.values), rate)
        assert np.array_equal(layer.mask, expect), layer.spec.name


def test_apply_does_not_touch_weights():
    net = _toy_net(seed=12)
    before = [l.params.values.copy() for l in net.layers]
    apply_strategy(net, uniform_strategy(net, 0.3),
                   [np.abs(l.params.values) for l in net.layers])
    for b, layer in zip(before, net.layers):
        assert np.array_equal(b, layer.params.values)


def test_apply_missing_layer_rejected():
    net = _toy_net(seed=13)
    rates = uniform_strategy(net, 0.3)[:-1]
    with pytest.raises(ValueError, match="2 rates for 3 layers"):
        apply_strategy(net, rates, [np.abs(l.params.values) for l in net.layers])


def test_measured_table_roundtrips():
    """Rates read off installed masks install the same kept counts under other scores."""
    rng = np.random.default_rng(14)
    net = _toy_net(seed=14)
    apply_strategy(net, [0.17] * len(net.layers),
                   [rng.normal(size=l.spec.weight_shape) for l in net.layers])
    kept = [l.mask.sum() for l in net.layers]
    rates = [k / l.spec.weight_count for k, l in zip(kept, net.layers)]
    apply_strategy(net, rates, [rng.normal(size=l.spec.weight_shape) for l in net.layers])
    assert [l.mask.sum() for l in net.layers] == kept


def test_strategy_csv_format(tmp_path, monkeypatch):
    net = _toy_net(seed=15)
    apply_strategy(net, uniform_strategy(net, 0.5), [np.abs(l.params.values) for l in net.layers])
    unattacked = [MetricRow("natural", 95.0, 0.0, 0), MetricRow("pgd", 80.0, 8 / 255, 3)]
    monkeypatch.setattr("robustprune.pipeline.evaluate", lambda *args: unattacked)
    write_reports(tmp_path, RunConfig(seed=15, arch="mlp-small"), net,
                  SimpleNamespace(inputs=None, labels=None))
    path = tmp_path / "strategy.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["layer", "rate", "preserved_params", "preserved_flops"]
    assert [r[0] for r in rows[1:]] == [l.spec.name for l in net.layers]
    assert [int(r[2]) for r in rows[1:]] == [l.mask.sum() for l in net.layers]
    assert [float(r[3]) for r in rows[1:]] == flops(net)[1]
