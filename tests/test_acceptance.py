"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines. The trend and arrival suites train real (desk-scale) pipelines and
dominate the runtime; everything shares session-scoped fixtures.
"""

import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import robustprune.tensor as T
from robustprune.adversary import AttackConfig, constraints_satisfied, evaluate, pgd
from robustprune.checkpoint import load_checkpoint, save_checkpoint
from robustprune.config import RunConfig
from robustprune.data import ingest, synthetic_blobs
from robustprune.network import build_network, count_preserved, flops
from robustprune.optim import SgdState, sgd_step
from robustprune.pipeline import (
    default_eval_attacks,
    stage_finetune,
    stage_pretrain,
    stage_prune,
)
from robustprune.pruning import (
    RATE_TOLERANCE,
    CompressionConfig,
    budget_state,
    g_activation,
    g_derivative,
    hw_loss,
    init_rate,
    top_fraction_mask,
)
from robustprune.strategies import (
    apply_strategy,
    erk_strategy,
    lamp_scores,
    lamp_strategy,
    uniform_strategy,
)
from robustprune.tensor import Tensor

from helpers import (
    brute_force_mask,
    erk_water_fill,
    finite_difference,
    grad_close,
    lamp_scores_naive,
    rel_err,
)

warnings.filterwarnings("ignore", message="target compression")

SEEDS = (11, 12, 13)
EPS, KAPPA = 8 / 255, 2 / 255


def _dataset(n=2000, size=16):
    return {"kind": "synthetic", "n": n, "size": size, "classes": 2,
            "noise": 0.15, "test_fraction": 0.2}


def _mlp_cfg(seed, method, k_t):
    cfg = RunConfig(seed=seed, arch="mlp-small", method=method)
    cfg.dataset = _dataset()
    cfg.pretrain_epochs, cfg.prune_epochs, cfg.finetune_epochs = 20, 20, 20
    cfg.batch_size = 128
    cfg.compression = CompressionConfig(k_t=k_t, k_init=0.1, gamma_step=0.01)
    cfg.attack = AttackConfig(EPS, KAPPA, 10)
    return cfg


def _conv_cfg(seed, gamma_step, k_t=0.01):
    cfg = RunConfig(seed=seed, arch="conv-small")
    cfg.dataset = _dataset(n=1000)
    cfg.pretrain_epochs, cfg.prune_epochs = 5, 20
    cfg.batch_size = 128
    cfg.compression = CompressionConfig(k_t=k_t, k_init=0.1, gamma_step=gamma_step)
    cfg.attack = AttackConfig(EPS, KAPPA, 5)
    return cfg


# ---------------------------------------------------------------------------
# criterion 1: gradient suite


def test_criterion_1_gradient_suite():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    checked = 0
    for trial in range(50):
        n_in = int(rng.integers(3, 7))
        n_hid = int(rng.integers(3, 6))
        n_out = int(rng.integers(2, 4))
        batch = int(rng.integers(2, 5))
        w1 = rng.uniform(-2, 2, size=(n_in, n_hid))
        w2 = rng.uniform(-2, 2, size=(n_hid, n_out))
        x = rng.uniform(-2, 2, size=(batch, n_in))
        y = rng.integers(0, n_out, size=batch)

        def net_loss(w1v, w2v):
            h = np.maximum(x @ w1v, 0.0)
            z = h @ w2v
            zs = z - z.max(axis=1, keepdims=True)
            logp = zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))
            return -logp[np.arange(batch), y].mean()

        t1, t2 = Tensor(w1, requires_grad=True), Tensor(w2, requires_grad=True)
        with T.scoped_tape():
            h = T.relu(T.matmul(Tensor(x), t1))
            T.backward(T.softmax_cross_entropy(T.matmul(h, t2), y))
        assert grad_close(t1.grad, finite_difference(lambda v: net_loss(v, w2), w1.copy()))
        assert grad_close(t2.grad, finite_difference(lambda v: net_loss(w1, v), w2.copy()))
        checked += 1
    # rate-activation slope against finite differences, much tighter
    h = 1e-6
    for r in np.linspace(-5, 5, 41):
        for k_min in (0.001, 0.05, 0.3):
            fd = (g_activation(r + h, k_min) - g_activation(r - h, k_min)) / (2 * h)
            assert rel_err(g_derivative(r, k_min), fd) < 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nPASS criterion 1: {checked} micro-net gradient checks + g' vs FD ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 2: inverse consistency


def test_criterion_2_inverse_consistency():
    rng = np.random.default_rng(102)
    for _ in range(100):
        k_min = float(rng.uniform(1e-4, 0.5))
        k = float(k_min + rng.uniform(0.001, 0.998) * (1 - k_min - 1e-6))
        assert abs(g_activation(init_rate(k, k_min), k_min) - k) < 1e-12
    print("PASS criterion 2: g(init_rate(k)) == k to 1e-12 on 100 random pairs")


# ---------------------------------------------------------------------------
# criterion 3: mask oracle


def test_criterion_3_mask_oracle():
    rng = np.random.default_rng(103)
    for case in range(200):
        n = int(rng.integers(1, 200))
        rate = float(rng.uniform(0.005, 1.0))
        if case % 3 == 0:
            scores = rng.choice([-1.5, 0.0, 0.25, 2.0], size=n)  # heavy ties
        else:
            scores = rng.normal(size=n)
        mine = top_fraction_mask(scores, rate)
        assert np.array_equal(mine, brute_force_mask(scores, rate))
        keep = min(n, max(1, int(math.floor(rate * n + 0.5))))
        assert int(mine.sum()) == keep
    print("PASS criterion 3: 200 random percentile masks equal full-sort brute force")


# ---------------------------------------------------------------------------
# criterion 4: hardware-loss clamp


def test_criterion_4_budget_clamp():
    rng = np.random.default_rng(104)
    for _ in range(300):
        total = int(rng.integers(1, 100_000))
        preserved = int(rng.integers(0, total + 1))
        k_t = float(rng.uniform(0.001, 1.0))
        value = hw_loss(preserved, total, k_t)
        if preserved <= k_t * total:
            assert value == 0.0
        else:
            assert value > 0.0
    # gradient through the clamp: exactly zero in the flat region
    net = build_network("mlp-small", (1, 8, 8), 2, seed=104)
    from robustprune.pipeline import init_pruning_state

    comp = CompressionConfig(k_t=0.5, k_init=0.1)
    init_pruning_state(net, comp, "harp")  # masks at 10% << 50% budget
    loss, units, _ = budget_state(net, comp)
    assert loss == 0.0
    assert all(np.all(u == 0.0) for u in units)
    comp_tight = CompressionConfig(k_t=0.01, k_init=0.1)
    loss, units, _ = budget_state(net, comp_tight)  # same masks, over budget now
    assert loss > 0.0
    assert all(np.all(u >= 0.0) for u in units) and any(np.any(u > 0.0) for u in units)
    print("PASS criterion 4: budget loss clamps at zero with zero gradient under budget")


# ---------------------------------------------------------------------------
# criteria 5 + 6: compression arrival and gamma-step ordering (shared runs)


@pytest.fixture(scope="module")
def arrival_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("arrival")
    base = _conv_cfg(SEEDS[0], 0.01)
    train, _ = ingest(base.dataset, base.seed)
    net0 = stage_pretrain(base, train)
    pre = out / "pretrain.npz"
    save_checkpoint(pre, net0, "pretrain", base.seed, base.config_hash())
    runs = {}
    for step in (1.0, 0.1, 0.01, 0.001):
        cfg = _conv_cfg(SEEDS[0], step)
        net = load_checkpoint(pre).build()
        start = time.monotonic()
        _, history = stage_prune(cfg, net, train)
        runs[step] = (history, time.monotonic() - start)
    return runs


def test_criterion_5_compression_arrival(arrival_runs):
    history, elapsed = arrival_runs[0.01]
    assert history.arrival_epoch is not None and history.arrival_epoch <= 20
    arrived = [row for row in history.epochs if row["epoch"] >= history.arrival_epoch]
    assert all(row["hw_loss"] == 0.0 for row in arrived)
    gammas = {row["gamma"] for row in history.epochs if row["epoch"] >= history.arrival_epoch}
    assert len(gammas) == 1  # frozen after arrival
    assert history.final_rate <= 0.01 * (1 + RATE_TOLERANCE)
    assert elapsed < 600.0
    print(f"\nPASS criterion 5: arrival at epoch {history.arrival_epoch}, "
          f"budget loss 0 thereafter, final rate {history.final_rate:.5f} ({elapsed:.0f}s)")


def test_criterion_6_gamma_step_ordering(arrival_runs):
    arr = {step: hist.arrival_epoch for step, (hist, _) in arrival_runs.items()}
    assert arr[1.0] is not None and arr[0.1] is not None and arr[0.01] is not None
    assert arr[1.0] <= arr[0.1] <= arr[0.01]
    small_hist, _ = arrival_runs[0.001]
    if small_hist.arrival_epoch is None:
        assert small_hist.final_rate > 0.01
    print(f"PASS criterion 6: arrival epochs {arr[1.0]} <= {arr[0.1]} <= {arr[0.01]}; "
          f"step 0.001 -> {'missed, rate %.4f' % small_hist.final_rate if small_hist.arrival_epoch is None else 'arrived at %d' % small_hist.arrival_epoch}")


# ---------------------------------------------------------------------------
# criteria 7 + 8: trend reproduction and ablation harness (shared runs)


@pytest.fixture(scope="module")
def trend_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("trend")
    start = time.monotonic()
    results = {}
    for seed in SEEDS:
        base = _mlp_cfg(seed, "harp", 0.1)
        train, test = ingest(base.dataset, seed)
        net0 = stage_pretrain(base, train)
        pre = out / f"pre_{seed}.npz"
        save_checkpoint(pre, net0, "pretrain", seed, base.config_hash())
        rows = evaluate(net0, test.inputs, test.labels, default_eval_attacks(base.attack))
        results[(seed, "dense", None)] = ({r.attack: r.accuracy_pct for r in rows}, 1.0, None)
        for method, k_t in (("harp", 0.01), ("harp", 0.1), ("scores-only", 0.01),
                            ("scores-only", 0.1), ("rates-only", 0.01)):
            cfg = _mlp_cfg(seed, method, k_t)
            net = load_checkpoint(pre).build()
            net, history = stage_prune(cfg, net, train)
            net = stage_finetune(cfg, net, train)
            rows = evaluate(net, test.inputs, test.labels, default_eval_attacks(cfg.attack))
            accs = {r.attack: r.accuracy_pct for r in rows}
            results[(seed, method, k_t)] = (accs, history.final_rate, history.arrival_epoch)
            if method == "scores-only" and k_t == 0.01:
                # the uniform score-only baseline is the apply_strategy path:
                # fixed uniform rates plus the learned scores give these masks
                installed = [l.mask.copy() for l in net.layers]
                apply_strategy(net, uniform_strategy(net, k_t))
                for a, layer in zip(installed, net.layers):
                    assert np.array_equal(a, layer.mask)
    results["elapsed"] = time.monotonic() - start
    return results


def _mean(results, method, k_t, attack="natural"):
    return float(np.mean([results[(s, method, k_t)][0][attack] for s in SEEDS]))


def test_criterion_7_trend_reproduction(trend_runs):
    elapsed = trend_runs["elapsed"]
    harp_99 = _mean(trend_runs, "harp", 0.01)
    base_99 = _mean(trend_runs, "scores-only", 0.01)
    assert harp_99 >= base_99 + 2.0
    dense = _mean(trend_runs, "dense", None)
    harp_90 = _mean(trend_runs, "harp", 0.1)
    base_90 = _mean(trend_runs, "scores-only", 0.1)
    assert abs(dense - harp_90) <= 3.0
    assert abs(dense - base_90) <= 3.0
    for seed in SEEDS:
        assert trend_runs[(seed, "harp", 0.01)][1] <= 0.01 * (1 + RATE_TOLERANCE)
    assert elapsed < 2700.0
    print(f"\nPASS criterion 7: 99% sparsity natural {harp_99:.1f} vs uniform score-only "
          f"{base_99:.1f} (gap {harp_99 - base_99:.1f} >= 2); 90% within 3 of dense "
          f"{dense:.1f} ({elapsed:.0f}s for all trend runs)")


def test_criterion_8_ablation_harness(trend_runs):
    tol = 0.01 * (1 + RATE_TOLERANCE)
    for seed in SEEDS:
        _, rate_r, _ = trend_runs[(seed, "rates-only", 0.01)]
        _, rate_s, _ = trend_runs[(seed, "scores-only", 0.01)]
        assert rate_r <= tol, f"rates-only missed target: {rate_r}"
        assert rate_s <= tol, f"scores-only missed target: {rate_s}"
    harp = _mean(trend_runs, "harp", 0.01)
    harp_r = _mean(trend_runs, "rates-only", 0.01)
    harp_s = _mean(trend_runs, "scores-only", 0.01)
    assert harp >= max(harp_r, harp_s) - 1.0
    print(f"PASS criterion 8: rate-only {harp_r:.1f} / score-only {harp_s:.1f} both on "
          f"target; combined {harp:.1f} >= max - 1")


# ---------------------------------------------------------------------------
# criterion 9: strategy oracles


def test_criterion_9_strategy_oracles():
    assert lamp_scores(np.array([1.0, 2.0, 3.0])) == pytest.approx([1 / 14, 4 / 13, 1.0])
    rng = np.random.default_rng(109)
    net = build_network("mlp-small", (1, 8, 8), 2, seed=109)
    for k_t in (0.5, 0.1, 0.03):
        rates = erk_strategy(net, k_t)
        sizes = [l.spec.weight_count for l in net.layers]
        raws = [(s.c_i + s.c_o + 2 * s.kernel) / (s.c_i * s.c_o * s.kernel**2)
                for s in (l.spec for l in net.layers)]
        expect = erk_water_fill(sizes, raws, k_t * net.total_params)
        assert rates == pytest.approx(expect, rel=1e-12)
        lamp = lamp_strategy(net, k_t)
        budget = int(math.floor(k_t * net.total_params + 0.5))
        entries = []
        for li, layer in enumerate(net.layers):
            s = lamp_scores_naive(layer.params.values).ravel()
            entries += [(-s[fi], li, fi) for fi in range(s.size)]
        entries.sort()
        chosen, seen = set(), set()
        for neg, li, fi in entries:
            if li not in seen:
                seen.add(li)
                chosen.add((li, fi))
        for neg, li, fi in entries:
            if len(chosen) >= budget:
                break
            chosen.add((li, fi))
        counts = [sum(1 for li, _ in chosen if li == i) for i in range(len(net.layers))]
        assert lamp == [c / l.spec.weight_count for c, l in zip(counts, net.layers)]
    print("PASS criterion 9: ERK and LAMP rates equal brute force; LAMP hand example holds")


# ---------------------------------------------------------------------------
# criterion 10: channel pruning under a FLOPs budget


def test_criterion_10_channel_pruning(tmp_path):
    cfg = RunConfig(seed=SEEDS[0], arch="resnet-tiny")
    cfg.dataset = _dataset(n=1000)
    cfg.pretrain_epochs, cfg.prune_epochs, cfg.finetune_epochs = 5, 20, 0
    cfg.batch_size = 128
    cfg.compression = CompressionConfig(k_t=0.5, k_init=0.9, gamma_step=0.05,
                                        granularity="channel", budget="flops")
    cfg.attack = AttackConfig(EPS, KAPPA, 5)
    train, _ = ingest(cfg.dataset, cfg.seed)
    net = stage_pretrain(cfg, train)
    net, history = stage_prune(cfg, net, train)
    current, _ = flops(net)
    full, _ = flops(net, [np.ones(l.spec.weight_shape) for l in net.layers])
    assert current / full <= 0.5 * (1 + RATE_TOLERANCE), f"FLOPs rate {current / full:.4f}"
    for input_idx, shortcut_idx in net.residual_links:
        assert net.layers[input_idx].quota.values == net.layers[shortcut_idx].quota.values
    # masked forward equivalence under the learned channel masks
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(0, 1, size=(8, 1, 16, 16)))
    with T.no_grad():
        masked = net.forward(x).values
    for layer in net.layers:
        layer.params.values *= layer.broadcast_mask()
        layer.set_mask(np.ones(layer.spec.weight_shape))
    with T.no_grad():
        overwritten = net.forward(x).values
    assert np.array_equal(masked, overwritten)
    print(f"\nPASS criterion 10: FLOPs rate {current / full:.4f} <= 0.5, shortcut quotas "
          f"tied, channel-mask equivalence exact (arrival {history.arrival_epoch})")


# ---------------------------------------------------------------------------
# criterion 11: attack constraints


def test_criterion_11_attack_constraints():
    rng = np.random.default_rng(111)
    net = build_network("mlp-small", (1, 8, 8), 2, seed=111)
    total = 0
    for _ in range(100):
        n = 100
        x = rng.uniform(0, 1, size=(n, 1, 8, 8))
        y = rng.integers(0, 2, size=n)
        eps = float(rng.uniform(0, 0.2))
        cfg = AttackConfig(eps, eps * float(rng.uniform(0.1, 1.0)) if eps > 0 else 0.0,
                           int(rng.integers(1, 5)), random_init=bool(rng.integers(2)))
        if rng.integers(2):
            x_adv = pgd(net, x, y, cfg, rng)
        else:  # the fgsm row of the eval attacks: one un-initialized epsilon step
            x_adv = pgd(net, x, y, dict(default_eval_attacks(cfg))["fgsm"])
        assert np.all(np.abs(x_adv - x) <= cfg.epsilon)
        assert np.all(x_adv >= 0.0) and np.all(x_adv <= 1.0)
        assert constraints_satisfied(x_adv, x, cfg)
        total += n
    x = rng.uniform(0, 1, size=(100, 1, 8, 8))
    y = rng.integers(0, 2, size=100)
    zero = AttackConfig(0.0, 0.0, 3)
    assert np.array_equal(pgd(net, x, y, zero, rng), x)
    assert np.array_equal(pgd(net, x, y, AttackConfig(0.0, 0.0, 1, random_init=False)), x)
    total += 200
    assert total >= 10_000
    print(f"PASS criterion 11: {total} attacked examples all inside the epsilon ball and "
          f"[0,1] box exactly; epsilon=0 is the identity")


# ---------------------------------------------------------------------------
# criterion 12: end-to-end determinism


def test_criterion_12_run_determinism(tmp_path):
    import subprocess
    import sys

    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "arch = mlp-small\nbatch_size = 64\n"
        "dataset.kind = synthetic\ndataset.n = 400\ndataset.size = 8\n"
        "dataset.classes = 2\ndataset.test_fraction = 0.25\n"
        "stages.pretrain_epochs = 2\nstages.prune_epochs = 3\nstages.finetune_epochs = 2\n"
        "compression.k_t = 0.05\ncompression.k_init = 0.2\ncompression.gamma_step = 0.05\n"
        "attack.iters = 3\n"
    )
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "robustprune.cli", "run", "--config", str(cfg),
             "--seed", "21", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        outputs.append((out / "metrics.csv").read_bytes())
    assert outputs[0] == outputs[1]
    print("\nPASS criterion 12: two full runs produced byte-identical metrics.csv")
