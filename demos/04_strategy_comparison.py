#!/usr/bin/env python3
"""Fixed allocation schemes side by side: uniform, ERK, LAMP.

Shows how each scheme distributes a 95% sparsity budget over the layers of
a small convnet, and what classic magnitude pruning at those rates does to
accuracy before any fine-tuning. Run:  python3 demos/04_strategy_comparison.py
"""

import numpy as np

import robustprune.tensor as T
from robustprune.adversary import evaluate
from robustprune.data import ingest
from robustprune.network import build_network
from robustprune.optim import SgdState, sgd_step
from robustprune.strategies import apply_strategy, erk_strategy, lamp_strategy, uniform_strategy
from robustprune.tensor import Tensor

train, test = ingest({"kind": "synthetic", "n": 1500, "size": 16, "classes": 2,
                      "noise": 0.15, "test_fraction": 0.25}, seed=3)
net = build_network("conv-small", (1, 16, 16), 2, seed=3)

# quick natural training so magnitudes carry signal
opt = SgdState(0.08, momentum=0.9)
params = [l.params for l in net.layers]
rng = np.random.default_rng(3)
for _ in range(8):
    for x, y in train.batches(128, rng):
        with T.scoped_tape():
            T.backward(T.softmax_cross_entropy(net.forward(Tensor(x)), y))
        sgd_step(opt, params)

k_t = 0.05
strategies = {
    "uniform": uniform_strategy(net, k_t),
    "erk": erk_strategy(net, k_t),
    "lamp": lamp_strategy(net, k_t),
}

names = [l.spec.name for l in net.layers]
print(f"{'layer':>6} " + " ".join(f"{n:>9}" for n in strategies))
for i, name in enumerate(names):
    print(f"{name:>6} " + " ".join(f"{rates[i]:9.4f}" for rates in strategies.values()))

print(f"\naccuracy after one-shot magnitude pruning at {1 - k_t:.0%} sparsity (no fine-tune):")
magnitude = [np.abs(l.params.values) for l in net.layers]
saved = [l.params.values.copy() for l in net.layers]
for name, rates in strategies.items():
    apply_strategy(net, rates, magnitude)
    acc = evaluate(net, test.inputs, test.labels)[0].accuracy_pct
    print(f"  {name:>8}: {acc:5.1f}%")
for l, w in zip(net.layers, saved):
    assert np.array_equal(l.params.values, w)  # pruning never edits weights
