#!/usr/bin/env python3
"""Adversarial examples and robust training on the synthetic blob task.

Trains a small MLP with PGD adversarial training, then compares natural,
FGSM, and PGD-10 accuracy. Run:  python3 demos/02_attacks_and_robust_training.py
"""

import numpy as np

import robustprune.tensor as T
from robustprune.adversary import AttackConfig, RobustLossConfig, evaluate, pgd, robust_loss
from robustprune.data import ingest
from robustprune.network import build_network
from robustprune.optim import SgdState, sgd_step

train, test = ingest({"kind": "synthetic", "n": 1500, "size": 16, "classes": 2,
                      "noise": 0.2, "test_fraction": 0.25}, seed=1)
net = build_network("mlp-small", (1, 16, 16), 2, seed=1)

attack = AttackConfig(epsilon=8 / 255, step_size=2 / 255, iters=10)
loss_cfg = RobustLossConfig(kind="pgd-at")
opt = SgdState(0.1, momentum=0.9, weight_decay=5e-4, epochs=15)
rng = np.random.default_rng(1)
params = [l.params for l in net.layers]

for epoch in range(15):
    opt.set_epoch(epoch)
    for x, y in train.batches(128, rng):
        with T.scoped_tape():
            loss = robust_loss(net, x, y, loss_cfg, attack, rng)
            T.backward(loss)
        sgd_step(opt, params)
print("adversarial training done")

rows = evaluate(net, test.inputs, test.labels, [
    ("fgsm", AttackConfig(8 / 255, 8 / 255, 1, random_init=False)),
    ("pgd-10", attack),
])
for r in rows:
    print(f"{r.attack:>8}: {r.accuracy_pct:5.1f}%")

# the perturbation is tiny but targeted: show its size on one test batch
x_adv = pgd(net, test.inputs[:8], test.labels[:8], attack, np.random.default_rng(2))
print("max |x_adv - x| =", np.abs(x_adv - test.inputs[:8]).max(), "<= eps =", 8 / 255)
