#!/usr/bin/env python3
"""Structured channel pruning under a FLOPs budget on a residual net.

Channel granularity scores whole input channels; the budget loss tracks
multiply-accumulates instead of weight counts, and shortcut layers inherit
the rate of their block's input layer so the pruned shapes stay aligned.
Run:  python3 demos/05_channel_pruning_flops.py   (about 3 minutes on CPU)
"""

from pathlib import Path

import numpy as np

from robustprune.adversary import AttackConfig
from robustprune.checkpoint import load_checkpoint
from robustprune.config import RunConfig
from robustprune.network import flops
from robustprune.pipeline import run_all
from robustprune.pruning import CompressionConfig

out = Path("runs/demo_channel")
cfg = RunConfig(seed=5, arch="resnet-tiny", method="harp")
cfg.dataset = {"kind": "synthetic", "n": 1500, "size": 16, "classes": 2,
               "noise": 0.15, "test_fraction": 0.2}
cfg.pretrain_epochs, cfg.prune_epochs, cfg.finetune_epochs = 10, 20, 10
cfg.compression = CompressionConfig(k_t=0.5, k_init=0.99, gamma_step=0.02,
                                    granularity="channel", budget="flops")
cfg.attack = AttackConfig(8 / 255, 2 / 255, 5)

rows = run_all(cfg, out)
for r in rows:
    print(f"{r.attack:>8}: {r.accuracy_pct:5.1f}%")

net = load_checkpoint(out / "final.npz").build()
current, per_layer = flops(net)
full, per_full = flops(net, [np.ones(l.spec.weight_shape) for l in net.layers])
print(f"\nFLOPs: {current:.0f} / {full:.0f} = {current / full:.3f} (target {cfg.compression.k_t})")
for layer, cur, dense in zip(net.layers, per_layer, per_full):
    kept = int(layer.mask.sum())
    print(f"{layer.spec.name:>14}: {kept:3d}/{layer.spec.c_i:3d} input channels, "
          f"{cur / dense:5.2f}x FLOPs")
for i, j in net.residual_links:
    a, b = net.layers[i], net.layers[j]
    print(f"tied rates: {a.spec.name} quota == {b.spec.name} quota: "
          f"{float(a.quota.values):.3f} == {float(b.quota.values):.3f}")
