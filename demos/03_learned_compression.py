#!/usr/bin/env python3
"""The full three-stage pipeline with learned per-layer rates.

Pretrains, searches a compression strategy at 99% sparsity, fine-tunes, and
prints the learned non-uniform allocation next to a uniform baseline.
Run:  python3 demos/03_learned_compression.py   (about 2 minutes on CPU)
"""

from pathlib import Path

from robustprune.adversary import AttackConfig
from robustprune.config import RunConfig
from robustprune.checkpoint import load_checkpoint
from robustprune.network import count_preserved
from robustprune.pipeline import run_all
from robustprune.pruning import CompressionConfig
from robustprune.strategies import uniform_strategy

out = Path("runs/demo_compression")
cfg = RunConfig(seed=7, arch="mlp-small", method="harp")
cfg.dataset = {"kind": "synthetic", "n": 2000, "size": 16, "classes": 2,
               "noise": 0.15, "test_fraction": 0.2}
cfg.pretrain_epochs, cfg.prune_epochs, cfg.finetune_epochs = 20, 20, 20
cfg.compression = CompressionConfig(k_t=0.01, k_init=0.1, gamma_step=0.01)
cfg.attack = AttackConfig(8 / 255, 2 / 255, 10)

rows = run_all(cfg, out)
for r in rows:
    print(f"{r.attack:>8}: {r.accuracy_pct:5.1f}%")

net = load_checkpoint(out / "final.npz").build()
learned = [l.broadcast_mask().sum() / l.spec.weight_count for l in net.layers]
uniform = uniform_strategy(net, cfg.compression.k_t)
_, kept = count_preserved(net)
print(f"\n{'layer':>6}  {'learned rate':>12}  {'uniform rate':>12}  {'kept':>6}")
for layer, lr, ur, k in zip(net.layers, learned, uniform, kept):
    print(f"{layer.spec.name:>6}  {lr:12.4f}  {ur:12.4f}  {k:6d}")
print(f"\nglobal rate: {sum(kept) / net.total_params:.4f} (target {cfg.compression.k_t})")
print(f"artifacts in {out}/ (metrics.csv, strategy.csv, prune_curve.csv)")
