"""The benchmark's workloads: run configs and generated inputs, both from the seed.

Each workload is a config tree handed to ``config.config_from_dict`` after a
round trip through the flat ``key = value`` file format, plus (for the CSV
workload) a data file written here. The program sees only those.

Why these three (see README.md for the layer map). ``BENCHMARK.json``
measures the first two; ``search-mlp-csv`` runs by hand (README.md says why):

- ``pgdat-conv``: the paper's training recipe (conv-small, PGD-AT with
  PGD-10). Most time is in the attack loop's conv2d and max_pool2d forward
  and backward, so tensor-kernel and attack-loop changes show here.
- ``trades-resnet-channel``: the structured path. TRADES adds kl_divergence,
  resnet-tiny adds the residual add, the 1x1 shortcut conv and tied shortcut
  quotas, and the FLOPs budget makes ``budget_state`` call ``network.flops``
  twice per batch. Changes to FLOPs accounting or channel masks show only here.
- ``search-mlp-csv``: no conv or pool and a cheap 3-step attack on small
  batches, so per-batch mask rebuilds over ~52k scores, straight-through
  gradients, ``budget_state``, ``sgd_step`` and CSV parsing in set-up carry a
  large share. Tensor-kernel changes should leave it unchanged.

Sizes are chosen so one pipeline repetition takes a few seconds and the
accuracy and budget figures repeat across seeds. Adversarial training of
this length is chaotic, so three choices trade fidelity for that:

- The conv workloads train at batch 32, not the paper's 128. At batch 128
  the affordable 6 to 14 steps left 2 or 3 seeds in 10 at chance, and the
  robust accuracy's quartile spread was 0.28 to 0.34 of its median; at
  batch 32 (24 to 40 training steps) it was 0.02 to 0.07.
- The conv workloads start pruning at rate 0.99 (k_init) with one prune
  epoch: a lower starting rate collapsed accuracy on some seeds. Mask
  density does not change the compute of any stage.
- search-mlp-csv ramps the budget weight by 1.0 per epoch, so the rate
  reaches k_t = 0.01 within the three prune epochs on every seed; at the
  default 0.01 the rate after three epochs ranged from 0.03 to 1.0.
"""

from __future__ import annotations

import copy
from pathlib import Path

import numpy as np

_CONV_ATTACK = {"epsilon": 8 / 255, "step_size": 2 / 255, "iters": 10, "random_init": True}

WORKLOADS: dict[str, dict] = {
    "pgdat-conv": {
        "arch": "conv-small",
        "method": "harp",
        "batch_size": 32,
        "dataset": {"kind": "synthetic", "n": 512, "size": 16, "classes": 2, "noise": 0.4,
                    "test_fraction": 0.5},
        "stages": {"pretrain_epochs": 3, "prune_epochs": 1, "finetune_epochs": 1},
        "compression": {"k_t": 0.5, "k_init": 0.99, "gamma_step": 0.01,
                        "granularity": "weight", "budget": "param-count"},
        "attack": dict(_CONV_ATTACK),
        "loss": {"kind": "pgd-at", "beta": 6.0},
        "opt": {"pretrain": {"lr": 0.02}, "finetune": {"lr": 0.01}},
    },
    "trades-resnet-channel": {
        "arch": "resnet-tiny",
        "method": "harp",
        "batch_size": 32,
        "dataset": {"kind": "synthetic", "n": 256, "size": 16, "classes": 2, "noise": 0.4,
                    "test_fraction": 0.25},
        "stages": {"pretrain_epochs": 2, "prune_epochs": 1, "finetune_epochs": 1},
        "compression": {"k_t": 0.5, "k_init": 0.99, "gamma_step": 0.01,
                        "granularity": "channel", "budget": "flops"},
        "attack": dict(_CONV_ATTACK),
        "loss": {"kind": "trades", "beta": 6.0},
        "opt": {"pretrain": {"lr": 0.02}, "finetune": {"lr": 0.01}},
    },
    "search-mlp-csv": {
        "arch": "mlp-small",
        "method": "harp",
        "batch_size": 32,
        # pipeline._input_shape reads the image side from dataset.size, not
        # from the CSV file, so the side is repeated here (known defect)
        "dataset": {"kind": "csv", "size": 28, "classes": 4, "test_fraction": 0.2},
        "stages": {"pretrain_epochs": 2, "prune_epochs": 3, "finetune_epochs": 4},
        "compression": {"k_t": 0.01, "k_init": 0.1, "gamma_step": 1.0,
                        "granularity": "weight", "budget": "param-count"},
        "attack": {"epsilon": 8 / 255, "step_size": 4 / 255, "iters": 3, "random_init": True},
        "loss": {"kind": "pgd-at", "beta": 6.0},
        "opt": {"pretrain": {"lr": 0.05}, "finetune": {"lr": 0.05}},
    },
}

# Rows of the generated CSV file (label + 28*28 pixels in 0..255).
CSV_ROWS = 3000
CSV_NOISE = 0.35

# Overrides for the smoke test: the same code paths in well under a second each.
TINY = {
    "pgdat-conv": {"batch_size": 16, "dataset": {"n": 40, "size": 8},
                   "attack": {"iters": 2}},
    "trades-resnet-channel": {"batch_size": 16, "dataset": {"n": 40, "size": 8},
                              "attack": {"iters": 2}},
    "search-mlp-csv": {"batch_size": 16, "dataset": {}, "attack": {"iters": 2}},
}
TINY_CSV_ROWS = 400
TINY_STAGES = {"pretrain_epochs": 1, "prune_epochs": 1, "finetune_epochs": 1}


def _merge(base: dict, over: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in over.items():
        if isinstance(value, dict):
            out[key] = _merge(out.get(key, {}), value)
        else:
            out[key] = value
    return out


def build_inputs(name: str, seed: int, workdir: Path, tiny: bool = False) -> tuple[dict, Path]:
    """Config tree for ``name`` at ``seed`` and the config file written from it."""
    tree = copy.deepcopy(WORKLOADS[name])
    if tiny:
        tree = _merge(tree, TINY[name])
        tree["stages"] = dict(TINY_STAGES)
    tree["seed"] = seed
    if tree["dataset"]["kind"] == "csv":
        path = workdir / "train.csv"
        write_blob_csv(path, TINY_CSV_ROWS if tiny else CSV_ROWS, tree["dataset"]["size"],
                       tree["dataset"]["classes"], CSV_NOISE, seed)
        tree["dataset"]["path"] = str(path)
    cfg_path = workdir / "run.cfg"
    cfg_path.write_text(to_config_text(tree))
    return tree, cfg_path


def to_config_text(tree: dict) -> str:
    """Flatten a config tree into the ``section.key = value`` file format."""
    return "".join(f"{key} = {value}\n" for key, value in _flat_items(tree, ""))


def _flat_items(tree: dict, prefix: str):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _flat_items(value, f"{prefix}{key}.")
        elif isinstance(value, bool):
            yield prefix + key, "true" if value else "false"
        else:
            # repr keeps every digit of a float, so the file parses back exactly
            yield prefix + key, repr(value) if isinstance(value, float) else value


def write_blob_csv(path: Path, rows: int, side: int, classes: int, noise: float,
                   seed: int, chunk: int = 250) -> None:
    """``label,pixel,...`` rows: one blob per image whose quadrant encodes the class.

    Generated here, not with the program's own generator, so the input does
    not change when the program does; written in chunks so the generator's
    arrays do not set the process's peak memory.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2024,)))
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
    with open(path, "w") as fh:
        for start in range(0, rows, chunk):
            n = min(chunk, rows - start)
            labels = rng.integers(0, classes, size=n)
            cy = side * (0.25 + 0.5 * ((labels // 2) % 2)) + rng.normal(0, side * 0.06, n)
            cx = side * (0.25 + 0.5 * (labels % 2)) + rng.normal(0, side * 0.06, n)
            width = side * rng.uniform(0.10, 0.16, n)
            blob = np.exp(-((yy - cy[:, None, None]) ** 2 + (xx - cx[:, None, None]) ** 2)
                          / (2 * width[:, None, None] ** 2))
            images = np.clip(0.75 * blob + rng.normal(0, noise, blob.shape), 0.0, 1.0)
            pixels = np.rint(images.reshape(n, -1) * 255).astype(np.int64)
            np.savetxt(fh, np.column_stack([labels, pixels]), fmt="%d", delimiter=",")
