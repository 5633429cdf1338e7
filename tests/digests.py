"""SHA-256 digests of ``run_all``'s artifacts over a fixed matrix of small configs.

``artifact_digests.json`` next to this file holds the digests together with
the fingerprint of the host that made them; ``test_digests.py`` re-runs the
matrix and compares byte for byte. The bits depend on the BLAS kernels, so
the test skips on another fingerprint instead of comparing with a tolerance.

Regenerate the file, after a change that is meant to move an artifact, with

    PYTHONPATH=src python tests/digests.py

and list in CHANGES.md which artifacts moved, per config, and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

DIGESTS_PATH = Path(__file__).with_name("artifact_digests.json")
ARTIFACTS = ("metrics.csv", "prune_curve.csv", "strategy.csv", "summary.csv",
             "pretrain.npz", "prune.npz", "final.npz")

# (arch, granularity, budget) under both losses, plus the two ablation methods on mlp-small
SHAPES = {"mlp-small-weight": ("mlp-small", "weight", "param-count"),
          "conv-small-weight": ("conv-small", "weight", "param-count"),
          "conv-small-channel-param-count": ("conv-small", "channel", "param-count"),
          "resnet-tiny-channel-flops": ("resnet-tiny", "channel", "flops")}
CELLS = {f"{shape}-{loss}": (*SHAPES[shape], loss, "harp")
         for shape in SHAPES for loss in ("pgd-at", "trades")}
CELLS.update({f"mlp-small-weight-pgd-at-{method}": ("mlp-small", "weight", "param-count",
                                                    "pgd-at", method)
              for method in ("rates-only", "scores-only")})


def cell_config(name: str) -> dict:
    """The config tree of one cell: PGD-3, n=400, size 8, epochs 2/2/1, batch 32, seed 5."""
    arch, granularity, budget, loss, method = CELLS[name]
    return {
        "seed": 5, "arch": arch, "method": method, "batch_size": 32,
        "dataset": {"kind": "synthetic", "n": 400, "size": 8, "classes": 2},
        "stages": {"pretrain_epochs": 2, "prune_epochs": 2, "finetune_epochs": 1},
        "compression": {"k_t": 0.3, "k_init": 0.6, "granularity": granularity,
                        "budget": budget},
        "attack": {"iters": 3},
        "loss": {"kind": loss},
    }


def fingerprint() -> dict:
    """What the artifact bits depend on besides the code: numpy, its BLAS, the CPU."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "cpu_model": cpu}


def cell_digests(name: str, outdir: Path) -> dict:
    """Run one cell end to end into ``outdir``; the SHA-256 of each artifact."""
    from robustprune.config import config_from_dict
    from robustprune.pipeline import run_all

    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="target compression")
        run_all(config_from_dict(cell_config(name)), outdir)
    return {a: hashlib.sha256((outdir / a).read_bytes()).hexdigest() for a in ARTIFACTS}


def main() -> int:
    cells = {}
    for name in CELLS:
        with tempfile.TemporaryDirectory() as tmp:
            cells[name] = cell_digests(name, Path(tmp))
        print(f"{name}: done", file=sys.stderr)
    DIGESTS_PATH.write_text(json.dumps({"fingerprint": fingerprint(), "cells": cells},
                                       indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
