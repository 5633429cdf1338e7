"""Self-describing checkpoint container (npz) for networks and pruning state.

Layout: a JSON ``meta`` entry (architecture, stage tag, seed, config hash,
RNG state, layer names) plus per-layer float64 arrays ``theta_i``,
``scores_i``, ``quota_i`` and ``mask_i``. Loading rebuilds the network and
restores every array bit-exactly; other arrays in the file are ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .network import Network, build_network
from .tensor import Tensor

FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    meta: dict
    arrays: dict

    @property
    def stage(self) -> str:
        return self.meta["stage"]

    @property
    def seed(self) -> int:
        return self.meta["seed"]

    @property
    def config_hash(self) -> str:
        return self.meta["config_hash"]

    def build(self) -> Network:
        """Reconstruct the network with all stored parameters and masks."""
        net = build_network(
            self.meta["arch"], tuple(self.meta["input_shape"]), self.meta["classes"],
            seed=self.meta["seed"],
        )
        for i, layer in enumerate(net.layers):
            layer.params = Tensor(self.arrays[f"theta_{i}"].copy(), requires_grad=True)
            layer.mask = self.arrays[f"mask_{i}"].copy()
            if f"scores_{i}" in self.arrays:
                layer.scores = Tensor(self.arrays[f"scores_{i}"].copy())
            if f"quota_{i}" in self.arrays:
                layer.quota = Tensor(self.arrays[f"quota_{i}"].copy())
        return net


def save_checkpoint(path, net: Network, stage: str, seed: int, config_hash: str,
                    rng_state: dict | None = None) -> None:
    meta = {
        "format_version": FORMAT_VERSION,
        "arch": net.arch,
        "input_shape": list(net.input_shape),
        "classes": net.classes,
        "stage": stage,
        "seed": seed,
        "config_hash": config_hash,
        "rng_state": rng_state,
        "layers": [l.spec.name for l in net.layers],
    }
    arrays = {}
    for i, layer in enumerate(net.layers):
        arrays[f"theta_{i}"] = layer.params.values
        arrays[f"mask_{i}"] = layer.mask
        if layer.scores is not None:
            arrays[f"scores_{i}"] = layer.scores.values
        if layer.quota is not None:
            arrays[f"quota_{i}"] = layer.quota.values
    np.savez(path, meta=json.dumps(meta), **arrays)


def load_checkpoint(path) -> Checkpoint:
    with np.load(path, allow_pickle=False) as bundle:
        meta = json.loads(str(bundle["meta"]))
        if meta.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta.get('format_version')}")
        arrays = {k: bundle[k] for k in bundle.files if k != "meta"}
    return Checkpoint(meta, arrays)
