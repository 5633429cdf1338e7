"""Self-describing checkpoint container (npz) for networks and pruning state.

Layout: a JSON ``meta`` entry (architecture, stage tag, seed, config hash,
layer names) plus per-layer float64 arrays ``theta_i``,
``scores_i``, ``quota_i`` and ``mask_i``. Loading rebuilds the network and
restores every array bit-exactly, checking that each is finite and each
weight and mask shape against the architecture; other arrays in the file
are ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .network import Network, PrunableLayer, build_network
from .tensor import ShapeError, Tensor

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Checkpoint file with a missing or misshapen array or an unsupported format."""


@dataclass
class Checkpoint:
    meta: dict
    arrays: dict

    def build(self) -> Network:
        """Reconstruct the network; every array must be finite, every weight and mask
        must pass the layer's shape check."""
        net = build_network(
            self.meta["arch"], tuple(self.meta["input_shape"]), self.meta["classes"],
            seed=self.meta["seed"],
        )
        for i, spec in enumerate([l.spec for l in net.layers]):
            key = f"theta_{i}"
            try:
                layer = PrunableLayer(spec, Tensor(self._array(key), requires_grad=True))
                key = f"mask_{i}"
                layer.set_mask(self._array(key))
            except ShapeError as exc:
                raise CheckpointError(f"checkpoint array {key}: {exc}") from exc
            if f"scores_{i}" in self.arrays:
                layer.scores = Tensor(self._array(f"scores_{i}"))
            if f"quota_{i}" in self.arrays:
                layer.quota = Tensor(self._array(f"quota_{i}"))
            net.layers[i] = layer
        return net

    def _array(self, key: str) -> np.ndarray:
        if key not in self.arrays:
            raise CheckpointError(f"checkpoint has no array {key}")
        if not np.isfinite(self.arrays[key]).all():
            raise CheckpointError(f"checkpoint array {key} is not finite")
        return self.arrays[key].copy()


def save_checkpoint(path, net: Network, stage: str, seed: int, config_hash: str) -> None:
    meta = {
        "format_version": FORMAT_VERSION,
        "arch": net.arch,
        "input_shape": list(net.input_shape),
        "classes": net.classes,
        "stage": stage,
        "seed": seed,
        "config_hash": config_hash,
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
        if "meta" not in bundle.files:
            raise CheckpointError(f"{path}: checkpoint has no array meta")
        meta = json.loads(str(bundle["meta"]))
        if meta.get("format_version") != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint format_version "
                                  f"{meta.get('format_version')!r}, expected {FORMAT_VERSION}")
        arrays = {k: bundle[k] for k in bundle.files if k != "meta"}
    return Checkpoint(meta, arrays)
