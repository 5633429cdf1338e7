"""Self-describing checkpoint container (npz) for networks and pruning state.

Layout: a JSON ``meta`` entry (architecture, input shape, classes, stage
tag, seed, config hash, layer names) plus per-layer float64 arrays
``theta_i``, ``scores_i``, ``quota_i`` and ``mask_i``. Loading rebuilds the
network from the architecture's layer specs and the file's own arrays,
restoring every array bit-exactly and checking that each is finite and each
weight and mask shape against the spec; other arrays in the file are
ignored. Any file that is not such a checkpoint raises ``CheckpointError``.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass

import numpy as np

from .network import ARCHITECTURES, Network, PrunableLayer, _layout
from .tensor import ShapeError, Tensor

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Unreadable checkpoint: not an npz, bad or unsupported meta, or a bad or missing array."""


@dataclass
class Checkpoint:
    meta: dict
    arrays: dict

    def build(self) -> Network:
        """Reconstruct the network; every array must be finite, every weight and mask
        must pass the layer's shape check."""
        arch, shape, classes = (self.meta.get(k) for k in ("arch", "input_shape", "classes"))
        for key, valid in (
                ("arch", isinstance(arch, str) and arch in ARCHITECTURES),
                ("input_shape", isinstance(shape, list) and all(type(d) is int for d in shape)),
                ("classes", type(classes) is int)):
            if not valid:
                raise CheckpointError(f"checkpoint meta {key} is missing or invalid: "
                                      f"{self.meta.get(key)!r}")
        try:
            specs, _ = _layout(arch, ARCHITECTURES[arch], shape, classes)
        except ValueError as exc:
            raise CheckpointError(f"checkpoint meta input_shape {shape}: {exc}") from None
        layers = []
        for i, spec in enumerate(specs):
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
            layers.append(layer)
        return Network(arch, layers, shape, classes)

    def _array(self, key: str) -> np.ndarray:
        if key not in self.arrays:
            raise CheckpointError(f"checkpoint has no array {key}")
        if self.arrays[key].dtype.kind not in "biuf":
            raise CheckpointError(f"checkpoint array {key} holds {self.arrays[key].dtype}, "
                                  f"not numbers")
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
    try:
        with np.load(path, allow_pickle=False) as bundle:
            arrays = {k: bundle[k] for k in bundle.files}
    except (EOFError, OSError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"{path}: cannot read as an npz checkpoint ({exc})") from None
    if "meta" not in arrays:
        raise CheckpointError(f"{path}: checkpoint has no array meta")
    try:
        meta = json.loads(str(arrays.pop("meta")))
        if not isinstance(meta, dict):
            raise ValueError(f"got a {type(meta).__name__}")
    except ValueError as exc:
        raise CheckpointError(f"{path}: checkpoint meta is not a JSON object ({exc})") from None
    if meta.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint format_version "
                              f"{meta.get('format_version')!r}, expected {FORMAT_VERSION}")
    return Checkpoint(meta, arrays)
