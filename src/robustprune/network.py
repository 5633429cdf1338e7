"""Prunable networks: architecture step lists, masked forward passes, parameter and FLOPs counts.

Parameter tensors use the input-channel-first layout: conv weights are
(c_i, c_o, k, k) and fully-connected weights are (c_i, c_o), so channel
granularity always masks axis 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass(frozen=True)
class LayerSpec:
    name: str
    kind: str  # "fc" | "conv" | "shortcut-conv"
    c_i: int
    c_o: int
    kernel: int = 1
    spatial_out: int = 1
    padding: int = 0

    @property
    def fan_in(self) -> int:
        """Receptive-field size times input channels (c_i for fc, a 1x1 kernel)."""
        return self.c_i * self.kernel * self.kernel

    @property
    def weight_count(self) -> int:
        return self.c_i * self.c_o * self.kernel * self.kernel

    @property
    def weight_shape(self) -> tuple[int, ...]:
        if self.kind == "fc":
            return (self.c_i, self.c_o)
        return (self.c_i, self.c_o, self.kernel, self.kernel)


class PrunableLayer:
    """Layer parameters plus the pruning state attached to them.

    The forward pass multiplies ``params`` by ``mask_tensor``, a tape leaf,
    so after backward its gradient is d(loss)/d(theta * mask) * theta summed
    over every forward of the loss: the straight-through gradient that
    scores and quotas receive. ``scores`` and ``quota`` are Tensors so the
    shared SGD machinery can update them, but they never enter the tape.
    """

    def __init__(self, spec: LayerSpec, params: Tensor):
        if params.shape != spec.weight_shape:
            raise T.ShapeError(f"{spec.name}: params {params.shape} != spec {spec.weight_shape}")
        self.spec = spec
        self.params = params
        self.scores: Tensor | None = None
        self.quota: Tensor | None = None
        self.set_mask(np.ones(spec.weight_shape))

    def set_mask(self, mask: np.ndarray) -> None:
        """Install a {0,1} mask: weight-shaped, or one entry per input channel."""
        if mask.shape not in (self.spec.weight_shape, (self.spec.c_i,)):
            raise T.ShapeError(f"{self.spec.name}: mask {mask.shape} is neither the weight shape "
                               f"{self.spec.weight_shape} nor ({self.spec.c_i},)")
        self.mask = mask  # one entry per weight or per input channel
        self.mask_tensor = Tensor(self.broadcast_mask())

    def broadcast_mask(self) -> np.ndarray:
        """The mask as a read-only view of the weight shape."""
        trailing = (1,) * (len(self.spec.weight_shape) - self.mask.ndim)
        return np.broadcast_to(self.mask.reshape(self.mask.shape + trailing), self.spec.weight_shape)

    def reduce_to_mask(self, values: np.ndarray) -> np.ndarray:
        """Sum a weight-shaped array over the weights each mask entry covers."""
        if self.mask.ndim == len(self.spec.weight_shape):
            return values
        return values.reshape(self.spec.c_i, -1).sum(axis=1)

    def masked_weights(self) -> np.ndarray:
        """theta * mask, the weights the forward pass multiplies by."""
        return self.params.values * self.broadcast_mask()


# Markers between the prunable layers of a step list.
RELU = "relu"
POOL = "pool"  # 2x2 max pooling
SAVE = "save"  # keep the current activation as the input of the next shortcut

# One step list per architecture. A prunable step is (name, kind, c_o) with
# c_o None meaning the class count; c_i, spatial size and fc fan-in follow
# from walking the list over the input shape. Conv steps are 3x3 with
# padding 1; a shortcut-conv step is a 1x1 conv of the saved activation whose
# output is added to the current one. POOL precedes RELU: max is monotone, so values and
# gradients equal those of RELU, POOL (up to the sign of zeros) at a quarter of relu's work.
ARCHITECTURES = {
    "mlp-small": [("fc1", "fc", 64), RELU, ("fc2", "fc", 32), RELU, ("fc3", "fc", None)],
    "conv-small": [
        ("conv1", "conv", 12), POOL, RELU,
        ("conv2", "conv", 24), POOL, RELU,
        ("conv3", "conv", 24), RELU,
        ("fc1", "fc", 32), RELU,
        ("fc2", "fc", None),
    ],
    "resnet-tiny": [
        ("conv1", "conv", 16), POOL, RELU, SAVE,
        ("block.conv_a", "conv", 16), RELU,
        ("block.conv_b", "conv", 16),
        ("block.shortcut", "shortcut-conv", 16), POOL, RELU,
        ("fc", "fc", None),
    ],
}


def _layout(arch: str, steps, input_shape, classes: int):
    """LayerSpecs and residual links (block input layer, shortcut) of a step list."""
    shape = tuple(input_shape)  # activation shape without the batch axis
    specs, links = [], []
    pools = steps.count(POOL)
    if pools and (len(shape) != 3 or shape[1] % 2**pools or shape[2] % 2**pools):
        raise ValueError(f"{arch} needs spatial dims divisible by {2**pools}, got {shape}")
    for step in steps:
        if step == POOL:
            c, h, w = shape
            shape = (c, h // 2, w // 2)
        elif step == SAVE:
            saved, block = shape, len(specs)
        elif step != RELU:
            name, kind, c_o = step
            c_o = classes if c_o is None else c_o
            if kind == "fc":
                specs.append(LayerSpec(name, kind, math.prod(shape), c_o))
                shape = (c_o,)
            elif kind == "conv":
                c, h, w = shape
                specs.append(LayerSpec(name, kind, c, c_o, kernel=3, spatial_out=h, padding=1))
                shape = (c_o, h, w)
            else:  # shortcut-conv
                links.append((block, len(specs)))
                specs.append(LayerSpec(name, kind, saved[0], c_o, kernel=1, spatial_out=saved[1]))
    return specs, links


class Network:
    """Ordered prunable layers run by walking the architecture's step list."""

    def __init__(self, arch: str, layers: list[PrunableLayer], input_shape, classes: int,
                 steps: list | None = None):
        self.arch = arch
        self.layers = layers
        self.input_shape = tuple(input_shape)
        self.classes = classes
        self.steps = ARCHITECTURES[arch] if steps is None else steps
        specs, self.residual_links = _layout(arch, self.steps, self.input_shape, classes)
        if [s.name for s in specs] != [l.spec.name for l in layers]:
            raise ValueError(f"{arch}: layers {[l.spec.name for l in layers]} do not match "
                             f"the step list {[s.name for s in specs]}")
        self.total_params = sum(l.spec.weight_count for l in layers)

    def forward(self, x: Tensor) -> Tensor:
        expected = int(np.prod(self.input_shape))
        if x.values.ndim < 2 or int(np.prod(x.shape[1:])) != expected:
            raise T.ShapeError(
                f"{self.arch}: input {x.shape} does not match batched {self.input_shape}"
            )
        if self.layers[0].spec.kind != "fc" and x.values.ndim != len(self.input_shape) + 1:
            raise T.ShapeError(
                f"{self.arch}: input {x.shape} must be (batch, {', '.join(map(str, self.input_shape))})"
            )
        h, saved, i = x, None, 0
        for step in self.steps:
            if step == RELU:
                h = T.relu(h)
            elif step == POOL:
                h = T.max_pool2d(h)
            elif step == SAVE:
                saved = h
            else:
                layer = self.layers[i]
                theta_hat = T.mul(layer.params, layer.mask_tensor)
                if layer.spec.kind == "fc":
                    if h.values.ndim > 2:
                        h = T.reshape(h, (h.shape[0], -1))
                    h = T.matmul(h, theta_hat)
                elif layer.spec.kind == "conv":
                    h = T.conv2d(h, theta_hat, padding=layer.spec.padding)
                else:
                    h = T.add(h, T.conv2d(saved, theta_hat, padding=layer.spec.padding))
                i += 1
        return h


def _init_params(spec: LayerSpec, rng: np.random.Generator) -> Tensor:
    bound = np.sqrt(6.0 / spec.fan_in)
    values = rng.uniform(-bound, bound, size=spec.weight_shape)
    return Tensor(values, requires_grad=True)


def build_network(arch: str, input_shape, classes: int, seed: int = 0) -> Network:
    """Construct one of the desk-scale architectures with seeded fan-in-scaled init."""
    if arch not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch!r}; expected one of {sorted(ARCHITECTURES)}")
    specs, _ = _layout(arch, ARCHITECTURES[arch], input_shape, classes)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(101,)))
    layers = [PrunableLayer(s, _init_params(s, rng)) for s in specs]
    return Network(arch, layers, input_shape, classes)


def count_preserved(net: Network) -> tuple[int, list[int]]:
    """Non-zero weights in theta * mask, total and per layer."""
    per_layer = [int(np.count_nonzero(l.masked_weights())) for l in net.layers]
    return sum(per_layer), per_layer


def flops(net: Network, masks: list[np.ndarray] | None = None) -> tuple[float, list[float]]:
    """Multiply-accumulate counts per layer from the retained channel structure.

    A channel counts as retained when any weight touching it survives the
    mask. A layer costs retained_ci * retained_co * k^2 * spatial_out^2 (an
    fc layer is a 1x1 kernel at spatial_out 1). ``masks``, if given, are
    weight-shaped and stand in for the installed ones.
    """
    per_layer = []
    for i, layer in enumerate(net.layers):
        alive = (layer.masked_weights() if masks is None else layer.params.values * masks[i]) != 0
        reduce_axes = tuple(range(1, alive.ndim))
        ci = int(np.any(alive, axis=reduce_axes).sum())
        co = int(np.any(alive, axis=(0,) + tuple(range(2, alive.ndim))).sum())
        per_layer.append(float(ci * co * layer.spec.kernel**2 * layer.spec.spatial_out**2))
    return sum(per_layer), per_layer
