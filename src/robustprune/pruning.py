"""Learned compression: trainable per-layer rates and scores, top-fraction masks,
and the clamped global budget loss.

Rates live in an unconstrained quota r per layer, squeezed into [k_min, 1]
by a scaled sigmoid. Masks keep the top score fraction of each layer; the
binarization is bypassed for gradients: scores and quotas receive the
gradient of the layer's mask tensor straight through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adversary import AttackConfig, DivergenceError, RobustLossConfig, robust_step
from .network import Network, count_preserved, flops
from .optim import SgdState, sgd_step

GRANULARITIES = ("weight", "channel")
BUDGETS = ("param-count", "flops")
RATE_TOLERANCE = 1e-3  # relative slack on reaching k_t: per-layer rounding can overshoot


@dataclass
class CompressionConfig:
    """Target rate and the knobs controlling how it is reached.

    k_min is fixed at one tenth of the target so no layer can be removed
    completely; k_init seeds every learned quota at the same uniform rate,
    strictly inside (k_min, 1) where the rate activation can be inverted.
    """

    k_t: float
    k_init: float = 0.1
    gamma_step: float = 0.01
    granularity: str = "weight"
    budget: str = "param-count"

    def __post_init__(self):
        if not 0.0 < self.k_t <= 1.0:
            raise ValueError(f"compression.k_t: target rate must be in (0, 1], got {self.k_t}")
        if not self.k_min < self.k_init < 1.0:
            raise ValueError(f"compression.k_init must be in (k_min, 1), got {self.k_init}")
        if self.gamma_step <= 0.0:
            raise ValueError(f"compression.gamma_step must be positive, got {self.gamma_step}")
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"compression.granularity must be one of {GRANULARITIES}, "
                             f"got {self.granularity!r}")
        if self.budget not in BUDGETS:
            raise ValueError(f"compression.budget must be one of {BUDGETS}, got {self.budget!r}")
        if self.budget == "flops" and self.granularity != "channel":
            raise ValueError("compression.budget flops requires compression.granularity channel, "
                             f"got {self.granularity!r}")

    @property
    def k_min(self) -> float:
        return 0.1 * self.k_t


# ---------------------------------------------------------------------------
# rate activation and initializers


def _sigmoid(r: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-r))
    except OverflowError:  # r below about -709: the limit, so the rate is k_min
        return 0.0


def g_activation(r: float, k_min: float) -> float:
    """Sigmoid squeezed into [k_min, 1]: the layer rate for a quota r."""
    if not 0.0 < k_min < 1.0:
        raise ValueError(f"k_min must be in (0, 1), got {k_min}")
    return (1.0 - k_min) * _sigmoid(r) + k_min


def g_derivative(r: float, k_min: float) -> float:
    sig = _sigmoid(r)
    return (1.0 - k_min) * sig * (1.0 - sig)


def init_rate(k_init: float, k_min: float) -> float:
    """Quota whose activation equals k_init (inverse of g_activation)."""
    if not k_min < k_init < 1.0:
        raise ValueError(f"k_init must be in (k_min, 1) to invert, got {k_init} with k_min {k_min}")
    return math.log((k_init - k_min) / (1.0 - k_init))


def init_scores(theta: np.ndarray, fan_in: int, granularity: str) -> np.ndarray:
    """Scores proportional to the pre-trained weight magnitudes (per input channel: their
    sums), scaled to a peak of sqrt(6 / fan_in)."""
    base = np.abs(theta)
    base = base if granularity == "weight" else base.reshape(len(theta), -1).sum(axis=1)
    peak = base.max()
    if peak == 0.0:
        raise ValueError("cannot initialize scores from an all-zero layer")
    return math.sqrt(6.0 / fan_in) * base / peak


# ---------------------------------------------------------------------------
# top-fraction masks


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _keep_count(rate: float, n: int) -> int:
    """Entries a top-fraction mask keeps of n: rate * n rounded half up, at least one."""
    return min(max(1, _round_half_up(rate * n)), n)


def top_fraction_mask(scores: np.ndarray, rate: float) -> np.ndarray:
    """Binary mask keeping the top ``rate`` fraction by score, at least one entry.

    Every score above the k-th largest (found by partition) and, of those equal
    to it, the lowest flat indices: a stable sort's pick, for any score vector.
    """
    flat = np.asarray(scores, dtype=np.float64).ravel()
    if flat.size == 0:
        raise ValueError("cannot rank an empty score array")
    if not np.isfinite(flat).all():
        raise ValueError("cannot rank non-finite scores")
    keep = _keep_count(rate, flat.size)
    kth = np.partition(flat, flat.size - keep)[flat.size - keep]
    mask = (flat > kth).astype(np.float64)
    mask[np.flatnonzero(flat == kth)[: keep - int(mask.sum())]] = 1.0
    return mask.reshape(np.asarray(scores).shape)


def _install_masks(net: Network, rates: list[float], scores: list[np.ndarray]) -> None:
    """Mask every layer to the top ``rate`` fraction of its ``scores`` by magnitude."""
    for layer, rate, s in zip(net.layers, rates, scores):
        layer.set_mask(top_fraction_mask(np.abs(s), rate))


def build_masks(net: Network, k_min: float, rates: list[float] | None = None) -> list[float]:
    """Rebuild every layer's mask from its scores, at the fixed ``rates`` if given and at
    its quota's rate otherwise (DivergenceError if scores or quota are not finite); returns
    the rates installed."""
    for layer in net.layers:
        state = [layer.scores] if rates is not None else [layer.scores, layer.quota]
        if any(t is None for t in state):
            raise ValueError(f"{layer.spec.name}: scores/quota not initialized")
        if not all(np.isfinite(t.values).all() for t in state):
            raise DivergenceError(f"{layer.spec.name}: scores or quota not finite")
    if rates is None:
        rates = [g_activation(float(l.quota.values), k_min) for l in net.layers]
    _install_masks(net, rates, [l.scores.values for l in net.layers])
    return rates


# ---------------------------------------------------------------------------
# budget loss


def hw_loss(current: float, full: float, k_t: float) -> float:
    """Clamped overshoot of the budget: preserved parameters or FLOPs over k_t of the full count."""
    if full <= 0:
        raise ValueError(f"full parameter or FLOPs count must be positive, got {full}")
    return max(current / (k_t * full) - 1.0, 0.0)


# ---------------------------------------------------------------------------
# one epoch of strategy search


def budget_state(net: Network, cfg: CompressionConfig):
    """Budget-loss value, its derivative per mask entry, and the realized rate.

    The derivative sums each weight's unit cost over the weights a mask
    entry covers: 1 per non-zero weight for the parameter count, and the
    multiply-accumulates per weight (spatial_out^2 for convs) for FLOPs.
    """
    if cfg.budget == "param-count":
        current, _ = count_preserved(net)
        full = net.total_params
        unit_costs = [(l.params.values != 0).astype(np.float64) for l in net.layers]
    else:
        current, _ = flops(net)
        full, _ = flops(net, [np.ones(l.spec.weight_shape) for l in net.layers])
        unit_costs = [np.full(l.spec.weight_shape, float(l.spec.spatial_out**2))
                      for l in net.layers]
    loss = hw_loss(current, full, cfg.k_t)
    dloss = 1.0 / (cfg.k_t * full) if current > cfg.k_t * full else 0.0
    unit_grads = [dloss * l.reduce_to_mask(c) for l, c in zip(net.layers, unit_costs)]
    return loss, unit_grads, current / full


def prune_epoch(
    net: Network,
    cfg: CompressionConfig,
    gamma: float,
    loss_cfg: RobustLossConfig,
    attack_cfg: AttackConfig,
    batches,
    score_opt: SgdState | None,
    rate_opt: SgdState | None,
    rng: np.random.Generator,
    rates: list[float] | None = None,
) -> dict:
    """One epoch of optimizing scores and quotas on the joint objective.

    Layer weights stay frozen; masks are rebuilt from the current (quota, scores)
    before every batch. A score's straight-through gradient is its mask entry's
    gradient after the robust step, times its sign: masks rank |scores|. A
    ``None`` optimizer leaves its tensors' values fixed, holding the last batch's
    gradients. Fixed ``rates`` stand in for the quotas, which then get no
    gradient. Returns the epoch's prune-curve record: the mean robust and budget
    losses over its batches, the realized global and per-layer rates after it, and
    whether its last batch left every mask gradient zero.
    """
    rob_losses = []
    hw_losses = []
    scores = [l.scores for l in net.layers]
    quotas = [l.quota for l in net.layers]
    grads_zero = False
    for x, y in batches:
        build_masks(net, cfg.k_min, rates)
        hw_value, hw_unit, _ = budget_state(net, cfg)

        rob_losses.append(robust_step(net, x, y, loss_cfg, attack_cfg, rng, "prune"))
        hw_losses.append(hw_value)
        grads_zero = not any(l.mask_tensor.grad.any() for l in net.layers)

        for layer, unit in zip(net.layers, hw_unit):
            ste = layer.mask_tensor.grad
            layer.scores.grad = np.sign(layer.scores.values) * (layer.reduce_to_mask(ste)
                                                                + gamma * unit)
            if rates is None:
                slope = g_derivative(float(layer.quota.values), cfg.k_min)
                layer.quota.grad = np.asarray(float(ste.sum()) * slope
                                              + gamma * float(unit.sum()) * slope)
        if score_opt is not None:
            sgd_step(score_opt, scores)
        if rate_opt is not None:
            sgd_step(rate_opt, quotas)
            if cfg.granularity == "channel":  # a shortcut keeps its block input's channel rate
                for input_idx, shortcut_idx in net.residual_links:
                    quotas[shortcut_idx].values = quotas[input_idx].values.copy()

    layer_rates = build_masks(net, cfg.k_min, rates)
    final_hw, _, global_rate = budget_state(net, cfg)
    return {
        "robust_loss": float(np.mean(rob_losses)) if rob_losses else 0.0,
        "hw_loss": float(np.mean(hw_losses)) if hw_losses else final_hw,
        "global_rate": global_rate,
        "layer_rates": layer_rates,
        "mask_grads_zero": grads_zero,
    }
