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
    completely; k_init seeds every quota at the same uniform rate.
    """

    k_t: float
    k_init: float = 0.1
    gamma_step: float = 0.01
    granularity: str = "weight"
    budget: str = "param-count"

    def __post_init__(self):
        if not 0.0 < self.k_t <= 1.0:
            raise ValueError(f"target rate must be in (0, 1], got {self.k_t}")
        if not self.k_min < self.k_init <= 1.0:
            raise ValueError(f"k_init must be in (k_min, 1], got {self.k_init}")
        if self.gamma_step <= 0.0:
            raise ValueError(f"gamma step must be positive, got {self.gamma_step}")
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"granularity must be one of {GRANULARITIES}")
        if self.budget not in BUDGETS:
            raise ValueError(f"budget must be one of {BUDGETS}")
        if self.budget == "flops" and self.granularity != "channel":
            raise ValueError("the flops budget requires channel granularity")

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


def init_scores_weight(theta: np.ndarray, fan_in: int) -> np.ndarray:
    """Scores proportional to pre-trained weights, scaled by sqrt(6 / fan_in)."""
    peak = np.abs(theta).max()
    if peak == 0.0:
        raise ValueError("cannot initialize scores from an all-zero layer")
    eta = math.sqrt(6.0 / fan_in)
    return eta * theta / peak


def init_scores_channel(theta: np.ndarray, fan_in: int) -> np.ndarray:
    """Per-input-channel scores: normalized absolute weight sums over axis 0 slices."""
    sums = np.abs(theta).reshape(theta.shape[0], -1).sum(axis=1)
    peak = sums.max()
    if peak == 0.0:
        raise ValueError("cannot initialize channel scores from an all-zero layer")
    eta = math.sqrt(6.0 / fan_in)
    return eta * sums / peak


# ---------------------------------------------------------------------------
# top-fraction masks


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _keep_count(rate: float, n: int) -> int:
    """Entries a top-fraction mask keeps of n: rate * n rounded half up, at least one."""
    return min(max(1, _round_half_up(rate * n)), n)


def top_fraction_mask(scores: np.ndarray, rate: float) -> np.ndarray:
    """Binary mask keeping the top ``rate`` fraction by score, at least one entry.

    One stable sort of the negated scores: ties keep flat-index order, which
    makes the mask deterministic for any score vector.
    """
    flat = np.asarray(scores, dtype=np.float64).ravel()
    if flat.size == 0:
        raise ValueError("cannot rank an empty score array")
    if not np.isfinite(flat).all():
        raise ValueError("cannot rank non-finite scores")
    mask = np.zeros(flat.size)
    mask[np.argsort(-flat, kind="stable")[:_keep_count(rate, flat.size)]] = 1.0
    return mask.reshape(np.asarray(scores).shape)


def build_masks(net: Network, k_min: float) -> None:
    """Rebuild every layer's mask from its quota and scores (DivergenceError if not finite)."""
    for layer in net.layers:
        if layer.scores is None or layer.quota is None:
            raise ValueError(f"{layer.spec.name}: scores/quota not initialized")
        quota = float(layer.quota.values)
        if not (math.isfinite(quota) and np.isfinite(layer.scores.values).all()):
            raise DivergenceError(f"{layer.spec.name}: scores or quota not finite")
        layer.set_mask(top_fraction_mask(layer.scores.values, g_activation(quota, k_min)))


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
        unit_costs = [np.full(l.spec.weight_shape, 1.0 if l.spec.kind == "fc" else
                              float(l.spec.spatial_out**2)) for l in net.layers]
    loss = hw_loss(current, full, cfg.k_t)
    dloss = 1.0 / (cfg.k_t * full) if current > cfg.k_t * full else 0.0
    unit_grads = [dloss * l.reduce_to_mask(c) for l, c in zip(net.layers, unit_costs)]
    return loss, unit_grads, current / full


def retie_shortcut_quotas(net: Network) -> None:
    """Shortcut layers take the quota of their block's input layer."""
    for input_idx, shortcut_idx in net.residual_links:
        src = net.layers[input_idx].quota
        dst = net.layers[shortcut_idx].quota
        if src is not None and dst is not None:
            dst.values = src.values.copy()


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
) -> dict:
    """One epoch of optimizing scores and quotas on the joint objective.

    Layer weights stay frozen; masks are rebuilt from the current (quota,
    scores) before every batch. Each layer's straight-through gradient is
    its mask tensor's gradient after the robust step. A ``None`` optimizer
    leaves its tensors' values fixed, holding the last batch's gradients.
    Returns the epoch's prune-curve record: the mean robust and budget losses
    over its batches, and the realized global and per-layer rates after it.
    """
    rob_losses = []
    hw_losses = []
    tie_channels = cfg.granularity == "channel"
    scores = [l.scores for l in net.layers]
    quotas = [l.quota for l in net.layers]
    for x, y in batches:
        if tie_channels:
            retie_shortcut_quotas(net)
        build_masks(net, cfg.k_min)
        hw_value, hw_unit, _ = budget_state(net, cfg)

        rob_losses.append(robust_step(net, x, y, loss_cfg, attack_cfg, rng, "prune"))
        hw_losses.append(hw_value)

        for layer, unit in zip(net.layers, hw_unit):
            ste = layer.mask_tensor.grad
            slope = g_derivative(float(layer.quota.values), cfg.k_min)
            layer.scores.grad = layer.reduce_to_mask(ste) + gamma * unit
            layer.quota.grad = np.asarray(float(ste.sum()) * slope
                                          + gamma * float(unit.sum()) * slope)
        if score_opt is not None:
            sgd_step(score_opt, scores)
        if rate_opt is not None:
            sgd_step(rate_opt, quotas)

    if tie_channels:
        retie_shortcut_quotas(net)
    build_masks(net, cfg.k_min)
    final_hw, _, global_rate = budget_state(net, cfg)
    return {
        "robust_loss": float(np.mean(rob_losses)) if rob_losses else 0.0,
        "hw_loss": float(np.mean(hw_losses)) if hw_losses else final_hw,
        "global_rate": global_rate,
        "layer_rates": [g_activation(float(l.quota.values), cfg.k_min) for l in net.layers],
    }
