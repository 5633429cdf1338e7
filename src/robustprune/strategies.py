"""Fixed layer-rate allocation schemes.

A strategy is a list of per-layer rates in ``net.layers`` order. Uniform,
ERK-style density allocation, and LAMP-style global ranking are the fixed
rate sources of ``config.METHODS``: the prune stage computes one once at k_t
and rebuilds every mask at its rates. ``apply_strategy``, which installs
percentile masks at any strategy's rates, lives beside ``build_masks`` in
``pruning`` and is re-exported here.
"""

from __future__ import annotations

import numpy as np

from .network import Network
from .pruning import _round_half_up, apply_strategy  # noqa: F401 (re-exported)


def uniform_strategy(net: Network, k_t: float) -> list[float]:
    """Every layer keeps the same fraction k_t."""
    return [k_t] * len(net.layers)


def _erk_raw(spec) -> float:
    k = spec.kernel
    return (spec.c_i + spec.c_o + 2 * k) / (spec.c_i * spec.c_o * k * k)


def erk_strategy(net: Network, k_t: float) -> list[float]:
    """Density proportional to (c_i + c_o + 2k) / (c_i * c_o * k^2), water-filled.

    Layers whose scaled density exceeds 1 are capped and their surplus
    budget redistributed over the rest until everything fits.
    """
    specs = [l.spec for l in net.layers]
    sizes = np.array([s.weight_count for s in specs], dtype=np.float64)
    raw = np.array([_erk_raw(s) for s in specs])
    budget = k_t * net.total_params
    density = np.zeros(len(specs))
    capped = np.zeros(len(specs), dtype=bool)
    while True:  # each pass caps at least one more layer, or stops
        free = ~capped
        remaining = budget - sizes[capped].sum()
        if remaining < 0 or not free.any():
            raise ValueError(f"infeasible budget k_t={k_t} after capping")
        scale = remaining / (raw[free] * sizes[free]).sum()
        density[free] = scale * raw[free]
        density[capped] = 1.0
        over = free & (density > 1.0)
        if not over.any():
            break
        capped |= over
    return [float(d) for d in density]


def lamp_scores(weights: np.ndarray) -> np.ndarray:
    """Squared weight over the suffix sum of squares of all weights at least as large.

    Ties share the whole tied group's contribution in the denominator, so
    the scores are invariant to the order of equal-magnitude weights.
    """
    flat = np.abs(np.asarray(weights, dtype=np.float64)).ravel()
    order = np.argsort(-flat, kind="stable")
    sorted_sq = flat[order] ** 2
    suffix = np.cumsum(sorted_sq)
    # every member of a run of equal squares divides by the suffix sum at the run's end
    ends = np.flatnonzero(np.append(sorted_sq[1:] != sorted_sq[:-1], True))
    denom = suffix[ends][np.searchsorted(ends, np.arange(sorted_sq.size))]
    scores_sorted = np.zeros_like(sorted_sq)
    np.divide(sorted_sq, denom, out=scores_sorted, where=denom > 0)
    scores = np.empty_like(scores_sorted)
    scores[order] = scores_sorted
    return scores.reshape(np.asarray(weights).shape)


def lamp_strategy(net: Network, k_t: float) -> list[float]:
    """Keep the global top k_t fraction by LAMP score; rates read off survivors.

    Each layer unconditionally retains its best-scored weight, the rest of
    the budget fills in global score order (ties broken by layer then flat
    index).
    """
    budget = _round_half_up(k_t * net.total_params)
    if budget < len(net.layers):
        raise ValueError(f"budget {budget} cannot give every layer one weight")
    scores = np.concatenate([lamp_scores(l.params.values).ravel() for l in net.layers])
    layer_ids = np.concatenate(
        [np.full(l.spec.weight_count, li) for li, l in enumerate(net.layers)]
    )
    flat_ids = np.concatenate([np.arange(l.spec.weight_count) for l in net.layers])
    order = np.lexsort((flat_ids, layer_ids, -scores))
    _, first_pos = np.unique(layer_ids[order], return_index=True)
    chosen = np.zeros(order.size, dtype=bool)
    chosen[first_pos] = True
    rest = np.flatnonzero(~chosen)
    chosen[rest[: budget - len(net.layers)]] = True
    counts = np.bincount(layer_ids[order[chosen]], minlength=len(net.layers))
    return [int(c) / l.spec.weight_count for l, c in zip(net.layers, counts)]


# The fixed rate sources a method can name in config.METHODS.
ALLOCATIONS = {"uniform": uniform_strategy, "erk": erk_strategy, "lamp": lamp_strategy}
