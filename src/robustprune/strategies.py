"""Fixed layer-rate allocation schemes and the strategy CSV writers.

A strategy is a list of per-layer rates in ``net.layers`` order. Uniform,
ERK-style density allocation, and LAMP-style global ranking give the
non-learned baselines; ``apply_strategy`` installs percentile masks at any
strategy's rates. The pipeline's methods do not pass through here: each
learns rates, scores or both in the prune stage (``config.METHODS``), and a
method that does not learn rates holds every layer at the target k_t.
"""

from __future__ import annotations

import csv

import numpy as np

from .network import Network, flops
from .pruning import _keep_count, _round_half_up, top_fraction_mask


def uniform_strategy(net: Network, k_t: float) -> list[float]:
    """Every layer keeps the same fraction k_t."""
    if not 0.0 < k_t <= 1.0:
        raise ValueError(f"target rate must be in (0, 1], got {k_t}")
    return [k_t] * len(net.layers)


def _erk_raw(spec) -> float:
    k = spec.kernel
    return (spec.c_i + spec.c_o + 2 * k) / (spec.c_i * spec.c_o * k * k)


def erk_strategy(net: Network, k_t: float) -> list[float]:
    """Density proportional to (c_i + c_o + 2k) / (c_i * c_o * k^2), water-filled.

    Layers whose scaled density exceeds 1 are capped and their surplus
    budget redistributed over the rest until everything fits.
    """
    if not 0.0 < k_t <= 1.0:
        raise ValueError(f"target rate must be in (0, 1], got {k_t}")
    specs = [l.spec for l in net.layers]
    sizes = np.array([s.weight_count for s in specs], dtype=np.float64)
    raw = np.array([_erk_raw(s) for s in specs])
    budget = k_t * net.total_params
    density = np.zeros(len(specs))
    capped = np.zeros(len(specs), dtype=bool)
    for _ in range(len(specs) + 1):
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
    else:
        raise ValueError("ERK redistribution failed to settle")
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
    if not 0.0 < k_t <= 1.0:
        raise ValueError(f"target rate must be in (0, 1], got {k_t}")
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


def apply_strategy(net: Network, rates: list[float],
                   scores: list[np.ndarray] | None = None) -> None:
    """Install percentile masks at fixed per-layer rates; weights untouched.

    ``scores`` defaults to each layer's current score tensor; pass magnitude
    scores (|theta|) to reproduce classic lowest-weight-magnitude pruning.
    """
    if len(rates) != len(net.layers):
        raise ValueError(f"{len(rates)} rates for {len(net.layers)} layers")
    for i, (layer, rate) in enumerate(zip(net.layers, rates)):
        if scores is not None:
            s = np.asarray(scores[i])
        elif layer.scores is not None:
            s = layer.scores.values
        else:
            raise ValueError(f"{layer.spec.name}: no scores available to rank connections")
        layer.set_mask(top_fraction_mask(s, rate))


def _kept(layer) -> int:
    return int(layer.broadcast_mask().sum())


def measure_strategy(net: Network) -> list[float]:
    """Read the realized per-layer rates off the installed masks."""
    return [_kept(l) / l.spec.weight_count for l in net.layers]


def write_strategy(path, net: Network) -> None:
    """One row per layer: realized rate, kept weights and FLOPs of the installed masks."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "rate", "preserved_params", "preserved_flops"])
        for layer, fl in zip(net.layers, flops(net)[1]):
            kept = _kept(layer)
            writer.writerow([layer.spec.name, f"{kept / layer.spec.weight_count:.10f}", kept, fl])


def write_strategy_compare(path, net: Network, strategies: list[tuple[str, list[float]]]) -> None:
    """Join named strategies into one CSV: a row per layer, a rate and a kept count per strategy."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["layer"]
        for name, _ in strategies:
            header += [f"{name}_rate", f"{name}_preserved"]
        writer.writerow(header)
        for i, layer in enumerate(net.layers):
            row = [layer.spec.name]
            for _, rates in strategies:
                row += [f"{rates[i]:.10f}", _keep_count(rates[i], layer.spec.weight_count)]
            writer.writerow(row)
