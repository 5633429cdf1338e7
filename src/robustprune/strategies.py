"""Fixed layer-rate allocation schemes and strategy tables.

Uniform, ERK-style density allocation, and LAMP-style global ranking give
the non-learned baselines; ``apply_strategy`` installs percentile masks at
any table's rates, which is also how the rate-only / score-only ablations
and the uniform score-training baseline enter the pipeline.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .network import Network
from .pruning import _round_half_up, top_fraction_mask


@dataclass
class StrategyRow:
    layer: str
    rate: float
    preserved: int


@dataclass
class StrategyTable:
    rows: list[StrategyRow]
    global_rate: float
    source: str

    def rate_for(self, layer_name: str) -> float:
        for row in self.rows:
            if row.layer == layer_name:
                return row.rate
        raise KeyError(f"strategy table has no row for layer {layer_name!r}")

    def save_csv(self, path, preserved_flops: list[float] | None = None) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["layer", "rate", "preserved_params", "preserved_flops"])
            for i, row in enumerate(self.rows):
                fl = preserved_flops[i] if preserved_flops else ""
                writer.writerow([row.layer, f"{row.rate:.10f}", row.preserved, fl])


def _preserved(rate: float, n: int) -> int:
    return max(1, min(n, _round_half_up(rate * n)))


def uniform_strategy(net: Network, k_t: float) -> StrategyTable:
    """Every layer keeps the same fraction k_t."""
    if not 0.0 < k_t <= 1.0:
        raise ValueError(f"target rate must be in (0, 1], got {k_t}")
    rows = [StrategyRow(l.spec.name, k_t, _preserved(k_t, l.spec.weight_count)) for l in net.layers]
    total = sum(r.preserved for r in rows)
    return StrategyTable(rows, total / net.total_params, "uniform")


def _erk_raw(spec) -> float:
    k = spec.kernel
    return (spec.c_i + spec.c_o + 2 * k) / (spec.c_i * spec.c_o * k * k)


def erk_strategy(net: Network, k_t: float) -> StrategyTable:
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
    rows = [
        StrategyRow(s.name, float(d), _preserved(float(d), s.weight_count))
        for s, d in zip(specs, density)
    ]
    total = sum(r.preserved for r in rows)
    return StrategyTable(rows, total / net.total_params, "erk")


def lamp_scores(weights: np.ndarray) -> np.ndarray:
    """Squared weight over the suffix sum of squares of all weights at least as large.

    Ties share the whole tied group's contribution in the denominator, so
    the scores are invariant to the order of equal-magnitude weights.
    """
    flat = np.abs(np.asarray(weights, dtype=np.float64)).ravel()
    order = np.argsort(-flat, kind="stable")
    sorted_sq = flat[order] ** 2
    suffix = np.cumsum(sorted_sq)
    scores_sorted = np.empty_like(sorted_sq)
    i = 0
    while i < len(sorted_sq):
        j = i
        while j + 1 < len(sorted_sq) and sorted_sq[j + 1] == sorted_sq[i]:
            j += 1
        denom = suffix[j]
        scores_sorted[i : j + 1] = sorted_sq[i : j + 1] / denom if denom > 0 else 0.0
        i = j + 1
    scores = np.empty_like(scores_sorted)
    scores[order] = scores_sorted
    return scores.reshape(np.asarray(weights).shape)


def lamp_strategy(net: Network, k_t: float) -> StrategyTable:
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
    rows = [
        StrategyRow(l.spec.name, int(c) / l.spec.weight_count, int(c))
        for l, c in zip(net.layers, counts)
    ]
    total = sum(r.preserved for r in rows)
    return StrategyTable(rows, total / net.total_params, "lamp")


def apply_strategy(net: Network, table: StrategyTable,
                   scores: list[np.ndarray] | None = None) -> list[np.ndarray]:
    """Install percentile masks at the table's fixed rates; weights untouched.

    ``scores`` defaults to each layer's current score tensor; pass magnitude
    scores (|theta|) to reproduce classic lowest-weight-magnitude pruning.
    """
    masks = []
    for i, layer in enumerate(net.layers):
        rate = table.rate_for(layer.spec.name)
        if scores is not None:
            s = np.asarray(scores[i])
        elif layer.scores is not None:
            s = layer.scores.values
        else:
            raise ValueError(f"{layer.spec.name}: no scores available to rank connections")
        mask = top_fraction_mask(s, rate)
        layer.set_mask(mask)
        masks.append(mask)
    return masks


def measure_strategy(net: Network, source: str = "harp-learned") -> StrategyTable:
    """Read the realized per-layer rates and counts off the installed masks."""
    rows = []
    for layer in net.layers:
        n = layer.spec.weight_count
        kept = int(layer.broadcast_mask().sum())
        rows.append(StrategyRow(layer.spec.name, kept / n, kept))
    total = sum(r.preserved for r in rows)
    return StrategyTable(rows, total / net.total_params, source)


def compare_tables(tables: list[StrategyTable], path) -> None:
    """Join several strategies into one CSV, a row per layer."""
    if not tables:
        raise ValueError("nothing to compare")
    names = [r.layer for r in tables[0].rows]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["layer"]
        for t in tables:
            header += [f"{t.source}_rate", f"{t.source}_preserved"]
        writer.writerow(header)
        for name in names:
            row = [name]
            for t in tables:
                r = next(r for r in t.rows if r.layer == name)
                row += [f"{r.rate:.10f}", r.preserved]
            writer.writerow(row)
