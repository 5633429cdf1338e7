"""Independent oracles shared by the test modules.

Everything here is deliberately naive (sorting, explicit loops, finite
differences) and never calls the code paths it checks.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np


def finite_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a flat array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f(x)
        flat[i] = orig - h
        down = f(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return grad


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-7) -> float:
    a, b = np.asarray(a), np.asarray(b)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def grad_close(a, b, rel: float = 1e-4, abs_near_zero: float = 1e-7) -> bool:
    """Relative agreement, with an absolute criterion for near-zero entries."""
    a, b = np.asarray(a), np.asarray(b)
    diff = np.abs(a - b)
    mag = np.maximum(np.abs(a), np.abs(b))
    ok = (diff <= abs_near_zero) | (diff <= rel * mag)
    return bool(np.all(ok))


def brute_force_mask(scores: np.ndarray, rate: float) -> np.ndarray:
    """Keep the top max(1, round-half-up(rate*n)) scores; ties by flat index."""
    flat = np.asarray(scores, dtype=np.float64).ravel()
    keep = max(1, int(math.floor(rate * flat.size + 0.5)))
    keep = min(keep, flat.size)
    order = sorted(range(flat.size), key=lambda i: (-flat[i], i))
    mask = np.zeros(flat.size)
    for i in order[:keep]:
        mask[i] = 1.0
    return mask.reshape(np.asarray(scores).shape)


def channel_scores_loop(theta: np.ndarray, fan_in: int) -> np.ndarray:
    """Per input channel: the sum of |weight| over its slice, one weight at a time, scaled so
    the largest channel scores sqrt(6 / fan_in)."""
    sums = []
    for channel in np.asarray(theta, dtype=np.float64):
        total = 0.0
        for w in channel.ravel():
            total += abs(float(w))
        sums.append(total)
    peak = max(sums)
    return np.array([math.sqrt(6.0 / fan_in) * t / peak for t in sums])


def brute_force_preserved(theta: np.ndarray, mask: np.ndarray) -> int:
    """Count non-zeros of theta * mask after explicit broadcasting, one by one."""
    theta = np.asarray(theta)
    if mask.shape != theta.shape:
        expand = mask.reshape((theta.shape[0],) + (1,) * (theta.ndim - 1))
        mask = np.broadcast_to(expand, theta.shape)
    count = 0
    for t, m in zip(theta.ravel(), np.asarray(mask).ravel()):
        if t * m != 0:
            count += 1
    return count


def mac_count(c_i: int, c_o: int, kernel: int, spatial_out: int, is_fc: bool) -> float:
    """Straight multiply-accumulate count for one layer."""
    if is_fc:
        return float(c_i * c_o)
    return float(c_i * c_o * kernel * kernel * spatial_out * spatial_out)


def erk_water_fill(sizes, raws, budget: float):
    """Scale densities to the budget, repeatedly capping at 1."""
    sizes = list(map(float, sizes))
    raws = list(map(float, raws))
    capped = [False] * len(sizes)
    density = [0.0] * len(sizes)
    while True:
        rest = budget - sum(s for s, c in zip(sizes, capped) if c)
        mass = sum(r * s for r, s, c in zip(raws, sizes, capped) if not c)
        scale = rest / mass
        changed = False
        for i in range(len(sizes)):
            if capped[i]:
                density[i] = 1.0
            else:
                density[i] = scale * raws[i]
                if density[i] > 1.0:
                    capped[i] = True
                    changed = True
        if not changed:
            return density


def lamp_scores_naive(weights) -> np.ndarray:
    """Suffix-sum LAMP scores via explicit per-element loops."""
    flat = np.abs(np.asarray(weights, dtype=np.float64)).ravel()
    out = np.zeros_like(flat)
    for i, w in enumerate(flat):
        denom = sum(v * v for v in flat if v >= w)
        out[i] = (w * w) / denom if denom > 0 else 0.0
    return out.reshape(np.asarray(weights).shape)


def lamp_scores_loop(weights) -> np.ndarray:
    """LAMP scores with an explicit walk over each run of tied squared weights.

    The sort, the squares and the suffix sums are the ones ``lamp_scores``
    uses, so the two must agree bit for bit.
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


def train_batches(n: int, rng: np.random.Generator, size: int = 8, classes: int = 2):
    """Small random classification batch for gradient checks."""
    x = rng.uniform(0, 1, size=(n, 1, size, size))
    y = rng.integers(0, classes, size=n)
    return x, y


def conv2d_reference(x: np.ndarray, w: np.ndarray, padding: int, g: np.ndarray):
    """The fancy-index im2col conv2d with a (batch, c_in, ...) col2im loop.

    Returns (out, dx, dw) for output gradient ``g``. Kept as the bit-exact
    reference for ``tensor.conv2d``: same patch matrix, same BLAS calls,
    same per-element add order.
    """
    batch, c_in, h, width = x.shape
    _, c_out, k, _ = w.shape
    h_out = h + 2 * padding - k + 1
    w_out = width + 2 * padding - k + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x
    i0 = np.repeat(np.arange(k), k)
    j0 = np.tile(np.arange(k), k)
    i1 = np.repeat(np.arange(h_out), w_out)
    j1 = np.tile(np.arange(w_out), h_out)
    rows = i0.reshape(-1, 1) + i1.reshape(1, -1)
    cols = j0.reshape(-1, 1) + j1.reshape(1, -1)
    patches = np.ascontiguousarray(
        xp[:, :, rows, cols].reshape(batch, c_in * k * k, h_out * w_out)
    )
    wmat = w.transpose(0, 2, 3, 1).reshape(c_in * k * k, c_out)
    out = (wmat.T @ patches).reshape(batch, c_out, h_out, w_out)
    gmat = np.ascontiguousarray(g).reshape(batch, c_out, h_out * w_out)
    dw = (
        np.tensordot(patches, gmat, axes=([0, 2], [0, 2]))
        .reshape(c_in, k, k, c_out)
        .transpose(0, 3, 1, 2)
    )
    dpatch = (wmat @ gmat).reshape(batch, c_in, k, k, h_out, w_out)
    dxp = np.zeros((batch, c_in, h + 2 * padding, width + 2 * padding))
    for a in range(k):
        for b in range(k):
            dxp[:, :, a : a + h_out, b : b + w_out] += dpatch[:, :, a, b]
    dx = dxp[:, :, padding : padding + h, padding : padding + width] if padding else dxp
    return out, dx, dw


def max_pool2d_reference(x: np.ndarray, window: int, g: np.ndarray):
    """Two-axis tile max; backward recomputes winners, first max wins ties.

    Returns (out, dx) for output gradient ``g``; the bit-exact reference for
    ``tensor.max_pool2d``.
    """
    batch, c, h, w = x.shape
    ho, wo = h // window, w // window
    tiles = x.reshape(batch, c, ho, window, wo, window)
    out = tiles.max(axis=(3, 5))
    winners = tiles == out[:, :, :, None, :, None]
    flat = winners.transpose(0, 1, 2, 4, 3, 5).reshape(batch, c, ho, wo, window * window)
    first = flat.argmax(axis=-1)
    routed = np.zeros_like(flat, dtype=np.float64)
    np.put_along_axis(routed, first[..., None], g.reshape(batch, c, ho, wo, 1), axis=-1)
    dx = (
        routed.reshape(batch, c, ho, wo, window, window)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(batch, c, h, w)
    )
    return out, dx


def traced_peak(fn) -> int:
    """Peak bytes allocated through Python's allocators (numpy arrays included) while
    ``fn`` runs. tracemalloc counts requested bytes, so the figure does not depend on
    host speed or on the allocator."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
