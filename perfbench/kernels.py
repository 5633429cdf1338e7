"""Kernel table: the heavy tensor ops timed in isolation at traced shapes.

Each entry times one op's forward call and then ``tensor.backward`` on it
(through a ``tensor_sum`` when the output is not a scalar), at an input
shape the traced run recorded, on inputs drawn from the workload seed. The
backward computes every input gradient, including the weight gradients the
attack loop skips. MAC counts and bytes moved are computed from array sizes
(8 bytes per float64 element), not measured.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# op -> how many of its most frequent traced shapes to time
KERNELS = {"conv2d": 3, "max_pool2d": 2, "matmul": 2, "softmax_cross_entropy": 1,
           "kl_divergence": 1}
ENTRY_BUDGET_S = 0.2
MIN_REPS = 3
MAX_REPS = 50


def kernel_table(T, shapes: dict, seed: int) -> list[dict]:
    """One row per (op, traced shape); ``T`` is the unwrapped tensor module."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(77,)))
    rows = []
    for op, top in KERNELS.items():
        for sig, calls in shapes.get(op, {}).most_common(top):
            args, kwargs = _inputs(T, op, sig, rng)
            fwd_s, bwd_s, reps = _time(T, getattr(T, op), args, kwargs)
            cost = _cost(op, sig)
            rows.append({
                "op": op,
                "shapes": [list(s) if isinstance(s, tuple) else s for s in sig[0]],
                "kwargs": dict(sig[1]),
                "traced_calls": calls,
                "reps": reps,
                "fwd_ms": fwd_s * 1e3,
                "bwd_ms": bwd_s * 1e3,
                **cost,
                "fwd_gmac_per_s": cost["macs_fwd"] / fwd_s / 1e9 if fwd_s > 0 else 0.0,
                "bwd_gmac_per_s": cost["macs_bwd"] / bwd_s / 1e9 if bwd_s > 0 else 0.0,
            })
    return rows


def _inputs(T, op, sig, rng):
    args, kwargs = sig
    if op == "softmax_cross_entropy":
        batch, classes = args[0]
        labels = rng.integers(0, classes, size=batch)
        return (T.Tensor(rng.standard_normal(args[0]), requires_grad=True), labels), dict(kwargs)
    if op == "conv2d":
        x, w = args[:2]
        return (T.Tensor(rng.random(x), requires_grad=True),
                T.Tensor(0.1 * rng.standard_normal(w), requires_grad=True), *args[2:]), dict(kwargs)
    return tuple(T.Tensor(rng.standard_normal(s), requires_grad=True) for s in args), dict(kwargs)


def _time(T, fn, args, kwargs):
    fwd, bwd = [], []
    clock = time.perf_counter
    while len(fwd) < MIN_REPS or (len(fwd) < MAX_REPS and sum(fwd) + sum(bwd) < ENTRY_BUDGET_S):
        with T.scoped_tape():
            t0 = clock()
            out = fn(*args, **kwargs)
            t1 = clock()
            loss = out if out.size == 1 else T.tensor_sum(out)
            t2 = clock()
            T.backward(loss)
            t3 = clock()
        fwd.append(t1 - t0)
        bwd.append(t3 - t2)
    return statistics.median(fwd), statistics.median(bwd), len(fwd)


def _cost(op, sig) -> dict:
    """MACs and bytes read+written by forward and backward, from array sizes."""
    args, kwargs = sig
    if op == "conv2d":
        (b, ci, h, w), (_, co, k, _) = args[:2]
        pad = args[2] if len(args) > 2 else dict(kwargs).get("padding", 0)
        ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
        x, wt, out = b * ci * h * w, ci * co * k * k, b * co * ho * wo
        patches = b * ci * k * k * ho * wo  # im2col matrix, written then read
        macs = b * co * ho * wo * ci * k * k
        return {"macs_fwd": macs, "macs_bwd": 2 * macs,
                "bytes_fwd": 8 * (x + wt + 2 * patches + out),
                "bytes_bwd": 8 * (out + 3 * patches + 2 * wt + x)}
    if op == "max_pool2d":
        x = int(np.prod(args[0]))
        return {"macs_fwd": 0, "macs_bwd": 0, "bytes_fwd": 8 * (x + x // 4),
                "bytes_bwd": 8 * (2 * x + 2 * (x // 4))}
    if op == "matmul":
        (m, kk), (_, n) = args
        a, bb, out = m * kk, kk * n, m * n
        return {"macs_fwd": m * kk * n, "macs_bwd": 2 * m * kk * n,
                "bytes_fwd": 8 * (a + bb + out), "bytes_bwd": 8 * (out + 2 * a + 2 * bb)}
    bc = int(np.prod(args[0]))
    if op == "kl_divergence":
        return {"macs_fwd": bc, "macs_bwd": 2 * bc, "bytes_fwd": 8 * 3 * bc,
                "bytes_bwd": 8 * 5 * bc}
    # softmax_cross_entropy: exp/log and a gather, no multiply-accumulate
    return {"macs_fwd": 0, "macs_bwd": 0, "bytes_fwd": 8 * 2 * bc, "bytes_bwd": 8 * 2 * bc}
