"""Minimal dense-tensor engine with tape-based reverse-mode autodiff.

All values are float64 numpy arrays. Operations record themselves on the
active tape; ``backward`` replays the tape in reverse and assigns gradients
to every tensor reached from the loss. A single training run owns a single
tape; attacks and nested forwards open their own scope with ``scoped_tape``.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    """Raised when operation inputs do not conform."""


class Tensor:
    """Dense n-dimensional float64 value with an optional gradient slot."""

    __slots__ = ("values", "grad", "requires_grad", "_from_op")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._from_op = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    """One recorded operation: output plus the rule producing input grads."""

    __slots__ = ("output", "inputs", "rule")

    def __init__(self, output: Tensor, inputs: tuple[Tensor, ...], rule):
        self.output = output
        self.inputs = inputs
        self.rule = rule  # rule(out_grad) -> tuple of input grads (or None)


# Stack of tapes; ops append to the innermost one. Nodes are appended in
# creation order, so each tape is topologically sorted by construction.
_TAPES: list[list[_Node]] = [[]]
_RECORDING = [True]


@contextmanager
def scoped_tape():
    """Open a fresh tape; nodes recorded inside do not leak to the outer one."""
    _TAPES.append([])
    try:
        yield
    finally:
        _TAPES.pop()


@contextmanager
def no_grad():
    """Disable recording; forwards inside compute values only."""
    _RECORDING.append(False)
    try:
        yield
    finally:
        _RECORDING.pop()


# Attack loops only need gradients along the input path. An op recorded while
# this flag is lowered skips its weight gradient wherever its backward runs;
# conv2d then frees its patch matrix right after the forward.
_PARAM_GRADS = [True]


@contextmanager
def input_grads_only():
    _PARAM_GRADS.append(False)
    try:
        yield
    finally:
        _PARAM_GRADS.pop()


def _record(output: Tensor, inputs: tuple[Tensor, ...], rule) -> None:
    if _RECORDING[-1]:
        output._from_op = True
        _TAPES[-1].append(_Node(output, inputs, rule))


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every tensor the loss depends on; consume the tape.

    Gradients are overwritten, not accumulated across separate backward
    calls; within one call, contributions along multiple paths sum.
    """
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = _TAPES[-1]
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.values)}
    tensors: dict[int, Tensor] = {id(loss): loss}
    for node in reversed(tape):
        out_grad = grads.get(id(node.output))
        if out_grad is None:
            continue
        in_grads = node.rule(out_grad)
        for tensor, grad in zip(node.inputs, in_grads):
            if grad is None:
                continue
            key = id(tensor)
            if key in grads:
                grads[key] = grads[key] + grad
            else:
                grads[key] = grad
                tensors[key] = tensor
    for key, tensor in tensors.items():
        tensor.grad = grads[key]
    tape.clear()


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum-reduce a broadcasted gradient back to the original input shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise / reduction ops


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = Tensor(a.values + b.values)
    except ValueError as exc:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}") from exc
    _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = Tensor(a.values * b.values)
    except ValueError as exc:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}") from exc
    _record(
        out,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.values, a.shape),
            _unbroadcast(g * a.values, b.shape),
        ),
    )
    return out


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.values * c)
    _record(out, (a,), lambda g: (g * c,))
    return out


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.values, 0.0))
    active = a.values > 0
    _record(out, (a,), lambda g: (g * active,))
    return out


def tensor_sum(a: Tensor) -> Tensor:
    out = Tensor(a.values.sum())
    _record(out, (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),))
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.values.reshape(shape))
    _record(out, (a,), lambda g: (g.reshape(a.shape),))
    return out


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.values @ b.values)
    param_grads = _PARAM_GRADS[-1]

    def rule(g):
        da = g @ b.values.T if _needs_grad(a) else None
        db = a.values.T @ g if _needs_grad(b) and param_grads else None
        return (da, db)

    _record(out, (a, b), rule)
    return out


_COL2IM_ENTRIES = 1 << 17
_COL2IM_INDEX: dict[tuple[int, int, int, int], np.ndarray] = {}


def _col2im_index(c_in: int, hp: int, wp: int, k: int) -> np.ndarray:
    """Padded-input offsets of patch gradients in (n, c_in, a, b, y, x) order, built once
    per geometry for as many examples as fit in _COL2IM_ENTRIES (1 MiB), at least one."""
    if (c_in, hp, wp, k) not in _COL2IM_INDEX:
        h_out, w_out = hp - k + 1, wp - k + 1
        block = max(1, _COL2IM_ENTRIES // (c_in * k * k * h_out * w_out))
        rows = (np.arange(block * c_in)[:, None, None, None, None] * hp
                + np.arange(k)[:, None, None, None] + np.arange(h_out)[:, None])
        _COL2IM_INDEX[c_in, hp, wp, k] = (rows * wp + np.arange(k)[:, None, None]
                                          + np.arange(w_out)).ravel()
    return _COL2IM_INDEX[c_in, hp, wp, k]


def conv2d(x: Tensor, w: Tensor, padding: int = 0) -> Tensor:
    """2D cross-correlation, stride 1.

    ``x`` is (batch, c_in, h, w); ``w`` is (c_in, c_out, k, k) so that the
    leading axis of every parameter tensor is the input-channel axis.
    """
    if x.values.ndim != 4 or w.values.ndim != 4:
        raise ShapeError(f"conv2d: need 4d input and kernel, got {x.shape} and {w.shape}")
    batch, c_in, h, width = x.shape
    kc_in, c_out, k, k2 = w.shape
    if kc_in != c_in or k != k2:
        raise ShapeError(f"conv2d: kernel {w.shape} does not fit input {x.shape}")
    if padding < 0 or padding > k - 1:
        raise ShapeError(f"conv2d: padding {padding} outside supported range [0, {k - 1}]")
    h_out = h + 2 * padding - k + 1
    w_out = width + 2 * padding - k + 1
    if h_out <= 0 or w_out <= 0:
        raise ShapeError(f"conv2d: kernel {k} too large for input {x.shape} with padding {padding}")

    xp = x.values
    if padding:
        xp = np.zeros((batch, c_in, h + 2 * padding, width + 2 * padding))
        xp[:, :, padding : padding + h, padding : padding + width] = x.values
    # patches: (batch, c_in * k*k, h_out*w_out); row index enumerates (c_in, a, b).
    # Contiguity matters: strided 3d operands knock matmul off the BLAS path.
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    patches = np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3)).reshape(
        batch, c_in * k * k, h_out * w_out
    )
    wmat = w.values.transpose(0, 2, 3, 1).reshape(c_in * k * k, c_out)
    out_vals = (wmat.T @ patches).reshape(batch, c_out, h_out, w_out)
    out = Tensor(out_vals)
    patches = patches if _PARAM_GRADS[-1] else None  # only dw reads it

    def rule(g):
        gmat = np.ascontiguousarray(g).reshape(batch, c_out, h_out * w_out)
        dw = None
        dx = None
        if patches is not None and _needs_grad(w):
            dw = (
                np.tensordot(patches, gmat, axes=([0, 2], [0, 2]))
                .reshape(c_in, k, k, c_out)
                .transpose(0, 3, 1, 2)
            )
        if _needs_grad(x):
            # col2im by blocks of examples: bincount adds the patch gradients in their
            # (n, c_in, a, b, y, x) order, so each padded pixel sums in (a, b) order.
            hp, wp = h + 2 * padding, width + 2 * padding
            index = _col2im_index(c_in, hp, wp, k)
            block = index.size // (c_in * k * k * h_out * w_out)
            dx = np.empty(x.shape)
            for s in range(0, batch, block):
                dpatch = (wmat @ gmat[s : s + block]).ravel()
                dxp = np.bincount(index[: dpatch.size], dpatch).reshape(-1, c_in, hp, wp)
                dx[s : s + block] = dxp[:, :, padding : padding + h, padding : padding + width]
        return (dx, dw)

    _record(out, (x, w), rule)
    return out


def max_pool2d(x: Tensor, window: int = 2) -> Tensor:
    """Non-overlapping max pooling; the first max takes the gradient, a NaN propagates."""
    if x.values.ndim != 4:
        raise ShapeError(f"max-pool: need 4d input, got {x.shape}")
    batch, c, h, w = x.shape
    if h % window or w % window:
        raise ShapeError(f"max-pool: input {x.shape} not divisible by window {window}")
    # Running max over a contiguous slot-major copy; np.maximum carries NaN through.
    # Slot numbers rise, so raising the winner on each strict > keeps the first max.
    ho, wo = h // window, w // window
    slots = np.ascontiguousarray(x.values.reshape(batch, c, ho, window, wo, window)
                                 .transpose(3, 5, 0, 1, 2, 4)).reshape(-1, batch, c, ho, wo)
    out_vals = slots[0].copy()
    winner = np.zeros(out_vals.shape, np.min_scalar_type(window * window - 1))
    beats = np.empty(out_vals.shape, bool)
    for slot in range(1, window * window):
        np.greater(slots[slot], out_vals, out=beats)
        np.maximum(winner, beats.view(np.uint8) * winner.dtype.type(slot), out=winner)
        np.maximum(out_vals, slots[slot], out=out_vals)
    out = Tensor(out_vals)

    def rule(g):
        # flat index of each window's winner in x: window corner plus slot offset
        corner = (np.arange(batch * c).reshape(batch, c, 1, 1) * (h * w)
                  + np.arange(0, h, window)[:, None] * w + np.arange(0, w, window))
        offset = (np.arange(window)[:, None] * w + np.arange(window)).ravel()
        dx = np.zeros((batch, c, h, w))
        dx.ravel()[(corner + offset[winner]).ravel()] = g.ravel()
        return (dx,)

    _record(out, (x,), rule)
    return out


# ---------------------------------------------------------------------------
# losses


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between softmax(logits) and integer labels."""
    if logits.values.ndim != 2:
        raise ShapeError(f"softmax-cross-entropy: need (batch, classes) logits, got {logits.shape}")
    labels = np.asarray(labels)
    if labels.shape != (logits.shape[0],):
        raise ShapeError(
            f"softmax-cross-entropy: labels {labels.shape} do not match batch {logits.shape[0]}"
        )
    batch = logits.shape[0]
    logp = _log_softmax(logits.values)
    out = Tensor(-logp[np.arange(batch), labels].mean())

    def rule(g):
        dz = np.exp(logp)
        dz[np.arange(batch), labels] -= 1.0
        return (g * dz / batch,)

    _record(out, (logits,), rule)
    return out


def kl_divergence(p_logits: Tensor, q_logits: Tensor) -> Tensor:
    """Mean KL(softmax(p) || softmax(q)) over the batch, differentiable in both."""
    if p_logits.shape != q_logits.shape or p_logits.values.ndim != 2:
        raise ShapeError(
            f"kl-divergence: need matching (batch, classes) logits, got {p_logits.shape} and {q_logits.shape}"
        )
    batch = p_logits.shape[0]
    logp = _log_softmax(p_logits.values)
    logq = _log_softmax(q_logits.values)
    p = np.exp(logp)
    out = Tensor((p * (logp - logq)).sum(axis=1).mean())

    def rule(g):
        dp = None
        dq = None
        if _needs_grad(q_logits):
            dq = g * (np.exp(logq) - p) / batch
        if _needs_grad(p_logits):
            v = logp - logq
            dp = g * p * (v - (p * v).sum(axis=1, keepdims=True)) / batch
        return (dp, dq)

    _record(out, (p_logits, q_logits), rule)
    return out


def _needs_grad(t: Tensor) -> bool:
    # Computing input grads for leaves that never asked is wasteful in the
    # two heavy ops (conv, kl), so their rules consult this flag. Tensors
    # produced by another op always need one.
    return t.requires_grad or t._from_op

