"""Minimal dense-tensor engine with tape-based reverse-mode autodiff.

All values are float64 numpy arrays. Operations record themselves on the
active tape. A recorded node names its output and inputs by serial key and
keeps ``Tensor`` objects only for its leaf inputs (those no recorded op
produced); its backward rule keeps only the arrays that rule reads.
``backward`` pops the tape in reverse, drops each intermediate gradient once
its producer has used it, and assigns gradients to the leaves. A single
training run owns a single tape; attacks and nested forwards open their own
scope with ``scoped_tape``.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    """Raised when operation inputs do not conform."""


# Tape keys: unlike id(), a serial number is never reused by a later tensor.
_KEYS = itertools.count()


class Tensor:
    """Dense n-dimensional float64 value with an optional gradient slot."""

    __slots__ = ("values", "grad", "requires_grad", "_from_op", "_key")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._from_op = False
        self._key = next(_KEYS)

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
    """One recorded operation: output and input keys, the leaf inputs, and the
    rule producing input grads."""

    __slots__ = ("out_key", "in_keys", "leaves", "rule")

    def __init__(self, output: Tensor, inputs: tuple[Tensor, ...], rule):
        self.out_key = output._key
        self.in_keys = tuple(t._key for t in inputs)
        self.leaves = tuple(t for t in inputs if not t._from_op)
        self.rule = rule  # rule(out_grad) -> tuple of input grads (or None)


# What the ops of a scope keep for their backward, narrowest first: nothing (no op
# records), only what input gradients read (attack loops: an op recorded there never
# computes its weight gradient, and conv2d and matmul keep no input for it), or all.
_KEEP_NOTHING, _KEEP_INPUT_GRADS, _KEEP_ALL = range(3)

# Stack of (tape, keep) scopes; ops append to the innermost tape. Nodes are appended in
# creation order, so each tape is topologically sorted by construction.
_SCOPES: list[tuple[list[_Node], int]] = [([], _KEEP_ALL)]


@contextmanager
def _scope(keep: int, fresh_tape: bool = False):
    """Push a scope that keeps at most ``keep``: a scope can only narrow its outer one."""
    tape, outer = _SCOPES[-1]
    _SCOPES.append(([] if fresh_tape else tape, min(keep, outer)))
    try:
        yield
    finally:
        _SCOPES.pop()


def scoped_tape():
    """Open a fresh tape; nodes recorded inside do not leak to the outer one."""
    return _scope(_KEEP_ALL, fresh_tape=True)


def no_grad():
    """Disable recording; forwards inside compute values only."""
    return _scope(_KEEP_NOTHING)


def input_grads_only():
    """Record only what input gradients need; ops recorded inside compute no weight gradient."""
    return _scope(_KEEP_INPUT_GRADS)


def _record(output: Tensor, inputs: tuple[Tensor, ...], rule) -> None:
    tape, keep = _SCOPES[-1]
    if keep != _KEEP_NOTHING:
        output._from_op = True
        tape.append(_Node(output, inputs, rule))


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf the loss depends on; consume the tape.

    Leaves are the tensors no recorded op produced (parameters, masks,
    inputs); op outputs get no ``grad``. Gradients are overwritten, not
    accumulated across separate backward calls; within one call,
    contributions along multiple paths sum.
    """
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = _SCOPES[-1][0]
    grads: dict[int, np.ndarray] = {loss._key: np.ones_like(loss.values)}
    leaves: dict[int, Tensor] = {} if loss._from_op else {loss._key: loss}
    while tape:
        node = tape.pop()
        # every consumer of this output ran before it, so its gradient is complete
        out_grad = grads.pop(node.out_key, None)
        if out_grad is None:
            continue
        for key, grad in zip(node.in_keys, node.rule(out_grad)):
            if grad is None:
                continue
            grads[key] = grads[key] + grad if key in grads else grad
        leaves.update((t._key, t) for t in node.leaves)
    for key, tensor in leaves.items():
        if key in grads:
            tensor.grad = grads[key]


# ---------------------------------------------------------------------------
# elementwise / reduction ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: operand shapes {a.shape} and {b.shape} differ")
    out = Tensor(a.values + b.values)
    _record(out, (a, b), lambda g: (g, g))  # safe: no rule writes into its incoming g
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: operand shapes {a.shape} and {b.shape} differ")
    out = Tensor(a.values * b.values)
    av, bv = a.values, b.values  # each operand's grad reads the other one
    _record(out, (a, b), lambda g: (g * bv, g * av))
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
    shape = a.shape
    _record(out, (a,), lambda g: (np.broadcast_to(g, shape).copy(),))
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.values.reshape(shape))
    in_shape = a.shape
    _record(out, (a,), lambda g: (g.reshape(in_shape),))
    return out


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.values @ b.values)
    bv = b.values if _needs_grad(a) else None  # read by da
    av = a.values if _needs_grad(b) and _SCOPES[-1][1] == _KEEP_ALL else None  # read by db

    def rule(g):
        return (None if bv is None else g @ bv.T, None if av is None else av.T @ g)

    _record(out, (a, b), rule)
    return out


_COL2IM_ENTRIES = 1 << 16
_COL2IM_INDEX: dict[tuple[int, int, int, int], np.ndarray] = {}


def _block(c_in: int, k: int, h_out: int, w_out: int) -> int:
    """Examples whose patch entries fit in _COL2IM_ENTRIES, at least one."""
    return max(1, _COL2IM_ENTRIES // (c_in * k * k * h_out * w_out))


def _columns(x: np.ndarray, k: int, padding: int) -> np.ndarray:
    """Patch matrix (c_in * k*k, n, h_out*w_out) of x zero-padded by ``padding``, rows in
    (c_in, a, b) order: one slice copy of the unpadded x per kernel offset (a, b), border
    entries left zero. dw takes it whole as one 2d operand; each example's slice suits BLAS."""
    n, c_in, h, width = x.shape
    h_out, w_out = h + 2 * padding - k + 1, width + 2 * padding - k + 1
    cols = np.zeros((c_in, k, k, n, h_out, w_out))
    src = x.transpose(1, 0, 2, 3)
    for a, b in itertools.product(range(k), repeat=2):
        y0, y1 = max(0, padding - a), min(h_out, h + padding - a)
        x0, x1 = max(0, padding - b), min(w_out, width + padding - b)
        if y0 < y1 and x0 < x1:
            cols[:, a, b, :, y0:y1, x0:x1] = src[:, :, y0 + a - padding : y1 + a - padding,
                                                 x0 + b - padding : x1 + b - padding]
    return cols.reshape(c_in * k * k, n, h_out * w_out)


def _col2im_index(c_in: int, hp: int, wp: int, k: int) -> np.ndarray:
    """Padded-input offsets of patch gradients in (n, c_in, a, b, y, x) order, built once
    per geometry for a _block of examples (512 KiB)."""
    if (c_in, hp, wp, k) not in _COL2IM_INDEX:
        h_out, w_out = hp - k + 1, wp - k + 1
        block = _block(c_in, k, h_out, w_out)
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

    wmat = w.values.transpose(0, 2, 3, 1).reshape(c_in * k * k, c_out)
    need_x = _needs_grad(x)
    # like matmul, the weight gradient relies on activations not being mutated between
    # forward and backward; it rebuilds their patch matrix there
    x_dw = x.values if _SCOPES[-1][1] == _KEEP_ALL and _needs_grad(w) else None
    out_vals = np.empty((batch, c_out, h_out * w_out))
    if k == 1:
        # at 1x1 the patch matrix of an example is its (c_in, h*w) view
        np.matmul(wmat.T, x.values.reshape(batch, c_in, h * width), out=out_vals)
    else:
        # no patch matrix outlives the forward: build and multiply it by blocks of
        # examples; each example gets the same BLAS call as in a whole-batch product
        block = _block(c_in, k, h_out, w_out)
        for s in range(0, batch, block):
            np.matmul(wmat.T, _columns(x.values[s : s + block], k, padding).transpose(1, 0, 2),
                      out=out_vals[s : s + block])
    out = Tensor(out_vals.reshape(batch, c_out, h_out, w_out))

    def rule(g):
        gmat = np.ascontiguousarray(g).reshape(batch, c_out, h_out * w_out)
        dw = dx = None
        if x_dw is not None:
            # one dot of the rebuilt patch matrix: the call np.tensordot makes, so the
            # bits match it, without tensordot's transposed copy of the patches
            dw = np.dot(_columns(x_dw, k, padding).reshape(c_in * k * k, -1),
                        gmat.transpose(0, 2, 1).reshape(-1, c_out))
            dw = dw.reshape(c_in, k, k, c_out).transpose(0, 3, 1, 2)
        if need_x and k == 1:
            dx = (wmat @ gmat).reshape(batch, c_in, h, width)  # one patch entry per pixel
        elif need_x:
            # col2im by blocks of examples: bincount adds the patch gradients in their
            # (n, c_in, a, b, y, x) order, so each padded pixel sums in (a, b) order.
            hp, wp = h + 2 * padding, width + 2 * padding
            index = _col2im_index(c_in, hp, wp, k)
            block = _block(c_in, k, h_out, w_out)
            dx = np.empty((batch, c_in, h, width))
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
    # The winner is the offset a*w + b of slot (a, b) from its window's top-left
    # pixel in x; offsets rise with the slot, so raising it on each strict > keeps
    # the first max. The copy is made per _block of examples, conv2d's budget of
    # _COL2IM_ENTRIES entries, so it stays in cache at the eval batch.
    ho, wo = h // window, w // window
    block = _block(c, window, ho, wo)
    n = min(block, batch)
    offsets = (np.arange(window)[:, None] * w + np.arange(window)).ravel()
    out_vals = np.empty((batch, c, ho, wo))
    winner = np.zeros(out_vals.shape, np.min_scalar_type(offsets[-1]))
    for s in range(0, batch, block):
        top, won = out_vals[s : s + block], winner[s : s + block]
        m = len(top)
        hit = np.empty(top.shape, bool)
        slots = np.ascontiguousarray(x.values[s : s + m].reshape(m, c, ho, window, wo, window)
                                     .transpose(3, 5, 0, 1, 2, 4)).reshape(-1, m, c, ho, wo)
        top[...] = slots[0]
        for slot in range(1, window * window):
            np.greater(slots[slot], top, out=hit)
            np.maximum(won, hit.view(np.uint8) * won.dtype.type(offsets[slot]), out=won)
            np.maximum(top, slots[slot], out=top)
    out = Tensor(out_vals)

    def rule(g):
        # flat index in a block of x of each window's winner: its top-left pixel plus
        # the offset; the corners of one block serve every block
        corner = (np.arange(0, n * c * h, window).reshape(n, c, ho, 1) * w
                  + np.arange(0, w, window))
        dx = np.zeros((batch, c, h, w))
        for s in range(0, batch, block):
            won = winner[s : s + block]
            dx[s : s + block].ravel()[(corner[: len(won)] + won).ravel()] = g[s : s + block].ravel()
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
    need_p, need_q = _needs_grad(p_logits), _needs_grad(q_logits)

    def rule(g):
        dp = None
        dq = None
        if need_q:
            dq = g * (np.exp(logq) - p) / batch
        if need_p:
            v = logp - logq
            dp = g * p * (v - (p * v).sum(axis=1, keepdims=True)) / batch
        return (dp, dq)

    _record(out, (p_logits, q_logits), rule)
    return out


def _needs_grad(t: Tensor) -> bool:
    # Computing input grads for leaves that never asked is wasteful in the
    # heavy ops (conv, matmul, kl), so they read this flag as they record and
    # keep only the arrays the needed grads read. Tensors produced by another
    # op always need one.
    return t.requires_grad or t._from_op

