"""Tensor engine: forward values, backward gradients vs finite differences, SGD."""

import itertools
import weakref
from contextlib import ExitStack, nullcontext

import numpy as np
import pytest

import robustprune.tensor as T
from robustprune.optim import SgdState, sgd_step
from robustprune.tensor import Tensor, backward

from helpers import (conv2d_reference, finite_difference, grad_close, max_pool2d_reference,
                     rel_err, traced_peak)


def test_relu_definition():
    out = T.relu(Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.values, [0.0, 0.0, 2.0])


def test_add_identity():
    x = Tensor([[1.5, -2.0], [0.25, 3.0]])
    out = T.add(x, Tensor(np.zeros((2, 2))))
    assert np.array_equal(out.values, x.values)


def test_conv2d_hand_sum():
    # 3x3 ones kernel over a 3x3 ones input, no padding: single output of 9
    x = Tensor(np.ones((1, 1, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = T.conv2d(x, w)
    assert out.shape == (1, 1, 1, 1)
    assert out.values.item() == 9.0


def test_shape_mismatch_names_op():
    with pytest.raises(T.ShapeError, match="matmul"):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(T.ShapeError, match="conv2d"):
        T.conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((3, 1, 3, 3))))


# no broadcasting, so pairs numpy would broadcast are refused too
@pytest.mark.parametrize("op", [T.add, T.mul], ids=["add", "mul"])
@pytest.mark.parametrize("a_shape,b_shape", [((2, 2), (2,)), ((2, 1), (2, 3)), ((), (3,)),
                                             ((2, 3), (3, 2))])
def test_elementwise_ops_refuse_operands_of_two_shapes(op, a_shape, b_shape):
    for a, b in ((a_shape, b_shape), (b_shape, a_shape)):
        with pytest.raises(T.ShapeError) as exc:
            op(Tensor(np.ones(a)), Tensor(np.ones(b)))
        assert op.__name__ in str(exc.value)
        assert str(a) in str(exc.value) and str(b) in str(exc.value)


def test_backward_square_sum():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with T.scoped_tape():
        loss = T.tensor_sum(T.mul(x, x))
        backward(loss)
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_constant_gives_zero_grads():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with T.scoped_tape():
        loss = T.mul(T.tensor_sum(x), Tensor(0.0))
        backward(loss)
    assert np.array_equal(x.grad, [0.0, 0.0])


def test_backward_rejects_nonscalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with T.scoped_tape():
        y = T.mul(x, x)
        with pytest.raises(T.ShapeError):
            backward(y)


def test_backward_linearity():
    rng = np.random.default_rng(3)
    vals = rng.normal(size=4)

    def run(parts):
        x = Tensor(vals, requires_grad=True)
        with T.scoped_tape():
            terms = []
            if "square" in parts:
                terms.append(T.tensor_sum(T.mul(x, x)))
            if "relu" in parts:
                terms.append(T.tensor_sum(T.relu(x)))
            loss = terms[0] if len(terms) == 1 else T.add(terms[0], terms[1])
            backward(loss)
        return x.grad

    combined = run({"square", "relu"})
    assert np.allclose(combined, run({"square"}) + run({"relu"}), atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_mlp_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(-2, 2, size=(6, 5))
    w2 = rng.uniform(-2, 2, size=(5, 3))
    x = rng.uniform(-2, 2, size=(7, 6))
    y = rng.integers(0, 3, size=7)

    def loss_fn(w1v, w2v):
        h = np.maximum(x @ w1v, 0.0)
        z = h @ w2v
        zs = z - z.max(axis=1, keepdims=True)
        logp = zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))
        return -logp[np.arange(7), y].mean()

    t1, t2 = Tensor(w1, requires_grad=True), Tensor(w2, requires_grad=True)
    with T.scoped_tape():
        h = T.relu(T.matmul(Tensor(x), t1))
        loss = T.softmax_cross_entropy(T.matmul(h, t2), y)
        backward(loss)
    fd1 = finite_difference(lambda w: loss_fn(w, w2), w1.copy())
    fd2 = finite_difference(lambda w: loss_fn(w1, w), w2.copy())
    assert grad_close(t1.grad, fd1)
    assert grad_close(t2.grad, fd2)


@pytest.mark.parametrize("op,builder", [
    ("relu", lambda x: T.tensor_sum(T.mul(T.relu(x), x))),
])
def test_elementwise_gradients_match_fd(op, builder):
    rng = np.random.default_rng(hash(op) % 2**32)
    vals = rng.uniform(-2, 2, size=12)
    # keep relu away from its kink, where FD is one-sided
    vals = vals[np.abs(vals) > 1e-3]
    x = Tensor(vals, requires_grad=True)
    with T.scoped_tape():
        backward(builder(x))

    def scalar(v):
        t = Tensor(v)
        with T.scoped_tape(), T.no_grad():
            return builder(t).item()

    fd = finite_difference(scalar, vals.copy())
    assert rel_err(x.grad, fd) < 1e-5


def test_backward_sets_grad_on_leaves_only_and_empties_the_tape():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 3, 3, 3)), requires_grad=True)
    with T.scoped_tape():
        conv = T.conv2d(x, w, padding=1)
        act = T.relu(conv)
        loss = T.tensor_sum(act)
        backward(loss)
        assert T._SCOPES[-1][0] == []
    assert x.grad.shape == x.shape and w.grad.shape == w.shape
    assert conv.grad is None and act.grad is None and loss.grad is None


def test_gradients_along_two_paths_sum_for_leaves_and_intermediates():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    with T.scoped_tape():
        h = T.scale(x, 2.0)  # an intermediate read by two ops
        backward(T.tensor_sum(T.add(T.mul(h, h), T.mul(h, x))))  # and x on two paths
    # d/dx (4x^2 + 2x^2) = 12x
    assert np.array_equal(x.grad, 12.0 * x.values)


def test_conv_and_pool_gradients_match_fd():
    rng = np.random.default_rng(11)
    x = rng.uniform(-2, 2, size=(2, 2, 6, 6))
    w = rng.uniform(-2, 2, size=(2, 3, 3, 3))

    def run(xv, wv, record=True):
        xt = Tensor(xv, requires_grad=True)
        wt = Tensor(wv, requires_grad=True)
        with T.scoped_tape():
            h = T.max_pool2d(T.relu(T.conv2d(xt, wt, padding=1)))
            loss = T.tensor_sum(T.mul(h, h))
            if record:
                backward(loss)
        return loss.item(), xt.grad, wt.grad

    _, gx, gw = run(x, w)
    fd_x = finite_difference(lambda v: run(v, w, record=False)[0], x.copy())
    fd_w = finite_difference(lambda v: run(x, v, record=False)[0], w.copy())
    assert grad_close(gx, fd_x)
    assert grad_close(gw, fd_w)


def _run_op(op, x, g, *params):
    """Forward values and the gradients of sum(out * g) w.r.t. ``x`` and ``params``."""
    xt = Tensor(x, requires_grad=True)
    pts = [Tensor(p, requires_grad=True) for p in params]
    with T.scoped_tape():
        out = op(xt, *pts)
        backward(T.tensor_sum(T.mul(out, Tensor(g))))
    return (out.values, xt.grad) + tuple(p.grad for p in pts)


def _same_signs(a, b) -> bool:
    # np.array_equal counts -0.0 equal to 0.0; the sign bits tell them apart
    return np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("x_shape,w_shape,padding", [
    ((3, 4, 8, 8), (4, 5, 3, 3), 1),     # k=3, padding 1 (every conv-small layer)
    ((3, 4, 8, 8), (4, 5, 3, 3), 0),     # k=3, no padding
    ((4, 6, 8, 8), (6, 6, 1, 1), 0),     # the 1x1 shortcut conv
    ((1, 1, 5, 9), (1, 3, 3, 3), 1),     # c_in=1, batch 1, non-square
    ((2, 3, 7, 4), (3, 2, 3, 3), 0),     # non-square, no padding
    ((2, 3, 7, 6), (3, 4, 5, 5), 2),     # k=5, padding 2
    ((2, 3, 6, 5), (3, 2, 3, 3), 2),     # k=3, padding 2: output larger than the input
    # batches over several col2im blocks (block sizes are checked in
    # test_col2im_index_is_one_bounded_entry_per_geometry)
    ((7, 16, 16, 16), (16, 4, 3, 3), 1),  # k=3, padding 1: blocks of 1 example
    ((37, 32, 16, 16), (32, 8, 1, 1), 0),  # 1x1 shortcut: one multiply, no col2im
    ((256, 12, 8, 8), (12, 24, 3, 3), 1),  # conv-small's conv2 at eval batch: blocks of 9,
                                           # the last one partial
])
def test_conv2d_bit_exact_against_reference(x_shape, w_shape, padding):
    rng = np.random.default_rng(sum(x_shape) + padding)
    x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
    out_shape = (x_shape[0], w_shape[1], x_shape[2] + 2 * padding - w_shape[2] + 1,
                 x_shape[3] + 2 * padding - w_shape[2] + 1)
    gs = [rng.normal(size=out_shape)]
    if w_shape[2] == 1:
        # an output gradient as max_pool2d's backward hands it to a conv, mostly ±0.0: a
        # GEMM that summed zero products to -0.0 would fail the sign checks
        gs.append(gs[0] * (rng.random(out_shape) < 0.125))
    def conv(xt, wt):
        return T.conv2d(xt, wt, padding=padding)

    for g in gs:
        want = conv2d_reference(x, w, padding, g)
        got = _run_op(conv, x, g, w)
        for name, a, b in zip(("out", "dx", "dw"), got, want):
            assert np.array_equal(a, b), name
            assert _same_signs(a, b), name
        # attack passes and no_grad forwards keep no patch matrix and multiply it by blocks
        with T.input_grads_only():
            got = _run_op(conv, x, g, w)
        for name, a, b in zip(("input-grads-only out", "input-grads-only dx"), got, want):
            assert np.array_equal(a, b), name
            assert _same_signs(a, b), name
        assert got[2] is None
    with T.no_grad():
        out = conv(Tensor(x), Tensor(w)).values
    assert np.array_equal(out, want[0]), "no-grad out"
    assert _same_signs(out, want[0]), "no-grad out"


@pytest.mark.parametrize("c_in,side,k,padding,block", [
    (16, 16, 3, 1, 1), (32, 16, 1, 0, None), (12, 8, 3, 1, 9)])
def test_col2im_index_is_one_bounded_entry_per_geometry(c_in, side, k, padding, block):
    # Every batch size shares one index per geometry, of at most _COL2IM_ENTRIES
    # entries, so peak memory does not grow with the batch sizes a run has seen.
    # A 1x1 conv scatters nothing, so it caches no index.
    rng = np.random.default_rng(c_in)
    hp = side + 2 * padding
    key = (c_in, hp, hp, k)
    T._COL2IM_INDEX.pop(key, None)
    others = set(T._COL2IM_INDEX)
    for batch in (1, 32, 256):
        x = rng.normal(size=(batch, c_in, side, side))
        w = rng.normal(size=(c_in, 2, k, k))
        g = rng.normal(size=(batch, 2, hp - k + 1, hp - k + 1))
        dx = _run_op(lambda xt, wt: T.conv2d(xt, wt, padding=padding), x, g, w)[1]
        assert np.array_equal(dx, conv2d_reference(x, w, padding, g)[1])
    if block is None:
        assert not [cached for cached in T._COL2IM_INDEX if cached[3] == 1]
        return
    assert set(T._COL2IM_INDEX) - others == {key}
    index = T._COL2IM_INDEX[key]
    assert index.size == block * c_in * k * k * (hp - k + 1) ** 2 <= T._COL2IM_ENTRIES


@pytest.mark.parametrize("op,reference,x_shape,w_shape", [
    pytest.param(lambda xt, wt: T.conv2d(xt, wt, padding=1),
                 lambda x, w, g: conv2d_reference(x, w, 1, g), (2, 3, 6, 6), (3, 4, 3, 3),
                 id="conv2d"),
    pytest.param(T.matmul, lambda x, w, g: (x @ w, g @ w.T, x.T @ g), (5, 6), (6, 3),
                 id="matmul"),
])
@pytest.mark.parametrize("record_inside", [True, False], ids=["record-in", "record-out"])
@pytest.mark.parametrize("backward_inside", [True, False], ids=["backward-in", "backward-out"])
def test_input_grads_only_applies_to_ops_recorded_inside(op, reference, x_shape, w_shape,
                                                         record_inside, backward_inside):
    rng = np.random.default_rng(3)
    x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
    with T.no_grad():
        g = rng.normal(size=op(Tensor(x), Tensor(w)).shape)
    want_out, want_dx, want_dw = reference(x, w, g)
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    with T.scoped_tape():
        with T.input_grads_only() if record_inside else nullcontext():
            out = op(xt, wt)
            loss = T.tensor_sum(T.mul(out, Tensor(g)))
        with T.input_grads_only() if backward_inside else nullcontext():
            backward(loss)
    assert np.array_equal(out.values, want_out) and np.array_equal(xt.grad, want_dx)
    assert _same_signs(out.values, want_out) and _same_signs(xt.grad, want_dx)
    if record_inside:
        assert wt.grad is None
    else:
        assert np.array_equal(wt.grad, want_dw)
        assert _same_signs(wt.grad, want_dw)


SCOPES = {"scoped_tape": T.scoped_tape, "no_grad": T.no_grad,
          "input_grads_only": T.input_grads_only}


@pytest.mark.parametrize("order", [order for depth in range(4)
                                   for order in itertools.product(SCOPES, repeat=depth)],
                         ids=lambda order: "-".join(order) or "outermost")
def test_nested_scopes_only_narrow_what_ops_record_and_keep(order):
    # any no_grad stops recording; any input_grads_only (or no_grad) stops the weight
    # gradient, and with it the input each op keeps for that gradient
    records = "no_grad" not in order
    weight_grads = records and "input_grads_only" not in order
    rng = np.random.default_rng(len(order))
    for op, x_shape, w_shape in ((lambda h, w: T.conv2d(h, w, padding=1), (2, 3, 6, 6),
                                  (3, 4, 3, 3)), (T.matmul, (5, 6), (6, 3))):
        x = Tensor(rng.normal(size=x_shape), requires_grad=True)
        w = Tensor(rng.normal(size=w_shape), requires_grad=True)
        with ExitStack() as scopes:
            for name in order:
                scopes.enter_context(SCOPES[name]())
            h = T.scale(x, 1.0)  # an op output, so no node holds its Tensor as a leaf
            kept = weakref.ref(h.values)
            out = op(h, w)
            del h
            assert (kept() is not None) == weight_grads, "input kept"
            backward(T.tensor_sum(out))
        assert (x.grad is not None) == records, "recorded"
        assert (w.grad is not None) == weight_grads, "weight gradient"


# window 3 has an odd slot count; window 17 has 289 slots, so the winner index is uint16
@pytest.mark.parametrize("window,x_shape", [
    pytest.param(2, (3, 2, 8, 12), id="2"),
    pytest.param(3, (3, 2, 6, 9), id="3"),
    pytest.param(4, (3, 2, 8, 12), id="4"),
    pytest.param(17, (3, 2, 17, 34), id="17"),
    # batches over several blocks ending in a partial one, with non-finite values
    pytest.param(2, (45, 6, 16, 16), id="2-blocks-of-42"),
    pytest.param(3, (35, 6, 18, 18), id="3-blocks-of-33"),
    pytest.param(4, (45, 6, 16, 16), id="4-blocks-of-42"),
])
@pytest.mark.parametrize("kind", ["normal", "rounded", "constant", "relu"])
def test_max_pool2d_bit_exact_against_reference(window, x_shape, kind):
    rng = np.random.default_rng(window)
    batch, c, h, w = x_shape
    x = rng.normal(size=x_shape)
    # rounded and constant inputs put many equal values in one window
    x = {"normal": x, "rounded": np.round(x), "constant": np.full_like(x, 0.5),
         "relu": np.maximum(x, 0.0)}[kind]
    block = T._block(c, window, h // window, w // window)
    if batch > block:
        assert batch % block, "the last block must be partial"
        # NaN, +inf and -inf in the first example of the second block and in the
        # last example. The NaN takes its window's first slot: there the op's winner
        # (the first max before the NaN) and the reference's (slot 0, as no value
        # equals NaN) agree.
        for i in (block, batch - 1):
            x[i, 0, 0, 0], x[i, c - 1, window, window + 1] = np.nan, np.inf
            x[i, c // 2, h - 1, w - 1] = -np.inf
    g = rng.normal(size=(batch, c, h // window, w // window))
    def pool(xt):
        return T.max_pool2d(xt, window)

    want = max_pool2d_reference(x, window, g)
    got = _run_op(pool, x, g)
    with T.input_grads_only():
        inside = _run_op(pool, x, g)
    for name, (out, dx) in (("recorded", got), ("input-grads-only", inside)):
        assert np.array_equal(out, want[0], equal_nan=True), f"{name} out"
        assert np.array_equal(dx, want[1]), f"{name} dx"
        assert _same_signs(out, want[0]) and _same_signs(dx, want[1]), name
    with T.no_grad():
        out = pool(Tensor(x)).values
    assert np.array_equal(out, want[0], equal_nan=True), "no-grad out"
    assert _same_signs(out, want[0]), "no-grad out"


def test_max_pool2d_forward_at_the_eval_batch_copies_one_block():
    # The slot-major copy is made per block of examples, so one forward at the eval
    # batch peaks below the size of its own input (6 MiB); the whole-batch copy took
    # 8.06 MiB here.
    x = Tensor(np.random.default_rng(0).normal(size=(256, 12, 16, 16)))
    assert traced_peak(lambda: T.max_pool2d(x)) < x.values.nbytes


@pytest.mark.parametrize("window", [2, 3, 4, 17])
@pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf])
def test_max_pool2d_non_finite_in_every_window_slot(window, special):
    # A NaN anywhere in a window makes its output NaN, as numpy's max reduction does,
    # so a diverged forward still reaches the loss check before backward.
    rng = np.random.default_rng(7)
    for slot in range(window * window):
        x = rng.normal(size=(2, 3, window, 2 * window))
        x[1, 2, slot // window, window + slot % window] = special
        out = T.max_pool2d(Tensor(x), window).values
        want = x.reshape(2, 3, 1, window, 2, window).max(axis=(3, 5))
        assert np.array_equal(out, want, equal_nan=True), slot


def test_kl_gradients_match_fd():
    rng = np.random.default_rng(5)
    p = rng.uniform(-2, 2, size=(4, 3))
    q = rng.uniform(-2, 2, size=(4, 3))

    def kl(pv, qv):
        def logsoft(z):
            zs = z - z.max(axis=1, keepdims=True)
            return zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))
        lp, lq = logsoft(pv), logsoft(qv)
        return (np.exp(lp) * (lp - lq)).sum(axis=1).mean()

    pt, qt = Tensor(p, requires_grad=True), Tensor(q, requires_grad=True)
    with T.scoped_tape():
        backward(T.kl_divergence(pt, qt))
    assert grad_close(pt.grad, finite_difference(lambda v: kl(v, q), p.copy()))
    assert grad_close(qt.grad, finite_difference(lambda v: kl(p, v), q.copy()))
    assert T.kl_divergence(Tensor(p), Tensor(q)).item() >= 0.0


def test_forward_determinism():
    def build():
        rng = np.random.default_rng(42)
        x = Tensor(rng.uniform(-2, 2, size=(3, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.uniform(-2, 2, size=(2, 2, 3, 3)), requires_grad=True)
        with T.scoped_tape():
            loss = T.tensor_sum(T.conv2d(x, w, padding=1))
            backward(loss)
        return loss.item(), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = build()
    l2, gx2, gw2 = build()
    assert l1 == l2
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


# --- SGD ---


def test_sgd_plain_step():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([1.0])
    sgd_step(SgdState(learning_rate=0.1), [p])
    assert p.values[0] == pytest.approx(0.9)
    assert p.grad is None


def test_sgd_zero_grad_no_motion():
    p = Tensor(np.array([2.5]), requires_grad=True)
    p.grad = np.array([0.0])
    sgd_step(SgdState(learning_rate=0.1, momentum=0.9), [p])
    assert p.values[0] == 2.5


def test_sgd_missing_grad_raises():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ValueError, match="no gradient"):
        sgd_step(SgdState(learning_rate=0.1), [p])


def test_sgd_velocity_is_state_not_an_argument():
    with pytest.raises(TypeError):
        SgdState(0.1, velocity=[])


def test_sgd_momentum_accumulates():
    p = Tensor(np.array([0.0]), requires_grad=True)
    state = SgdState(learning_rate=1.0, momentum=0.5)
    p.grad = np.array([1.0])
    sgd_step(state, [p])  # v=1, p=-1
    p.grad = np.array([1.0])
    sgd_step(state, [p])  # v=1.5, p=-2.5
    assert p.values[0] == pytest.approx(-2.5)


def test_decoupled_weight_decay():
    p = Tensor(np.array([2.0]), requires_grad=True)
    p.grad = np.array([0.0])
    sgd_step(SgdState(learning_rate=0.1, weight_decay=0.5), [p])
    # decay shrinks by lr*wd even with zero gradient
    assert p.values[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))


def test_cosine_schedule_midpoint_and_monotone():
    opt = SgdState(learning_rate=0.4, epochs=10)
    assert opt.set_epoch(0) == pytest.approx(0.4)
    assert opt.set_epoch(5) == pytest.approx(0.2)
    assert opt.set_epoch(10) == pytest.approx(0.0)
    rates = [opt.set_epoch(e) for e in range(11)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
