#!/usr/bin/env python3
"""Tour of the tensor engine: forward ops, reverse-mode gradients, SGD.

Run:  python3 demos/01_autodiff_basics.py
"""

import numpy as np

import robustprune.tensor as T
from robustprune.optim import SgdState, sgd_step
from robustprune.tensor import Tensor, backward

rng = np.random.default_rng(0)

# Every op records itself on the active tape; backward() replays it.
x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
with T.scoped_tape():
    loss = T.tensor_sum(T.mul(x, x))
    backward(loss)
print("d(sum x^2)/dx =", x.grad, " (expect 2x)")

# Gradients agree with finite differences, here for a small convolution.
img = Tensor(rng.uniform(-1, 1, size=(1, 1, 6, 6)), requires_grad=True)
kernel = Tensor(rng.uniform(-1, 1, size=(1, 2, 3, 3)), requires_grad=True)
with T.scoped_tape():
    out = T.max_pool2d(T.relu(T.conv2d(img, kernel, padding=1)))
    backward(T.scale(T.tensor_sum(out), 1.0 / out.size))  # mean over all outputs
print("conv kernel grad norm:", np.linalg.norm(kernel.grad))

# A few steps of momentum SGD with a cosine schedule on a quadratic bowl.
w = Tensor(np.array([4.0, -3.0]), requires_grad=True)
opt = SgdState(learning_rate=0.3, momentum=0.5, epochs=50)
for epoch in range(50):
    opt.set_epoch(epoch)
    with T.scoped_tape():
        backward(T.tensor_sum(T.mul(w, w)))
    sgd_step(opt, [w])
print("after 50 epochs of descent on |w|^2:", w.values, " (expect ~0)")
