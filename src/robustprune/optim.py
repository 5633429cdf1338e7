"""Momentum SGD with decoupled weight decay and a cosine learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor


@dataclass
class SgdState:
    """Momentum SGD state; ``set_epoch`` follows a cosine from ``learning_rate`` over
    ``epochs`` epochs (0 keeps the rate constant)."""

    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    epochs: int = 0
    velocity: list[np.ndarray] = field(default_factory=list, init=False)
    base: float = field(init=False)

    def __post_init__(self):
        self.base = self.learning_rate

    def set_epoch(self, epoch: int) -> float:
        """Set the learning rate to base * 0.5 * (1 + cos(pi * e / epochs)), e the epoch
        clipped to [0, epochs]; returns the rate."""
        if self.epochs > 0:
            frac = min(max(epoch, 0), self.epochs) / self.epochs
            self.learning_rate = self.base * 0.5 * (1.0 + math.cos(math.pi * frac))
        return self.learning_rate


def sgd_step(state: SgdState, params: list[Tensor]) -> None:
    """One momentum-SGD step with decoupled weight decay; clears grads.

    Decay is applied to the pre-update parameter values, independent of the
    gradient path, then the momentum update follows.
    """
    if not state.velocity:
        state.velocity = [np.zeros_like(p.values) for p in params]
    if len(state.velocity) != len(params):
        raise ValueError("optimizer state does not match the parameter list")
    lr = state.learning_rate
    for p, v in zip(params, state.velocity):
        if p.grad is None:
            raise ValueError("sgd_step: parameter has no gradient")
        if state.weight_decay:
            p.values -= lr * state.weight_decay * p.values
        v *= state.momentum
        v += p.grad
        p.values -= lr * v
        p.grad = None
