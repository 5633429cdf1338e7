"""l-infinity PGD (FGSM is its one-step, no-init case) and robust training losses (PGD-AT, TRADES)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import write_csv
from .network import Network
from .tensor import Tensor

# Attacks inside evaluation draw from this dedicated stream so reported
# accuracies are reproducible independent of training RNG consumption.
EVAL_ATTACK_SEED = 20230817
EVAL_BATCH = 256

LOSS_KINDS = ("pgd-at", "trades")


class DivergenceError(RuntimeError):
    """Training loss became non-finite; maps to CLI exit code 3."""


@dataclass
class AttackConfig:
    epsilon: float
    step_size: float
    iters: int = 10
    random_init: bool = True
    bounds = (0.0, 1.0)  # the input box: a class constant, not a field or config key

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError(f"attack.epsilon must be >= 0, got {self.epsilon}")
        if not 0.0 <= self.step_size <= self.epsilon:
            raise ValueError(f"attack.step_size must be in [0, attack.epsilon {self.epsilon}], "
                             f"got {self.step_size}")
        if self.iters < 1:
            raise ValueError(f"attack.iters must be >= 1, got {self.iters}")


@dataclass
class RobustLossConfig:
    kind: str = "pgd-at"
    beta: float = 6.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"loss.kind must be one of {LOSS_KINDS}, got {self.kind!r}")
        if self.kind == "trades" and self.beta < 0:
            raise ValueError(f"loss.beta must be >= 0 under trades, got {self.beta}")


def _attack_grad(net: Network, x_now: np.ndarray, y: np.ndarray,
                 clean_logits: np.ndarray | None) -> np.ndarray:
    """Gradient of the attack objective w.r.t. the current iterate."""
    with T.scoped_tape(), T.input_grads_only():
        xt = Tensor(x_now, requires_grad=True)
        logits = net.forward(xt)
        if clean_logits is None:
            loss = T.softmax_cross_entropy(logits, y)
        else:
            loss = T.kl_divergence(Tensor(clean_logits), logits)
        T.backward(loss)
        return xt.grad


def _project(x_adv: np.ndarray, x0: np.ndarray, cfg: AttackConfig) -> np.ndarray:
    lo, hi = cfg.bounds
    delta = np.clip(x_adv - x0, -cfg.epsilon, cfg.epsilon)
    out = np.clip(x0 + delta, lo, hi)
    # x0 + delta can round one ulp past the ball; nudge back toward x0 so the
    # measured difference satisfies the constraint exactly
    for _ in range(3):
        over = np.abs(out - x0) > cfg.epsilon
        if not over.any():
            break
        out[over] = np.nextafter(out[over], x0[over])
    return out


def pgd(net: Network, x: np.ndarray, y: np.ndarray, cfg: AttackConfig,
        rng: np.random.Generator | None = None,
        clean_logits: np.ndarray | None = None) -> np.ndarray:
    """Iterated sign-gradient ascent projected onto the epsilon-ball and box.

    Maximizes cross-entropy against ``y`` by default; when ``clean_logits``
    is given it maximizes the KL divergence from the clean prediction
    instead (the TRADES inner problem). Returns the final iterate.
    """
    x0 = np.asarray(x, dtype=np.float64)
    if cfg.epsilon == 0:
        return x0.copy()
    if cfg.random_init:
        if rng is None:
            raise ValueError("random-init pgd needs an RNG stream")
        x_adv = _project(x0 + rng.uniform(-cfg.epsilon, cfg.epsilon, size=x0.shape), x0, cfg)
    else:
        x_adv = x0.copy()
    for _ in range(cfg.iters):
        grad = _attack_grad(net, x_adv, y, clean_logits)
        x_adv = _project(x_adv + cfg.step_size * np.sign(grad), x0, cfg)
        del grad  # else it stays held through the next attack pass
    return x_adv


def robust_loss(net: Network, x: np.ndarray, y: np.ndarray,
                loss_cfg: RobustLossConfig, attack_cfg: AttackConfig,
                rng: np.random.Generator | None = None) -> Tensor:
    """Adversarial training loss on one batch; differentiable through theta and masks.

    The inner maximization is treated as fixed: gradients do not flow back
    through the attack iterations, only through the final forward passes.
    """
    y = np.asarray(y)
    if loss_cfg.kind == "pgd-at":
        x_adv = pgd(net, x, y, attack_cfg, rng)
        return T.softmax_cross_entropy(net.forward(Tensor(x_adv)), y)
    # trades: clean cross-entropy plus beta-weighted boundary KL
    with T.no_grad():
        clean_logits = net.forward(Tensor(np.asarray(x, dtype=np.float64))).values
    x_adv = pgd(net, x, y, attack_cfg, rng, clean_logits=clean_logits)
    logits_nat = net.forward(Tensor(np.asarray(x, dtype=np.float64)))
    logits_adv = net.forward(Tensor(x_adv))
    return T.add(
        T.softmax_cross_entropy(logits_nat, y),
        T.scale(T.kl_divergence(logits_nat, logits_adv), loss_cfg.beta),
    )


def robust_step(net: Network, x: np.ndarray, y: np.ndarray, loss_cfg: RobustLossConfig,
                attack_cfg: AttackConfig, rng: np.random.Generator, where: str) -> float:
    """Robust loss of one batch and its backward pass; the gradients land on the tensors.

    Raises DivergenceError, before any gradient is written, if the loss is
    not finite.
    """
    with T.scoped_tape():
        loss = robust_loss(net, x, y, loss_cfg, attack_cfg, rng)
        if not np.isfinite(loss.item()):
            raise DivergenceError(f"{where}: loss diverged")
        T.backward(loss)
    return loss.item()


@dataclass
class MetricRow:
    attack: str
    accuracy_pct: float
    epsilon: float
    iters: int


def evaluate(net: Network, inputs: np.ndarray, labels: np.ndarray,
             attacks: list[tuple[str, AttackConfig]] | None = None) -> list[MetricRow]:
    """Natural plus per-attack accuracy over a full dataset, one batch loop per row.

    Every adversarial example is checked against the epsilon-ball and box
    constraints before it counts; attack randomness comes from a fixed
    dedicated seed so repeated evaluations agree. Raises DivergenceError,
    naming the row, if its examples or logits are not finite.
    """
    if len(inputs) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    labels = np.asarray(labels)
    rows = []
    for name, cfg in [("natural", None)] + list(attacks or []):
        rng = np.random.default_rng(np.random.SeedSequence(EVAL_ATTACK_SEED))
        correct = 0
        for i in range(0, len(inputs), EVAL_BATCH):
            xb, yb = inputs[i : i + EVAL_BATCH], labels[i : i + EVAL_BATCH]
            if cfg is not None:
                x_adv = pgd(net, xb, yb, cfg, rng)
                if not np.isfinite(x_adv).all():
                    raise DivergenceError(f"evaluation: attack {name} produced non-finite examples")
                if not constraints_satisfied(x_adv, xb, cfg):
                    raise AssertionError(f"attack {name} produced out-of-constraint examples")
                xb = x_adv
            with T.no_grad():
                logits = net.forward(Tensor(xb)).values
            if not np.isfinite(logits).all():
                raise DivergenceError(f"evaluation: {name} logits not finite")
            correct += int((logits.argmax(axis=1) == yb).sum())
        rows.append(MetricRow(name, 100.0 * correct / len(inputs),
                              cfg.epsilon if cfg else 0.0, cfg.iters if cfg else 0))
    return rows


def constraints_satisfied(x_adv: np.ndarray, x: np.ndarray, cfg: AttackConfig) -> bool:
    lo, hi = cfg.bounds
    return bool(
        np.all(np.abs(x_adv - x) <= cfg.epsilon)
        and np.all(x_adv >= lo)
        and np.all(x_adv <= hi)
    )


def metrics_to_csv(rows: list[MetricRow], path) -> None:
    write_csv(path, ["attack", "accuracy_pct", "epsilon", "iters"],
              [[r.attack, f"{r.accuracy_pct:.4f}", f"{r.epsilon:.8f}", r.iters] for r in rows])
