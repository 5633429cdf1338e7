"""Three-stage pipeline: robust pretraining, strategy search, fine-tuning.

Each stage is a pure function of (config, incoming network, data) plus its
own seeded RNG stream, so running stages separately through checkpoints is
identical to one monolithic run.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adversary import (AttackConfig, DivergenceError, MetricRow, evaluate, metrics_to_csv,
                        robust_step)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import METHODS, ConfigError, RunConfig, config_from_dict
from .data import Dataset, ingest
from .network import Network, build_network, count_preserved, flops
from .optim import CosineSchedule, SgdState, sgd_step
from .pruning import (
    CompressionConfig,
    RATE_TOLERANCE,
    build_masks,
    init_rate,
    init_scores_channel,
    init_scores_weight,
    prune_epoch,
)
from .strategies import write_strategy
from .tensor import Tensor


def _stage_rng(seed: int, tag: str) -> np.random.Generator:
    key = sum(ord(c) << (8 * i) for i, c in enumerate(tag[:4]))
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


def _sgd(opt_cfg, epochs: int) -> SgdState:
    """Momentum SGD whose learning rate follows a cosine over the stage's epochs."""
    return SgdState(opt_cfg.lr, opt_cfg.momentum, opt_cfg.weight_decay,
                    schedule=CosineSchedule(opt_cfg.lr, epochs))


def _train_theta(net: Network, cfg: RunConfig, train: Dataset, epochs: int,
                 opt_cfg, rng: np.random.Generator, stage: str) -> None:
    """Train layer weights under the robust loss with frozen masks."""
    opt = _sgd(opt_cfg, epochs)
    params = [l.params for l in net.layers]
    for epoch in range(epochs):
        opt.set_epoch(epoch)
        for x, y in train.batches(cfg.batch_size, rng):
            robust_step(net, x, y, cfg.loss, cfg.attack, rng, f"{stage} epoch {epoch + 1}")
            sgd_step(opt, params)


def stage_pretrain(cfg: RunConfig, train: Dataset, outdir: Path | None = None) -> Network:
    """Robustly train the dense model (all-ones masks)."""
    net = build_network(cfg.arch, _input_shape(cfg), int(cfg.dataset.get("classes", 2)),
                        seed=cfg.seed)
    rng = _stage_rng(cfg.seed, "pretrain")
    _train_theta(net, cfg, train, cfg.pretrain_epochs, cfg.opt_pretrain, rng, "pretrain")
    if outdir is not None:
        save_checkpoint(Path(outdir) / "pretrain.npz", net, "pretrain", cfg.seed, cfg.config_hash())
    return net


@dataclass
class PruneHistory:
    epochs: list[dict]  # one prune-curve record per epoch
    arrival_epoch: int | None

    @property
    def final_rate(self) -> float:
        return self.epochs[-1]["global_rate"]

    def save_csv(self, path, layer_names: list[str]) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["epoch", "gamma", "robust_loss", "hw_loss", "global_rate"]
                + [f"rate_{n}" for n in layer_names]
            )
            for row in self.epochs:
                writer.writerow(
                    [row["epoch"], f"{row['gamma']:.6f}", f"{row['robust_loss']:.6f}",
                     f"{row['hw_loss']:.8f}", f"{row['global_rate']:.8f}"]
                    + [f"{r:.8f}" for r in row["layer_rates"]]
                )


def init_pruning_state(net: Network, comp: CompressionConfig, method: str = "harp") -> None:
    """Initialize scores from the pre-trained weights and quotas at a uniform rate.

    Every quota starts at the same value, so shortcut quotas start tied: at
    k_init, or at the target k_t for a method that does not learn rates.
    """
    learns_rates, _ = METHODS[method]
    # the inverse of the rate activation needs the start strictly inside (k_min, 1)
    r0 = init_rate(min(comp.k_init if learns_rates else comp.k_t, 0.99), comp.k_min)
    init_scores = init_scores_weight if comp.granularity == "weight" else init_scores_channel
    for layer in net.layers:
        layer.scores = Tensor(init_scores(layer.params.values, layer.spec.fan_in))
        layer.quota = Tensor(np.asarray(r0))
    build_masks(net, comp.k_min)


def stage_prune(cfg: RunConfig, net: Network, train: Dataset,
                outdir: Path | None = None) -> tuple[Network, PruneHistory]:
    """Strategy search: optimize scores and quotas, weights frozen."""
    comp = cfg.compression
    init_pruning_state(net, comp, cfg.method)
    rng = _stage_rng(cfg.seed, "prune")
    epochs = cfg.prune_epochs
    learns_rates, learns_scores = METHODS[cfg.method]
    score_opt = _sgd(cfg.opt_scores, epochs) if learns_scores else None
    rate_opt = _sgd(cfg.opt_rates, epochs) if learns_rates else None
    history = []
    arrival = None  # the first epoch whose mean budget loss is exactly 0
    for epoch in range(1, epochs + 1):
        for opt in filter(None, (score_opt, rate_opt)):
            opt.set_epoch(epoch - 1)
        gamma = comp.gamma_step * (arrival or epoch)  # ramps, then freezes at arrival
        record = prune_epoch(net, comp, gamma, cfg.loss, cfg.attack,
                             train.batches(cfg.batch_size, rng), score_opt, rate_opt, rng)
        if arrival is None and record["hw_loss"] == 0.0:
            arrival = epoch
        history.append({"epoch": epoch, "gamma": gamma, **record})
    result = PruneHistory(history, arrival)
    if arrival is None and result.final_rate > comp.k_t * (1 + RATE_TOLERANCE):
        warnings.warn(
            f"target compression {comp.k_t} not reached after {cfg.prune_epochs} epochs; "
            f"final rate {result.final_rate:.5f}",
            stacklevel=2,
        )
    if outdir is not None:
        outdir = Path(outdir)
        save_checkpoint(outdir / "prune.npz", net, "prune", cfg.seed, cfg.config_hash())
        result.save_csv(outdir / "prune_curve.csv", [l.spec.name for l in net.layers])
    return net, result


def stage_finetune(cfg: RunConfig, net: Network, train: Dataset,
                   outdir: Path | None = None) -> Network:
    """Recover performance of the masked weights; masks, scores, quotas frozen."""
    rng = _stage_rng(cfg.seed, "finetune")
    _train_theta(net, cfg, train, cfg.finetune_epochs, cfg.opt_finetune, rng, "finetune")
    if outdir is not None:
        save_checkpoint(Path(outdir) / "final.npz", net, "final", cfg.seed, cfg.config_hash())
    return net


def _input_shape(cfg: RunConfig) -> tuple[int, ...]:
    size = int(cfg.dataset.get("size", 16))
    return (1, size, size)


def default_eval_attacks(train_attack: AttackConfig) -> list[tuple[str, AttackConfig]]:
    eps = train_attack.epsilon
    attacks = [("pgd", AttackConfig(eps, train_attack.step_size, train_attack.iters))]
    if eps > 0:
        attacks.append(("fgsm", AttackConfig(eps, eps, 1, random_init=False)))
    return attacks


def run_all(cfg: RunConfig, outdir: Path) -> list[MetricRow]:
    """pretrain -> prune -> finetune -> evaluate; writes all artifacts."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    train, test = ingest(cfg.dataset, cfg.seed)
    net = stage_pretrain(cfg, train, outdir)
    net, _ = stage_prune(cfg, net, train, outdir)
    net = stage_finetune(cfg, net, train, outdir)
    return write_reports(outdir, cfg, net, test)


def write_reports(outdir: Path, cfg: RunConfig, net: Network, test: Dataset) -> list[MetricRow]:
    """Evaluate under the default attacks; write metrics.csv, strategy.csv and summary.csv."""
    outdir = Path(outdir)
    rows = evaluate(net, test.inputs, test.labels, default_eval_attacks(cfg.attack))
    metrics_to_csv(rows, outdir / "metrics.csv")
    write_strategy(outdir / "strategy.csv", net)
    write_summary(outdir / "summary.csv", cfg, net, rows)
    return rows


def write_summary(path, cfg: RunConfig, net: Network, rows: list[MetricRow]) -> None:
    preserved, _ = count_preserved(net)
    cur_flops, _ = flops(net)
    full_flops, _ = flops(net, [np.ones(l.spec.weight_shape) for l in net.layers])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        writer.writerow(["config_hash", cfg.config_hash()])
        writer.writerow(["method", cfg.method])
        writer.writerow(["arch", cfg.arch])
        writer.writerow(["seed", cfg.seed])
        writer.writerow(["k_t", f"{cfg.compression.k_t:.8f}"])
        writer.writerow(["global_rate", f"{preserved / net.total_params:.8f}"])
        writer.writerow(["flops_rate", f"{cur_flops / full_flops:.8f}"])
        for r in rows:
            writer.writerow([f"accuracy_{r.attack}", f"{r.accuracy_pct:.4f}"])


def weight_histograms(net: Network, path, bins: int = 20) -> None:
    """Per-layer histograms of retained (non-zero masked) weights."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "bin_lo", "bin_hi", "count"])
        for layer in net.layers:
            masked = layer.params.values * layer.broadcast_mask()
            kept = masked[masked != 0]
            if kept.size == 0:
                continue
            counts, edges = np.histogram(kept, bins=bins)
            for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
                writer.writerow([layer.spec.name, f"{lo:.8f}", f"{hi:.8f}", int(c)])


def sweep(base_cfg: RunConfig, k_values: list[float], methods: list[str],
          outdir: Path) -> Path:
    """Run the pipeline over a grid of targets; emit a joined accuracy CSV.

    Pretraining reads neither the method nor the target, so it runs once into
    ``<outdir>/pretrain.npz``; each cell prunes, fine-tunes and reports from
    there into its own directory, writing what ``run_all`` writes.
    """
    cells = [(method, k_t, _with(base_cfg, method=method, k_t=k_t))
             for method in methods for k_t in k_values]  # every cell's config checked first
    written = {}  # what a cell writes -> the cell: no cell may overwrite another's output
    for method, k_t, _ in cells:
        for output in (f"directory {method}_kt{k_t:g}", f"sweep.csv rows {method},{k_t:.6f}"):
            if output in written:
                raise ConfigError(f"sweep cells {written[output]} and {method} at k_t {k_t!r} "
                                  f"would both write {output}")
            written[output] = f"{method} at k_t {k_t!r}"
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    train, test = ingest(base_cfg.dataset, base_cfg.seed)
    stage_pretrain(base_cfg, train, outdir)
    pretrained = load_checkpoint(outdir / "pretrain.npz")
    rows_out = []
    for method, k_t, cfg in cells:
        subdir = outdir / f"{method}_kt{k_t:g}"
        subdir.mkdir(exist_ok=True)
        net = pretrained.build()  # a fresh network per cell: stage_prune mutates it
        net, _ = stage_prune(cfg, net, train, subdir)
        net = stage_finetune(cfg, net, train, subdir)
        for r in write_reports(subdir, cfg, net, test):
            rows_out.append([method, f"{k_t:.6f}", r.attack, f"{r.accuracy_pct:.4f}"])
    path = outdir / "sweep.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "k_t", "attack", "accuracy_pct"])
        writer.writerows(rows_out)
    return path


def _with(cfg: RunConfig, method: str, k_t: float) -> RunConfig:
    tree = cfg.to_dict()
    tree["method"] = method
    tree["compression"]["k_t"] = k_t
    return config_from_dict(tree)
