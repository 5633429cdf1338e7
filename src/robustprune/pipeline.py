"""Three-stage pipeline: robust pretraining, strategy search, fine-tuning.

Each stage is a pure function of (config, incoming network, data) plus its
own seeded RNG stream, so running stages separately through checkpoints is
identical to one monolithic run.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adversary import (AttackConfig, DivergenceError, MetricRow, evaluate, metrics_to_csv,
                        robust_step)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import METHODS, ConfigError, RunConfig, config_from_dict
from .data import Dataset, ingest, write_csv
from .network import Network, build_network, count_preserved, flops
from .optim import SgdState, sgd_step
from .pruning import (
    CompressionConfig,
    RATE_TOLERANCE,
    build_masks,
    init_rate,
    init_scores,
    prune_epoch,
)
from .strategies import ALLOCATIONS
from .tensor import Tensor


def _stage_rng(seed: int, tag: str) -> np.random.Generator:
    key = sum(ord(c) << (8 * i) for i, c in enumerate(tag[:4]))
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


def _sgd(opt_cfg, epochs: int) -> SgdState:
    """Momentum SGD whose learning rate follows a cosine over the stage's epochs."""
    return SgdState(opt_cfg.lr, opt_cfg.momentum, opt_cfg.weight_decay, epochs)


def _train_theta(net: Network, cfg: RunConfig, train: Dataset, epochs: int,
                 opt_cfg, rng: np.random.Generator, stage: str) -> None:
    """Train layer weights under the robust loss with frozen masks.

    Inputs lie in [0, 1] and relu, pool and reshape never grow a magnitude, so
    |logits| <= prod_l (1 + fan_in_l * max|theta_l * m_l|), the residual add included.
    Raises DivergenceError naming the stage if that bound reaches 1e300 or is NaN.
    """
    opt = _sgd(opt_cfg, epochs)
    params = [l.params for l in net.layers]
    for epoch in range(epochs):
        opt.set_epoch(epoch)
        for x, y in train.batches(cfg.batch_size, rng):
            robust_step(net, x, y, cfg.loss, cfg.attack, rng, f"{stage} epoch {epoch + 1}")
            sgd_step(opt, params)
    log_bound = 0.0  # NaN when a weight is not finite
    for layer in net.layers:
        log_bound += math.log1p(layer.spec.fan_in * float(np.abs(layer.masked_weights()).max()))
    if not log_bound < math.log(1e300):
        raise DivergenceError(f"{stage}: trained weights not finite or can overflow the logits "
                              f"(logit bound e^{log_bound:.1f})")


def stage_pretrain(cfg: RunConfig, train: Dataset, outdir: Path | None = None) -> Network:
    """Robustly train the dense model (all-ones masks)."""
    net = build_network(cfg.arch, _input_shape(cfg), cfg.dataset["classes"], seed=cfg.seed)
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
        header = (["epoch", "gamma", "robust_loss", "hw_loss", "global_rate"]
                  + [f"rate_{n}" for n in layer_names])
        write_csv(path, header, [
            [row["epoch"], f"{row['gamma']:.6f}", f"{row['robust_loss']:.6f}",
             f"{row['hw_loss']:.8f}", f"{row['global_rate']:.8f}"]
            + [f"{r:.8f}" for r in row["layer_rates"]]
            for row in self.epochs
        ])


def init_pruning_state(net: Network, comp: CompressionConfig,
                       method: str = "harp") -> list[float] | None:
    """Initialize scores from the pre-trained weights and the rates from the method's sources,
    then build the masks.

    Learned rates start every quota at k_init, so shortcut quotas start tied. A fixed
    allocation is computed once at k_t, keeps no quotas, and is returned for every later
    mask rebuild. A layer whose weights are all zero raises ConfigError naming it.
    """
    rate_source = METHODS[method][0]
    rates = ALLOCATIONS[rate_source](net, comp.k_t) if rate_source in ALLOCATIONS else None
    r0 = init_rate(comp.k_init, comp.k_min)
    for layer in net.layers:
        try:
            scores = init_scores(layer.params.values, layer.spec.fan_in, comp.granularity)
        except ValueError as exc:  # an all-zero layer, which a checkpoint may hold
            raise ConfigError(f"layer {layer.spec.name}: {exc}") from None
        layer.scores = Tensor(scores)
        layer.quota = Tensor(np.asarray(r0)) if rates is None else None
    build_masks(net, comp.k_min, rates)
    return rates


def stage_prune(cfg: RunConfig, net: Network, train: Dataset,
                outdir: Path | None = None) -> tuple[Network, PruneHistory]:
    """Strategy search: optimize scores and quotas, weights frozen (one epoch if neither is
    learned); one warning if the final global rate is outside [k_t/2, k_t*(1+RATE_TOLERANCE)]."""
    comp = cfg.compression
    rates = init_pruning_state(net, comp, cfg.method)
    rng = _stage_rng(cfg.seed, "prune")
    learns_scores = METHODS[cfg.method][1] == "learned"
    epochs = cfg.prune_epochs if rates is None or learns_scores else 1
    score_opt = _sgd(cfg.opt_scores, epochs) if learns_scores else None
    rate_opt = _sgd(cfg.opt_rates, epochs) if rates is None else None
    history = []
    arrival = None  # the first epoch whose mean budget loss is exactly 0
    for epoch in range(1, epochs + 1):
        for opt in filter(None, (score_opt, rate_opt)):
            opt.set_epoch(epoch - 1)
        gamma = comp.gamma_step * (arrival or epoch)  # ramps, then freezes at arrival
        record = prune_epoch(net, comp, gamma, cfg.loss, cfg.attack,
                             train.batches(cfg.batch_size, rng), score_opt, rate_opt, rng, rates)
        if arrival is None and record["hw_loss"] == 0.0:
            arrival = epoch
        if abs(record["robust_loss"] - math.log(net.classes)) <= 1e-6 and record["mask_grads_zero"]:
            warnings.warn(f"prune epoch {epoch}: the network is dead (robust loss ln "
                          f"{net.classes}, every mask gradient zero) at rates "
                          f"{_layer_rates(net, record)}", stacklevel=2)
        history.append({"epoch": epoch, "gamma": gamma, **record})
    result = PruneHistory(history, arrival)
    low, high = comp.k_t / 2, comp.k_t * (1 + RATE_TOLERANCE)
    if not low <= result.final_rate <= high:
        warnings.warn(f"target compression {comp.k_t} missed: {cfg.method} ended at global rate "
                      f"{result.final_rate:.5f}, outside [{low:g}, {high:g}], arrival epoch "
                      f"{arrival or 'none'}, at rates {_layer_rates(net, history[-1])}",
                      stacklevel=2)
    if outdir is not None:
        outdir = Path(outdir)
        save_checkpoint(outdir / "prune.npz", net, "prune", cfg.seed, cfg.config_hash())
        result.save_csv(outdir / "prune_curve.csv", [l.spec.name for l in net.layers])
    return net, result


def _layer_rates(net: Network, record: dict) -> str:
    return ", ".join(f"{l.spec.name} {r:.5f}" for l, r in zip(net.layers, record["layer_rates"]))


def stage_finetune(cfg: RunConfig, net: Network, train: Dataset,
                   outdir: Path | None = None) -> Network:
    """Recover performance of the masked weights; masks, scores, quotas frozen."""
    rng = _stage_rng(cfg.seed, "finetune")
    _train_theta(net, cfg, train, cfg.finetune_epochs, cfg.opt_finetune, rng, "finetune")
    if outdir is not None:
        save_checkpoint(Path(outdir) / "final.npz", net, "final", cfg.seed, cfg.config_hash())
    return net


def _input_shape(cfg: RunConfig) -> tuple[int, ...]:
    size = cfg.dataset["size"]
    return (1, size, size)


def default_eval_attacks(train_attack: AttackConfig) -> list[tuple[str, AttackConfig]]:
    eps = train_attack.epsilon
    attacks = [("pgd", AttackConfig(eps, train_attack.step_size, train_attack.iters))]
    if eps > 0:
        attacks.append(("fgsm", AttackConfig(eps, eps, 1, random_init=False)))
    return attacks


def run_all(cfg: RunConfig, outdir: Path) -> list[MetricRow]:
    """pretrain -> prune -> finetune -> evaluate; writes all artifacts."""
    train, test = ingest(cfg.dataset, cfg.seed)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    net = stage_pretrain(cfg, train, outdir)
    net, _ = stage_prune(cfg, net, train, outdir)
    net = stage_finetune(cfg, net, train, outdir)
    return write_reports(outdir, cfg, net, test)


def write_reports(outdir: Path, cfg: RunConfig, net: Network, test: Dataset) -> list[MetricRow]:
    """Evaluate under the default attacks, warning when FGSM reads below PGD, and write
    metrics.csv; then write strategy.csv, summary.csv and histograms.csv from one count of
    the kept weights (non-zero in theta * mask) and the masked and dense FLOPs."""
    outdir = Path(outdir)
    rows = evaluate(net, test.inputs, test.labels, default_eval_attacks(cfg.attack))
    acc = {r.attack: r.accuracy_pct for r in rows}
    if acc.get("fgsm", math.inf) < acc["pgd"]:
        warnings.warn(f"fgsm reads {acc['fgsm']:.2f}% against pgd's {acc['pgd']:.2f}%: the pgd "
                      "row is not the worst case", stacklevel=2)
    metrics_to_csv(rows, outdir / "metrics.csv")
    preserved, kept = count_preserved(net)
    cur_flops, layer_flops = flops(net)
    full_flops, _ = flops(net, [np.ones(l.spec.weight_shape) for l in net.layers])
    write_csv(outdir / "strategy.csv", ["layer", "rate", "preserved_params", "preserved_flops"],
              [[l.spec.name, f"{k / l.spec.weight_count:.10f}", k, fl]
               for l, k, fl in zip(net.layers, kept, layer_flops)])
    write_csv(outdir / "summary.csv", ["key", "value"], [
        ["config_hash", cfg.config_hash()],
        ["method", cfg.method],
        ["arch", cfg.arch],
        ["seed", cfg.seed],
        ["k_t", f"{cfg.compression.k_t:.8f}"],
        ["global_rate", f"{preserved / net.total_params:.8f}"],
        ["flops_rate", f"{cur_flops / full_flops:.8f}"],
        *([f"accuracy_{r.attack}", f"{r.accuracy_pct:.4f}"] for r in rows),
    ])
    histograms = []  # 20 bins per layer that keeps a weight, over its kept theta * mask values
    for layer, k in zip(net.layers, kept):
        if k:
            masked = layer.masked_weights()
            counts, edges = np.histogram(masked[masked != 0], bins=20)
            histograms += [[layer.spec.name, f"{lo:.8f}", f"{hi:.8f}", int(c)]
                           for c, lo, hi in zip(counts, edges[:-1], edges[1:])]
    write_csv(outdir / "histograms.csv", ["layer", "bin_lo", "bin_hi", "count"], histograms)
    return rows


def sweep(base_cfg: RunConfig, k_values: list[float], methods: list[str],
          outdir: Path) -> Path:
    """Run the pipeline over a grid of targets; emit a joined accuracy CSV.

    Pretraining reads neither the method nor the target, so it runs once into
    ``<outdir>/pretrain.npz``; each cell prunes, fine-tunes and reports from
    there into its own directory, writing what ``run_all`` writes.
    """
    written = {}  # what a cell writes -> the cell: no cell may overwrite another's output
    for method in methods:
        for k_t in k_values:
            for output in (f"directory {method}_kt{k_t:g}", f"sweep.csv rows {method},{k_t:.6f}"):
                if output in written:
                    raise ConfigError(f"sweep cells {written[output]} and {method} at k_t "
                                      f"{k_t!r} would both write {output}")
                written[output] = f"{method} at k_t {k_t!r}"
    cells = [(method, k_t, _with(base_cfg, method=method, k_t=k_t))
             for method in methods for k_t in k_values]  # every cell's config checked first
    train, test = ingest(base_cfg.dataset, base_cfg.seed)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
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
    write_csv(path, ["method", "k_t", "attack", "accuracy_pct"], rows_out)
    return path


def _with(cfg: RunConfig, method: str, k_t: float) -> RunConfig:
    tree = cfg.to_dict()
    tree["method"] = method
    tree["compression"]["k_t"] = k_t
    return config_from_dict(tree)
