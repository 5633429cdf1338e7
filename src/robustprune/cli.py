"""Command-line interface for the pruning pipeline.

Subcommands: pretrain, prune, finetune, run, eval, sweep.
Exit codes: 0 success, 2 bad configuration, data or checkpoint, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .adversary import LOSS_KINDS
from .checkpoint import CheckpointError, load_checkpoint
from .config import METHODS, ConfigError, RunConfig, config_from_dict, parse_config_file, set_key
from .data import DataFormatError, ingest
from .pipeline import (
    DivergenceError,
    _input_shape,
    run_all,
    stage_finetune,
    stage_pretrain,
    stage_prune,
    sweep,
    weight_histograms,
    write_reports,
)
from .pruning import BUDGETS, GRANULARITIES
from .strategies import (
    erk_strategy,
    lamp_strategy,
    measure_strategy,
    uniform_strategy,
    write_strategy_compare,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


# Override flags and the config keys they set; types come from the defaults.
OVERRIDES = {
    "--arch": "arch",
    "--method": "method",
    "--k-t": "compression.k_t",
    "--k-init": "compression.k_init",
    "--gamma-step": "compression.gamma_step",
    "--granularity": "compression.granularity",
    "--budget": "compression.budget",
    "--epochs-pretrain": "stages.pretrain_epochs",
    "--epochs-prune": "stages.prune_epochs",
    "--epochs-finetune": "stages.finetune_epochs",
    "--batch-size": "batch_size",
    "--epsilon": "attack.epsilon",
    "--attack-step": "attack.step_size",
    "--attack-iters": "attack.iters",
    "--loss": "loss.kind",
    "--beta": "loss.beta",
}
CHOICES = {"compression.granularity": GRANULARITIES, "compression.budget": BUDGETS,
           "loss.kind": LOSS_KINDS}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="flat key-value config file")
    p.add_argument("--seed", type=int, help="run seed (or config key 'seed')")
    p.add_argument("--out", type=Path, default=Path("runs/out"), help="output directory")
    defaults = RunConfig(seed=0).to_dict()
    for flag, key in OVERRIDES.items():
        default = functools.reduce(dict.get, key.split("."), defaults)
        p.add_argument(flag, dest=key, type=type(default), choices=CHOICES.get(key),
                       help=f"set config key {key}")


def _build_config(args):
    tree = parse_config_file(args.config) if args.config else {}
    for key in OVERRIDES.values():
        if getattr(args, key) is not None:
            set_key(tree, key, getattr(args, key))
    return config_from_dict(tree, seed=args.seed)


def _print_rows(rows) -> None:
    for r in rows:
        print(f"{r.attack}: {r.accuracy_pct:.2f}%")


def _cmd_run(args) -> int:
    _print_rows(run_all(_build_config(args), args.out))
    return EXIT_OK


def _cmd_pretrain(args) -> int:
    cfg = _build_config(args)
    args.out.mkdir(parents=True, exist_ok=True)
    train, _ = ingest(cfg.dataset, cfg.seed)
    stage_pretrain(cfg, train, args.out)
    print(f"pretrain checkpoint written to {args.out / 'pretrain.npz'}")
    return EXIT_OK


def _from_checkpoint(args):
    """The prelude of prune, finetune and eval: config, output directory, the
    checkpoint's network (checked against the config) and the data."""
    cfg = _build_config(args)
    args.out.mkdir(parents=True, exist_ok=True)
    net = _load_compatible(cfg, args.from_ckpt)
    train, test = ingest(cfg.dataset, cfg.seed)
    return cfg, net, train, test


def _cmd_prune(args) -> int:
    cfg, net, train, _ = _from_checkpoint(args)
    _, history = stage_prune(cfg, net, train, args.out)
    arrived = history.arrival_epoch is not None
    print(f"prune finished: global rate {history.final_rate:.5f}, "
          f"arrival epoch {history.arrival_epoch if arrived else 'none'}")
    return EXIT_OK


def _cmd_finetune(args) -> int:
    cfg, net, train, _ = _from_checkpoint(args)
    stage_finetune(cfg, net, train, args.out)
    print(f"final checkpoint written to {args.out / 'final.npz'}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    cfg, net, _, test = _from_checkpoint(args)
    if args.baselines:  # before any report: a k_t too small for a baseline writes nothing
        k_t = cfg.compression.k_t
        try:
            baselines = [(name, make(net, k_t)) for name, make in
                         (("uniform", uniform_strategy), ("erk", erk_strategy),
                          ("lamp", lamp_strategy))]
        except ValueError as exc:
            raise ConfigError(f"--baselines at compression.k_t {k_t}: {exc}") from None
        strategies = [("harp-learned", measure_strategy(net)), *baselines]
    rows = write_reports(args.out, cfg, net, test)
    if args.histograms:
        weight_histograms(net, args.out / "histograms.csv")
    if args.baselines:
        write_strategy_compare(args.out / "strategy_compare.csv", net, strategies)
        print(f"comparison written to {args.out / 'strategy_compare.csv'}")
    _print_rows(rows)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _build_config(args)
    path = sweep(cfg, args.k_values, args.methods, args.out)
    print(f"sweep results written to {path}")
    return EXIT_OK


def _load_compatible(cfg, path):
    """Build a checkpoint's network once its arch, input shape and classes match the config."""
    net = load_checkpoint(path).build()
    for key, found, expected in (
            ("arch", net.arch, cfg.arch),
            ("input_shape", list(net.input_shape), list(_input_shape(cfg))),
            ("classes", net.classes, int(cfg.dataset.get("classes", 2)))):
        if found != expected:
            raise ConfigError(f"checkpoint {key} {found!r} does not match "
                              f"config {key} {expected!r}")
    return net


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="robustprune",
                                     description="Adversarially robust pruning pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, from_help=None):
        p = sub.add_parser(name, help=summary)
        _add_common(p)
        if from_help:
            p.add_argument("--from", dest="from_ckpt", type=Path, required=True, help=from_help)
        p.set_defaults(fn=fn)
        return p

    command("run", _cmd_run, "pretrain, prune, finetune, evaluate")
    command("pretrain", _cmd_pretrain, "robust pretraining only")
    command("prune", _cmd_prune, "strategy search from a pretrain checkpoint",
            "pretrain checkpoint")
    command("finetune", _cmd_finetune, "fine-tune from a prune checkpoint", "prune checkpoint")
    p_eval = command("eval", _cmd_eval, "evaluate a checkpoint under attacks and write "
                     "metrics.csv, strategy.csv and summary.csv", "checkpoint to evaluate")
    p_eval.add_argument("--histograms", action="store_true",
                        help="also export per-layer retained-weight histograms")
    p_eval.add_argument("--baselines", action="store_true",
                        help="also write strategy_compare.csv: the checkpoint's per-layer "
                             "rates next to uniform/erk/lamp at compression.k_t")
    p_sweep = command("sweep", _cmd_sweep, "run a grid of target rates and methods")
    p_sweep.add_argument("--k-values", type=float, nargs="+", default=[1.0, 0.1, 0.01, 0.001])
    p_sweep.add_argument("--methods", nargs="+", default=list(METHODS))

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CheckpointError, ConfigError, DataFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
