"""Command-line interface for the pruning pipeline.

Subcommands: pretrain, prune, finetune, run, eval, sweep.
Exit codes: 0 success, 2 bad configuration, data or checkpoint, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checkpoint import CheckpointError, load_checkpoint
from .config import METHODS, ConfigError, config_from_dict, parse_config_file, set_key
from .data import DataFormatError, ingest
from .pipeline import (
    DivergenceError,
    _input_shape,
    run_all,
    stage_finetune,
    stage_pretrain,
    stage_prune,
    sweep,
    write_reports,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="flat key-value config file")
    p.add_argument("--seed", type=int, help="run seed (or config key 'seed')")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="set a config key after the config file; "
                   "repeatable, the last one wins")
    p.add_argument("--out", type=Path, default=Path("runs/out"), help="output directory")


def _build_config(args):
    tree = parse_config_file(args.config) if args.config else {}
    for item in args.overrides:
        key, eq, value = item.partition("=")
        if not eq:
            raise ConfigError(f"--set {item!r}: expected KEY=VALUE")
        set_key(tree, key.strip(), value.strip())
    return config_from_dict(tree, seed=args.seed)


def _print_rows(rows) -> None:
    for r in rows:
        print(f"{r.attack}: {r.accuracy_pct:.2f}%")


def _cmd_run(args) -> int:
    _print_rows(run_all(_build_config(args), args.out))
    return EXIT_OK


def _cmd_pretrain(args) -> int:
    cfg = _build_config(args)
    train, _ = ingest(cfg.dataset, cfg.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    stage_pretrain(cfg, train, args.out)
    print(f"pretrain checkpoint written to {args.out / 'pretrain.npz'}")
    return EXIT_OK


def _from_checkpoint(args):
    """The prelude of prune, finetune and eval: config, the checkpoint's network (checked
    against the config), the data, and then the output directory."""
    cfg = _build_config(args)
    net = _load_compatible(cfg, args.from_ckpt)
    train, test = ingest(cfg.dataset, cfg.seed)
    args.out.mkdir(parents=True, exist_ok=True)
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
    _print_rows(write_reports(args.out, cfg, net, test))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _build_config(args)
    path = sweep(cfg, args.k_values or [cfg.compression.k_t], args.methods, args.out)
    print(f"sweep results written to {path}")
    return EXIT_OK


def _load_compatible(cfg, path):
    """Build a checkpoint's network once its arch, input shape and classes match the config."""
    net = load_checkpoint(path).build()
    for key, found, expected in (
            ("arch", net.arch, cfg.arch),
            ("input_shape", list(net.input_shape), list(_input_shape(cfg))),
            ("classes", net.classes, cfg.dataset["classes"])):
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
    command("eval", _cmd_eval, "evaluate a checkpoint under attacks and write metrics.csv, "
            "strategy.csv, summary.csv and histograms.csv", "checkpoint to evaluate")
    p_sweep = command("sweep", _cmd_sweep, "run a grid of target rates and methods")
    p_sweep.add_argument("--k-values", type=float, nargs="+",
                         help="target rates k_t (default: the config's compression.k_t)")
    p_sweep.add_argument("--methods", nargs="+", default=list(METHODS))

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CheckpointError, ConfigError, DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
