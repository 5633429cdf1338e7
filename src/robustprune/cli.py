"""Command-line interface for the pruning pipeline.

Subcommands: pretrain, prune, finetune, run, eval, strategy, sweep.
Exit codes: 0 success, 2 bad configuration, data or checkpoint, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .adversary import LOSS_KINDS, evaluate, metrics_to_csv
from .checkpoint import CheckpointError
from .config import ConfigError, RunConfig, config_from_dict, parse_config_file, set_key
from .data import DataFormatError, ingest
from .pipeline import (
    DivergenceError,
    _input_shape,
    default_eval_attacks,
    load_network,
    run_all,
    stage_finetune,
    stage_pretrain,
    stage_prune,
    sweep,
    weight_histograms,
    write_summary,
)
from .pruning import BUDGETS, GRANULARITIES
from .strategies import (
    erk_strategy,
    lamp_strategy,
    measure_strategy,
    uniform_strategy,
    write_strategy,
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


def _add_common(p: argparse.ArgumentParser, seed_required: bool = False) -> None:
    p.add_argument("--config", type=Path, help="flat key-value config file")
    p.add_argument("--seed", type=int, required=seed_required, help="run seed")
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


def _cmd_run(args) -> int:
    cfg = _build_config(args)
    rows = run_all(cfg, args.out)
    for r in rows:
        print(f"{r.attack}: {r.accuracy_pct:.2f}%")
    return EXIT_OK


def _cmd_pretrain(args) -> int:
    cfg = _build_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train, _ = ingest(cfg.dataset, cfg.seed)
    stage_pretrain(cfg, train, out)
    print(f"pretrain checkpoint written to {out / 'pretrain.npz'}")
    return EXIT_OK


def _cmd_prune(args) -> int:
    cfg = _build_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    net = _load_compatible(cfg, args.from_ckpt)
    train, _ = ingest(cfg.dataset, cfg.seed)
    _, history = stage_prune(cfg, net, train, out)
    arrived = history.arrival_epoch is not None
    print(f"prune finished: global rate {history.final_rate:.5f}, "
          f"arrival epoch {history.arrival_epoch if arrived else 'none'}")
    return EXIT_OK


def _cmd_finetune(args) -> int:
    cfg = _build_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    net = _load_compatible(cfg, args.from_ckpt)
    train, _ = ingest(cfg.dataset, cfg.seed)
    stage_finetune(cfg, net, train, out)
    print(f"final checkpoint written to {out / 'final.npz'}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    cfg = _build_config(args)
    net = _load_compatible(cfg, args.from_ckpt)
    _, test = ingest(cfg.dataset, cfg.seed)
    rows = evaluate(net, test.inputs, test.labels, default_eval_attacks(cfg.attack))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    metrics_to_csv(rows, out / "metrics.csv")
    write_summary(out / "summary.csv", cfg, net, rows)
    if args.histograms:
        weight_histograms(net, out / "histograms.csv")
    for r in rows:
        print(f"{r.attack}: {r.accuracy_pct:.2f}%")
    return EXIT_OK


def _cmd_strategy(args) -> int:
    cfg = _build_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    nets = [load_network(path)[0] for path in args.from_ckpt]
    layers = [[f"{l.spec.name} {l.spec.weight_shape}" for l in net.layers] for net in nets]
    for path, other in zip(args.from_ckpt[1:], layers[1:]):
        if other != layers[0]:
            raise ConfigError(f"cannot compare {args.from_ckpt[0]} (layers {layers[0]}) "
                              f"with {path} (layers {other})")
    strategies = []
    for path, net in zip(args.from_ckpt, nets):
        strategies.append(("harp-learned", measure_strategy(net)))
        csv_path = out / f"strategy_{Path(path).stem}.csv"
        write_strategy(csv_path, net)
        print(f"strategy exported to {csv_path}")
    if args.baselines:
        k_t = cfg.compression.k_t
        strategies += [(name, make(nets[0], k_t)) for name, make in
                       (("uniform", uniform_strategy), ("erk", erk_strategy),
                        ("lamp", lamp_strategy))]
    if len(strategies) > 1:
        write_strategy_compare(out / "strategy_compare.csv", nets[0], strategies)
        print(f"comparison written to {out / 'strategy_compare.csv'}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _build_config(args)
    path = sweep(cfg, args.k_values, args.methods, args.out)
    print(f"sweep results written to {path}")
    return EXIT_OK


def _load_compatible(cfg, path):
    """Build a checkpoint's network once its arch, input shape and classes match the config."""
    net, ckpt = load_network(path)
    for key, expected in (("arch", cfg.arch), ("input_shape", list(_input_shape(cfg))),
                          ("classes", int(cfg.dataset.get("classes", 2)))):
        if ckpt.meta[key] != expected:
            raise ConfigError(
                f"checkpoint {key} {ckpt.meta[key]!r} does not match config {key} {expected!r}"
            )
    return net


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="robustprune",
                                     description="Adversarially robust pruning pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="pretrain, prune, finetune, evaluate")
    _add_common(p_run, seed_required=True)
    p_run.set_defaults(fn=_cmd_run)

    p_pre = sub.add_parser("pretrain", help="robust pretraining only")
    _add_common(p_pre)
    p_pre.set_defaults(fn=_cmd_pretrain)

    p_prune = sub.add_parser("prune", help="strategy search from a pretrain checkpoint")
    _add_common(p_prune)
    p_prune.add_argument("--from", dest="from_ckpt", type=Path, required=True)
    p_prune.set_defaults(fn=_cmd_prune)

    p_ft = sub.add_parser("finetune", help="fine-tune from a prune checkpoint")
    _add_common(p_ft)
    p_ft.add_argument("--from", dest="from_ckpt", type=Path, required=True)
    p_ft.set_defaults(fn=_cmd_finetune)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint under attacks")
    _add_common(p_eval)
    p_eval.add_argument("--from", dest="from_ckpt", type=Path, required=True)
    p_eval.add_argument("--histograms", action="store_true",
                        help="also export per-layer retained-weight histograms")
    p_eval.set_defaults(fn=_cmd_eval)

    p_stg = sub.add_parser("strategy", help="export / compare per-layer strategies")
    _add_common(p_stg)
    p_stg.add_argument("--from", dest="from_ckpt", type=Path, nargs="+", required=True)
    p_stg.add_argument("--baselines", action="store_true",
                       help="include uniform/erk/lamp tables in the comparison")
    p_stg.set_defaults(fn=_cmd_strategy)

    p_sweep = sub.add_parser("sweep", help="run a grid of target rates and methods")
    _add_common(p_sweep, seed_required=True)
    p_sweep.add_argument("--k-values", type=float, nargs="+", default=[1.0, 0.1, 0.01, 0.001])
    p_sweep.add_argument("--methods", nargs="+", default=["harp", "scores-only"])
    p_sweep.set_defaults(fn=_cmd_sweep)

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
