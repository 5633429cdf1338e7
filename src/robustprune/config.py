"""Run configuration and the flat dotted key-value config format.

A config file holds one ``section.key = value`` pair per line; ``#`` starts
a comment. The full schema is documented in the README. Every run is fully
determined by (config, seed).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields

from .adversary import AttackConfig, RobustLossConfig
from .network import ARCHITECTURES, _layout
from .pruning import CompressionConfig

# Each method by what its prune stage learns: (per-layer rates, connection scores).
METHODS = {"harp": (True, True), "rates-only": (True, False), "scores-only": (False, True)}
STAGE_KEYS = ("pretrain_epochs", "prune_epochs", "finetune_epochs")
OPT_NAMES = ("pretrain", "finetune", "scores", "rates")
# dataset keys without a default: the data files of the csv and idx kinds
DATASET_FILE_KEYS = ("path", "images", "labels")


class ConfigError(ValueError):
    """Invalid run configuration; maps to CLI exit code 2."""


@dataclass
class OptConfig:
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0005

    def validate(self, name: str) -> None:
        if self.lr < 0:
            raise ConfigError(f"{name}.lr must be >= 0, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"{name}.momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"{name}.weight_decay must be >= 0, got {self.weight_decay}")


@dataclass
class RunConfig:
    seed: int
    arch: str = "conv-small"
    method: str = "harp"  # a key of METHODS
    dataset: dict = field(default_factory=lambda: {
        "kind": "synthetic", "n": 2000, "size": 16, "classes": 2, "noise": 0.15,
        "test_fraction": 0.2,
    })
    pretrain_epochs: int = 30
    prune_epochs: int = 20
    finetune_epochs: int = 100
    batch_size: int = 128
    compression: CompressionConfig = field(default_factory=lambda: CompressionConfig(k_t=0.1))
    attack: AttackConfig = field(default_factory=lambda: AttackConfig(8 / 255, 2 / 255, 10))
    loss: RobustLossConfig = field(default_factory=RobustLossConfig)
    opt_pretrain: OptConfig = field(default_factory=OptConfig)
    opt_finetune: OptConfig = field(default_factory=OptConfig)
    opt_scores: OptConfig = field(default_factory=lambda: OptConfig(lr=0.02, momentum=0.9, weight_decay=0.0))
    opt_rates: OptConfig = field(default_factory=lambda: OptConfig(lr=0.5, momentum=0.9, weight_decay=0.0))

    def validate(self) -> None:
        if self.arch not in ARCHITECTURES:
            raise ConfigError(f"arch must be one of {tuple(ARCHITECTURES)}, got {self.arch!r}")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {tuple(METHODS)}, got {self.method!r}")
        for n in STAGE_KEYS:
            if getattr(self, n) < 0:
                raise ConfigError(f"{n} must be >= 0")
        if self.prune_epochs < 1:
            raise ConfigError("prune_epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        size = int(self.dataset.get("size", 16))
        try:  # the architecture's own check, e.g. pooling needs divisible image sides
            _layout(self.arch, ARCHITECTURES[self.arch], (1, size, size),
                    int(self.dataset.get("classes", 2)))
        except ValueError as exc:
            raise ConfigError(f"dataset.size {size}: {exc}") from None
        for name in ("opt_pretrain", "opt_finetune", "opt_scores", "opt_rates"):
            getattr(self, name).validate(name)

    def to_dict(self) -> dict:
        tree = {f.name: getattr(self, f.name) for f in fields(self)}
        tree["dataset"] = dict(self.dataset)
        tree["stages"] = {k: tree.pop(k) for k in STAGE_KEYS}
        for name in ("compression", "attack", "loss"):
            tree[name] = _section(tree[name])
        tree["opt"] = {n: _section(tree.pop(f"opt_{n}")) for n in OPT_NAMES}
        return tree

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _coerce(value: str):
    low = value.strip()
    if low.lower() in ("true", "false"):
        return low.lower() == "true"
    try:
        return int(low)
    except ValueError:
        pass
    try:
        return float(low)
    except ValueError:
        return low


def parse_config_file(path) -> dict:
    """Parse ``section.key = value`` lines into a nested dict."""
    tree: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if not all(key.split(".")):
                raise ConfigError(f"{path}:{lineno}: empty key component in {key!r}")
            try:
                set_key(tree, key, _coerce(value))
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return tree


def set_key(tree: dict, key: str, value) -> None:
    """Set a dotted ``section.key`` in a nested config tree."""
    *sections, leaf = key.split(".")
    node = tree
    for part in sections:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"{key!r} conflicts with earlier value")
    node[leaf] = value


def config_from_dict(tree: dict, seed: int | None = None) -> RunConfig:
    """Build and validate a RunConfig from a parsed config tree.

    The tree is merged key by key over the defaults; each value is cast to
    the type of its default and a key without a default is rejected.
    """
    use_seed = seed if seed is not None else tree.get("seed")
    if use_seed is None:
        raise ConfigError("seed is required (config key 'seed' or --seed)")
    try:
        t = _merge(RunConfig(seed=0).to_dict(), {**tree, "seed": use_seed}, "")
        cfg = RunConfig(
            seed=t["seed"], arch=t["arch"], method=t["method"], dataset=t["dataset"],
            batch_size=t["batch_size"], **t["stages"],
            compression=CompressionConfig(**t["compression"]),
            attack=AttackConfig(**t["attack"]),
            loss=RobustLossConfig(**t["loss"]),
            **{f"opt_{n}": OptConfig(**t["opt"][n]) for n in OPT_NAMES},
        )
    except (ValueError, TypeError) as exc:  # range checks in the dataclasses
        raise ConfigError(str(exc)) from exc
    cfg.validate()
    return cfg


def _section(obj) -> dict:
    """The config keys of a dataclass: its scalar fields (attack bounds are fixed)."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)
            if isinstance(getattr(obj, f.name), (bool, int, float, str))}


def _merge(defaults: dict, tree: dict, prefix: str) -> dict:
    out = dict(defaults)
    for key, value in tree.items():
        name = prefix + key
        if key not in defaults:
            if prefix != "dataset." or key not in DATASET_FILE_KEYS:
                raise ConfigError(f"unknown config key {name!r}")
            out[key] = value
        elif isinstance(defaults[key], dict) != isinstance(value, dict):
            raise ConfigError(f"config key {name!r} must be a "
                              + ("section" if isinstance(defaults[key], dict) else "single value"))
        elif isinstance(value, dict):
            out[key] = _merge(defaults[key], value, name + ".")
        else:
            try:
                out[key] = type(defaults[key])(value)
            except ValueError:
                raise ConfigError(f"config key {name!r}: cannot read {value!r} as "
                                  f"{type(defaults[key]).__name__}") from None
    return out
