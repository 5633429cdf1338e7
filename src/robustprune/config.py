"""Run configuration and the flat dotted key-value config format.

A config file holds one ``section.key = value`` pair per line; ``#`` starts
a comment. The full schema is documented in the README. Every run is fully
determined by (config, seed).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

from .adversary import AttackConfig, RobustLossConfig
from .data import DATASET_DEFAULTS
from .network import ARCHITECTURES, build_network
from .pruning import CompressionConfig
from .strategies import ALLOCATIONS

# Each method by where its prune stage takes (per-layer rates, connection scores) from.
# Rates are "learned" or a fixed allocation of strategies.ALLOCATIONS at k_t; scores are
# "learned" or "frozen" at their start, the weight magnitudes.
METHODS = {"harp": ("learned", "learned"), "rates-only": ("learned", "frozen"),
           "scores-only": ("uniform", "learned"), "uniform": ("uniform", "frozen"),
           "erk": ("erk", "frozen"), "lamp": ("lamp", "frozen")}
STAGE_KEYS = ("pretrain_epochs", "prune_epochs", "finetune_epochs")
OPT_NAMES = ("pretrain", "finetune", "scores", "rates")
# dataset keys without a default: the data files each file-backed kind needs
DATASET_FILES = {"csv": ("path",), "idx": ("images", "labels")}


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
    dataset: dict = field(default_factory=lambda: dict(DATASET_DEFAULTS))
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for n in STAGE_KEYS:
            least = 1 if n == "prune_epochs" else 0
            if getattr(self, n) < least:
                raise ConfigError(f"stages.{n} must be >= {least}, got {getattr(self, n)}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        kind, size, classes = self.dataset["kind"], self.dataset["size"], self.dataset["classes"]
        for key in DATASET_FILES.get(kind, ()):
            if key not in self.dataset:
                raise ConfigError(f"dataset.kind {kind} needs dataset.{key}")
        if size < 1:
            raise ConfigError(f"dataset.size must be >= 1, got {size}")
        if classes < 2:
            raise ConfigError(f"dataset.classes must be >= 2, got {classes}")
        try:  # the architecture's own checks (pooling needs divisible image sides) and its weights
            net = build_network(self.arch, (1, size, size), classes)
        except (OverflowError, ValueError, MemoryError) as exc:
            raise ConfigError(f"dataset.size {size} and dataset.classes {classes} give no "
                              f"{self.arch} network: {exc}") from None
        for name in OPT_NAMES:
            getattr(self, f"opt_{name}").validate(f"opt.{name}")
        comp = self.compression
        if METHODS[self.method][0] == "learned" and comp.k_init < comp.k_t:
            # the budget loss is 0 below k_t, so nothing lifts learned rates up to it
            raise ConfigError(f"method {self.method} learns its rates from compression.k_init "
                              f"{comp.k_init}, which must be >= compression.k_t {comp.k_t}")
        allocate = ALLOCATIONS.get(METHODS[self.method][0])
        if allocate is not None:  # its feasibility reads only the layer specs
            try:
                allocate(net, comp.k_t)
            except ValueError as exc:
                raise ConfigError(f"method {self.method} at compression.k_t {comp.k_t}: "
                                  f"{exc}") from None

    def to_dict(self) -> dict:
        tree = asdict(self)
        tree["stages"] = {k: tree.pop(k) for k in STAGE_KEYS}
        tree["opt"] = {n: tree.pop(f"opt_{n}") for n in OPT_NAMES}
        return tree

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def parse_config_file(path) -> dict:
    """Parse ``section.key = value`` lines into a nested dict of stripped text values."""
    tree: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            try:
                set_key(tree, key.strip(), value.strip())
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return tree


def set_key(tree: dict, key: str, value) -> None:
    """Set a dotted ``section.key`` in a nested config tree."""
    if not all(key.split(".")):
        raise ConfigError(f"empty key component in {key!r}")
    *sections, leaf = key.split(".")
    node = tree
    for part in sections:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"{key!r} conflicts with earlier value")
    node[leaf] = value


def config_from_dict(tree: dict, seed: int | None = None) -> RunConfig:
    """Build and validate a RunConfig from a parsed config tree.

    The tree is merged key by key over the defaults; each value is typed by
    its default (``_typed``) and a key without a default is rejected.
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


def _merge(defaults: dict, tree: dict, prefix: str) -> dict:
    out = dict(defaults)
    for key, value in tree.items():
        name = prefix + key
        if key not in defaults:
            if prefix != "dataset." or not any(key in keys for keys in DATASET_FILES.values()):
                raise ConfigError(f"unknown config key {name!r}")
            out[key] = value
        elif isinstance(defaults[key], dict) != isinstance(value, dict):
            raise ConfigError(f"config key {name!r} must be a "
                              + ("section" if isinstance(defaults[key], dict) else "single value"))
        elif isinstance(value, dict):
            out[key] = _merge(defaults[key], value, name + ".")
        else:
            out[key] = _typed(name, defaults[key], value)
    return out


def _typed(name: str, default, value):
    """``value`` as the type of the key's default, or a ConfigError naming the key.

    Text is read: a bool as true or false in any case, an int as a whole number, a float as
    a finite number. A Python value must have the type, but an int widens and a whole float
    narrows.
    """
    kind, given = type(default), value
    if isinstance(value, str) and kind is bool:
        value = {"true": True, "false": False}.get(value.lower(), value)
    elif isinstance(value, str) and kind is not str:
        for read in (int, float) if kind is int else (float,):  # int first: big ints stay exact
            try:
                value = read(value)
                break
            except ValueError:
                pass
    if kind is float and type(value) is int:
        value = float(value)
    elif kind is int and type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        raise ConfigError(f"config key {name!r}: cannot read {given!r} as {kind.__name__}")
    return value
