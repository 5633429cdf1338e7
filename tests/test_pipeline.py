"""Stage contracts, composability, determinism, and the CLI surface."""

import argparse
import contextlib
import io
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustprune.pruning as pruning
import robustprune.tensor as T
from robustprune import cli
from robustprune.adversary import AttackConfig, MetricRow, RobustLossConfig, evaluate
from robustprune.checkpoint import load_checkpoint, save_checkpoint
from robustprune.config import (
    METHODS,
    ConfigError,
    RunConfig,
    config_from_dict,
    parse_config_file,
)
from robustprune.data import ingest
from robustprune.network import build_network, count_preserved, flops
from robustprune.optim import SgdState
from robustprune.pipeline import (
    DivergenceError,
    default_eval_attacks,
    init_pruning_state,
    run_all,
    stage_finetune,
    stage_pretrain,
    stage_prune,
    sweep,
    write_reports,
)
from robustprune.pruning import (RATE_TOLERANCE, CompressionConfig, _keep_count, init_rate,
                                 init_scores, prune_epoch, top_fraction_mask)
from robustprune.strategies import ALLOCATIONS
from robustprune.tensor import Tensor


def tiny_cfg(seed=7, method="harp", epochs=(2, 3, 2), k_t=0.1, arch="mlp-small"):
    cfg = RunConfig(seed=seed, arch=arch, method=method)
    cfg.dataset = {"kind": "synthetic", "n": 300, "size": 8, "classes": 2,
                   "noise": 0.15, "test_fraction": 0.2}
    cfg.pretrain_epochs, cfg.prune_epochs, cfg.finetune_epochs = epochs
    cfg.batch_size = 64
    cfg.compression = CompressionConfig(k_t=k_t, k_init=0.3, gamma_step=0.05)
    cfg.attack = AttackConfig(8 / 255, 2 / 255, 3)
    return cfg


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = tiny_cfg()
    rows = run_all(cfg, out)
    return cfg, out, rows


def test_zero_epoch_pretrain_is_initialization():
    cfg = tiny_cfg(epochs=(0, 1, 0))
    train, _ = ingest(cfg.dataset, cfg.seed)
    net = stage_pretrain(cfg, train)
    from robustprune.network import build_network

    fresh = build_network(cfg.arch, (1, 8, 8), 2, seed=cfg.seed)
    for a, b in zip(net.layers, fresh.layers):
        assert np.array_equal(a.params.values, b.params.values)


def test_pretrain_deterministic():
    cfg = tiny_cfg(epochs=(2, 1, 0))
    train, _ = ingest(cfg.dataset, cfg.seed)
    a = stage_pretrain(cfg, train)
    b = stage_pretrain(cfg, train)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.params.values, lb.params.values)


def test_prune_stage_freezes_theta_and_moves_masks():
    cfg = tiny_cfg(epochs=(1, 3, 0), k_t=0.05)
    train, _ = ingest(cfg.dataset, cfg.seed)
    net = stage_pretrain(cfg, train)
    theta_before = [l.params.values.copy() for l in net.layers]
    net, history = stage_prune(cfg, net, train)
    for before, layer in zip(theta_before, net.layers):
        assert np.array_equal(before, layer.params.values)
    total, _ = count_preserved(net)
    assert total < net.total_params
    assert len(history.epochs) == 3
    rates = history.epochs[-1]["layer_rates"]
    assert all(cfg.compression.k_min <= r <= 1.0 for r in rates)


def test_finetune_preserves_masks_and_sparsity():
    cfg = tiny_cfg(epochs=(1, 2, 2), k_t=0.1)
    train, _ = ingest(cfg.dataset, cfg.seed)
    net = stage_pretrain(cfg, train)
    net, _ = stage_prune(cfg, net, train)
    masks_before = [l.mask.copy() for l in net.layers]
    scores_before = [l.scores.values.copy() for l in net.layers]
    preserved_before, _ = count_preserved(net)
    net = stage_finetune(cfg, net, train)
    for before, layer in zip(masks_before, net.layers):
        assert np.array_equal(before, layer.mask)
    for before, layer in zip(scores_before, net.layers):
        assert np.array_equal(before, layer.scores.values)
    preserved_after, _ = count_preserved(net)
    assert preserved_after == preserved_before


def test_staged_equals_monolithic(tmp_path, tiny_run):
    cfg, out, rows = tiny_run
    train, test = ingest(cfg.dataset, cfg.seed)
    net = stage_pretrain(cfg, train)
    net, _ = stage_prune(cfg, net, train)
    net = stage_finetune(cfg, net, train)
    staged = evaluate(net, test.inputs, test.labels, default_eval_attacks(cfg.attack))
    assert [r.accuracy_pct for r in staged] == [r.accuracy_pct for r in rows]


def test_checkpoint_chain_matches_in_memory(tmp_path):
    cfg = tiny_cfg(seed=9, epochs=(1, 2, 1))
    train, test = ingest(cfg.dataset, cfg.seed)
    out = tmp_path / "chain"
    out.mkdir()
    stage_pretrain(cfg, train, out)
    net1 = load_checkpoint(out / "pretrain.npz").build()
    stage_prune(cfg, net1, train, out)
    net2 = load_checkpoint(out / "prune.npz").build()
    stage_finetune(cfg, net2, train, out)
    net3 = load_checkpoint(out / "final.npz").build()

    net = stage_pretrain(cfg, train)
    net, _ = stage_prune(cfg, net, train)
    net = stage_finetune(cfg, net, train)
    for a, b in zip(net3.layers, net.layers):
        assert np.array_equal(a.params.values, b.params.values)
        assert np.array_equal(a.mask, b.mask)


def test_run_all_emits_artifacts(tiny_run):
    _, out, _ = tiny_run
    for name in ("pretrain.npz", "prune.npz", "final.npz", "metrics.csv",
                 "strategy.csv", "summary.csv", "prune_curve.csv"):
        assert (out / name).exists(), name


def test_reported_rate_matches_count(tiny_run):
    cfg, out, _ = tiny_run
    net = load_checkpoint(out / "final.npz").build()
    total, _ = count_preserved(net)
    summary = (out / "summary.csv").read_text().splitlines()
    rate_row = next(line for line in summary if line.startswith("global_rate,"))
    assert float(rate_row.split(",")[1]) == pytest.approx(total / net.total_params, abs=1e-8)


def test_prune_curve_tracks_gamma(tiny_run):
    cfg, out, _ = tiny_run
    lines = (out / "prune_curve.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["epoch", "gamma", "robust_loss", "hw_loss", "global_rate"]
    assert len(lines) == 1 + cfg.prune_epochs


@pytest.mark.parametrize("method", list(METHODS))
def test_prune_learns_what_the_method_table_says(method):
    """Scores end at their start, the weight magnitudes, exactly when they are frozen.
    Learned rates move their quotas off k_init; a fixed allocation keeps no quotas and
    every epoch records its rates. A method that learns nothing runs one epoch."""
    rate_source, score_source = METHODS[method]
    cfg = tiny_cfg(method=method, epochs=(1, 2, 0), k_t=0.2)
    comp = cfg.compression
    train, _ = ingest(cfg.dataset, cfg.seed)
    net = stage_pretrain(cfg, train)
    initial = [init_scores(l.params.values, l.spec.fan_in, "weight") for l in net.layers]
    fixed = ALLOCATIONS[rate_source](net, comp.k_t) if rate_source != "learned" else None
    net, history = stage_prune(cfg, net, train)
    for scores, layer in zip(initial, net.layers):
        assert np.array_equal(layer.scores.values, scores) == (score_source != "learned"), \
            layer.spec.name
        if fixed is None:
            assert float(layer.quota.values) != init_rate(comp.k_init, comp.k_min), layer.spec.name
        else:
            assert layer.quota is None, layer.spec.name
    if fixed is not None:
        epochs = cfg.prune_epochs if score_source == "learned" else 1
        assert [r["layer_rates"] for r in history.epochs] == [fixed] * epochs


@pytest.mark.parametrize("arch", ["mlp-small", "conv-small"])
def test_initial_weight_masks_keep_the_largest_weights(arch):
    """harp's first weight masks keep the top k_init fraction of each layer's |theta|."""
    net = build_network(arch, (1, 8, 8), 2, seed=3)
    init_pruning_state(net, CompressionConfig(k_t=0.05, k_init=0.1), "harp")
    for layer in net.layers:
        expect = top_fraction_mask(np.abs(layer.params.values), 0.1)
        assert np.array_equal(layer.mask, expect), layer.spec.name


def test_prune_warns_of_a_dead_network():
    """An epoch at robust loss ln(classes) whose last batch leaves every mask gradient zero
    warns, naming the epoch and the layer rates; the same run on a live network does not."""
    cfg = tiny_cfg(epochs=(0, 2, 0))
    train, _ = ingest(cfg.dataset, cfg.seed)
    said = {}
    for dead in (False, True):
        net = stage_pretrain(cfg, train)
        if dead:  # inputs are in [0, 1]: with negative fc1 weights every relu unit is off
            net.layers[0].params.values = -np.abs(net.layers[0].params.values)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, history = stage_prune(cfg, net, train)
        said[dead] = [str(w.message) for w in caught if "dead" in str(w.message)]
    assert said[False] == []
    assert said[True] == [
        f"prune epoch {r['epoch']}: the network is dead (robust loss ln 2, every mask gradient "
        "zero) at rates " + ", ".join(f"fc{i} {rate:.5f}"
                                      for i, rate in enumerate(r["layer_rates"], 1))
        for r in history.epochs]


def test_scores_only_at_target_one_keeps_every_weight():
    cfg = tiny_cfg(method="scores-only", epochs=(1, 1, 0), k_t=1.0)
    train, _ = ingest(cfg.dataset, cfg.seed)
    net, history = stage_prune(cfg, stage_pretrain(cfg, train), train)
    assert all(l.mask.all() for l in net.layers)
    assert history.epochs[-1]["layer_rates"] == [1.0] * len(net.layers)


def test_prune_diverges_on_first_nonfinite_batch_without_update():
    net = build_network("mlp-small", (1, 8, 8), 2, seed=3)
    comp = CompressionConfig(k_t=0.5, k_init=0.9)
    init_pruning_state(net, comp)
    net.layers[0].params.values[:] = np.nan
    scores = [l.scores.values.copy() for l in net.layers]
    quotas = [l.quota.values.copy() for l in net.layers]
    train, _ = ingest(tiny_cfg().dataset, 3)
    served = []

    def batches():
        for b in train.batches(32):
            served.append(len(b[1]))
            yield b

    score_opt, rate_opt = SgdState(0.1, 0.9), SgdState(0.1, 0.9)
    with pytest.raises(DivergenceError, match="prune"):
        prune_epoch(net, comp, 0.1, RobustLossConfig(), AttackConfig(8 / 255, 2 / 255, 2),
                    batches(), score_opt, rate_opt, np.random.default_rng(0))
    assert len(served) == 1
    assert score_opt.velocity == [] and rate_opt.velocity == []
    for layer, s, q in zip(net.layers, scores, quotas):
        assert np.array_equal(layer.scores.values, s) and np.array_equal(layer.quota.values, q)
        assert layer.scores.grad is None and layer.quota.grad is None


def _final_rate_warnings(monkeypatch, cfg, record) -> list[str]:
    """The warnings of a prune stage whose every epoch returns ``record``."""
    monkeypatch.setattr("robustprune.pipeline.prune_epoch", lambda *args: record)
    train, _ = ingest(cfg.dataset, cfg.seed)
    net = stage_pretrain(cfg, train)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, history = stage_prune(cfg, net, train)
    assert history.final_rate == record["global_rate"]
    return [str(w.message) for w in caught]


@pytest.mark.parametrize("excess,warns", [(0.5 * RATE_TOLERANCE, False),
                                          (2 * RATE_TOLERANCE, True)])
def test_unreached_target_warns_only_beyond_rate_tolerance(monkeypatch, excess, warns):
    # Never arrived (budget loss stays above 0): the final rate alone decides the warning.
    cfg = tiny_cfg(epochs=(0, 2, 0))
    final_rate = cfg.compression.k_t * (1 + excess)
    record = {"robust_loss": 0.5, "hw_loss": 1e-9, "global_rate": final_rate,
              "layer_rates": [final_rate] * 3}
    said = _final_rate_warnings(monkeypatch, cfg, record)
    rates = ", ".join(f"fc{i} {final_rate:.5f}" for i in (1, 2, 3))
    assert said == ([f"target compression 0.1 missed: harp ended at global rate "
                     f"{final_rate:.5f}, outside [0.05, 0.1001], arrival epoch none, at rates "
                     f"{rates}"] if warns else [])


@pytest.mark.parametrize("method, share, warns", [
    ("harp", 0.4, True), ("harp", 0.6, False), ("rates-only", 0.4, True), ("uniform", 0.4, True),
    ("harp", 1 + 2 * RATE_TOLERANCE, True),
])
def test_learned_rate_far_below_target_warns(monkeypatch, method, share, warns):
    """A run that arrived (budget loss 0 from epoch 1) warns with its arrival epoch and the
    layer rates when it ends outside [k_t / 2, k_t * (1 + RATE_TOLERANCE)]: below k_t / 2,
    a fixed allocation included, or above the tolerance."""
    cfg = tiny_cfg(method=method, epochs=(0, 2, 0))
    final_rate = cfg.compression.k_t * share
    record = {"robust_loss": 0.5, "hw_loss": 0.0, "global_rate": final_rate,
              "layer_rates": [0.9, 0.01, 0.5]}
    said = _final_rate_warnings(monkeypatch, cfg, record)
    assert said == ([f"target compression 0.1 missed: {method} ended at global rate "
                     f"{final_rate:.5f}, outside [0.05, 0.1001], arrival epoch 1, at rates "
                     "fc1 0.90000, fc2 0.01000, fc3 0.50000"] if warns else [])


def test_channel_prune_ties_shortcut_quota(tmp_path, monkeypatch):
    """Every channel mask rebuild gives block.conv_a and block.shortcut, which read the same
    block input, one rate; the last prune_curve.csv row holds the rates of the installed
    masks."""
    cfg = tiny_cfg(arch="resnet-tiny", epochs=(1, 2, 0), k_t=0.5)
    cfg.dataset["size"] = 8
    cfg.compression = CompressionConfig(k_t=0.5, k_init=0.99, gamma_step=0.02,
                                        granularity="channel", budget="flops")
    train, _ = ingest(cfg.dataset, cfg.seed)
    net = stage_pretrain(cfg, train)
    names = [l.spec.name for l in net.layers]
    installed = []
    install = pruning._install_masks

    def recording_install(net, rates, scores):
        installed.append(dict(zip(names, rates)))
        install(net, rates, scores)

    monkeypatch.setattr(pruning, "_install_masks", recording_install)
    net, history = stage_prune(cfg, net, train, tmp_path)
    assert len(installed) > 2 * cfg.prune_epochs
    assert {r["block.conv_a"] == r["block.shortcut"] for r in installed} == {True}
    assert len({r["block.conv_a"] for r in installed}) > 1  # the tied rate did move
    for input_idx, shortcut_idx in net.residual_links:
        assert net.layers[input_idx].quota.values == net.layers[shortcut_idx].quota.values
    last = (tmp_path / "prune_curve.csv").read_text().splitlines()[-1].split(",")[5:]
    for layer, rate in zip(net.layers, last):
        assert layer.mask.shape == (layer.spec.c_i,)
        assert layer.mask.sum() == _keep_count(float(rate), layer.mask.size), layer.spec.name


# --- config ---


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "arch = mlp-small\n"
        "seed = 5\n"
        "compression.k_t = 0.01\n"
        "attack.random_init = true\n"
        "dataset.kind = synthetic\n"
        "dataset.n = 100\n"
    )
    cfg = config_from_dict(parse_config_file(path))
    assert cfg.arch == "mlp-small"
    assert cfg.compression.k_t == 0.01
    assert cfg.attack.random_init is True
    assert cfg.seed == 5 and cfg.dataset["n"] == 100


def test_parse_config_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("this is not a key value line\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)


def test_config_requires_seed():
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict({"arch": "mlp-small"})


def test_config_rejects_unknown_method():
    with pytest.raises(ConfigError):
        config_from_dict({"seed": 1, "method": "magic"})


def test_config_hash_stable_and_sensitive():
    a = tiny_cfg(seed=1)
    b = tiny_cfg(seed=1)
    c = tiny_cfg(seed=2)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_config_hash_golden():
    assert RunConfig(seed=3).config_hash() == "562e26af6101fba8"
    assert config_from_dict({"seed": 1}).config_hash() == "592801be310bfeea"
    cfg = tiny_cfg(seed=4)
    assert config_from_dict(cfg.to_dict()).config_hash() == cfg.config_hash()


@pytest.mark.parametrize("tree, key", [
    ({"compression": {"kt": 0.5}}, "compression.kt"),
    ({"epochs": 3}, "epochs"),
    ({"opt": {"scores": {"lr": 0.1, "nesterov": 1}}}, "opt.scores.nesterov"),
    ({"dataset": {"nn": 100}}, "dataset.nn"),
    ({"attack": {"bounds": 1}}, "attack.bounds"),
])
def test_config_rejects_unknown_key(tree, key):
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        config_from_dict({"seed": 1, **tree})


def test_readme_config_block_shows_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    defaults = RunConfig(seed=7).to_dict()
    checked = 0
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, printed = (part.strip() for part in line.split("=", 1))
        default = defaults
        for part in key.split("."):
            default = default[part]
        if isinstance(default, float):
            digits = len(printed.partition(".")[2])
            assert round(default, digits) == float(printed), key
        else:
            assert str(default).lower() == printed.lower(), key
        checked += 1
    assert checked >= 20  # the block was found and read


def test_config_values_cast_to_default_type():
    cfg = config_from_dict({"seed": "2", "batch_size": 32.0, "compression": {"gamma_step": 1},
                            "dataset": {"noise": 0}})
    assert cfg.seed == 2 and type(cfg.batch_size) is int
    assert type(cfg.compression.gamma_step) is float and type(cfg.dataset["noise"]) is float
    with pytest.raises(ConfigError, match="stages.prune_epochs"):
        config_from_dict({"seed": 1, "stages": {"prune_epochs": "many"}})
    with pytest.raises(ConfigError, match="'stages' must be a section"):
        config_from_dict({"seed": 1, "stages": 3})


def test_partial_dataset_section_merges_over_defaults():
    cfg = config_from_dict({"seed": 1, "dataset": {"n": 100}})
    assert cfg.dataset == {**RunConfig(seed=1).dataset, "n": 100}
    train, test = ingest(cfg.dataset, cfg.seed)
    assert len(train) + len(test) == 100
    csv_cfg = config_from_dict({"seed": 1, "dataset": {"kind": "csv", "path": "rows.csv"}})
    assert csv_cfg.dataset["path"] == "rows.csv" and csv_cfg.dataset["size"] == 16


def test_config_file_rejects_an_empty_key_component(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("seed = 1\na..b = 1\n")
    with pytest.raises(ConfigError, match=r"empty\.cfg:2: empty key component in 'a\.\.b'"):
        parse_config_file(path)


def test_cli_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "typo.cfg"
    path.write_text("compression.kt = 0.5\n")
    assert cli.main(["run", "--config", str(path), "--seed", "1", "--out", str(tmp_path)]) == 2
    assert "compression.kt" in capsys.readouterr().err


# --- CLI ---


def _sets(*items):
    """``--set`` arguments for ``KEY=VALUE`` items."""
    return [arg for item in items for arg in ("--set", item)]


def _cli_config(*argv) -> dict:
    parser = argparse.ArgumentParser()
    cli._add_common(parser)
    return cli._build_config(parser.parse_args(list(argv))).to_dict()


def _leaves(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def _leaf(tree, key):
    for part in key.split("."):
        tree = tree[part]
    return tree


# every config key -> a non-default value, written out independently of RunConfig
CLI_KEYS = {
    "seed": 9, "arch": "resnet-tiny", "method": "rates-only", "batch_size": 16,
    "dataset.kind": "csv", "dataset.path": "rows.csv", "dataset.n": 500, "dataset.size": 8,
    "dataset.classes": 3, "dataset.noise": 0.3, "dataset.test_fraction": 0.25,
    "stages.pretrain_epochs": 4, "stages.prune_epochs": 5, "stages.finetune_epochs": 6,
    "compression.k_t": 0.3, "compression.k_init": 0.5, "compression.gamma_step": 0.02,
    "compression.granularity": "channel", "compression.budget": "flops",
    "attack.epsilon": 0.05, "attack.step_size": 0.01, "attack.iters": 3,
    "attack.random_init": False, "loss.kind": "trades", "loss.beta": 2.5,
    **{f"opt.{name}.{key}": value + i / 100 for i, name in enumerate(
        ("pretrain", "finetune", "scores", "rates"))
       for key, value in (("lr", 0.25), ("momentum", 0.5), ("weight_decay", 0.001))},
}


def test_cli_set_gives_every_key_its_typed_value():
    defaults = RunConfig(seed=0).to_dict()
    keys = list(_leaves(defaults))
    assert len(keys) == 36 and set(keys) < set(CLI_KEYS)
    tree = _cli_config(*_sets(*(f"{key}={value}" for key, value in CLI_KEYS.items())))
    for key, value in CLI_KEYS.items():
        got = _leaf(tree, key)
        assert got == value and type(got) is type(value), key
        if key in keys:
            assert got != _leaf(defaults, key), key


def test_cli_later_set_wins_and_every_set_beats_the_config_file(tmp_path):
    path = tmp_path / "k.cfg"
    path.write_text("compression.k_t = 0.5\ncompression.k_init = 0.6\nattack.iters = 4\n")
    tree = _cli_config(*_sets("compression.k_t=0.3"), "--config", str(path), "--seed", "1",
                       *_sets("dataset.n=300", "compression.k_t=0.2"))
    assert tree["compression"]["k_t"] == 0.2 and tree["attack"]["iters"] == 4
    assert tree["dataset"]["n"] == 300


@pytest.mark.parametrize("item, named", [
    ("compression.k_t", "--set 'compression.k_t': expected KEY=VALUE"),
    ("compression.kt=0.5", "unknown config key 'compression.kt'"),
    ("attack.iters=1.5", "config key 'attack.iters': cannot read '1.5' as int"),
    ("compression.granularity=block", "compression.granularity must be one of"),
    ("a..b=1", "empty key component in 'a..b'"),
], ids=["no-equals", "unknown-key", "fractional-int", "not-a-choice", "empty-component"])
def test_cli_bad_set_exits_2_naming_the_key_before_writing(tmp_path, capsys, item, named):
    out = tmp_path / "out"
    assert cli.main(["run", "--seed", "1", "--out", str(out), *CLI_DATA, "--set", item]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err
    assert not out.exists()


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "robustprune.cli", *args],
        capture_output=True, text=True,
    )


CLI_DATA = _sets("arch=mlp-small", "stages.pretrain_epochs=1", "stages.prune_epochs=2",
                 "stages.finetune_epochs=1", "attack.iters=2", "compression.k_t=0.2",
                 "compression.k_init=0.6", "batch_size=64")


def _write_tiny_dataset_cfg(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "dataset.kind = synthetic\ndataset.n = 200\ndataset.size = 8\n"
        "dataset.classes = 2\ndataset.test_fraction = 0.25\n"
    )
    return cfg


def test_cli_run_and_exit_codes(tmp_path):
    cfg = _write_tiny_dataset_cfg(tmp_path)
    out = tmp_path / "out"
    res = _cli("run", "--config", str(cfg), "--seed", "3", "--out", str(out), *CLI_DATA)
    assert res.returncode == 0, res.stderr
    assert (out / "metrics.csv").exists()
    assert "natural" in res.stdout


def test_cli_requires_seed_for_run(tmp_path):
    cfg = _write_tiny_dataset_cfg(tmp_path)
    res = _cli("run", "--config", str(cfg))
    assert res.returncode == 2


def test_cli_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("compression.k_t = 7\n")  # rate outside (0, 1]
    res = _cli("run", "--config", str(cfg), "--seed", "1")
    assert res.returncode == 2
    assert "error" in res.stderr


def test_cli_stagewise_and_eval(tmp_path):
    cfg = _write_tiny_dataset_cfg(tmp_path)
    out = tmp_path / "staged"
    res = _cli("pretrain", "--config", str(cfg), "--seed", "4", "--out", str(out), *CLI_DATA)
    assert res.returncode == 0, res.stderr
    res = _cli("prune", "--config", str(cfg), "--seed", "4", "--out", str(out),
               "--from", str(out / "pretrain.npz"), *CLI_DATA)
    assert res.returncode == 0, res.stderr
    res = _cli("finetune", "--config", str(cfg), "--seed", "4", "--out", str(out),
               "--from", str(out / "prune.npz"), *CLI_DATA)
    assert res.returncode == 0, res.stderr
    res = _cli("eval", "--config", str(cfg), "--seed", "4", "--out", str(out),
               "--from", str(out / "final.npz"), *CLI_DATA)
    assert res.returncode == 0, res.stderr
    for name in ("metrics.csv", "strategy.csv", "summary.csv", "histograms.csv"):
        assert (out / name).exists(), name


@pytest.mark.parametrize("granularity", ["weight", "channel"])
@pytest.mark.parametrize("method", ["uniform", "erk", "lamp"])
def test_cli_run_prunes_at_a_fixed_allocation_with_magnitude_scores(tmp_path, method,
                                                                     granularity):
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["run", "--config", str(_write_tiny_dataset_cfg(tmp_path)), "--seed",
                         "4", "--out", str(out), *CLI_DATA,
                         *_sets(f"method={method}", f"compression.granularity={granularity}")]) == 0
    # rounding each layer's kept channel count leaves uniform's channel rate above k_t,
    # and that is said once, by the one final-rate warning
    said = [str(w.message) for w in caught if "target compression" in str(w.message)]
    if (method, granularity) == ("uniform", "channel"):
        row = (out / "prune_curve.csv").read_text().splitlines()[-1].split(",")
        rate = float(row[4])
        assert rate > 0.2 * (1 + RATE_TOLERANCE)
        rates = ", ".join(f"fc{i} {float(r):.5f}" for i, r in enumerate(row[5:], 1))
        assert said == [f"target compression 0.2 missed: uniform ended at global rate "
                        f"{rate:.5f}, outside [0.1, 0.2002], arrival epoch none, at rates {rates}"]
    else:
        assert said == []
    pretrained = load_checkpoint(out / "pretrain.npz").build()
    prune = load_checkpoint(out / "prune.npz")
    assert not [k for k in prune.arrays if k.startswith("quota_")]
    expected = []
    for layer, pruned, rate in zip(pretrained.layers, prune.build().layers,
                                   ALLOCATIONS[method](pretrained, 0.2)):
        start = init_scores(layer.params.values, layer.spec.fan_in, granularity)
        assert np.array_equal(pruned.scores.values, start), layer.spec.name
        per_entry = layer.spec.weight_count // start.size  # weights one mask entry covers
        expected.append(_keep_count(rate, start.size) * per_entry)
    rows = (out / "strategy.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[2]) for row in rows] == expected


def test_cli_arch_mismatch_is_config_error(tmp_path):
    cfg = _write_tiny_dataset_cfg(tmp_path)
    out = tmp_path / "m"
    res = _cli("pretrain", "--config", str(cfg), "--seed", "4", "--out", str(out), *CLI_DATA)
    assert res.returncode == 0
    res = _cli("prune", "--config", str(cfg), "--seed", "4", "--out", str(out),
               "--from", str(out / "pretrain.npz"), *CLI_DATA, "--set", "arch=conv-small")
    assert res.returncode == 2


@pytest.mark.parametrize("command", ["prune", "finetune", "eval"])
def test_cli_checkpoint_input_shape_mismatch_exits_2(tmp_path, capsys, command):
    cfg = _write_tiny_dataset_cfg(tmp_path)  # dataset.size 8
    net = build_network("mlp-small", (1, 16, 16), 2, seed=4)
    save_checkpoint(tmp_path / "c.npz", net, "prune", seed=4, config_hash="x")
    assert cli.main([command, "--config", str(cfg), "--seed", "4", "--out", str(tmp_path),
                     "--from", str(tmp_path / "c.npz"), *CLI_DATA]) == 2
    err = capsys.readouterr().err
    assert "input_shape [1, 16, 16]" in err and "input_shape [1, 8, 8]" in err
    assert "Traceback" not in err


def test_cli_checkpoint_classes_mismatch_exits_2(tmp_path, capsys):
    cfg = _write_tiny_dataset_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace("dataset.classes = 2", "dataset.classes = 3"))
    net = build_network("mlp-small", (1, 8, 8), 2, seed=4)
    save_checkpoint(tmp_path / "final.npz", net, "final", seed=4, config_hash="x")
    assert cli.main(["eval", "--config", str(cfg), "--seed", "4", "--out", str(tmp_path),
                     "--from", str(tmp_path / "final.npz"), *CLI_DATA]) == 2
    err = capsys.readouterr().err
    assert "classes 2" in err and "classes 3" in err and "Traceback" not in err


def test_cli_prune_exits_3_naming_layer_with_non_finite_scores(tmp_path, capsys):
    cfg = _write_tiny_dataset_cfg(tmp_path)
    net = build_network("mlp-small", (1, 8, 8), 2, seed=4)
    # finite weights whose channel sum overflows: fc2's first channel score is inf / inf
    net.layers[1].params.values[0, :2] = np.finfo(np.float64).max
    save_checkpoint(tmp_path / "pretrain.npz", net, "pretrain", seed=4, config_hash="x")
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["prune", "--config", str(cfg), "--seed", "4", "--out", str(tmp_path),
                         "--from", str(tmp_path / "pretrain.npz"),
                         "--set", "compression.granularity=channel", *CLI_DATA])
    assert code == 3
    err = capsys.readouterr().err
    assert "fc2: scores or quota not finite" in err and "Traceback" not in err


def _blow_up_flags(tmp_path):
    """Flags of a one-epoch-per-stage mlp-small run; a stage trained at lr 1e300 ends with
    finite weights near 1e299, whose logits overflow."""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("arch = mlp-small\ndataset.n = 20\ndataset.size = 8\nbatch_size = 16\n")
    return ["--config", str(cfg), "--seed", "1",
            *_sets("stages.pretrain_epochs=1", "stages.prune_epochs=1",
                   "stages.finetune_epochs=1", "attack.iters=2", "compression.k_t=0.5",
                   "compression.k_init=0.9")]


def test_cli_pretrain_exits_3_before_saving_weights_that_overflow_the_logits(tmp_path, capsys):
    out = tmp_path / "pre"
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["pretrain", *_blow_up_flags(tmp_path), "--out", str(out),
                         *_sets("opt.pretrain.lr=1e300")]) == 3
    err = capsys.readouterr().err
    assert "error: pretrain: trained weights not finite or can overflow the logits" in err
    assert "Traceback" not in err and not (out / "pretrain.npz").exists()


def test_finetune_stops_on_a_non_finite_weight_its_mask_removes(tmp_path):
    # theta * mask is NaN where theta is, so a masked-out NaN still poisons the logits
    cfg = tiny_cfg(epochs=(0, 1, 0))
    train, _ = ingest(cfg.dataset, cfg.seed)
    net = build_network(cfg.arch, (1, 8, 8), 2, seed=cfg.seed)
    layer = net.layers[2]
    layer.params.values[0, 0] = np.nan
    mask = np.ones(layer.spec.weight_shape)
    mask[0, 0] = 0.0
    layer.set_mask(mask)
    with pytest.raises(DivergenceError, match="finetune: trained weights not finite"):
        stage_finetune(cfg, net, train, tmp_path)
    assert not (tmp_path / "final.npz").exists()


def test_cli_run_and_eval_exit_3_when_the_network_blows_up(tmp_path, capsys):
    # One finetune step at lr 1e300 leaves finite weights (max |theta| ~ 3e299) whose
    # logits overflow to NaN: run stops at finetune before saving them, and eval of such
    # weights stops on the natural logits before any attack scores them.
    flags = _blow_up_flags(tmp_path)
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # prune stops short of k_t
        assert cli.main(["run", *flags, "--out", str(tmp_path / "run"),
                         *_sets("opt.finetune.lr=1e300")]) == 3
        run_err = capsys.readouterr().err
        assert not (tmp_path / "run" / "final.npz").exists()
        net = load_checkpoint(tmp_path / "run" / "prune.npz").build()
        for layer in net.layers:
            layer.params.values *= 3e299 / np.abs(layer.params.values).max()
        save_checkpoint(tmp_path / "blown.npz", net, "final", seed=1, config_hash="x")
        assert cli.main(["eval", *flags, "--out", str(tmp_path / "eval"),
                         "--from", str(tmp_path / "blown.npz")]) == 3
    eval_err = capsys.readouterr().err
    assert "error: finetune: trained weights not finite or can overflow the logits" in run_err
    assert "error: evaluation: natural logits not finite" in eval_err
    assert "Traceback" not in run_err + eval_err


UNATTACKED = [MetricRow("natural", 95.0, 0.0, 0), MetricRow("pgd", 80.0, 8 / 255, 3)]


def _reports_unattacked(outdir, monkeypatch, cfg, net):
    """write_reports with evaluate stubbed to return UNATTACKED: the reports run no attack."""
    monkeypatch.setattr("robustprune.pipeline.evaluate", lambda *args: UNATTACKED)
    return write_reports(outdir, cfg, net, SimpleNamespace(inputs=None, labels=None))


def test_strategy_and_summary_count_kept_weights_as_count_preserved(tmp_path, monkeypatch):
    """An unmasked weight that is exactly zero is not kept, in strategy.csv as in
    summary.csv's global_rate and count_preserved."""
    cfg = tiny_cfg()
    net = build_network(cfg.arch, (1, 8, 8), 2, seed=cfg.seed)
    init_pruning_state(net, cfg.compression)
    layer = net.layers[1]
    layer.params.values[np.unravel_index(np.argmax(layer.mask), layer.mask.shape)] = 0.0
    _reports_unattacked(tmp_path, monkeypatch, cfg, net)
    total, per_layer = count_preserved(net)
    assert per_layer[1] == int(layer.mask.sum()) - 1
    rows = [line.split(",") for line in (tmp_path / "strategy.csv").read_text().splitlines()[1:]]
    assert [int(r[2]) for r in rows] == per_layer
    assert [r[1] for r in rows] == [f"{k / l.spec.weight_count:.10f}"
                                    for k, l in zip(per_layer, net.layers)]
    summary = dict(line.split(",") for line in (tmp_path / "summary.csv").read_text().splitlines())
    assert summary["global_rate"] == f"{total / net.total_params:.8f}"


@pytest.mark.parametrize("fgsm, warns", [(70.0, True), (80.0, False), (90.0, False)])
def test_reports_warn_when_fgsm_reads_below_pgd(tmp_path, monkeypatch, fgsm, warns):
    rows = [MetricRow("natural", 95.0, 0.0, 0), MetricRow("pgd", 80.0, 8 / 255, 3),
            MetricRow("fgsm", fgsm, 8 / 255, 1)]
    monkeypatch.setattr("robustprune.pipeline.evaluate", lambda *args: rows)
    cfg = tiny_cfg()
    _, test = ingest(cfg.dataset, cfg.seed)
    net = build_network(cfg.arch, (1, 8, 8), 2, seed=cfg.seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert write_reports(tmp_path, cfg, net, test) == rows
    said = [str(w.message) for w in caught]
    assert said == (["fgsm reads 70.00% against pgd's 80.00%: the pgd row is not the worst "
                     "case"] if warns else [])
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["natural", "pgd", "fgsm"]


def _histogram_totals(path) -> dict[str, int]:
    totals = {}
    for line in path.read_text().splitlines()[1:]:
        layer, _, _, count = line.rsplit(",", 3)
        totals[layer] = totals.get(layer, 0) + int(count)
    return totals


def test_histogram_counts_match_preserved(tiny_run):
    _, out, _ = tiny_run
    net = load_checkpoint(out / "final.npz").build()
    totals = _histogram_totals(out / "histograms.csv")
    _, per_layer = count_preserved(net)
    for layer, count in zip(net.layers, per_layer):
        assert totals.get(layer.spec.name, 0) == count


def test_run_reports_agree_on_the_kept_weights(tiny_run):
    """histograms.csv sums to strategy.csv's kept counts, and those to summary.csv's rates."""
    _, out, _ = tiny_run
    net = load_checkpoint(out / "final.npz").build()
    totals = _histogram_totals(out / "histograms.csv")
    strategy = [line.split(",") for line in (out / "strategy.csv").read_text().splitlines()[1:]]
    assert [r[0] for r in strategy] == [l.spec.name for l in net.layers]
    assert all(totals.get(r[0], 0) == int(r[2]) for r in strategy)
    summary = dict(line.split(",") for line in (out / "summary.csv").read_text().splitlines())
    kept = sum(int(r[2]) for r in strategy)
    assert 0 < kept == round(float(summary["global_rate"]) * net.total_params)
    dense, _ = flops(net, [np.ones(l.spec.weight_shape) for l in net.layers])
    assert sum(float(r[3]) for r in strategy) == pytest.approx(
        float(summary["flops_rate"]) * dense, rel=1e-7)


def test_reports_count_the_kept_weights_once(tmp_path, monkeypatch):
    calls = {"count_preserved": 0, "flops": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in (("count_preserved", count_preserved), ("flops", flops)):
        wrapper = counted(name, fn)
        for module in [m for n, m in sys.modules.items() if n.startswith("robustprune")]:
            if getattr(module, name, None) is fn:  # every module that imported it by name
                monkeypatch.setattr(module, name, wrapper)
    cfg = tiny_cfg()
    net = build_network(cfg.arch, (1, 8, 8), 2, seed=cfg.seed)
    _reports_unattacked(tmp_path, monkeypatch, cfg, net)
    assert calls == {"count_preserved": 1, "flops": 2}
    assert all((tmp_path / name).exists()
               for name in ("metrics.csv", "strategy.csv", "summary.csv", "histograms.csv"))


def test_cli_strategy_reports_run_flops_for_channel_masks(tmp_path):
    cfg = _write_tiny_dataset_cfg(tmp_path)
    out = tmp_path / "chan"
    argv = ["--config", str(cfg), "--seed", "5",
            *_sets("arch=conv-small", "compression.granularity=channel", "compression.k_t=0.3",
                   "compression.k_init=0.5", "stages.pretrain_epochs=1",
                   "stages.prune_epochs=1", "stages.finetune_epochs=0", "attack.iters=1",
                   "batch_size=64")]
    assert cli.main(["run", *argv, "--out", str(out)]) == 0
    assert cli.main(["eval", *argv, "--out", str(out / "eval"),
                     "--from", str(out / "final.npz")]) == 0

    def flops_column(path):
        return [line.split(",")[3] for line in path.read_text().splitlines()]

    assert flops_column(out / "strategy.csv") == flops_column(out / "eval" / "strategy.csv")


@pytest.mark.parametrize("command, flags", [
    ("run", ["--set", "method=lamp"]),
    ("sweep", ["--methods", "harp", "lamp"]),
], ids=["run", "sweep"])
def test_cli_allocation_beyond_the_budget_exits_2_before_writing(tmp_path, capsys, command,
                                                                 flags):
    out = tmp_path / "out"
    # k_t 1e-4 keeps 1 of 6,208 weights: lamp cannot give each of the three layers one
    assert cli.main([command, "--config", str(_write_tiny_dataset_cfg(tmp_path)), "--seed", "4",
                     "--out", str(out), *CLI_DATA, "--set", "compression.k_t=0.0001",
                     *flags]) == 2
    err = capsys.readouterr().err
    assert "method lamp at compression.k_t 0.0001" in err
    assert "cannot give every layer one weight" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_learned_rates_starting_below_target_exit_2(tmp_path, capsys):
    # the default k_init 0.1 is below k_t 0.2: a fixed allocation never reads it
    flags = ["--config", str(_write_tiny_dataset_cfg(tmp_path)), "--seed", "4",
             *_sets("arch=mlp-small", "stages.pretrain_epochs=1", "stages.prune_epochs=1",
                    "stages.finetune_epochs=0", "attack.iters=1", "compression.k_t=0.2")]
    assert cli.main(["run", *flags, "--out", str(tmp_path / "harp")]) == 2
    err = capsys.readouterr().err
    assert "method harp learns its rates from compression.k_init 0.1, which must be >= " \
           "compression.k_t 0.2" in err and "Traceback" not in err
    assert not (tmp_path / "harp").exists()
    assert cli.main(["run", *flags, "--out", str(tmp_path / "uniform"),
                     *_sets("method=uniform")]) == 0


STAGED_ARTIFACTS = ("metrics.csv", "strategy.csv", "summary.csv", "histograms.csv",
                    "prune_curve.csv", "pretrain.npz", "prune.npz", "final.npz")


@pytest.mark.parametrize("flags", [
    _sets("arch=mlp-small"),
    _sets("arch=resnet-tiny", "compression.granularity=channel", "compression.budget=flops",
          "compression.k_t=0.5", "compression.k_init=0.9"),
], ids=["mlp-small-weight", "resnet-tiny-channel-flops"])
def test_cli_staged_run_writes_what_run_writes(tmp_path, flags):
    argv = ["--config", str(_write_tiny_dataset_cfg(tmp_path)), "--seed", "6", *CLI_DATA, *flags]
    run, staged = tmp_path / "run", tmp_path / "staged"
    assert cli.main(["run", *argv, "--out", str(run)]) == 0
    assert cli.main(["pretrain", *argv, "--out", str(staged)]) == 0
    for command, ckpt in (("prune", "pretrain"), ("finetune", "prune"), ("eval", "final")):
        assert cli.main([command, *argv, "--out", str(staged),
                         "--from", str(staged / f"{ckpt}.npz")]) == 0
    for name in STAGED_ARTIFACTS:
        assert (staged / name).read_bytes() == (run / name).read_bytes(), name


def test_sweep_cell_writes_what_run_all_writes(tmp_path, tiny_run):
    cfg, out, _ = tiny_run
    sweep(cfg, [cfg.compression.k_t], [cfg.method], tmp_path)
    cell = tmp_path / f"{cfg.method}_kt{cfg.compression.k_t:g}"
    assert not (cell / "pretrain.npz").exists()
    assert (tmp_path / "pretrain.npz").read_bytes() == (out / "pretrain.npz").read_bytes()
    for name in STAGED_ARTIFACTS:
        if name != "pretrain.npz":
            assert (cell / name).read_bytes() == (out / name).read_bytes(), name


@pytest.mark.parametrize("line, flags", [
    ("dataset.test_fraction = 0.0", []),
    ("dataset.test_fraction = 1.0", []),
    ("dataset.n = 0", []),
    ("dataset.noise = -1", []),
    ("dataset.size = 6", ["--set", "arch=conv-small"]),
], ids=["test-fraction-0", "test-fraction-1", "n-0", "negative-noise", "conv-small-size-6"])
def test_cli_bad_dataset_exits_2_before_training(tmp_path, capsys, line, flags):
    cfg = _write_tiny_dataset_cfg(tmp_path)
    cfg.write_text(cfg.read_text() + line + "\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--seed", "3", "--out", str(out),
                     *CLI_DATA, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list(tmp_path.rglob("*.npz"))


def test_cli_sweep_checks_every_cell_before_training(tmp_path, capsys):
    cfg = _write_tiny_dataset_cfg(tmp_path)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(cfg), "--seed", "3", "--out", str(out),
                     *CLI_DATA, "--k-values", "0.5", "7", "--methods", "harp"]) == 2
    assert "target rate must be in (0, 1], got 7.0" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_takes_seed_from_config(tmp_path):
    cfg = _write_tiny_dataset_cfg(tmp_path)
    seeded = tmp_path / "seeded.cfg"
    seeded.write_text(cfg.read_text() + "seed = 3\n")
    assert cli.main(["run", "--config", str(seeded), "--out", str(tmp_path / "a"),
                     *CLI_DATA]) == 0
    assert cli.main(["run", "--config", str(cfg), "--seed", "3", "--out", str(tmp_path / "b"),
                     *CLI_DATA]) == 0
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
        tmp_path / "b" / "metrics.csv").read_bytes()


@pytest.mark.parametrize("flags", [
    ["--k-values", "0.1", "0.1000001"],
    ["--k-values", "0.5", "0.5"],
    ["--k-values", "0.5", "--methods", "harp", "harp"],
    ["--k-values", "1e-07", "2e-07"],
], ids=["same-directory", "repeated-k", "repeated-method", "same-csv-k"])
def test_cli_sweep_cells_that_collide_exit_2_before_training(tmp_path, capsys, flags):
    # a cell directory is f"{method}_kt{k_t:g}" and sweep.csv prints k_t as :.6f
    cfg = _write_tiny_dataset_cfg(tmp_path)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(cfg), "--seed", "3", "--out", str(out),
                     *CLI_DATA, *flags]) == 2
    err = capsys.readouterr().err
    assert "would both write" in err and "Traceback" not in err
    assert not (out / "pretrain.npz").exists()


def test_cli_sweep_defaults_to_the_configs_target(tmp_path):
    cfg = _write_tiny_dataset_cfg(tmp_path)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(cfg), "--seed", "3", "--out", str(out),
                     *CLI_DATA, "--methods", "harp"]) == 0
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["harp_kt0.2"]


# --- outside input: every fault exits 2 with a message, never a traceback ---

# a run of well under a second; the lines under test are written over it
EDGE_BASE = {"seed": "3", "arch": "mlp-small", "dataset.n": "40", "dataset.size": "8",
             "stages.pretrain_epochs": "1", "stages.prune_epochs": "1",
             "stages.finetune_epochs": "0", "attack.iters": "1"}


def _run_with(tmp, lines, flags=()):
    cfg = tmp / "edge.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**EDGE_BASE, **lines}.items()))
    return cli.main(["run", "--config", str(cfg), "--out", str(tmp / "out"), *flags])


def _csv_with(row, col, cell):
    """Config lines for a CSV dataset of 40 8x8 images whose cell (row, col) is ``cell``, or
    whose row ``row`` is cut short at ``col`` when ``cell`` is None."""
    def make(tmp):
        rng = np.random.default_rng(4)
        rows = [[str(i % 2), *map(str, rng.integers(0, 256, size=64))] for i in range(40)]
        if cell is None:
            del rows[row][col:]
        else:
            rows[row][col] = cell
        path = tmp / "rows.csv"
        path.write_bytes("".join(",".join(r) + "\n" for r in rows).encode("latin-1"))
        return {"dataset.kind": "csv", "dataset.path": path}
    return make


def _idx_claiming_2_96_pixels(tmp):
    images, labels = tmp / "images.idx", tmp / "labels.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, *[0xFFFFFFFF] * 3) + bytes(64))
    labels.write_bytes(struct.pack(">II", 0x801, 1) + bytes(1))
    return {"dataset.kind": "idx", "dataset.images": images, "dataset.labels": labels}


# id -> (config lines, or a function of the directory that writes data files and returns
# the lines; flags; what the message names)
OUTSIDE_INPUT_FAULTS = {
    "bool-read-as-no": ({"attack.random_init": "no"}, [], "attack.random_init"),
    "fractional-epochs": ({"stages.pretrain_epochs": "1.7"}, [], "stages.pretrain_epochs"),
    "fractional-batch": ({"batch_size": "16.9"}, [], "batch_size"),
    "numeric-file-name": ({"dataset.kind": "csv", "dataset.path": "2024"}, [], "2024"),
    "nan-epsilon-line": ({"attack.epsilon": "nan"}, [], "attack.epsilon"),
    "nan-epsilon-flag": ({}, ["--set", "attack.epsilon=nan"], "attack.epsilon"),
    "nan-beta": ({"loss.beta": "nan"}, [], "loss.beta"),
    "size-0-mlp": ({"dataset.size": "0"}, [], "dataset.size"),
    "size-0-conv": ({"dataset.size": "0", "arch": "conv-small"}, [], "dataset.size"),
    "size-negative": ({"dataset.size": "-4"}, [], "dataset.size"),
    "seed-flag-negative": ({}, ["--seed", "-1"], "seed"),
    "seed-line-negative": ({"seed": "-3"}, [], "seed"),
    "csv-without-path": ({"dataset.kind": "csv"}, [], "dataset.path"),
    "idx-without-labels": ({"dataset.kind": "idx", "dataset.images": "images.idx"}, [],
                           "dataset.labels"),
    "csv-label-1e400": (_csv_with(5, 0, "1e400"), [], "row 6"),
    "csv-label-nan": (_csv_with(5, 0, "nan"), [], "row 6"),
    "csv-pixel-nan": (_csv_with(5, 3, "nan"), [], "row 6"),
    "csv-rows-of-two-sizes": (_csv_with(5, 17, None), [], "row 6"),  # 4x4 among 8x8
    "csv-bytes-not-text": (_csv_with(5, 3, "\xff"), [], "row 6"),
    "idx-claims-2-96-pixels": (_idx_claiming_2_96_pixels, [], "images.idx"),
    # sample counts whose arrays exceed any address space, so nothing is ever filled
    "n-beyond-c-long": ({"dataset.n": "1e30"}, [], "dataset.n"),
    "n-beyond-memory": ({"dataset.n": str(10**15)}, [], "dataset.n"),
    # a byte count past the largest float: its message must not convert it to one
    "size-1e160-harp": ({"dataset.n": "40", "dataset.size": "1" + "0" * 160}, [],
                        "dataset.size"),
    "k-init-1": ({"compression.k_init": "1"}, [], "compression.k_init"),
    # a fixed allocation checks its feasibility on a whole network: weights beyond any
    # address space
    "size-beyond-memory-uniform": ({"method": "uniform", "dataset.size": "1000000"}, [],
                                   "dataset.size"),
    # 2^64 inputs to fc1: a count past int64, which must not wrap around to 0
    "size-2-32-erk": ({"method": "erk", "dataset.size": str(2**32)}, [], "dataset.size"),
    # each range error names its key
    "k-t-7": ({"compression.k_t": "7"}, [], "compression.k_t"),
    "gamma-step-0": ({"compression.gamma_step": "0"}, [], "compression.gamma_step"),
    "flops-budget-by-weight": ({"compression.budget": "flops"}, [], "compression.budget"),
    "prune-epochs-0": ({"stages.prune_epochs": "0"}, [], "stages.prune_epochs"),
    "pretrain-epochs-negative": ({"stages.pretrain_epochs": "-1"}, [], "stages.pretrain_epochs"),
    "finetune-epochs-negative": ({"stages.finetune_epochs": "-1"}, [], "stages.finetune_epochs"),
    "epsilon-negative": ({"attack.epsilon": "-0.1"}, [], "attack.epsilon"),
    "step-size-above-epsilon": ({"attack.step_size": "1"}, [], "attack.step_size"),
    "iters-0": ({"attack.iters": "0"}, [], "attack.iters"),
    "trades-beta-negative": ({"loss.kind": "trades", "loss.beta": "-1"}, [], "loss.beta"),
    "classes-1": ({"dataset.classes": "1"}, [], "dataset.classes"),
    "noise-negative": ({"dataset.noise": "-1"}, [], "dataset.noise"),
    "kind-unknown": ({"dataset.kind": "png"}, [], "dataset.kind"),
    **{f"opt-{name}-{key}": ({f"opt.{name}.{key}": value}, [], f"opt.{name}.{key}")
       for name in ("pretrain", "finetune", "scores", "rates")
       for key, value in (("lr", "-1"), ("momentum", "1"), ("weight_decay", "-1"))},
}


@pytest.mark.parametrize("lines, flags, named", OUTSIDE_INPUT_FAULTS.values(),
                         ids=OUTSIDE_INPUT_FAULTS.keys())
def test_cli_outside_input_fault_exits_2_naming_it(tmp_path, monkeypatch, capsys, lines, flags,
                                                   named):
    monkeypatch.chdir(tmp_path)  # relative data-file names resolve here
    if callable(lines):
        lines = lines(tmp_path)
    assert _run_with(tmp_path, lines, flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err


def test_data_file_named_like_a_number_loads(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rows = [",".join(map(str, [i % 2, *range(64)])) for i in range(10)]
    (tmp_path / "2024").write_text("\n".join(rows) + "\n")
    (tmp_path / "run.cfg").write_text("seed = 1\ndataset.kind = csv\ndataset.path = 2024\n"
                                      "dataset.size = 8\n")
    cfg = config_from_dict(parse_config_file(tmp_path / "run.cfg"))
    train, test = ingest(cfg.dataset, cfg.seed)
    assert len(train) + len(test) == 10


def _config_keys(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _config_keys(value, prefix + key + ".")
        else:
            yield prefix + key


# every number at most 64: dataset.size squared times fc1's width sets the memory a run takes
EDGE_VALUES = ["nan", "inf", "-inf", "1e400", "-1", "0", "1", "1.7", "64", "true", "no", "", "x"]


@given(st.sampled_from(list(_config_keys(RunConfig(seed=0).to_dict()))),
       st.sampled_from(EDGE_VALUES))
@settings(max_examples=30, deadline=None)
def test_cli_run_with_any_key_at_an_edge_value_exits_0_2_or_3(key, value):
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = _run_with(Path(tmp), {key: value})
    assert code in (0, 2, 3), err.getvalue()
    assert (code != 0) == err.getvalue().startswith("error: ")
