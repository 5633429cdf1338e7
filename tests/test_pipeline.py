"""Stage contracts, composability, determinism, and the CLI surface."""

import argparse
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import robustprune.tensor as T
from robustprune import cli
from robustprune.adversary import AttackConfig, RobustLossConfig, evaluate
from robustprune.checkpoint import load_checkpoint, save_checkpoint
from robustprune.config import (
    METHODS,
    ConfigError,
    RunConfig,
    config_from_dict,
    parse_config_file,
)
from robustprune.data import ingest
from robustprune.network import build_network, count_preserved
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
)
from robustprune.pruning import (RATE_TOLERANCE, CompressionConfig, init_rate, init_scores_weight,
                                 prune_epoch)
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
    """Scores stay at their initial values exactly when the method does not learn scores;
    quotas stay at the start rate (k_t if rates are fixed) exactly when it does not learn rates."""
    learns_rates, learns_scores = METHODS[method]
    cfg = tiny_cfg(method=method, epochs=(1, 2, 0), k_t=0.2)
    comp = cfg.compression
    train, _ = ingest(cfg.dataset, cfg.seed)
    net = stage_pretrain(cfg, train)
    initial = [init_scores_weight(l.params.values, l.spec.fan_in) for l in net.layers]
    start = init_rate(comp.k_init if learns_rates else comp.k_t, comp.k_min)
    net, _ = stage_prune(cfg, net, train)
    for scores, layer in zip(initial, net.layers):
        assert np.array_equal(layer.scores.values, scores) != learns_scores, layer.spec.name
        assert (float(layer.quota.values) == start) != learns_rates, layer.spec.name


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


@pytest.mark.parametrize("excess,warns", [(0.5 * RATE_TOLERANCE, False),
                                          (2 * RATE_TOLERANCE, True)])
def test_unreached_target_warns_only_beyond_rate_tolerance(monkeypatch, excess, warns):
    # Never arrived (budget loss stays above 0): the final rate alone decides the warning.
    cfg = tiny_cfg(epochs=(0, 2, 0))
    final_rate = cfg.compression.k_t * (1 + excess)
    record = {"robust_loss": 0.5, "hw_loss": 1e-9, "global_rate": final_rate,
              "layer_rates": [final_rate] * 3}
    monkeypatch.setattr("robustprune.pipeline.prune_epoch", lambda *args: record)
    train, _ = ingest(cfg.dataset, cfg.seed)
    net = stage_pretrain(cfg, train)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, history = stage_prune(cfg, net, train)
    assert history.arrival_epoch is None and history.final_rate == final_rate
    assert any("not reached" in str(w.message) for w in caught) == warns


def test_channel_prune_ties_shortcut_quota():
    cfg = tiny_cfg(arch="resnet-tiny", epochs=(1, 2, 0), k_t=0.5)
    cfg.dataset["size"] = 8
    cfg.compression = CompressionConfig(k_t=0.5, k_init=0.99, gamma_step=0.02,
                                        granularity="channel", budget="flops")
    train, _ = ingest(cfg.dataset, cfg.seed)
    net = stage_pretrain(cfg, train)
    net, history = stage_prune(cfg, net, train)
    for input_idx, shortcut_idx in net.residual_links:
        assert net.layers[input_idx].quota.values == net.layers[shortcut_idx].quota.values
    for layer in net.layers:
        assert layer.mask.shape == (layer.spec.c_i,)


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
    tree = parse_config_file(path)
    assert tree["arch"] == "mlp-small"
    assert tree["compression"]["k_t"] == 0.01
    assert tree["attack"]["random_init"] is True
    cfg = config_from_dict(tree)
    assert cfg.seed == 5 and cfg.compression.k_t == 0.01


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
    cfg = config_from_dict({"seed": "2", "batch_size": 32.0, "compression": {"k_init": 1},
                            "dataset": {"noise": 0}})
    assert cfg.seed == 2 and type(cfg.batch_size) is int
    assert type(cfg.compression.k_init) is float and type(cfg.dataset["noise"]) is float
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


def test_cli_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "typo.cfg"
    path.write_text("compression.kt = 0.5\n")
    assert cli.main(["run", "--config", str(path), "--seed", "1", "--out", str(tmp_path)]) == 2
    assert "compression.kt" in capsys.readouterr().err


# flag -> (config key, a non-default value), written out independently of cli.OVERRIDES
CLI_FLAGS = {
    "--arch": ("arch", "resnet-tiny"),
    "--method": ("method", "rates-only"),
    "--k-t": ("compression.k_t", 0.3),
    "--k-init": ("compression.k_init", 0.5),
    "--gamma-step": ("compression.gamma_step", 0.02),
    "--granularity": ("compression.granularity", "channel"),
    "--budget": ("compression.budget", "flops"),
    "--epochs-pretrain": ("stages.pretrain_epochs", 4),
    "--epochs-prune": ("stages.prune_epochs", 5),
    "--epochs-finetune": ("stages.finetune_epochs", 6),
    "--batch-size": ("batch_size", 16),
    "--epsilon": ("attack.epsilon", 0.05),
    "--attack-step": ("attack.step_size", 0.01),
    "--attack-iters": ("attack.iters", 3),
    "--loss": ("loss.kind", "trades"),
    "--beta": ("loss.beta", 2.5),
}


def test_every_cli_override_flag_sets_its_key():
    assert set(cli.OVERRIDES) == set(CLI_FLAGS)
    parser = argparse.ArgumentParser()
    cli._add_common(parser)
    argv = ["--seed", "1"] + [s for flag, (_, v) in CLI_FLAGS.items() for s in (flag, str(v))]
    tree = cli._build_config(parser.parse_args(argv)).to_dict()
    for flag, (key, value) in CLI_FLAGS.items():
        node = tree
        for part in key.split("."):
            node = node[part]
        assert node == value and type(node) is type(value), flag


# --- CLI ---


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "robustprune.cli", *args],
        capture_output=True, text=True,
    )


CLI_DATA = ["--arch", "mlp-small", "--epochs-pretrain", "1", "--epochs-prune", "2",
            "--epochs-finetune", "1", "--attack-iters", "2", "--k-t", "0.2",
            "--batch-size", "64"]


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
               "--from", str(out / "final.npz"), "--histograms", "--baselines", *CLI_DATA)
    assert res.returncode == 0, res.stderr
    for name in ("metrics.csv", "strategy.csv", "summary.csv", "histograms.csv"):
        assert (out / name).exists(), name
    header = (out / "strategy_compare.csv").read_text().splitlines()[0].split(",")
    assert header[1::2] == [f"{n}_rate" for n in ("harp-learned", "uniform", "erk", "lamp")]


def test_cli_arch_mismatch_is_config_error(tmp_path):
    cfg = _write_tiny_dataset_cfg(tmp_path)
    out = tmp_path / "m"
    res = _cli("pretrain", "--config", str(cfg), "--seed", "4", "--out", str(out), *CLI_DATA)
    assert res.returncode == 0
    res = _cli("prune", "--config", str(cfg), "--seed", "4", "--out", str(out),
               "--from", str(out / "pretrain.npz"), "--arch", "conv-small",
               *[a for a in CLI_DATA if a not in ("--arch", "mlp-small")])
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
                         "--from", str(tmp_path / "pretrain.npz"), "--granularity", "channel",
                         *CLI_DATA])
    assert code == 3
    err = capsys.readouterr().err
    assert "fc2: scores or quota not finite" in err and "Traceback" not in err


def test_histogram_counts_match_preserved(tmp_path, tiny_run):
    from robustprune.pipeline import weight_histograms

    _, out, _ = tiny_run
    net = load_checkpoint(out / "final.npz").build()
    path = tmp_path / "hist.csv"
    weight_histograms(net, path)
    totals = {}
    for line in path.read_text().splitlines()[1:]:
        layer, _, _, count = line.rsplit(",", 3)
        totals[layer] = totals.get(layer, 0) + int(count)
    _, per_layer = count_preserved(net)
    for layer, count in zip(net.layers, per_layer):
        assert totals.get(layer.spec.name, 0) == count


def test_cli_strategy_reports_run_flops_for_channel_masks(tmp_path):
    cfg = _write_tiny_dataset_cfg(tmp_path)
    out = tmp_path / "chan"
    argv = ["--config", str(cfg), "--seed", "5", "--arch", "conv-small",
            "--granularity", "channel", "--k-t", "0.3", "--k-init", "0.5",
            "--epochs-pretrain", "1", "--epochs-prune", "1", "--epochs-finetune", "0",
            "--attack-iters", "1", "--batch-size", "64"]
    assert cli.main(["run", *argv, "--out", str(out)]) == 0
    assert cli.main(["eval", *argv, "--out", str(out / "eval"),
                     "--from", str(out / "final.npz")]) == 0

    def flops_column(path):
        return [line.split(",")[3] for line in path.read_text().splitlines()]

    assert flops_column(out / "strategy.csv") == flops_column(out / "eval" / "strategy.csv")


def test_cli_eval_baselines_beyond_the_budget_exit_2_before_writing(tmp_path, capsys):
    cfg = _write_tiny_dataset_cfg(tmp_path)
    net = build_network("mlp-small", (1, 8, 8), 2, seed=4)
    save_checkpoint(tmp_path / "final.npz", net, "final", seed=4, config_hash="x")
    out = tmp_path / "out"
    # k_t 1e-4 keeps 1 of 6,208 weights: lamp cannot give each of the three layers one
    assert cli.main(["eval", "--config", str(cfg), "--seed", "4", "--out", str(out),
                     "--from", str(tmp_path / "final.npz"), "--baselines", *CLI_DATA,
                     "--k-t", "0.0001"]) == 2
    err = capsys.readouterr().err
    assert "cannot give every layer one weight" in err and "Traceback" not in err
    assert not list(out.iterdir())


STAGED_ARTIFACTS = ("metrics.csv", "strategy.csv", "summary.csv", "prune_curve.csv",
                    "pretrain.npz", "prune.npz", "final.npz")


@pytest.mark.parametrize("flags", [
    ["--arch", "mlp-small"],
    ["--arch", "resnet-tiny", "--granularity", "channel", "--budget", "flops", "--k-t", "0.5"],
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
    ("dataset.size = 6", ["--arch", "conv-small"]),
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
