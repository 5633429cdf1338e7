"""Checkpoint save/load bit-exactness."""

import json

import numpy as np
import pytest

import robustprune.tensor as T
from robustprune import cli
from robustprune.checkpoint import load_checkpoint, save_checkpoint
from robustprune.network import build_network
from robustprune.pruning import CompressionConfig
from robustprune.pipeline import init_pruning_state
from robustprune.tensor import Tensor


def test_checkpoint_roundtrip_forward_bit_exact(tmp_path):
    net = build_network("conv-small", (1, 16, 16), 2, seed=21)
    init_pruning_state(net, CompressionConfig(k_t=0.1))
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(0, 1, size=(4, 1, 16, 16)))
    with T.no_grad():
        before = net.forward(x).values

    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, net, "prune", seed=21, config_hash="abc123")
    ckpt = load_checkpoint(path)
    rebuilt = ckpt.build()
    with T.no_grad():
        after = rebuilt.forward(x).values
    assert np.array_equal(before, after)
    assert ckpt.meta["stage"] == "prune"
    assert ckpt.meta["seed"] == 21
    assert ckpt.meta["config_hash"] == "abc123"


def test_checkpoint_preserves_pruning_state(tmp_path):
    net = build_network("resnet-tiny", (1, 16, 16), 2, seed=22)
    init_pruning_state(net, CompressionConfig(k_t=0.5, granularity="channel", budget="flops"))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, net, "prune", seed=22, config_hash="x")
    rebuilt = load_checkpoint(path).build()
    for a, b in zip(net.layers, rebuilt.layers):
        assert np.array_equal(a.mask, b.mask)
        assert np.array_equal(a.scores.values, b.scores.values)
        assert np.array_equal(a.quota.values, b.quota.values)
        assert np.array_equal(a.params.values, b.params.values)


def test_checkpoint_with_legacy_velocity_arrays_loads(tmp_path):
    # earlier prune checkpoints also carried optimizer velocities as vel_<name>_<i>
    net = build_network("mlp-small", (1, 8, 8), 2, seed=23)
    init_pruning_state(net, CompressionConfig(k_t=0.5))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, net, "prune", seed=23, config_hash="y")
    with np.load(path) as bundle:
        arrays = {k: bundle[k] for k in bundle.files}
    assert not any(k.startswith("vel_") for k in arrays)
    for i, layer in enumerate(net.layers):
        arrays[f"vel_scores_{i}"] = np.ones(layer.spec.weight_shape)
        arrays[f"vel_rates_{i}"] = np.ones(())
    legacy = tmp_path / "legacy.npz"
    np.savez(legacy, **arrays)
    rebuilt = load_checkpoint(legacy).build()
    x = Tensor(np.random.default_rng(3).uniform(0, 1, size=(4, 1, 8, 8)))
    with T.no_grad():
        assert np.array_equal(net.forward(x).values, rebuilt.forward(x).values)
    for a, b in zip(net.layers, rebuilt.layers):
        assert np.array_equal(a.scores.values, b.scores.values)
        assert np.array_equal(a.mask, b.mask)


def _doctored(tmp_path, change):
    """A valid mlp-small prune checkpoint with one array changed, dropped or added."""
    net = build_network("mlp-small", (1, 8, 8), 2, seed=25)
    init_pruning_state(net, CompressionConfig(k_t=0.5))
    path = tmp_path / "good.npz"
    save_checkpoint(path, net, "prune", seed=25, config_hash="w")
    with np.load(path) as bundle:
        arrays = {k: bundle[k] for k in bundle.files}
    change(arrays)
    doctored = tmp_path / "doctored.npz"
    np.savez(doctored, **arrays)
    return doctored


def _poisoned(key, value):
    """A change that writes ``value`` into the first entry of array ``key``."""
    def change(arrays):
        arrays[key] = arrays[key].copy()
        arrays[key].flat[0] = value
    return change


@pytest.mark.parametrize("change,named", [
    (lambda a: a.update(mask_1=np.ones(7)), "mask_1"),
    (lambda a: a.update(theta_0=np.ones((3, 64))), "theta_0"),
    (lambda a: a.pop("mask_2"), "mask_2"),
    (lambda a: a.pop("meta"), "meta"),
    (lambda a: a.update(meta=json.dumps({**json.loads(str(a["meta"])), "format_version": 99})),
     "format_version"),
    (_poisoned("theta_1", np.nan), "theta_1 is not finite"),
    (_poisoned("mask_0", np.inf), "mask_0 is not finite"),
    (_poisoned("scores_2", -np.inf), "scores_2 is not finite"),
    (_poisoned("quota_1", np.nan), "quota_1 is not finite"),
], ids=["mask-shape", "weight-shape", "missing-array", "missing-meta", "format-version",
        "nan-weight", "inf-mask", "inf-scores", "nan-quota"])
def test_cli_rejects_malformed_checkpoint(tmp_path, capsys, change, named):
    path = _doctored(tmp_path, change)
    assert cli.main(["eval", "--seed", "1", "--from", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
