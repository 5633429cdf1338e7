"""Checkpoint save/load bit-exactness."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _doctored(tmp_path, change, arch="mlp-small"):
    """A valid prune checkpoint of 8x8 inputs with one array changed, dropped or added."""
    net = build_network(arch, (1, 8, 8), 2, seed=25)
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
    (_poisoned("mask_0", 0.5), "mask_0 holds values other than 0 and 1"),
], ids=["mask-shape", "weight-shape", "missing-array", "missing-meta", "format-version",
        "nan-weight", "inf-mask", "inf-scores", "nan-quota", "half-mask"])
def test_cli_rejects_malformed_checkpoint(tmp_path, capsys, change, named):
    path = _doctored(tmp_path, change)
    out = tmp_path / "out"
    assert cli.main(["eval", "--seed", "1", "--from", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not out.exists()


EVAL_ARGV = ["eval", "--seed", "1", "--set", "arch=mlp-small", "--set", "attack.iters=1"]


def _eval_config(directory: Path) -> Path:
    """A tiny dataset matching _doctored's mlp-small checkpoint (size 8, 2 classes)."""
    path = directory / "tiny.cfg"
    path.write_text("dataset.n = 40\ndataset.size = 8\ndataset.classes = 2\n")
    return path


DROP = object()


def _edited_meta(key, value):
    """A change that sets meta ``key`` to ``value``, or drops it when ``value`` is DROP."""
    def change(arrays):
        meta = json.loads(str(arrays["meta"]))
        if value is DROP:
            meta.pop(key, None)
        else:
            meta[key] = value
        arrays["meta"] = json.dumps(meta)
    return change


def _truncated(path: Path, fraction: float) -> Path:
    data = path.read_bytes()
    return _written(path, data[:int(len(data) * fraction)])


def _written(path: Path, data: bytes) -> Path:
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("make,named", [
    (lambda tmp: _doctored(tmp, _edited_meta("arch", "mlp-huge")), "meta arch"),
    (lambda tmp: _doctored(tmp, _edited_meta("arch", DROP)), "meta arch"),
    (lambda tmp: _doctored(tmp, _edited_meta("classes", "2")), "meta classes"),
    (lambda tmp: _truncated(_doctored(tmp, lambda a: None), 0.5), "doctored.npz"),
    (lambda tmp: _written(tmp / "notes.npz", b"not an npz file\n"), "notes.npz"),
    (lambda tmp: _doctored(tmp, lambda a: a.update(meta="{arch: mlp-small")), "meta"),
    (lambda tmp: _doctored(tmp, lambda a: a.update(theta_0=np.array(["x"]))), "theta_0 holds"),
    (lambda tmp: _doctored(tmp, lambda a: a.update(meta="[1, 2]")), "meta is not a JSON object"),
    (lambda tmp: _doctored(tmp, _edited_meta("input_shape", [1, 6, 6]), "conv-small"),
     "meta input_shape [1, 6, 6]"),
], ids=["unknown-arch", "no-arch", "string-classes", "truncated", "not-npz", "meta-not-json",
        "string-array", "meta-a-list", "conv-input-6x6"])
def test_cli_rejects_unreadable_checkpoint_without_traceback(tmp_path, capsys, make, named):
    path = make(tmp_path)
    assert cli.main([*EVAL_ARGV, "--config", str(_eval_config(tmp_path)), "--from", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# the keys save_checkpoint writes, plus one it does not
META_KEYS = ["format_version", "arch", "input_shape", "classes", "stage", "seed",
             "config_hash", "layers", "extra"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6)


@given(st.one_of(
    st.floats(0.0, 1.0, exclude_max=True).map(lambda f: ("truncate", f)),
    st.tuples(st.sampled_from(META_KEYS), JSON_VALUES | st.just(DROP)).map(
        lambda kv: ("meta", kv))))
@settings(max_examples=60, deadline=None)
def test_cli_eval_on_a_damaged_checkpoint_exits_0_or_2(edit):
    kind, arg = edit
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if kind == "truncate":
            path = _truncated(_doctored(tmp, lambda a: None), arg)
        else:
            path = _doctored(tmp, _edited_meta(*arg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*EVAL_ARGV, "--config", str(_eval_config(tmp)), "--from", str(path),
                             "--out", str(tmp / "out")])
        assert code in (0, 2), err.getvalue()
        assert (code == 2) == err.getvalue().startswith("error: ")
