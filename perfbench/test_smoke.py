"""Smoke test of the benchmark itself: tiny sizes, every workload, both modes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOAD_NAMES as WORKLOADS  # noqa: E402  (also those BENCHMARK.json leaves out)


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT,
              script: Path = ROOT / "perfbench" / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def assert_metrics(metrics: dict, spec: list[dict]) -> None:
    assert list(metrics) == [m["name"] for m in spec]
    for m in spec:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_printed_with_unit(workload):
    assert_metrics(result_of(run_bench(workload, 1, 0))["metrics"], SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_passes_self_checks(workload):
    assert_metrics(result_of(run_bench(workload, 1, 1))["metrics"], SPEC["per_layer"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_changes_inputs_not_metric_names(workload, tmp_path):
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
        from robustprune import config, data
    finally:
        del sys.path[:2]
    inputs = []
    for seed in (1, 2):
        d = tmp_path / str(seed)
        d.mkdir()
        _, cfg_path = workloads.build_inputs(workload, seed, d, tiny=True)
        cfg = config.config_from_dict(config.parse_config_file(cfg_path))
        inputs.append(data.ingest(cfg.dataset, cfg.seed)[0].inputs)
    assert inputs[0].shape == inputs[1].shape
    assert not np.array_equal(inputs[0], inputs[1])
    names = [set(result_of(run_bench(workload, s, 0))["metrics"]) for s in (1, 2)]
    assert names[0] == names[1]


def test_fails_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 1, 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
