"""Tests of the benchmark itself: wrappers fire, tracing changes no output.

    python3 -m pytest perfbench -q      (about a minute)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
LAYERS = tracer.LAYERS


def _worker(workload: str, trace: int, cache_dir: Path) -> dict:
    output = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, "--seed", "7",
         "--trace", str(trace), "--cache-dir", str(cache_dir)],
        cwd=str(ROOT), env={"PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout.splitlines()
    assert output[0] == "READY"
    return json.loads(output[-1])


def _heavy_layers(workload: str):
    return [layer for layer, spec in LAYERS.items()
            if spec.heavy == workload]


def test_benchmark_json_lists_every_metric_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: {"unit": m["unit"], "better": m["better"]}
            for m in spec["per_layer"]} == tracer.per_layer_metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_missing_extra_and_wrong_answers_fail():
    expected = {"a": "1", "b": "2", "c": "3"}
    keys = ["a", "b", "c", "c"]
    answers = [["a", "1"], ["b", "2"], ["c", "3"], ["c", "3"]]
    assert run.count_failed(keys, answers, expected) == 0
    assert run.count_failed(keys, answers[:2], expected) == 2   # dropped
    assert run.count_failed(keys, answers + [["a", "1"]], expected) == 1
    assert run.count_failed(keys, [["a", "9"]] + answers[1:], expected) == 1
    assert run.count_failed(keys, [], expected) == len(keys)


@pytest.mark.parametrize("workload", ["figure_sweep", "trace_stream"])
def test_traced_worker_fires_wrappers_and_keeps_outputs(workload, tmp_path):
    plain = _worker(workload, 0, tmp_path / "plain")
    traced = _worker(workload, 1, tmp_path / "traced")

    assert traced["digests"] == plain["digests"]
    assert traced["hybrid_overhead_pct"] == plain["hybrid_overhead_pct"]
    layers = traced["layers"]
    for layer in _heavy_layers(workload):
        assert layers[f"{layer}.calls"] > 0, layer
    assert layers["noise.calls"] == 0
    # Every layer but set-up plus the remainder add up to the wall time.
    attributed = sum(layers[f"{layer}.self_s"] for layer in LAYERS
                     if layer != "setup")
    assert attributed + layers["unattributed.s"] == \
        pytest.approx(layers["traced.wall_s"])


def test_daemon_mix_traced_run_checks_out(tmp_path):
    output = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "daemon_mix",
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        cwd=str(ROOT), capture_output=True, text=True, check=True,
        timeout=170,
    ).stdout
    result = json.loads(output.strip().splitlines()[-1])
    # Untraced and traced repetitions both match the committed digests.
    assert result["correct"] and result["failed"] == 0
    values = {name: metric["value"]
              for name, metric in result["metrics"].items()}
    for layer in _heavy_layers("daemon_mix"):
        assert values[f"{layer}.calls"] > 0, layer
    assert values["http.p50_ms"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figure_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
