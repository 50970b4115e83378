"""Tiny-size smoke test of the benchmark itself.

    python3 -m pytest -q bench/tests

Runs every workload at its tiny size, one untraced and one traced
repetition each, and checks that every named metric is emitted, the output
checks run and pass, and the traced runs yield spans for every listed layer.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import metrics, run, tracing, workloads  # noqa: E402


@pytest.fixture(scope="module")
def tiny_runs():
    return {name: run.collect(name, 3, 0, trace=True, size="tiny", min_reps=1)
            for name in metrics.ALL}


def test_checks_run_and_pass(tiny_runs):
    for name, result in tiny_runs.items():
        verdict = run.judge(result)
        assert verdict["attempted"] == 2 * len(result["spec"]["steps"]), name
        assert verdict["failed"] == 0, verdict["problems"]
        for rep in result["reps"]:
            assert {s["label"] for s in rep["steps"]} == \
                {s["label"] for s in result["spec"]["steps"]}
            assert all(s["digest"] for s in rep["steps"])


def test_every_end_to_end_metric_is_emitted(tiny_runs):
    for name, result in tiny_runs.items():
        samples = run.end_to_end(result)
        wanted = {m for m, (_u, where, _d) in metrics.END_TO_END.items()
                  if name in where and m != "failed_frac"}
        assert set(samples) == wanted, name
        for metric, values in samples.items():
            assert values and all(v > 0 for v in values), (name, metric)


def test_every_per_layer_metric_is_emitted_and_spans_cover_every_layer(tiny_runs):
    called = set()
    for name, result in tiny_runs.items():
        layers = run.per_layer(result)
        assert set(layers) == set(metrics.PER_LAYER), name
        assert all(v is not None for v in layers.values()), name
        for module, func in tracing.SPANNED + tracing.LEAF_COUNTED:
            if layers[f"{module}.{func}.calls"] > 0:
                called.add(f"{module}.{func}")
        assert result["reps"][1]["missing"] == []
    listed = {f"{m}.{f}" for m, f in tracing.SPANNED + tracing.LEAF_COUNTED}
    assert listed - called == set()


def test_benchmark_json_matches_the_registry():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(metrics.ALL)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics.GATED)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())
    for m in spec["end_to_end"]:
        assert m["unit"] == metrics.END_TO_END[m["name"]][0]
        assert m["better"] == "lower"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    for m in spec["per_layer"]:
        assert (m["better"] == "higher") == (m["name"] in metrics.HIGHER_IS_BETTER)


def test_run_refuses_a_directory_without_the_toolkit(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
