"""Self-tests of the benchmark: coverage guard, repeatable counts, refusal.

    python3 -m pytest -q perfbench

Each traced child is a fresh process, exactly as in a benchmark run.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import spec

TRACED = {}


def traced(workload):
    if workload not in TRACED:
        TRACED[workload] = run.run_child(workload, spec.DEFAULT_SEED, traced=True)
    return TRACED[workload]


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_traced_run_covers_the_layer_map(workload):
    child = traced(workload)
    assert child["failures"] == 0
    assert child["checks"] == spec.expected_checks(workload)
    assert child["digest"] == spec.PINNED_DIGESTS[workload]
    layers = child["layers"]
    assert set(layers) == set(spec.per_layer_metrics()) - {"trace_overhead_ratio"}
    assert spec.guard_violations(workload, layers) == []


def test_traced_counts_repeat_exactly():
    first = traced("closed-form")["layers"]
    second = run.run_child("closed-form", spec.DEFAULT_SEED, traced=True)["layers"]
    counts = [name for name in first if spec.is_count(name)]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_guard_reports_a_bypassed_span_and_a_predicted_zero():
    layers = dict(traced("kernel")["layers"])
    layers["symmetry.kernel_K.calls"] = 0
    layers["padic.mu1_points"] = 5
    problems = spec.guard_violations("kernel", layers)
    assert any(p.startswith("symmetry.kernel_K.calls is 0") for p in problems)
    assert any(p.startswith("padic.mu1_points = 5") for p in problems)


def test_untraced_run_prints_every_end_to_end_metric():
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", "oracle",
                           "--seconds", "1"], capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(spec.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_end_to_end_scales_each_child_by_its_own_probes():
    ref = spec.CALIBRATION_REFERENCE_S
    children = [{"wall_s": 2.0, "cells_ms": [10.0], "setup_s": 0.2, "peak_rss_mb": 20.0,
                 "probes_s": [2 * ref, 2 * ref]},
                {"wall_s": 1.0, "cells_ms": [5.0], "setup_s": 0.1, "peak_rss_mb": 20.0,
                 "probes_s": [ref / 2, 2 * ref]}]
    values, samples = run.end_to_end(children, [{"setup_s": 0.3, "probes_s": [3 * ref]}])
    assert values["wall_s"] == pytest.approx(1.125)
    assert values["cell_p90_ms"] == pytest.approx(6.25)
    assert values["setup_s"] == pytest.approx(0.1)
    assert samples == {"wall_s": 2, "cell_p90_ms": 2, "setup_s": 3, "peak_rss_mb": 2}


def test_setup_only_child_imports_qbern_and_probes():
    probe = run.setup_only()
    assert 0 < probe["setup_s"] < run.CHILD_TIMEOUT_S
    assert len(probe["probes_s"]) == 3 and min(probe["probes_s"]) > 0


def test_metric_names_match_benchmark_json():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(spec.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == spec.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == spec.per_layer_metrics()


def test_refuses_to_run_without_qbern_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "oracle",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
