"""BENCHMARK.json names exactly the workloads and metrics the result line carries."""

import json
from pathlib import Path

from perfbench import instrument, run, workloads

MANIFEST = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [entry["name"] for entry in MANIFEST["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_metrics_match():
    assert {entry["name"]: entry["unit"] for entry in MANIFEST["end_to_end"]} == run.END_TO_END
    bounds = {entry["name"]: entry["bound"] for entry in MANIFEST["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_metrics_match():
    assert {
        entry["name"]: (entry["unit"], entry["better"]) for entry in MANIFEST["per_layer"]
    } == instrument.RESULT_LINE
    assert set(instrument.PRINTED_ONLY) <= set(instrument.PER_LAYER)


def test_cold_run_count_depends_only_on_the_seconds():
    for name in workloads.WORKLOADS:
        assert workloads.cold_runs(name, 0) == 1
        nominal = workloads.NOMINAL_COLD_S[name]
        assert workloads.cold_runs(name, 2 * nominal) == 2
        assert workloads.cold_runs(name, MANIFEST["run_seconds"]) >= 1
