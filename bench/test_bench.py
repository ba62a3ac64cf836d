"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import opcounts  # noqa: E402
import report  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [1, 7])
def test_opcounts_match_baseline(seed):
    assert opcounts.differences(opcounts.measure(seed), opcounts.load_baseline()) == []


def test_opcounts_repeat_for_a_seed():
    assert opcounts.measure(3) == opcounts.measure(3)


def test_benchmark_json_names_every_printed_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(report.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == report.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_output_checks_out(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    state = workload.setup(5, str(tmp_path))
    workload.start(state)
    try:
        phase = workload.run(state, 0.0)
        phase.failed += workload.check(state, phase)
    finally:
        workload.stop(state)
    assert phase.attempted > 0
    assert phase.failed == 0
    metrics = report.end_to_end(workload, [1.0], phase)
    assert all(m["value"] > 0 for m in metrics.values())


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exchange_local", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def _window(latencies):
    return workloads.Window(list(latencies), len(latencies), sum(latencies))


def test_quiet_windows_drop_spells_and_keep_stalls():
    calm = [100] * 100
    stalled = [100] * 97 + [5000] * 3  # the program stalls: the median stays put
    spell = [200] * 100  # interference: the whole window runs slowly
    phase = workloads.Phase([_window(calm)] * 8 + [_window(stalled)] + [_window(spell)] * 3)
    quiet = report.quiet_windows(phase)
    assert len(quiet) == 9
    latencies, _rate = report.figures(phase)
    assert report.percentile(latencies, 99) == 100
    assert latencies[-1] == 5000

