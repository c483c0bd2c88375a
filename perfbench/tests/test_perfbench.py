"""Tests of the benchmark itself: every workload at tiny size, and
planted faults that the output checks must catch.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import congruence_atoms
import congruence_atoms.cli
from congruence_atoms import cli, core, enumeration, tables
from harness import END_TO_END, PER_LAYER, Run, SpeedProbe
from workloads import WORKLOADS

from conftest import BENCH, SRC


def run_tiny(name, workdir, trace=0, seed=3):
    wl = WORKLOADS[name](congruence_atoms, seed, str(workdir), SRC, tiny=True)
    return Run(wl, congruence_atoms).execute(0.01, trace)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_is_correct(name, tmp_path):
    result, report = run_tiny(name, tmp_path)
    assert result["correct"], report
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # the known weight defect shows on solve-stream only: its records
    # print the position-weighted sum, not the coefficient-weighted one
    if name == "solve-stream":
        assert report["field_error_rate"] > 0
    else:
        assert report["field_error_rate"] == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_traced_run_reports_every_layer_metric(name, tmp_path):
    result, _ = run_tiny(name, tmp_path, trace=1)
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(PER_LAYER)
    assert metrics["cli.self_s"] >= 0 and metrics["subset_sums.scan_self_s"] >= 0
    if name == "ell-table":
        assert metrics["enumeration.calls"] == 9  # m = 4..12
        assert metrics["enumeration.atoms"] == sum(tables.ELL[m] for m in range(4, 13))
        assert metrics["bounds.busy_s"] > 0
    if name == "cli-cache-hit":
        assert metrics["enumeration.calls"] == 0  # served from the cache
        assert metrics["core.metrics_calls"] == 3 * tables.ELL[11]
        assert metrics["cli.cache_file_bytes"] > 0
    if name == "solve-stream":
        assert metrics["reduction.rows"] == metrics["core.metrics_calls"] > 0
        assert 0 < metrics["reduction.lift_first_s"] <= metrics["reduction.lift_s"]
    if name == "appendix-scan":
        assert metrics["subset_sums.diversity_calls"] > 0
        assert 0 < metrics["subset_sums.admissible_ratio"] < 1
        assert 0 < metrics["subset_sums.scan_self_s"]


def test_tracer_restores_the_package(tmp_path):
    before = cli.main, cli.metrics, enumeration.enumerate_standard
    run_tiny("cli-cache-hit", tmp_path, trace=1)
    assert (cli.main, cli.metrics, enumeration.enumerate_standard) == before


def test_speed_probe_leaves_the_caller_unpinned():
    before = os.sched_getaffinity(0)
    with SpeedProbe() as probe:
        time.sleep(0.3)
        assert probe.cpu() in before
    assert os.sched_getaffinity(0) == before
    assert len(probe.samples) >= 2
    assert probe.scale(probe.samples[0][0], probe.samples[-1][0]) > 0


def _drop_first_atom(original):
    def engine(*args, **kwargs):
        result = original(*args, **kwargs)
        return dataclasses.replace(result, solutions=result.solutions[1:])
    return engine


@pytest.mark.parametrize("name, module, attr", [
    ("ell-table", enumeration, "enumerate_standard"),
    ("solve-stream", cli, "enumerate_normal_form"),
])
def test_dropped_atom_raises_error_rate(name, module, attr, tmp_path, monkeypatch):
    monkeypatch.setattr(module, attr, _drop_first_atom(getattr(module, attr)))
    result, report = run_tiny(name, tmp_path)
    assert not result["correct"]
    assert report["error_rate"] > 0


def test_wrong_printed_field_raises_field_error_rate(tmp_path, monkeypatch):
    original = core.metrics

    def off_by_one(coords):
        met = original(coords)
        return dataclasses.replace(met, total_size=met.total_size + 1)

    monkeypatch.setattr(cli, "metrics", off_by_one)
    _, report = run_tiny("cli-cache-hit", tmp_path)
    assert report["field_error_rate"] == 1.0


def test_same_seed_same_solve_instances(tmp_path):
    make = lambda seed: WORKLOADS["solve-stream"](
        congruence_atoms, seed, str(tmp_path), SRC, tiny=True).generate()
    assert make(5) == make(5)
    assert make(5) != make(6)


def test_fails_without_the_package(tmp_path):
    """Next to BENCHMARK.json and the benchmark alone, it must exit
    non-zero and print no result."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ell-table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
