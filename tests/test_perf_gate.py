"""The CI perf gate (``benchmarks/perf_gate.py``) on synthetic perfbench runs."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("gradsec_round", "serve_dense", "serve_chaos", "sim_async")
BASE_VALUES = {
    "commits_per_s": 100.0,
    "setup_s": 2.0,
    "peak_rss_mb": 150.0,
    "uplink_bytes_per_update": 4000.0,
}


@pytest.fixture(scope="module")
def perf_gate():
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        import perf_gate
    finally:
        sys.path.pop(0)
    return perf_gate


def _run(correct=True, **scaled):
    """One ``--workload all`` result; ``scaled`` multiplies a metric."""
    metrics = {
        f"{workload}/{name}": {"value": value * scaled.get(name, 1.0), "unit": "x"}
        for workload in WORKLOADS
        for name, value in BASE_VALUES.items()
    }
    return {"correct": correct, "attempted": 8, "failed": 0, "metrics": metrics}


def _gate(perf_gate, tmp_path, base, head):
    """Write the runs as perfbench output files and run the gate's CLI."""
    paths = {}
    for side, runs in (("base", base), ("head", head)):
        paths[side] = []
        for index, run in enumerate(runs):
            path = tmp_path / f"{side}{index}.txt"
            path.write_text("gradsec_round seed=1 trace=0\n" + json.dumps(run) + "\n")
            paths[side].append(str(path))
    return perf_gate.main(["--base", *paths["base"], "--head", *paths["head"]])


def test_identical_runs_pass(perf_gate, tmp_path, capsys):
    assert _gate(perf_gate, tmp_path, [_run()] * 3, [_run()] * 3) == 0
    assert "perf gate passed" in capsys.readouterr().out


@pytest.mark.parametrize("scale, status", [(0.7, 1), (0.8, 0)])
def test_commits_per_s_drop_against_bound(perf_gate, tmp_path, scale, status):
    head = [_run(commits_per_s=scale)] * 3
    assert _gate(perf_gate, tmp_path, [_run()] * 3, head) == status


def test_setup_s_rise_fails(perf_gate, tmp_path, capsys):
    head = [_run(setup_s=1.3)] * 3
    assert _gate(perf_gate, tmp_path, [_run()] * 3, head) == 1
    assert "! gradsec_round/setup_s" in capsys.readouterr().out


def test_incorrect_head_run_fails(perf_gate, tmp_path, capsys):
    head = [_run(), _run(correct=False), _run()]
    assert _gate(perf_gate, tmp_path, [_run()] * 3, head) == 1
    assert "head run 2: correct is false" in capsys.readouterr().out


def test_head_run_without_result_fails(perf_gate, tmp_path, capsys):
    base = [_run()] * 3
    head = tmp_path / "crashed.txt"
    head.write_text("Traceback (most recent call last):\n")
    paths = [tmp_path / f"base{i}.txt" for i in range(3)]
    for path, run in zip(paths, base):
        path.write_text(json.dumps(run) + "\n")
    argv = ["--base", *map(str, paths), "--head", str(head)]
    assert perf_gate.main(argv) == 1
    assert "head run 1: correct is false" in capsys.readouterr().out


def test_head_only_metric_is_skipped(perf_gate, tmp_path, capsys):
    base = _run()
    del base["metrics"]["sim_async/uplink_bytes_per_update"]
    head = _run()
    head["metrics"]["sim_async/uplink_bytes_per_update"]["value"] *= 10
    assert _gate(perf_gate, tmp_path, [base] * 3, [head] * 3) == 0
    out = capsys.readouterr().out
    assert "sim_async/uplink_bytes_per_update" in out
    assert "skipped: not measured on base" in out


def test_medians_not_single_runs_decide(perf_gate, tmp_path):
    head = [_run(commits_per_s=0.5), _run(), _run()]
    assert _gate(perf_gate, tmp_path, [_run()] * 3, head) == 0
