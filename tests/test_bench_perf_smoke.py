"""Smoke test for the conv-kernel microbenchmark (marked ``perf``)."""

import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "benchmarks" / "bench_perf_kernels.py"


@pytest.mark.perf
def test_bench_perf_kernels_quick(tmp_path, spawn_python):
    out = tmp_path / "BENCH_kernels.json"
    spawn_python(SCRIPT, "--quick", "--out", out)
    payload = json.loads(out.read_text())
    conv = payload["conv_step"]
    assert conv["composed_step_ms"] > 0 and conv["fused_step_ms"] > 0
    assert conv["speedup"] == pytest.approx(
        conv["composed_step_ms"] / conv["fused_step_ms"]
    )
    assert payload["workspace"]["hits"] > 0
