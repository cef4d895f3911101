"""BENCH provenance: every ``BENCH_*.json`` writer stamps who produced it."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestBenchProvenance:
    @pytest.fixture(autouse=True)
    def _bench_on_path(self):
        bench_dir = str(REPO_ROOT / "benchmarks")
        sys.path.insert(0, bench_dir)
        yield
        sys.path.remove(bench_dir)

    def test_write_result_stamps_provenance(self, tmp_path):
        import common

        out = common.write_result(tmp_path / "BENCH_x.json", {"schema": 1})
        payload = json.loads(out.read_text())
        stamp = payload["provenance"]
        assert len(stamp["commit"]) == 40 or stamp["commit"] == "unknown"
        assert stamp["python"].count(".") == 2
        assert stamp["numpy"]
        assert stamp["timestamp_utc"].endswith("Z")

    def test_existing_provenance_is_preserved(self, tmp_path):
        import common

        marker = {"commit": "abc", "python": "x", "numpy": "y",
                  "machine": "z", "timestamp_utc": "t"}
        out = common.write_result(
            tmp_path / "BENCH_y.json", {"schema": 1, "provenance": marker}
        )
        assert json.loads(out.read_text())["provenance"] == marker

    def test_time_call_shape(self):
        import common

        timing = common.time_call(lambda: sum(range(100)), repeats=3, warmup=1)
        assert timing["best_s"] <= timing["median_s"]
        assert timing["repeats"] == 3
        with pytest.raises(ValueError):
            common.time_call(lambda: None, repeats=0)
