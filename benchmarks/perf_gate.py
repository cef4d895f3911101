"""Perf gate: compare repeated perfbench runs of a change against its base.

Each input file holds the output of one
``python3 perfbench/run.py --workload all ...`` run; its last line is the
JSON result.  The gate reads the workloads and the end-to-end metrics,
with their direction and bound, from ``BENCHMARK.json``.  It exits 1 when

* any head run reports ``correct: false``, or
* on any workload, an end-to-end metric's head median is worse than its
  base median by more than ``bound`` (a fraction of the base median).

A metric missing from every base run is skipped, so a base that predates
a metric never fails the gate.  Run from the repo root::

    python3 benchmarks/perf_gate.py --base base1.txt base2.txt base3.txt \\
        --head head1.txt head2.txt head3.txt
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import List, Tuple

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_run(path: Path) -> dict:
    """The JSON result on the last non-empty line of a perfbench run.

    A run that died before printing its result counts as incorrect and
    measured nothing.
    """
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "failed": None, "metrics": {}}


def _median(runs: List[dict], key: str):
    values = [
        run["metrics"][key]["value"] for run in runs if key in run.get("metrics", {})
    ]
    return statistics.median(values) if values else None


def gate(
    spec: dict, base: List[dict], head: List[dict]
) -> Tuple[List[str], List[str]]:
    """Compare ``head`` runs with ``base`` runs; returns (report, failures)."""
    report: List[str] = []
    failures: List[str] = []
    for index, run in enumerate(head, 1):
        if not run.get("correct", False):
            failures.append(
                f"head run {index}: correct is false (failed={run.get('failed')})"
            )
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = f"{workload}/{metric['name']}"
            base_median = _median(base, key)
            if base_median is None:
                report.append(f"  {key:<40} skipped: not measured on base")
                continue
            head_median = _median(head, key)
            if head_median is None:
                failures.append(f"{key}: measured on base, missing on head")
                continue
            bound = metric["bound"]
            if metric["better"] == "higher":
                worse = head_median < base_median * (1 - bound)
            else:
                worse = head_median > base_median * (1 + bound)
            change = (head_median - base_median) / base_median if base_median else 0
            line = (
                f"{key:<40} base {base_median:12.6g}  head {head_median:12.6g}  "
                f"{change:+7.1%}  ({metric['better']} is better, bound {bound:.0%})"
            )
            report.append(("! " if worse else "  ") + line)
            if worse:
                failures.append(line)
    return report, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--head", nargs="+", type=Path, required=True)
    parser.add_argument("--spec", type=Path, default=SPEC, help="BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    report, failures = gate(
        spec, [load_run(p) for p in args.base], [load_run(p) for p in args.head]
    )
    print(f"medians of {len(args.base)} base and {len(args.head)} head runs:")
    print("\n".join(report))
    if failures:
        print(f"perf gate FAILED ({len(failures)}):")
        print("\n".join(f"  {failure}" for failure in failures))
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
