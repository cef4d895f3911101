#!/usr/bin/env python3
"""Repository benchmark: GradSec training rounds, the coordinator service
and the async simulator, measured end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload gradsec_round --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the untraced program and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced episodes and reports
the per-layer metrics (normalised per commit), the tracing overhead, and
writes every recorded span to ``.perfbench/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit code is non-zero when any output check fails.
``--workload all`` runs each workload in its own process, so one
workload's peak memory never carries into another's.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One process, no worker threads: keep BLAS single-threaded so the numbers
# do not depend on how many idle cores a shared machine happens to have.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("gradsec_round", "serve_dense", "serve_chaos", "sim_async")

END_TO_END_UNITS = {
    "commits_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "uplink_bytes_per_update": "B",
}


def _load_program():
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"perfbench: program sources not found under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))


def run_episode(workload, seed: int, recorder=None):
    """Build, drive and read one episode; returns it with its wall ns."""
    from workloads import Episode

    with workload.context():
        if recorder is not None:
            recorder.install()
        began = time.perf_counter_ns()
        try:
            state = workload.build(seed)
            setup_s = (time.perf_counter_ns() - began) / 1e9
            drive = workload.drive(state)
        finally:
            wall_ns = time.perf_counter_ns() - began
            if recorder is not None:
                recorder.uninstall()
        episode = Episode(setup_s, *drive)
        workload.finish(state, episode)
    return episode, wall_ns


def _rate(episodes) -> float:
    """Commits per second of drive, each piece at its slowest time.

    Every episode of a run repeats the same work piece by piece (a commit,
    a chunk of events, or one stage of a round).  The shared host runs at
    one of two speeds about 2x apart, switching every few seconds to
    minutes; the slower one shows up in nearly every run, the faster one
    only in some.  Taking each piece's slowest time makes the sum follow
    the slower speed instead of the mix a run happened to see.
    """
    slowest = sum(max(times) for times in zip(*(e.pieces for e in episodes)))
    return episodes[0].commits / slowest


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from spans import SpanRecorder
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    recorder = SpanRecorder() if trace else None
    runs = []  # (episode, traced, wall ns)
    problems = []
    attempted = failed = 0
    began = time.perf_counter()
    while True:
        traced = trace and len(runs) % 2 == 1
        attempted += 1
        try:
            episode, wall_ns = run_episode(
                workload, seed, recorder if traced else None
            )
        except Exception:
            traceback.print_exc()
            failed += 1
            problems.append("episode raised")
            break
        runs.append((episode, traced, wall_ns))
        if len(runs) == 1:
            # Memory fragmentation grows the process by a few MB per
            # episode on some workloads, so later peaks would depend on how
            # many episodes the host's speed allowed.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        first = runs[0][0]
        bad = list(episode.problems)
        if episode.digest != first.digest:
            bad.append(f"digest {episode.digest} != first {first.digest}")
        if (episode.commits, len(episode.pieces)) != (first.commits, len(first.pieces)):
            bad.append(
                f"{episode.commits} commits in {len(episode.pieces)} pieces, "
                f"first episode {first.commits} in {len(first.pieces)}"
            )
        if bad:
            failed += 1
            problems.extend(bad)
        elapsed = time.perf_counter() - began
        if len(runs) >= 2 and elapsed * (len(runs) + 1) / len(runs) > seconds:
            break

    if runs:
        attempted += 1
        try:
            reference = workload.reference(seed)
        except Exception:
            traceback.print_exc()
            reference = ("reference run", "raised")
        if reference is not None and reference[1] != runs[0][0].digest:
            failed += 1
            problems.append(
                f"digest {runs[0][0].digest} != {reference[0]} {reference[1]}"
            )

    untraced = [e for e, t, _ in runs if not t]
    if trace and len(untraced) < len(runs):
        metrics = layer_metrics(name, runs, recorder, problems)
        failed += sum(1 for p in problems if p.startswith("self-check"))
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        recorder.dump(out / f"spans-{name}-seed{seed}.npz")
    elif len(untraced) >= 2:
        # The first episode warms caches and lazy imports; it is checked
        # but not timed.
        timed = untraced[1:]
        metrics = {
            "commits_per_s": _rate(timed),
            "setup_s": max(e.setup_s for e in timed),
            "peak_rss_mb": peak_rss_mb,
            "uplink_bytes_per_update": untraced[0].uplink_bytes_per_update,
        }
        metrics = {
            key: {"value": value, "unit": END_TO_END_UNITS[key]}
            for key, value in metrics.items()
        }
    else:
        metrics = {}
    for problem in problems:
        print(f"CHECK FAILED [{name}]: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def layer_metrics(name: str, runs, recorder, problems) -> dict:
    """Per-commit layer metrics from the traced episodes, plus checks."""
    from spans import GROUPS, LAYERS, SIZED, USED_BY

    traced = [e for e, t, _ in runs if t]
    commits = sum(e.commits for e in traced)
    wall_ns = sum(w for _, t, w in runs if t)
    ids = recorder.group_ids
    calls = {g: recorder.calls[ids[g]] for g in GROUPS}
    self_ns = {g: recorder.self_ns[ids[g]] for g in GROUPS}
    nbytes = {g: recorder.nbytes[ids[g]] for g in GROUPS}

    for group in GROUPS:
        meant = name in USED_BY[group]
        if meant != (calls[group] > 0):
            problems.append(
                f"self-check: {group} made {calls[group]} calls on {name}, "
                f"expected {'some' if meant else 'none'}"
            )
    attributed = recorder.top_level_ns()
    if attributed != sum(self_ns.values()) or attributed > wall_ns:
        problems.append(
            f"self-check: self times {sum(self_ns.values())} ns, roots "
            f"{attributed} ns, traced wall {wall_ns} ns"
        )

    out = {}

    def put(key, value, unit):
        out[key] = {"value": value, "unit": unit}

    for group in GROUPS:
        put(f"{group}.calls", calls[group] / commits, "count")
        put(f"{group}.self_s", self_ns[group] / 1e9 / commits, "s")
        if group in SIZED:
            put(f"{group}.bytes", nbytes[group] / commits, "B")
    for layer in LAYERS:
        layer_ns = sum(self_ns[g] for g in GROUPS if g.rpartition(".")[0] == layer)
        put(f"{layer}.self_s", layer_ns / 1e9 / commits, "s")

    crypto = ("tee.crypto.encrypt", "tee.crypto.decrypt")
    crypto_ns = sum(self_ns[g] for g in crypto)
    put("tee.crypto.mb_per_s",
        sum(nbytes[g] for g in crypto) / 1e6 / (crypto_ns / 1e9) if crypto_ns else 0.0,
        "MB/s")
    steps = calls["core.shielded.train_step"]
    put("tee.monitor.smc_per_step",
        calls["tee.monitor.smc"] / steps if steps else 0.0, "ratio")
    put("tee_peak_kb", max(e.tee_peak_bytes for e in traced) / 1024, "KiB")
    folds = sum(e.folds for e in traced)
    put("serve.wire.decodes_per_fold",
        calls["serve.wire.decode_frame"] / folds if folds else 0.0, "ratio")
    sends = sum(e.uplink_sends for e in traced)
    put("serve.transport.goodput", folds / sends if sends else 0.0, "ratio")
    untraced = [e for e, t, _ in runs if not t]
    put("trace.overhead", _rate(untraced[1:] or untraced) / _rate(traced) - 1, "ratio")
    put("trace.unattributed_s", (wall_ns - attributed) / 1e9 / commits, "s")
    put("trace.wall_s", wall_ns / 1e9 / commits, "s")
    return out


def print_table(title: str, metrics: dict) -> None:
    print(title)
    width = max((len(k) for k in metrics), default=0)
    for key, metric in metrics.items():
        print(f"  {key:<{width}}  {metric['value']:>14.6g} {metric['unit']}")


def print_layer_split(metrics: dict) -> None:
    """Where the traced wall time went, per layer, per commit."""
    from spans import LAYERS

    wall = metrics["trace.wall_s"]["value"]
    print("traced wall per commit by layer (self time):")
    for key in [f"{layer}.self_s" for layer in LAYERS] + ["trace.unattributed_s"]:
        value = metrics[key]["value"]
        print(f"  {key:<28} {value:12.6f} s  {100 * value / wall:6.2f}%")
    print(f"  {'trace.wall_s':<28} {wall:12.6f} s")


def run_all(args) -> int:
    """Every workload in its own process; non-zero if any check fails."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        try:
            proc = subprocess.run(command, capture_output=True, text=True, timeout=900)
        except subprocess.TimeoutExpired:
            print(f"{name}: timed out", file=sys.stderr)
            combined["correct"] = False
            continue
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _load_program()
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if result["metrics"]:
        print_table(
            f"{args.workload} seed={args.seed} trace={args.trace}", result["metrics"]
        )
        if args.trace:
            print_layer_split(result["metrics"])
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
