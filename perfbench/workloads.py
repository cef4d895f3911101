"""The benchmark's four workloads.

Each workload is a batch job run as repeated *episodes*: build the system
from the seed (timed as set-up), drive it to a fixed number of commits
(timed piece by piece), then read its outputs.  All load comes from this
one process: serve runs with ``workers=0`` and FL rounds use the
sequential executor.  The serve load generators run closed loops on
virtual time; their virtual latencies are simulator outputs, not metrics.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.policy import policy_from_spec
from repro.data import synthetic_cifar
from repro.fl import FLClient, FLServer, TrainingPlan
from repro.fl.executor import SequentialRoundExecutor
from repro.fl.transport import ClientUpdate
from repro.nn import lenet5
from repro.nn.serialize import flatten_weights
from repro.obs import VirtualClock
from repro.serve import LoadSpec, ServeHarness, TenantQuota
from repro.sim import FaultPlan, FaultRates, FLSimulator, SimConfig

__all__ = ["Episode", "WORKLOADS"]


@dataclass
class Episode:
    """What one episode measured and produced.

    ``pieces`` are the wall times of the drive's consecutive pieces (a
    round, a commit, or a chunk of events).  Every episode of a run uses
    the same seed, so piece ``k`` does the same work in each of them.
    """

    setup_s: float
    commits: int
    pieces: List[float]
    digest: str = ""
    uplink_bytes_per_update: float = 0.0
    tee_peak_bytes: int = 0
    folds: int = 0
    uplink_sends: int = 0
    problems: List[str] = field(default_factory=list)


# (commits, wall seconds of each piece of the drive)
Drive = Tuple[int, List[float]]


def _sha256_f64(flat: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(flat, dtype="<f8").tobytes()
    ).hexdigest()


class _MarkingExecutor(SequentialRoundExecutor):
    """The sequential round executor, noting when the clients start and
    when each one ends, so a round can be timed in pieces."""

    def __init__(self) -> None:
        super().__init__()
        self.marks: List[float] = []

    def map(self, fn, items):
        def marked(item):
            result = fn(item)
            self.marks.append(time.perf_counter())
            return result

        self.marks.append(time.perf_counter())
        return super().map(marked, items)


class GradsecRound:
    """FL rounds of LeNet-5 under GradSec's non-contiguous static policy.

    4 clients × 64 synthetic CIFAR samples (3×32×32, 100 classes), batch
    32, 2 local steps, ``static:L2+L5`` — the split DarkneTZ cannot
    express.  One commit is one ``FLServer.run_cycle``.  Set-up includes
    sealing each client's dataset into its secure storage.
    """

    name = "gradsec_round"
    policy = "static:L2+L5"
    clients = 4
    samples_per_client = 64
    rounds = 1
    plan = TrainingPlan(lr=0.05, batch_size=32, local_steps=2, protected_layers=(2, 5))

    def context(self):
        return obs.fresh()

    def build(self, seed: int, policy: Optional[str] = None):
        spec = policy or self.policy
        model_seed = 1000 + seed

        def make_policy(model):
            return policy_from_spec(spec, model, seed=seed)

        data = synthetic_cifar(
            num_samples=self.clients * self.samples_per_client,
            num_classes=100,
            seed=seed,
        )
        global_model = lenet5(num_classes=100, seed=model_seed)
        executor = _MarkingExecutor()
        server = FLServer(
            global_model, self.plan, make_policy(global_model), executor=executor
        )
        clients = []
        for i, shard in enumerate(data.shard(self.clients)):
            model = lenet5(num_classes=100, seed=model_seed)
            clients.append(
                FLClient(
                    f"device-{i}",
                    shard,
                    model,
                    policy=make_policy(model),
                    seed=seed * 100 + i,
                )
            )
        selection = server.select(clients)
        participants = [c for c in clients if c.client_id in selection.admitted]
        return {
            "server": server,
            "executor": executor,
            "clients": participants,
            "updates": [],
            "peaks": [],
        }

    def drive(self, state) -> Drive:
        """Each round in pieces: distribution, each client, aggregation."""
        pieces = []
        marks = state["executor"].marks
        for _ in range(self.rounds):
            marks.clear()
            started = time.perf_counter()
            updates = state["server"].run_cycle(state["clients"])
            bounds = [started, *marks, time.perf_counter()]
            pieces.extend(b - a for a, b in zip(bounds, bounds[1:]))
            state["updates"].extend(updates)
            state["peaks"].append(
                max(c.shielded.pool.peak_bytes for c in state["clients"])
            )
        return self.rounds, pieces

    def finish(self, state, episode: Episode) -> None:
        server = state["server"]
        updates = state["updates"]
        episode.digest = _sha256_f64(flatten_weights(server.model.get_weights()))
        episode.uplink_bytes_per_update = sum(
            u.wire_bytes() for u in updates
        ) / len(updates)
        episode.tee_peak_bytes = max(state["peaks"])
        if len(updates) != self.rounds * len(state["clients"]):
            episode.problems.append(
                f"{len(updates)} updates for {self.rounds} rounds of "
                f"{len(state['clients'])} clients"
            )
        if server.cycle != self.rounds:
            episode.problems.append(f"server ran {server.cycle} cycles")

    def reference(self, seed: int) -> Tuple[str, str]:
        """Same run under policy ``none``: weights must be bit-equal."""
        with self.context():
            state = self.build(seed, policy="none")
            self.drive(state)
            flat = flatten_weights(state["server"].model.get_weights())
        return "policy none", _sha256_f64(flat)


class _Serve:
    """What the coordinator-service workloads share."""

    def context(self):
        return obs.fresh(clock=VirtualClock())

    def build(self, seed: int, **overrides):
        context = obs.get_context()
        return ServeHarness(
            self.specs(seed, **overrides),
            workers=0,
            quota=TenantQuota(max_queue_depth=4096),
            clock=context.clock,
        )

    def drive(self, harness) -> Drive:
        """Run the harness to completion in pieces of ``chunk_events``.

        ``run(max_events=0)`` starts every load generator's pipeline (the
        first piece); the event loop is then stepped exactly as ``run()``
        steps it.
        """
        started = time.perf_counter()
        harness.run(max_events=0)
        pieces = [time.perf_counter() - started]
        step = harness.loop.step
        count = self.chunk_events
        while count == self.chunk_events:
            started = time.perf_counter()
            count = 0
            while count < self.chunk_events and step():
                count += 1
            pieces.append(time.perf_counter() - started)
        commits = sum(
            harness.coordinator.jobs[g.spec.job_id].version
            for g in harness.generators
        )
        return commits, pieces

    def finish(self, harness, episode: Episode) -> None:
        report = harness.report()
        harness.close()
        jobs = report["jobs"]
        episode.digest = "+".join(job["weights_sha256"] for job in jobs)
        episode.folds = sum(job["folds"] for job in jobs)
        episode.uplink_bytes_per_update = (
            sum(job["bytes_up"] for job in jobs) / episode.folds
        )
        episode.uplink_sends = sum(
            job.get("transport", {}).get("sends", 0) for job in jobs
        )
        for job in jobs:
            if job["state"] != "done" or job["commits"] != self.commits:
                episode.problems.append(
                    f"{job['job_id']}: state {job['state']}, "
                    f"{job['commits']} of {self.commits} commits"
                )
            self.check_job(job, episode)

    def check_job(self, job: Dict[str, object], episode: Episode) -> None:
        pass


class ServeDense(_Serve):
    """2 tenants × 10⁴ clients, dense f64 frames, buffer 500, concurrency
    1000: the submit → verify → decode → fold → commit hot path at a queue
    depth where batched ingest would have frames to batch."""

    name = "serve_dense"
    tenants = 2
    chunk_events = 100
    commits = 10
    buffer_size = 500

    def specs(self, seed: int) -> List[LoadSpec]:
        return [
            LoadSpec(
                tenant=f"tenant-{i}",
                job_id=f"job-{i}",
                clients=10_000,
                commits=self.commits,
                buffer_size=self.buffer_size,
                seed=seed * 10 + i,
                concurrency=1000,
                encoding="f64",
            )
            for i in range(self.tenants)
        ]

    def check_job(self, job, episode: Episode) -> None:
        if job["folds"] != job["commits"] * self.buffer_size:
            episode.problems.append(
                f"{job['job_id']}: {job['folds']} folds for "
                f"{job['commits']} commits of {self.buffer_size}"
            )

    def reference(self, seed: int) -> None:
        return None


class ServeChaos(_Serve):
    """1 tenant × 5·10³ clients over the chaos transport at 10%, top-k
    frames (ratio 0.125, f32), buffer 64, concurrency 128."""

    name = "serve_chaos"
    commits = 20
    chunk_events = 200

    def specs(self, seed: int, chaos_rate: float = 0.1) -> List[LoadSpec]:
        return [
            LoadSpec(
                tenant="tenant-0",
                job_id="job-0",
                clients=5_000,
                commits=self.commits,
                buffer_size=64,
                seed=seed,
                concurrency=128,
                ratio=0.125,
                encoding="f32",
                chaos=True,
                chaos_rate=chaos_rate,
                chaos_seed=seed,
            )
        ]

    def reference(self, seed: int) -> Tuple[str, str]:
        """Same spec at ``chaos_rate=0``: weights must be bit-equal."""
        with self.context():
            harness = self.build(seed, chaos_rate=0.0)
            harness.run()
            digest = "+".join(j["weights_sha256"] for j in harness.report()["jobs"])
            harness.close()
        return "chaos_rate 0", digest


class SimAsync:
    """``FLSimulator`` in async mode: 10⁵ clients, buffer 64, concurrency
    128, polynomial staleness, 5% dropout and 5% stragglers."""

    name = "sim_async"
    commits = 40

    def context(self):
        return obs.fresh(clock=VirtualClock())

    def build(self, seed: int):
        config = SimConfig(
            num_clients=100_000,
            rounds=self.commits,
            seed=seed,
            async_mode=True,
            buffer_size=64,
            concurrency=128,
            staleness="polynomial",
        )
        return FLSimulator(
            config,
            fault_plan=FaultPlan(FaultRates(dropout=0.05, straggler=0.05), seed=seed),
            clock=obs.get_context().clock,
        )

    def drive(self, sim) -> Drive:
        pieces = []
        for _ in range(self.commits):
            started = time.perf_counter()
            sim.step_commit()
            pieces.append(time.perf_counter() - started)
        return sim.round, pieces

    def finish(self, sim, episode: Episode) -> None:
        report = sim.report()
        totals = report["totals"]
        episode.digest = report["weights_sha256"]
        episode.folds = int(totals["updates"])
        episode.uplink_bytes_per_update = float(
            ClientUpdate(
                client_id="sim-0",
                cycle=0,
                num_samples=1,
                plain_weights=sim.model.get_weights(),
            ).wire_bytes()
        )
        if totals["commits"] != self.commits:
            episode.problems.append(
                f"{totals['commits']} of {self.commits} commits"
            )
        staleness = sum(int(v) for v in totals["staleness"].values())
        if staleness != totals["updates"]:
            episode.problems.append(
                f"staleness histogram sums to {staleness}, "
                f"{totals['updates']} updates folded"
            )

    def reference(self, seed: int) -> None:
        return None


WORKLOADS = {
    w.name: w for w in (GradsecRound, ServeDense, ServeChaos, SimAsync)
}
