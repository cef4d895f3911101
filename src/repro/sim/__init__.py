"""repro.sim — deterministic event-driven FL network simulator.

Scales the GradSec federated loop to thousands of simulated clients in
seconds of wall time: a priority-queue :class:`~repro.sim.events.EventLoop`
over a :class:`~repro.obs.clock.VirtualClock`, a seeded per-client
:class:`~repro.sim.network.NetworkModel` charging transfer time from real
``wire_bytes()`` payloads, a :class:`~repro.sim.faults.FaultPlan` injecting
dropouts/stragglers/corruption/pool-exhaustion/attestation failures plus
Byzantine clients (:class:`~repro.sim.faults.AttackKind` — sign-flip,
scale, noise, collusion attacks on produced updates), and a
resilient round engine (:class:`~repro.sim.engine.FLSimulator`) with
over-provisioned selection, deadlines, bounded retry, quorum degradation,
and secure-storage checkpoint/resume.  Everything is a pure function of the
seed: same seed, same report bytes.
"""

from .engine import FLSimulator, REPORT_SCHEMA_VERSION, SimConfig, SimulationStalled
from .events import Event, EventLoop
from .faults import AttackKind, FaultKind, FaultPlan, FaultRates, apply_attack
from .network import NetworkModel

__all__ = [
    "Event",
    "EventLoop",
    "NetworkModel",
    "AttackKind",
    "apply_attack",
    "FaultKind",
    "FaultRates",
    "FaultPlan",
    "SimConfig",
    "FLSimulator",
    "SimulationStalled",
    "REPORT_SCHEMA_VERSION",
]
