"""Event-driven FL fleet simulator with a resilient round engine.

:class:`FLSimulator` scales the FL loop to thousands of clients without
wall-clock cost by replacing *execution* with *accounting* while keeping the
server-side control loop real:

* **time** comes from a :class:`~repro.obs.clock.VirtualClock` advanced by a
  priority-queue :class:`~repro.sim.events.EventLoop`;
* **transfer time** is charged from each message's actual
  ``wire_bytes()`` (the same :class:`~repro.fl.transport.ModelDownload` /
  :class:`~repro.fl.transport.ClientUpdate` types the live stack ships)
  through a seeded per-client :class:`~repro.sim.network.NetworkModel`;
* **compute time** comes from the TEE :class:`~repro.tee.costmodel.CostModel`
  under the deployment's protection policy, scaled by a per-client device
  speed factor;
* **updates** are deterministic pseudo-training deltas derived from
  ``(seed, round, client)``, streamed into the real
  :class:`~repro.fl.sharding.HierarchicalAggregator` the moment they
  arrive — the bounded-memory exact reduce the production server uses, so
  a round never materializes O(clients × model) state and any shard count
  yields the same bits as flat :func:`~repro.fl.aggregation.fedavg`;
* **faults** come from a :class:`~repro.sim.faults.FaultPlan`, including
  dead shard aggregators whose lost uploads feed the retry machinery and
  **Byzantine clients** (sign-flip / scale / noise / collusion attacks on
  the updates they produce — see :class:`~repro.sim.faults.AttackKind`);
* **learning progress** is observable: honest pseudo-updates drift toward a
  seed-derived *teacher* model and every round reports the global model's
  accuracy on a teacher-labelled eval set, so attacks (and the robust rules
  that defeat them — ``rule=median|trimmed_mean|krum|clipped_fedavg``,
  composed with sharding through
  :func:`~repro.fl.sharding.make_aggregation_tree`) have a measurable
  effect, not just a byte-level one;
* **admission control** (``max_norm``) puts the production
  :class:`~repro.fl.admission.AdmissionController` and its reputation
  ledger in the loop: rejected updates strike their sender, repeat
  offenders are quarantined out of future cohorts, and the ledger rides
  the round checkpoint so a resumed run quarantines identically.

The round engine mirrors what the production retrofit in
:mod:`repro.fl.server` does, but event-driven: it over-provisions the cohort
(asks ``ceil(k * overprovision)`` clients, aggregates the first ``k`` to
report), enforces a per-round deadline, retries transient failures with
exponential backoff (bounded), degrades gracefully below quorum (the
previous global model is reused for that cycle), and checkpoints every round
through :class:`~repro.tee.storage.SecureStorage` so a killed coordinator
resumes mid-training and produces bitwise-identical final weights.

Every random draw is keyed on ``(seed, stream, round[, client])`` — no
evolving generator crosses a round boundary — which is what makes resume
exact and two same-seed runs byte-identical.

``SimConfig(async_mode=True)`` replaces the round barrier with a
FedBuff-style buffered pipeline: dispatches stream continuously (selection
keyed on the dispatch index), arrivals fold straight into a
:class:`~repro.fl.buffer.BufferedAggregator`, and a commit fires whenever
``buffer_size`` admitted updates have accumulated — late (straggling)
updates arrive *stale* and are folded with their staleness weight instead
of being dropped.  The same determinism discipline applies, and the
mid-window buffer state rides the secure-storage checkpoint, so kill/resume
reproduces the uninterrupted run bit-for-bit.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.policy import NoProtection, ProtectionPolicy
from ..fl.admission import AdmissionConfig, AdmissionController, ReputationTracker
from ..fl.buffer import BufferedAggregator
from ..fl.config import BufferConfig, ShardingConfig
from ..fl.robust import RULES
from ..fl.sharding import make_aggregation_tree, shard_of
from ..fl.transport import ClientUpdate, ModelDownload
from ..nn.model import Sequential, WeightsList
from ..nn.serialize import (
    flatten_weights,
    weights_from_bytes,
    weights_to_bytes,
)
from ..nn.zoo import mlp
from ..obs import get_registry, get_tracer
from ..obs.clock import VirtualClock
from ..tee.costmodel import CostModel
from ..tee.storage import SecureStorage
from .events import EventLoop
from .faults import AttackKind, FaultKind, FaultPlan
from .network import NetworkModel

__all__ = ["SimConfig", "FLSimulator", "REPORT_SCHEMA_VERSION"]

REPORT_SCHEMA_VERSION = 4

# Independent derivation streams off (seed, stream, ...); values are
# arbitrary distinct constants.
_STREAM_TRAITS = 11
_STREAM_SELECT = 12
_STREAM_UPDATE = 13
_STREAM_SHARD_TRAITS = 14
_STREAM_TEACHER = 15
_STREAM_EVAL = 16
_STREAM_ASYNC_SELECT = 17

_EVAL_SAMPLES = 256

_CHECKPOINT_OBJECT = "fl-round-checkpoint"


@dataclass(frozen=True)
class SimConfig:
    """Knobs of one simulated deployment.

    Attributes
    ----------
    num_clients / rounds / seed:
        Fleet size, training length, and the seed that fully determines the
        run (fleet traits, cohort draws, faults, pseudo-updates).
    cohort:
        ``k`` — updates aggregated per round (defaults to ``min(32, fleet)``).
    overprovision:
        Selection asks ``ceil(k * overprovision)`` clients; the first ``k``
        to report are aggregated (stragglers hide behind the surplus).
    quorum:
        Minimum fraction of ``k`` that must report by the deadline; below
        it the round degrades (previous global model reused).
    deadline_seconds:
        Per-round collection deadline in simulated seconds.
    max_retries / retry_backoff_seconds:
        Bounded retry of transient client failures, exponential backoff.
    straggler_factor:
        Slow-down multiplier applied to a straggling client's round.
    update_scale:
        Std-dev of the pseudo-training delta each client applies.
    batch_size / local_steps:
        Fed into the TEE cost model's per-cycle compute time.
    shards:
        Width of the hierarchical aggregation tree (clients → shard
        aggregators → root).  ``1`` is the flat topology.  Any value
        produces bitwise-identical final weights at the same seed — the
        streaming reduce is exact — while peak aggregator memory stays
        O(shards × model size), independent of the cohort and fleet size.
    drift / teacher_scale:
        Learning signal of the honest pseudo-updates: each one pulls the
        global model ``drift`` of the way toward a seed-derived *teacher*
        (whose per-coordinate offset from the initial weights has std
        ``teacher_scale``), plus the usual ``update_scale`` noise.  This
        is what makes attacks measurable — accuracy on a teacher-labelled
        eval set is reported per round.
    byzantine / attack / attack_strength:
        Fraction of the fleet that is Byzantine (persistent per-client
        identity), which :class:`~repro.sim.faults.AttackKind` they mount,
        and its strength parameter.  Flows into the default
        :class:`~repro.sim.faults.FaultPlan`; an explicitly passed plan
        carries its own attack settings.
    rule / trim / num_byzantine:
        Aggregation rule (:data:`repro.fl.robust.RULES`) and its
        parameters.  ``trim``/``num_byzantine`` of ``None`` self-scale to
        the assumed attacker count ``ceil(byzantine * cohort)`` (min 1).
    max_norm / clip:
        When ``max_norm`` is set, the production
        :class:`~repro.fl.admission.AdmissionController` gates every
        arriving update (delta-norm ceiling; ``clip`` rescales instead of
        rejecting) and a reputation ledger quarantines repeat offenders
        out of future cohorts.
    async_mode / buffer_size / staleness / staleness_exponent / concurrency:
        The FedBuff-style asynchronous pipeline.  ``async_mode`` replaces
        the round barrier with a stream of dispatches: up to
        ``concurrency`` clients (default: the over-provisioned ``asked``
        count) are in flight at any instant, each trained against the
        global model version current at its dispatch, and the server
        commits whenever ``buffer_size`` (default: ``cohort``) admitted
        updates have been folded.  ``rounds`` then counts *commits*.  A
        late update is folded with weight
        :meth:`~repro.fl.config.BufferConfig.weight` of its staleness
        (``staleness`` picks the family, ``staleness_exponent`` the
        polynomial decay) instead of being dropped.
    """

    num_clients: int
    rounds: int
    seed: int = 0
    cohort: Optional[int] = None
    overprovision: float = 1.25
    quorum: float = 0.5
    deadline_seconds: float = 5.0
    max_retries: int = 2
    retry_backoff_seconds: float = 0.5
    straggler_factor: float = 20.0
    update_scale: float = 0.05
    batch_size: int = 32
    local_steps: int = 1
    shards: int = 1
    drift: float = 0.2
    teacher_scale: float = 1.0
    byzantine: float = 0.0
    attack: str = "sign_flip"
    attack_strength: float = 10.0
    rule: str = "fedavg"
    trim: Optional[int] = None
    num_byzantine: Optional[int] = None
    max_norm: Optional[float] = None
    clip: bool = False
    async_mode: bool = False
    buffer_size: Optional[int] = None
    staleness: str = "constant"
    staleness_exponent: float = 0.5
    concurrency: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_clients <= 0:
            raise ValueError("num_clients must be positive")
        if self.rounds <= 0:
            raise ValueError("rounds must be positive")
        if self.cohort is None:
            object.__setattr__(self, "cohort", min(32, self.num_clients))
        if not 1 <= self.cohort <= self.num_clients:
            raise ValueError(
                f"cohort must be in 1..{self.num_clients}, got {self.cohort}"
            )
        if self.overprovision < 1.0:
            raise ValueError("overprovision must be >= 1")
        if not 0.0 < self.quorum <= 1.0:
            raise ValueError("quorum must be in (0, 1]")
        if self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.retry_backoff_seconds <= 0:
            raise ValueError("retry_backoff_seconds must be positive")
        if self.straggler_factor <= 1.0:
            raise ValueError("straggler_factor must exceed 1")
        if self.update_scale <= 0:
            raise ValueError("update_scale must be positive")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if not 0.0 <= self.drift <= 1.0:
            raise ValueError("drift must be in [0, 1]")
        if self.teacher_scale < 0:
            raise ValueError("teacher_scale cannot be negative")
        if not 0.0 <= self.byzantine <= 1.0:
            raise ValueError("byzantine must be in [0, 1]")
        AttackKind(self.attack)  # raises on unknown kinds
        if self.rule not in RULES:
            raise ValueError(
                f"unknown aggregation rule {self.rule!r}; expected one of {RULES}"
            )
        if self.trim is not None and self.trim < 0:
            raise ValueError("trim must be non-negative")
        if self.num_byzantine is not None and self.num_byzantine < 0:
            raise ValueError("num_byzantine must be non-negative")
        if self.max_norm is not None and self.max_norm <= 0:
            raise ValueError("max_norm must be positive when set")
        if self.buffer_size is None:
            object.__setattr__(self, "buffer_size", self.cohort)
        # BufferConfig validates size/kind/exponent on construction.
        self.buffer_config  # noqa: B018 — construction is the validation
        if self.concurrency is not None and self.concurrency < 1:
            raise ValueError("concurrency must be >= 1 when set")

    @property
    def asked(self) -> int:
        """Clients contacted per round (over-provisioned cohort)."""
        return min(self.num_clients, math.ceil(self.cohort * self.overprovision))

    @property
    def quorum_count(self) -> int:
        """Minimum collected updates for a round to aggregate."""
        return max(1, math.ceil(self.quorum * self.cohort))

    @property
    def assumed_byzantine(self) -> int:
        """Attacker count the robust rules assume (explicit or derived)."""
        if self.num_byzantine is not None:
            return self.num_byzantine
        if self.byzantine > 0:
            return max(1, math.ceil(self.byzantine * self.cohort))
        return 1

    @property
    def effective_trim(self) -> int:
        """Per-side trim for ``trimmed_mean`` (explicit or derived)."""
        return self.trim if self.trim is not None else self.assumed_byzantine

    @property
    def effective_concurrency(self) -> int:
        """Max in-flight clients in async mode (explicit or ``asked``)."""
        return self.concurrency if self.concurrency is not None else self.asked

    @property
    def buffer_config(self) -> BufferConfig:
        """The commit buffer the async pipeline aggregates through."""
        return BufferConfig(
            size=self.buffer_size,
            staleness=self.staleness,
            exponent=self.staleness_exponent,
        )


@dataclass
class _RoundState:
    """Mutable bookkeeping of one in-flight round.

    ``collected`` maps client index → sample count only: the update payload
    itself is folded into the shard tree the moment it arrives and then
    dropped, so a round never holds O(clients × model) weight state.
    """

    members: List[int]
    deadline_at: float
    global_flat: np.ndarray
    tree: Optional[object] = None  # HierarchicalAggregator or robust variant
    positions: Dict[int, int] = field(default_factory=dict)
    dead_shards: frozenset = frozenset()
    collected: Dict[int, int] = field(default_factory=dict)
    status: Dict[int, str] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=lambda: _fresh_counts())
    done: bool = False
    aggregated_at: float = 0.0


_COUNT_KEYS = (
    "dropouts",
    "stragglers",
    "corrupted",
    "pool_exhausted",
    "evicted",
    "retries",
    "giveups",
    "shard_down",
    "attacked",
    "admission_rejected",
    "admission_clipped",
    "quarantined",
)


def _fresh_counts() -> Dict[str, int]:
    """One round's (or async commit window's) event tallies, zeroed."""
    return {key: 0 for key in _COUNT_KEYS}


def _layout(template: WeightsList) -> tuple:
    """Flat layout of a model's parameters.

    Returns ``(perm, struct)``: the permutation taking an *items-order*
    flat vector (the order the update noise is drawn in) onto
    :func:`~repro.nn.serialize.flatten_weights`' sorted-key order, and per
    layer the ``(key, start, stop, shape)`` slice of each parameter in the
    sorted-order vector, listed in items order.
    """
    items_start: Dict[tuple, int] = {}
    offset = 0
    for i, layer in enumerate(template):
        for key, value in layer.items():
            items_start[(i, key)] = offset
            offset += int(value.size)
    perm_parts: List[np.ndarray] = []
    sorted_span: Dict[tuple, tuple] = {}
    offset = 0
    for i, layer in enumerate(template):
        for key in sorted(layer):
            start, size = items_start[(i, key)], int(layer[key].size)
            perm_parts.append(np.arange(start, start + size))
            sorted_span[(i, key)] = (offset, offset + size)
            offset += size
    perm = (
        np.concatenate(perm_parts) if perm_parts else np.zeros(0, dtype=np.int64)
    )
    struct = [
        [
            (key, *sorted_span[(i, key)], value.shape)
            for key, value in layer.items()
        ]
        for i, layer in enumerate(template)
    ]
    return perm, struct


class FLSimulator:
    """Deterministic event-driven simulation of a federated deployment.

    Parameters
    ----------
    config:
        The deployment knobs; ``config.seed`` fully determines the run.
    model:
        Global model whose weights are trained (default: a small MLP — the
        simulator studies *fleet* behaviour, not learning curves; any
        :class:`~repro.nn.model.Sequential` works and payload sizes follow).
    policy:
        Protection policy; decides the protected set the cost model charges.
    fault_plan:
        Fault schedule (default: a fault-free fleet).
    network:
        Per-client link table (default: sampled from the config seed).
    storage:
        When given, every round is checkpointed into this
        :class:`~repro.tee.storage.SecureStorage`; a simulator constructed
        over storage holding a checkpoint resumes from it.
    cost_model:
        TEE cost model for per-cycle compute time.
    clock:
        The virtual clock to drive (share it with ``obs.fresh`` to get
        simulated-time spans).
    """

    TA_UUID = "gradsec-fl-coordinator"

    def __init__(
        self,
        config: SimConfig,
        model: Optional[Sequential] = None,
        policy: Optional[ProtectionPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        network: Optional[NetworkModel] = None,
        storage: Optional[SecureStorage] = None,
        cost_model: Optional[CostModel] = None,
        clock: Optional[VirtualClock] = None,
    ) -> None:
        self.config = config
        self.clock = clock or VirtualClock()
        self.loop = EventLoop(self.clock)
        self.model = model or mlp(
            num_classes=4, input_shape=(6,), hidden=(8, 5), seed=config.seed
        )
        self.policy = policy or NoProtection(self.model.num_layers)
        self.fault_plan = fault_plan or FaultPlan(
            seed=config.seed,
            byzantine=config.byzantine,
            attack=config.attack,
            attack_strength=config.attack_strength,
        )
        self.storage = storage
        self.cost_model = cost_model or CostModel(
            batch_size=config.batch_size, batches_per_cycle=config.local_steps
        )
        traits = np.random.default_rng((config.seed, _STREAM_TRAITS))
        self.network = network or NetworkModel.sample(config.num_clients, traits)
        # Device heterogeneity: per-client compute speed and shard size.
        self.speed = traits.uniform(0.75, 2.5, config.num_clients)
        self.num_samples = traits.integers(16, 129, config.num_clients)
        # Shard aggregators are edge nodes with their own (better) links;
        # the shard→root hop is priced through this table.  Sampled from a
        # dedicated stream so enabling sharding never perturbs the fleet.
        self.shard_network = (
            NetworkModel.sample(
                config.shards,
                np.random.default_rng((config.seed, _STREAM_SHARD_TRAITS)),
                median_latency_seconds=0.02,
                min_bandwidth=20e6,
                max_bandwidth=100e6,
            )
            if config.shards > 1
            else None
        )
        # Learning signal: a seed-derived teacher the honest fleet drifts
        # toward, and an eval set it labels.  Accuracy of the global model
        # on this set is the run's figure of merit under attack.
        teacher_rng = np.random.default_rng((config.seed, _STREAM_TEACHER))
        initial = self.model.get_weights()
        self.teacher_weights: WeightsList = [
            {
                key: value
                + config.teacher_scale * teacher_rng.standard_normal(value.shape)
                for key, value in layer.items()
            }
            for layer in initial
        ]
        eval_rng = np.random.default_rng((config.seed, _STREAM_EVAL))
        self._eval_x = eval_rng.standard_normal(
            (_EVAL_SAMPLES, *self.model.input_shape)
        )
        teacher = self.model.clone()
        teacher.set_weights(self.teacher_weights)
        # Re-centre the teacher's output bias on the eval set: without
        # this the random bias offsets dominate the logits and the teacher
        # labels everything with one class, which would make accuracy a
        # trivially-satisfied metric.  The correction is folded back into
        # the teacher weights, so "global == teacher" still scores 1.0.
        logit_means = teacher.forward(self._eval_x).data.mean(axis=0)
        last = self.teacher_weights[-1]
        if "bias" in last and last["bias"].shape == logit_means.shape:
            last["bias"] = last["bias"] - logit_means
            teacher.set_weights(self.teacher_weights)
        # Keep only the samples the teacher labels confidently (top-1 vs
        # top-2 logit margin at or above the median margin).  Borderline
        # samples flip under tiny weight perturbations and would drown the
        # attack signal in metric noise; on the confident half, a model
        # that tracks the teacher scores ~1.0 and one pulled off course by
        # an attack visibly does not.
        logits = teacher.forward(self._eval_x).data
        ordered = np.sort(logits, axis=1)
        margin = ordered[:, -1] - ordered[:, -2]
        keep = margin >= np.median(margin)
        self._eval_x = self._eval_x[keep]
        labels = teacher.predict(self._eval_x)
        classes = int(self.model.output_shape[-1])
        self._eval_y = np.eye(classes)[labels]
        # Admission control + reputation (the production gate, in the loop).
        self.admission: Optional[AdmissionController] = None
        self.reputation: Optional[ReputationTracker] = None
        if config.max_norm is not None:
            self.admission = AdmissionController(
                initial,
                AdmissionConfig(max_norm=config.max_norm, clip=config.clip),
            )
            self.reputation = ReputationTracker()
        self.aggregator_peak_bytes = 0
        self.round = 0
        self.history: List[Dict[str, object]] = []
        self.resumed_from: Optional[int] = None
        # Pseudo-update production: the parameters' flat layout, the
        # teacher as one flat vector, and the once-per-run memoised update
        # wire size (a pure function of the model structure, so one
        # serialisation prices every upload).
        self._perm, self._struct = _layout(initial)
        self._teacher_flat = flatten_weights(self.teacher_weights)
        self._wire_size: Optional[int] = None
        if self.storage is not None:
            self._load_checkpoint()

    # -- deterministic derivations ----------------------------------------
    def _select_cohort(self, round_index: int) -> List[int]:
        rng = np.random.default_rng((self.config.seed, _STREAM_SELECT, round_index))
        picked = rng.choice(
            self.config.num_clients, size=self.config.asked, replace=False
        )
        return sorted(int(i) for i in picked)

    def _make_update(
        self, key: int, client_index: int, global_flat: np.ndarray
    ) -> ClientUpdate:
        """The client's pseudo-trained update: drift toward the teacher
        plus seeded noise — and, for a Byzantine client, the attack applied
        to that honest delta *at production time* (so every retry re-sends
        the same poisoned bytes and deliveries are never re-perturbed).

        ``key`` is the round in sync mode and the dispatch index in async
        mode; the payload is a pure function of ``(seed, key, client)`` and
        the global model it trains from, so a retried attempt re-sends the
        exact same payload and resume replays it bitwise.
        """
        cfg = self.config
        # Generator(PCG64(SeedSequence(...))) is what default_rng(...)
        # builds, minus its dispatch overhead.  The generator fills arrays
        # sequentially from one bit stream, so a single flat draw equals
        # per-parameter draws in items order; ``perm`` moves it into
        # flatten_weights' sorted-key order.
        rng = np.random.Generator(
            np.random.PCG64(
                np.random.SeedSequence(
                    (cfg.seed, _STREAM_UPDATE, key, client_index)
                )
            )
        )
        noise = rng.standard_normal(self._perm.size)[self._perm]
        pull = (self._teacher_flat - global_flat) * cfg.drift
        delta = pull + noise * cfg.update_scale
        delta = self.fault_plan.attack_delta(key, client_index, delta)
        trained_flat = global_flat + delta
        update = ClientUpdate(
            client_id=f"sim-{client_index}",
            cycle=key,
            num_samples=int(self.num_samples[client_index]),
            plain_weights=[
                {
                    name: trained_flat[start:stop].reshape(shape)
                    for name, start, stop, shape in layer
                }
                for layer in self._struct
            ],
            flat_weights=trained_flat,
        )
        if self._wire_size is None:
            self._wire_size = update.wire_bytes()
        else:
            update._wire_cache = self._wire_size
        return update

    def accuracy(self) -> float:
        """Global-model accuracy on the teacher-labelled eval set."""
        return self.model.accuracy(self._eval_x, self._eval_y)

    # -- one round ---------------------------------------------------------
    def step_round(self) -> Dict[str, object]:
        """Simulate one full round; returns its outcome record."""
        cfg = self.config
        if cfg.async_mode:
            raise RuntimeError(
                "step_round is the synchronous engine; async runs advance "
                "through step_commit"
            )
        rnd = self.round
        registry = get_registry()
        protected = self.policy.layers_for_cycle(rnd)
        compute_base = self.cost_model.cycle_cost(self.model, protected).total_seconds
        global_weights = self.model.get_weights()
        download_bytes = ModelDownload(
            cycle=rnd, plain_weights=global_weights
        ).wire_bytes()

        started_at = self.clock.time
        with get_tracer().span(
            "sim.round", cycle=rnd, asked=cfg.asked, rule=cfg.rule
        ) as span:
            registry.counter(
                "fl.aggregate.rule", "rounds aggregated, labelled per rule"
            ).inc(rule=cfg.rule)
            members = self._select_cohort(rnd)
            quarantined: List[int] = []
            if self.reputation is not None:
                # The selection draw is untouched (pure function of the
                # seed); quarantined clients are filtered *after* it, so
                # the honest cohort is identical across runs.
                quarantined = [
                    i
                    for i in members
                    if self.reputation.is_blocked(f"sim-{i}", rnd)
                ]
                if quarantined:
                    members = [i for i in members if i not in set(quarantined)]
                    registry.counter(
                        "sim.quarantined",
                        "cohort slots denied to quarantined/evicted clients",
                    ).inc(len(quarantined))
            dead_shards = frozenset(
                shard
                for shard in range(cfg.shards)
                if self.fault_plan.shard_fault_for(rnd, shard)
            )
            if dead_shards:
                registry.counter(
                    "sim.shard.down", "shard aggregators dead for a round"
                ).inc(len(dead_shards))
            state = _RoundState(
                members=members,
                deadline_at=started_at + cfg.deadline_seconds,
                global_flat=flatten_weights(global_weights),
                tree=make_aggregation_tree(
                    global_weights,
                    ShardingConfig(num_shards=cfg.shards, track_memory=False),
                    rule=cfg.rule,
                    trim=cfg.effective_trim,
                    num_byzantine=cfg.assumed_byzantine,
                ),
                positions={index: pos for pos, index in enumerate(members)},
                dead_shards=dead_shards,
            )
            state.counts["quarantined"] = len(quarantined)
            # Deadline first: a completion landing exactly on the deadline
            # is late, deterministically.
            self.loop.schedule_at(
                state.deadline_at, lambda: self._finish(state, registry)
            )
            for index in members:
                if self.fault_plan.attack_for(index) is not None:
                    state.counts["attacked"] += 1
                    registry.counter(
                        "sim.attacked", "cohort slots held by Byzantine clients"
                    ).inc()
                fault = self.fault_plan.fault_for(rnd, index)
                if fault is FaultKind.FAIL_ATTESTATION:
                    state.status[index] = "evicted"
                    state.counts["evicted"] += 1
                    registry.counter(
                        "sim.attestation_failures",
                        "cohort members evicted for failing round attestation",
                    ).inc()
                    continue
                if fault is FaultKind.DROP:
                    state.status[index] = "dropped"
                    state.counts["dropouts"] += 1
                    registry.counter(
                        "sim.dropouts", "cohort members that went silent mid-round"
                    ).inc()
                    continue
                state.status[index] = "pending"
                self._schedule_attempt(
                    state,
                    rnd,
                    index,
                    attempt=0,
                    start_at=started_at,
                    fault=fault,
                    compute_base=compute_base,
                    download_bytes=download_bytes,
                    global_weights=global_weights,
                    registry=registry,
                )

            while not state.done and self.loop.step():
                pass
            if not state.done:
                # Everyone resolved (or nobody was schedulable) before the
                # deadline event fired: settle the round at the deadline.
                self.clock.advance_to(state.deadline_at)
                self._finish(state, registry)
            # Anything still queued is a straggler arriving after the round
            # settled; classification below counts it, the event is moot.
            self.loop.clear()

            for index in members:
                if state.status.get(index) == "pending":
                    state.status[index] = "straggled"
                    state.counts["stragglers"] += 1
                    registry.counter(
                        "sim.stragglers",
                        "cohort members that missed the round deadline",
                    ).inc()

            degraded = len(state.collected) < cfg.quorum_count
            shard_bytes = 0
            if not degraded:
                if self.shard_network is not None:
                    # The shard→root hop is a real transfer: price each
                    # partial's wire bytes through the shard links and
                    # settle the round when the slowest partial lands.
                    root_at = state.aggregated_at
                    for partial in state.tree.partials():
                        size = partial.wire_bytes()
                        shard_bytes += size
                        registry.counter(
                            "sim.shard.bytes", "bytes shards sent to the root"
                        ).inc(size)
                        root_at = max(
                            root_at,
                            state.aggregated_at
                            + self.shard_network.transfer_seconds(
                                partial.shard_id, size
                            ),
                        )
                    state.aggregated_at = root_at
                    self.clock.advance_to(root_at)
                new_global = state.tree.reduce()
                self.model.set_weights(new_global)
            else:
                registry.counter(
                    "sim.rounds.degraded",
                    "rounds below quorum that reused the previous global model",
                ).inc()
            self.aggregator_peak_bytes = max(
                self.aggregator_peak_bytes, state.tree.peak_bytes
            )
            accuracy = self.accuracy()
            registry.gauge(
                "sim.accuracy",
                "global-model accuracy on the teacher-labelled eval set",
            ).set(accuracy)
            span.set_attribute("collected", len(state.collected))
            span.set_attribute("degraded", degraded)
            span.set_attribute("accuracy", accuracy)

        registry.counter("sim.rounds", "simulated FL rounds").inc()
        registry.counter(
            "sim.clients.selected", "cohort slots asked across all rounds"
        ).inc(len(members))
        registry.counter(
            "sim.clients.collected", "client updates aggregated across all rounds"
        ).inc(len(state.collected))
        registry.histogram(
            "sim.round.virtual_seconds", "simulated wall time per round"
        ).observe(state.aggregated_at - started_at)

        outcome: Dict[str, object] = {
            "round": rnd,
            "asked": len(members),
            "cohort": members,
            "collected": sorted(int(i) for i in state.collected),
            "degraded": degraded,
            "started_at": started_at,
            "aggregated_at": state.aggregated_at,
            "virtual_seconds": state.aggregated_at - started_at,
            "shards": cfg.shards,
            "dead_shards": sorted(state.dead_shards),
            "shard_bytes": int(shard_bytes),
            "aggregator_peak_bytes": int(state.tree.peak_bytes),
            "rule": cfg.rule,
            "accuracy": accuracy,
            **state.counts,
        }
        self.history.append(outcome)
        self.round += 1
        self._save_checkpoint()
        return outcome

    def _schedule_attempt(
        self,
        state: _RoundState,
        rnd: int,
        index: int,
        attempt: int,
        start_at: float,
        fault: Optional[FaultKind],
        compute_base: float,
        download_bytes: int,
        global_weights: WeightsList,
        registry,
    ) -> None:
        """Queue one download→train→upload attempt for a cohort member."""
        cfg = self.config
        download_t = self.network.transfer_seconds(index, download_bytes)
        compute_t = compute_base * float(self.speed[index])

        if fault is FaultKind.EXHAUST_POOL and attempt == 0:
            # The enclave aborts partway through local training and the
            # client reports the failure immediately.
            fail_at = start_at + download_t + 0.5 * compute_t
            self.loop.schedule_at(
                fail_at,
                lambda: self._on_failure(
                    state,
                    rnd,
                    index,
                    attempt,
                    "pool_exhausted",
                    compute_base,
                    download_bytes,
                    global_weights,
                    registry,
                ),
            )
            return

        update = self._make_update(rnd, index, state.global_flat)
        upload_t = self.network.transfer_seconds(index, update.wire_bytes())
        # Multiplying by the exact 1.0 a healthy client gets is a bitwise
        # no-op, so routing the straggler slow-down through the plan keeps
        # sync reports byte-identical while sharing one source of truth
        # with the async engine (where the same factor produces genuinely
        # stale arrivals instead of deadline misses).
        duration = (download_t + compute_t + upload_t) * self.fault_plan.delay_factor(
            rnd, index, cfg.straggler_factor
        )
        corrupted = fault is FaultKind.CORRUPT and attempt == 0
        self.loop.schedule_at(
            start_at + duration,
            lambda: self._on_arrival(
                state,
                rnd,
                index,
                attempt,
                update,
                corrupted,
                compute_base,
                download_bytes,
                global_weights,
                registry,
            ),
        )

    def _on_arrival(
        self,
        state: _RoundState,
        rnd: int,
        index: int,
        attempt: int,
        update: ClientUpdate,
        corrupted: bool,
        compute_base: float,
        download_bytes: int,
        global_weights: WeightsList,
        registry,
    ) -> None:
        if state.done:
            return
        if corrupted:
            state.counts["corrupted"] += 1
            registry.counter(
                "sim.corruptions", "updates rejected for failing integrity checks"
            ).inc()
            self._on_failure(
                state,
                rnd,
                index,
                attempt,
                None,
                compute_base,
                download_bytes,
                global_weights,
                registry,
            )
            return
        if index in state.collected:
            return
        shard = self._route_shard(state, index, attempt)
        if shard is None:
            # The upload reached a dead shard aggregator and was lost; the
            # client re-enters the ordinary retry machinery (retries are
            # re-routed to a surviving shard, if any).
            state.counts["shard_down"] += 1
            registry.counter(
                "sim.shard.losses", "uploads lost to dead shard aggregators"
            ).inc()
            self._on_failure(
                state,
                rnd,
                index,
                attempt,
                None,
                compute_base,
                download_bytes,
                global_weights,
                registry,
            )
            return
        weights = update.plain_weights
        if self.admission is not None:
            # The production gate, against this round's global weights.
            # A rejected update is NOT retried: the payload is a pure
            # function of (seed, round, client), so the same bytes would
            # be rejected again — the client just strikes its reputation.
            decision = self.admission.check(
                update.client_id, weights, reference=global_weights
            )
            if not decision.admitted:
                self.reputation.record_rejection(update.client_id, rnd)
                state.counts["admission_rejected"] += 1
                state.status[index] = "rejected"
                registry.counter(
                    "sim.admission.rejected",
                    "arrived updates refused by admission control",
                ).inc()
                return
            self.reputation.record_admission(update.client_id)
            if decision.clipped:
                state.counts["admission_clipped"] += 1
            weights = decision.weights
        state.tree.fold(
            shard,
            weights,
            update.num_samples,
            position=state.positions[index],
            # Admission clipping replaces the weights; the precomputed flat
            # only describes the original payload.
            flat=(
                update.flat_weights
                if weights is update.plain_weights
                else None
            ),
        )
        state.collected[index] = int(update.num_samples)
        state.status[index] = "collected"
        if len(state.collected) >= self.config.cohort:
            self._finish(state, registry)

    def _on_failure(
        self,
        state: _RoundState,
        rnd: int,
        index: int,
        attempt: int,
        reason: Optional[str],
        compute_base: float,
        download_bytes: int,
        global_weights: WeightsList,
        registry,
    ) -> None:
        if state.done:
            return
        if reason == "pool_exhausted":
            state.counts["pool_exhausted"] += 1
            registry.counter(
                "sim.pool_exhaustions",
                "local training aborts from secure-pool exhaustion",
            ).inc()
        if attempt < self.config.max_retries:
            state.counts["retries"] += 1
            registry.counter(
                "fl.retry.attempts", "client round attempts retried"
            ).inc()
            backoff = self.config.retry_backoff_seconds * (2**attempt)
            self._schedule_attempt(
                state,
                rnd,
                index,
                attempt=attempt + 1,
                start_at=self.clock.time + backoff,
                fault=None,  # transient faults only hit the first attempt
                compute_base=compute_base,
                download_bytes=download_bytes,
                global_weights=global_weights,
                registry=registry,
            )
        else:
            state.counts["giveups"] += 1
            state.status[index] = "failed"
            registry.counter(
                "fl.retry.giveups", "clients abandoned after exhausting retries"
            ).inc()

    def _route_shard(
        self, state: _RoundState, index: int, attempt: int
    ) -> Optional[int]:
        """The shard aggregator this upload lands on (None = lost).

        First attempts go to the client's home shard (contiguous balanced
        routing over the cohort).  If that shard is dead this round the
        upload is lost; retries scan cyclically for the first surviving
        shard.  Which shard folds an update cannot affect the aggregate —
        the reduce is exact — so re-routing is free of aggregation skew.
        """
        cfg = self.config
        home = shard_of(state.positions[index], len(state.members), cfg.shards)
        if home not in state.dead_shards:
            return home
        if attempt == 0:
            return None
        for offset in range(1, cfg.shards):
            candidate = (home + offset) % cfg.shards
            if candidate not in state.dead_shards:
                return candidate
        return None

    def _finish(self, state: _RoundState, registry) -> None:
        if state.done:
            return
        state.done = True
        state.aggregated_at = self.clock.time

    # -- asynchronous buffered mode (FedBuff-style) ------------------------
    #
    # No round barrier: up to ``effective_concurrency`` clients are in
    # flight at once, each training against the global model *version*
    # (commit index) current at its dispatch.  Arrivals stream straight
    # into a BufferedAggregator; the K-th admitted fold triggers a commit,
    # which advances the version and re-weights later arrivals by their
    # staleness.  Determinism comes from the same discipline as the sync
    # engine: selection is keyed on (seed, stream, dispatch_index), faults
    # on (seed, dispatch_index, client), payloads on the dispatch's model
    # version — so the whole run is a pure function of the seed, and the
    # in-flight set (plain JSON descriptors) plus the buffer expansion can
    # be checkpointed mid-window and resumed bit-for-bit.
    #
    # Simplifications vs sync, by design: shard aggregators are server-side
    # accumulator lanes (no per-round shard deaths), the shard→root hop is
    # priced into ``shard_bytes``/``aggregated_at`` without advancing the
    # global clock (earlier-scheduled client events forbid it), and compute
    # time is priced under the cycle-0 protected set.

    def _ensure_async(self) -> None:
        if getattr(self, "_async_ready", False):
            return
        cfg = self.config
        self._async_ready = True
        self._buffer = BufferedAggregator(
            self.model.get_weights(),
            cfg.buffer_config,
            ShardingConfig(num_shards=cfg.shards, track_memory=False),
            rule=cfg.rule,
            trim=cfg.effective_trim,
            num_byzantine=cfg.assumed_byzantine,
        )
        self._inflight: Dict[int, Dict[str, object]] = {}
        self._dispatch_counter = 0
        self._version_weights: Dict[int, WeightsList] = {
            self.round: self.model.get_weights()
        }
        template = self.model.get_weights()
        self._async_download_bytes = ModelDownload(
            cycle=0, plain_weights=template
        ).wire_bytes()
        self._async_upload_bytes = ClientUpdate(
            client_id="sim-0", cycle=0, num_samples=1, plain_weights=template
        ).wire_bytes()
        protected = self.policy.layers_for_cycle(0)
        self._async_compute_base = self.cost_model.cycle_cost(
            self.model, protected
        ).total_seconds
        self._fresh_window()

    def _fresh_window(self) -> None:
        self._window: Dict[str, object] = {
            "counts": _fresh_counts(),
            "updates": [],  # [dispatch, client, staleness] per admitted fold
            "started_at": self.clock.time,
            "dispatched": 0,
        }

    def _next_client(self, registry) -> Optional[int]:
        """The client the next dispatch goes to (None = nobody available).

        One uniform draw keyed on ``(seed, stream, dispatch)`` picks a
        start; linear probing past busy/quarantined clients keeps the
        draw itself a pure function of the dispatch index.
        """
        cfg = self.config
        rng = np.random.default_rng(
            (cfg.seed, _STREAM_ASYNC_SELECT, self._dispatch_counter)
        )
        start = int(rng.integers(cfg.num_clients))
        for offset in range(cfg.num_clients):
            client = (start + offset) % cfg.num_clients
            if client in self._inflight:
                continue
            if self.reputation is not None and self.reputation.is_blocked(
                f"sim-{client}", self.round
            ):
                self._window["counts"]["quarantined"] += 1
                registry.counter(
                    "sim.quarantined",
                    "cohort slots denied to quarantined/evicted clients",
                ).inc()
                continue
            return client
        return None

    def _fill_pipeline(self, registry) -> None:
        """Dispatch new clients until the concurrency window is full."""
        cfg = self.config
        if self.round >= cfg.rounds:
            return
        counts = self._window["counts"]
        while len(self._inflight) < cfg.effective_concurrency:
            client = self._next_client(registry)
            if client is None:
                break
            dispatch = self._dispatch_counter
            self._dispatch_counter += 1
            self._window["dispatched"] += 1
            if self.fault_plan.attack_for(client) is not None:
                counts["attacked"] += 1
                registry.counter(
                    "sim.attacked", "cohort slots held by Byzantine clients"
                ).inc()
            fault = self.fault_plan.fault_for(dispatch, client)
            if fault is FaultKind.FAIL_ATTESTATION:
                counts["evicted"] += 1
                registry.counter(
                    "sim.attestation_failures",
                    "cohort members evicted for failing round attestation",
                ).inc()
                continue
            entry: Dict[str, object] = {
                "client": client,
                "dispatch": dispatch,
                "version": self.round,
                "attempt": 0,
            }
            if fault is FaultKind.DROP:
                # Silence is only detected when the server times the
                # dispatch out; the slot is then freed without retry.
                entry["kind"] = "failure"
                entry["reason"] = "drop"
                entry["at"] = self.clock.time + cfg.deadline_seconds
            else:
                self._plan_attempt(entry, fault, start_at=self.clock.time)
            self._inflight[client] = entry
            self._schedule_async_event(entry)

    def _plan_attempt(
        self,
        entry: Dict[str, object],
        fault: Optional[FaultKind],
        start_at: float,
    ) -> None:
        """Stamp the entry with its next event (arrival or failure)."""
        cfg = self.config
        client = int(entry["client"])
        download_t = self.network.transfer_seconds(
            client, self._async_download_bytes
        )
        compute_t = self._async_compute_base * float(self.speed[client])
        if fault is FaultKind.EXHAUST_POOL and entry["attempt"] == 0:
            entry["kind"] = "failure"
            entry["reason"] = "pool_exhausted"
            entry["at"] = start_at + download_t + 0.5 * compute_t
            return
        upload_t = self.network.transfer_seconds(client, self._async_upload_bytes)
        delay = self.fault_plan.delay_factor(
            int(entry["dispatch"]), client, cfg.straggler_factor
        )
        if delay != 1.0:
            entry["straggled"] = True
        entry["kind"] = "arrival"
        entry["corrupted"] = bool(
            fault is FaultKind.CORRUPT and entry["attempt"] == 0
        )
        entry["at"] = start_at + (download_t + compute_t + upload_t) * delay

    def _schedule_async_event(self, entry: Dict[str, object]) -> None:
        self.loop.schedule_at(
            float(entry["at"]), lambda: self._on_async_event(entry)
        )

    def _on_async_event(self, entry: Dict[str, object]) -> None:
        # Stale-event guard: an entry is retired by its own event only, but
        # resume re-schedules from descriptors, so be defensive.
        if self._inflight.get(int(entry["client"])) is not entry:
            return
        registry = get_registry()
        if entry["kind"] == "failure":
            self._async_failure(entry, str(entry.get("reason")), registry)
        else:
            self._async_arrival(entry, registry)
        self._save_checkpoint()

    def _async_failure(
        self, entry: Dict[str, object], reason: str, registry
    ) -> None:
        counts = self._window["counts"]
        if reason == "drop":
            counts["dropouts"] += 1
            registry.counter(
                "sim.dropouts", "cohort members that went silent mid-round"
            ).inc()
            self._release(entry, registry)
            return
        if reason == "pool_exhausted":
            counts["pool_exhausted"] += 1
            registry.counter(
                "sim.pool_exhaustions",
                "local training aborts from secure-pool exhaustion",
            ).inc()
        elif reason == "corrupted":
            counts["corrupted"] += 1
            registry.counter(
                "sim.corruptions", "updates rejected for failing integrity checks"
            ).inc()
        if entry["attempt"] < self.config.max_retries:
            counts["retries"] += 1
            registry.counter(
                "fl.retry.attempts", "client round attempts retried"
            ).inc()
            backoff = self.config.retry_backoff_seconds * (2 ** int(entry["attempt"]))
            entry["attempt"] = int(entry["attempt"]) + 1
            entry.pop("reason", None)
            # Transient faults only hit the first attempt; the retry keeps
            # the dispatch's model version (its payload is unchanged).
            self._plan_attempt(entry, None, start_at=self.clock.time + backoff)
            self._schedule_async_event(entry)
            return
        counts["giveups"] += 1
        registry.counter(
            "fl.retry.giveups", "clients abandoned after exhausting retries"
        ).inc()
        self._release(entry, registry)

    def _release(self, entry: Dict[str, object], registry) -> None:
        self._inflight.pop(int(entry["client"]), None)
        self._fill_pipeline(registry)

    def _async_arrival(self, entry: Dict[str, object], registry) -> None:
        cfg = self.config
        if entry.get("corrupted"):
            entry["corrupted"] = False
            self._async_failure(entry, "corrupted", registry)
            return
        client = int(entry["client"])
        dispatch = int(entry["dispatch"])
        version = int(entry["version"])
        counts = self._window["counts"]
        update = self._make_update(
            dispatch, client, flatten_weights(self._version_weights[version])
        )
        weights = update.plain_weights
        if self.admission is not None:
            # The production gate, against the model version the client
            # trained from.  As in sync, a rejected update is not retried —
            # the payload is a pure function of (seed, dispatch, client) —
            # and the strike lands on the *current* commit index, so
            # quarantine windows are expressed in commits.
            decision = self.admission.check(
                update.client_id,
                weights,
                reference=self._version_weights[version],
            )
            if not decision.admitted:
                self.reputation.record_rejection(update.client_id, self.round)
                counts["admission_rejected"] += 1
                registry.counter(
                    "sim.admission.rejected",
                    "arrived updates refused by admission control",
                ).inc()
                self._release(entry, registry)
                return
            self.reputation.record_admission(update.client_id)
            if decision.clipped:
                counts["admission_clipped"] += 1
            weights = decision.weights
        if entry.get("straggled"):
            counts["stragglers"] += 1
            registry.counter(
                "sim.stragglers",
                "cohort members that missed the round deadline",
            ).inc()
        staleness = self.round - version
        shard = shard_of(self._buffer.pending, cfg.buffer_size, cfg.shards)
        self._buffer.fold(
            shard,
            weights,
            update.num_samples,
            staleness=staleness,
            sort_key=dispatch,
            flat=(
                update.flat_weights
                if weights is update.plain_weights
                else None
            ),
        )
        self._window["updates"].append([dispatch, client, staleness])
        self._inflight.pop(client, None)
        if self._buffer.ready:
            self._commit(registry)
        self._fill_pipeline(registry)

    def _commit(self, registry, degraded: bool = False) -> None:
        """Close the buffer window: aggregate, advance the model version."""
        cfg = self.config
        window = self._window
        rnd = self.round
        committed_at = self.clock.time
        with get_tracer().span(
            "sim.commit", cycle=rnd, folds=self._buffer.pending, rule=cfg.rule
        ) as span:
            registry.counter(
                "fl.aggregate.rule", "rounds aggregated, labelled per rule"
            ).inc(rule=cfg.rule)
            shard_bytes = 0
            settle_at = committed_at
            if self.shard_network is not None:
                # Price the shard→root hop; the commit settles when the
                # slowest partial lands (without rewinding pending client
                # events, so the global clock is left alone).
                for partial in self._buffer.partials():
                    size = partial.wire_bytes()
                    shard_bytes += size
                    registry.counter(
                        "sim.shard.bytes", "bytes shards sent to the root"
                    ).inc(size)
                    settle_at = max(
                        settle_at,
                        committed_at
                        + self.shard_network.transfer_seconds(
                            partial.shard_id, size
                        ),
                    )
            folds = self._buffer.pending
            new_global = self._buffer.commit()
            self.model.set_weights(new_global)
            peak = self._buffer.peak_bytes
            self.aggregator_peak_bytes = max(self.aggregator_peak_bytes, peak)
            accuracy = self.accuracy()
            registry.gauge(
                "sim.accuracy",
                "global-model accuracy on the teacher-labelled eval set",
            ).set(accuracy)
            span.set_attribute("collected", folds)
            span.set_attribute("degraded", degraded)
            span.set_attribute("accuracy", accuracy)
        registry.counter("sim.rounds", "simulated FL rounds").inc()
        registry.counter(
            "sim.clients.selected", "cohort slots asked across all rounds"
        ).inc(int(window["dispatched"]))
        registry.counter(
            "sim.clients.collected", "client updates aggregated across all rounds"
        ).inc(folds)
        registry.histogram(
            "sim.round.virtual_seconds", "simulated wall time per round"
        ).observe(settle_at - float(window["started_at"]))

        updates = sorted(window["updates"])
        stale_values = [int(u[2]) for u in updates]
        histogram: Dict[str, int] = {}
        for value in stale_values:
            histogram[str(value)] = histogram.get(str(value), 0) + 1
        outcome: Dict[str, object] = {
            "round": rnd,
            "asked": int(window["dispatched"]),
            "collected": sorted({int(u[1]) for u in updates}),
            "updates": updates,
            "degraded": bool(degraded),
            "started_at": float(window["started_at"]),
            "aggregated_at": settle_at,
            "virtual_seconds": settle_at - float(window["started_at"]),
            "shards": cfg.shards,
            "dead_shards": [],
            "shard_bytes": int(shard_bytes),
            "aggregator_peak_bytes": int(peak),
            "rule": cfg.rule,
            "accuracy": accuracy,
            "buffer_size": cfg.buffer_size,
            "staleness": histogram,
            "staleness_max": max(stale_values, default=0),
            "staleness_mean": (
                sum(stale_values) / len(stale_values) if stale_values else 0.0
            ),
            **window["counts"],
        }
        self.history.append(outcome)
        self.round += 1
        self._version_weights[self.round] = self.model.get_weights()
        self._prune_versions()
        self._fresh_window()

    def _prune_versions(self) -> None:
        """Keep only model versions an in-flight dispatch still trains from.

        This is the flat-memory invariant of the async engine: resident
        versions are bounded by the concurrency window, never by the
        number of commits or the fleet size.
        """
        live = {int(e["version"]) for e in self._inflight.values()}
        live.add(self.round)
        self._version_weights = {
            version: weights
            for version, weights in self._version_weights.items()
            if version in live
        }

    def step_commit(self) -> Dict[str, object]:
        """Advance the async pipeline until the next commit; return it."""
        cfg = self.config
        if not cfg.async_mode:
            raise RuntimeError("step_commit requires SimConfig(async_mode=True)")
        registry = get_registry()
        first = not getattr(self, "_async_ready", False)
        self._ensure_async()
        target = self.round + 1
        self._fill_pipeline(registry)
        if first:
            self._save_checkpoint()
        while self.round < target:
            if self.loop.step():
                continue
            if self._buffer.pending > 0:
                # Nothing left in flight but a partial window remains
                # (e.g. the whole fleet quarantined): commit what we have,
                # flagged degraded, rather than stalling forever.
                self._commit(registry, degraded=True)
                self._save_checkpoint()
                break
            raise RuntimeError(
                "async pipeline stalled: no events pending and empty buffer"
            )
        return self.history[-1]

    # -- checkpoint / resume ----------------------------------------------
    def _save_checkpoint(self) -> None:
        """Persist round cursor + weights + history through secure storage.

        A single ``put`` keeps the checkpoint atomic (meta and weights can
        never disagree), and the storage layer's rollback counter means a
        replayed older checkpoint is detected, not silently resumed.
        """
        if self.storage is None:
            return
        meta = {
            "schema": REPORT_SCHEMA_VERSION,
            "round": self.round,
            "virtual_time": self.clock.time,
            "history": self.history,
            # The reputation ledger must survive a coordinator restart or a
            # resumed run would re-admit clients the original quarantined.
            "reputation": (
                self.reputation.state_dict()
                if self.reputation is not None
                else None
            ),
        }
        if self.config.async_mode and getattr(self, "_async_ready", False):
            meta["async"] = self._async_state()
        blob = (
            json.dumps(meta, sort_keys=True).encode()
            + b"\x00"
            + weights_to_bytes(self.model.get_weights())
        )
        self.storage.put(self.TA_UUID, _CHECKPOINT_OBJECT, blob)
        get_registry().counter(
            "sim.checkpoints", "round checkpoints sealed into secure storage"
        ).inc()

    def _load_checkpoint(self) -> None:
        try:
            blob = self.storage.get(self.TA_UUID, _CHECKPOINT_OBJECT)
        except KeyError:
            return
        meta_raw, _, weights_blob = blob.partition(b"\x00")
        meta = json.loads(meta_raw)
        self.model.set_weights(weights_from_bytes(weights_blob))
        self.round = int(meta["round"])
        self.history = list(meta["history"])
        if self.reputation is not None and meta.get("reputation"):
            self.reputation.load_state(meta["reputation"])
        self.clock.advance_to(float(meta["virtual_time"]))
        if self.config.async_mode and meta.get("async"):
            self._restore_async(meta["async"])
        self.resumed_from = self.round
        get_registry().counter(
            "sim.resumes", "simulations resumed from a secure-storage checkpoint"
        ).inc()

    def _async_state(self) -> Dict[str, object]:
        """JSON-safe snapshot of the mid-window async pipeline.

        Everything needed to resume *between events*: the dispatch cursor,
        the in-flight descriptors (plain dicts — their payloads are pure
        functions of ``(seed, dispatch, client)`` plus a stored model
        version, so events are rebuilt, not serialised), the referenced
        model versions, the open commit window's tallies, and the buffer's
        expansion state.
        """
        return {
            "dispatch": self._dispatch_counter,
            "inflight": sorted(
                (dict(entry) for entry in self._inflight.values()),
                key=lambda e: int(e["dispatch"]),
            ),
            "versions": {
                str(version): base64.b64encode(weights_to_bytes(weights)).decode(
                    "ascii"
                )
                for version, weights in sorted(self._version_weights.items())
            },
            "buffer": self._buffer.state_dict(),
            "window": {
                "counts": dict(self._window["counts"]),
                "updates": [list(u) for u in self._window["updates"]],
                "started_at": float(self._window["started_at"]),
                "dispatched": int(self._window["dispatched"]),
            },
        }

    def _restore_async(self, state: Dict[str, object]) -> None:
        """Rebuild the async pipeline from :meth:`_async_state` bits."""
        self._ensure_async()
        self._dispatch_counter = int(state["dispatch"])
        self._version_weights = {
            int(version): weights_from_bytes(base64.b64decode(blob))
            for version, blob in state["versions"].items()
        }
        self._buffer.load_state(state["buffer"])
        window = state["window"]
        self._window = {
            "counts": dict(window["counts"]),
            "updates": [list(u) for u in window["updates"]],
            "started_at": float(window["started_at"]),
            "dispatched": int(window["dispatched"]),
        }
        self._inflight = {}
        # Deterministic re-scheduling: pending events sorted by (time,
        # dispatch) reproduce the original queue order (ties on distinct
        # continuous durations do not occur in practice).
        for entry in sorted(
            (dict(e) for e in state["inflight"]),
            key=lambda e: (float(e["at"]), int(e["dispatch"])),
        ):
            self._inflight[int(entry["client"])] = entry
            self._schedule_async_event(entry)

    # -- whole runs --------------------------------------------------------
    def run(self) -> Dict[str, object]:
        """Run (or finish) all configured rounds/commits; return the report."""
        step = self.step_commit if self.config.async_mode else self.step_round
        while self.round < self.config.rounds:
            step()
        return self.report()

    def weights_digest(self) -> str:
        """SHA-256 over the flattened global weights (order-stable)."""
        return hashlib.sha256(
            flatten_weights(self.model.get_weights()).tobytes()
        ).hexdigest()

    def report(self) -> Dict[str, object]:
        """JSON-ready, byte-reproducible summary of the whole run."""
        totals: Dict[str, object] = {
            key: sum(int(outcome.get(key, 0)) for outcome in self.history)
            for key in _COUNT_KEYS
        }
        totals["rounds"] = len(self.history)
        totals["degraded"] = sum(1 for o in self.history if o["degraded"])
        totals["collected"] = sum(len(o["collected"]) for o in self.history)
        totals["asked"] = sum(int(o["asked"]) for o in self.history)
        totals["shard_bytes"] = sum(int(o["shard_bytes"]) for o in self.history)
        if self.config.async_mode:
            # Commit-level aggregates: updates folded (a client can land in
            # several windows) and the merged staleness histogram.
            totals["commits"] = len(self.history)
            totals["updates"] = sum(len(o["updates"]) for o in self.history)
            staleness: Dict[str, int] = {}
            for outcome in self.history:
                for bucket, count in outcome["staleness"].items():
                    staleness[bucket] = staleness.get(bucket, 0) + int(count)
            totals["staleness"] = staleness
            totals["staleness_max"] = max(
                (int(o["staleness_max"]) for o in self.history), default=0
            )
        return {
            "schema": REPORT_SCHEMA_VERSION,
            "mode": "async" if self.config.async_mode else "sync",
            "config": asdict(self.config),
            "fault_plan": self.fault_plan.describe(),
            "rounds": self.history,
            "totals": totals,
            "rule": self.config.rule,
            "final_accuracy": self.accuracy(),
            # Computed from the per-round records (not live state) so a
            # resumed run reports the same bytes as an uninterrupted one.
            "aggregator_peak_bytes": max(
                (int(o["aggregator_peak_bytes"]) for o in self.history), default=0
            ),
            "virtual_seconds": self.clock.time,
            "weights_sha256": self.weights_digest(),
            "resumed_from_round": self.resumed_from,
        }
