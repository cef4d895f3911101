"""Command-line interface: regenerate any of the paper's experiments.

Usage::

    python -m repro list                  # what can be regenerated
    python -m repro table6                # cost-model Table 6
    python -m repro fig5 --fast           # DRIA sweep, reduced budget
    python -m repro table5 --rounds 24    # DPIA, custom round count
    python -m repro fig8                  # GradSec vs DarkneTZ
    python -m repro summary               # Table 1 headline
    python -m repro simulate --clients 100000 --shards 64

Every subcommand spells the shared knobs the same way: ``--seed``,
``--clients``, ``--rounds``, ``--out``.  Errors caught while parsing,
including an ``--out`` path that cannot be written or a ``simulate``
configuration value out of range, exit with status 2 and a one-line
``error:`` message before any work starts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, NoReturn, Optional

from .bench.experiments import (
    DPIA_BEST_V_MW,
    dpia_experiment,
    dria_experiment,
    mia_experiment,
)
from .bench.reference import TABLE5_DYNAMIC, TABLE5_STATIC, TABLE6_STATIC
from .bench.tables import format_comparison, layers_label, print_table
from .core import (
    DarknetzPolicy,
    DynamicPolicy,
    NoProtection,
    PeltaPolicy,
    StaticPolicy,
    policy_from_spec,
)
from .nn import lenet5
from .tee import CostModel

MODEL_CHOICES = ("lenet5", "alexnet", "mlp", "vit_tiny", "gpt_tiny")


def _zoo_model(name: str, seed: int = 0, num_classes: int = 10):
    """Build a model-zoo entry by CLI name."""
    from . import nn as _nn

    if name not in MODEL_CHOICES:
        raise ValueError(f"unknown model {name!r}; expected one of {MODEL_CHOICES}")
    factory = getattr(_nn, name)
    if name == "mlp":
        return factory(num_classes=num_classes, input_shape=(6,), seed=seed)
    return factory(num_classes=num_classes, seed=seed)

__all__ = ["main"]


def _row_dicts(rows) -> List[dict]:
    """ExperimentRow list -> JSON-safe row dicts (stable key order)."""
    return [
        {
            "label": row.label,
            "protected": list(row.protected),
            "score": float(row.score),
            "metric": row.metric,
        }
        for row in rows
    ]


def _write_payload(out: Optional[str], payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {out}")


def _cost_dict(cost) -> dict:
    return {
        "user_seconds": float(cost.user_seconds),
        "kernel_seconds": float(cost.kernel_seconds),
        "alloc_seconds": float(cost.alloc_seconds),
        "total_seconds": float(cost.total_seconds),
        "tee_memory_mib": float(cost.tee_memory_mib),
    }


def _cmd_table6(args: argparse.Namespace) -> Optional[dict]:
    model = lenet5()
    cost_model = CostModel(batch_size=args.batch_size)
    baseline = cost_model.cycle_cost(model)
    rows = [
        f"  {'baseline':<14} {baseline.user_seconds:5.3f}+{baseline.kernel_seconds:5.3f}+0.000s  0.000 MiB"
    ]
    results = [{"label": "baseline", **_cost_dict(baseline)}]
    for config in sorted(TABLE6_STATIC):
        cost = cost_model.cycle_cost(model, config)
        rows.append(
            f"  {layers_label(config):<14} {cost.user_seconds:5.3f}+"
            f"{cost.kernel_seconds:5.3f}+{cost.alloc_seconds:5.3f}s  "
            f"{cost.tee_memory_mib:5.3f} MiB ({cost.overhead_percent(baseline):+.0f}%)"
        )
        results.append({"label": layers_label(config), **_cost_dict(cost)})
    print_table(f"Table 6 (batch {args.batch_size})", rows)
    return {"command": "table6", "batch_size": args.batch_size, "rows": results}


def _cmd_fig5(args: argparse.Namespace) -> Optional[dict]:
    protected_sets = [(), (1,), (2,), (1, 2), (5,)]
    rows = dria_experiment(
        protected_sets,
        iterations=30 if args.fast else 150,
        num_classes=10,
        model_scale=0.5 if args.fast else 1.0,
        seed=args.seed,
    )
    print_table(
        "Figure 5 (a): DRIA ImageLoss (LeNet-5)",
        [f"  {layers_label(r.protected):<8} ImageLoss={r.score:7.3f}" for r in rows],
    )
    return {"command": "fig5", "seed": args.seed, "rows": _row_dicts(rows)}


def _cmd_fig6(args: argparse.Namespace) -> Optional[dict]:
    protected_sets = [(), (5,), (4, 5), (2, 3, 4, 5), (1, 2, 3, 4, 5)]
    rows = mia_experiment(protected_sets, fast=args.fast, seed=args.seed)
    print_table(
        "Figure 6 (a): MIA AUC (LeNet-5)",
        [f"  {layers_label(r.protected):<16} AUC={r.score:.3f}" for r in rows],
    )
    return {"command": "fig6", "seed": args.seed, "rows": _row_dicts(rows)}


def _cmd_table5(args: argparse.Namespace) -> Optional[dict]:
    policies = [
        ("none", NoProtection(5)),
        ("L4", StaticPolicy(5, [4])),
        ("L3+L4", StaticPolicy(5, [3, 4])),
        ("L2+L3+L4+L5", StaticPolicy(5, [2, 3, 4, 5], max_slices=None)),
        ("MW=2", DynamicPolicy(5, 2, DPIA_BEST_V_MW[2], seed=3)),
        ("MW=3", DynamicPolicy(5, 3, DPIA_BEST_V_MW[3], seed=3)),
        ("MW=4", DynamicPolicy(5, 4, DPIA_BEST_V_MW[4], seed=3)),
    ]
    rows = dpia_experiment(
        policies, cycles=args.rounds, seed=args.seed, fast=args.fast
    )
    paper = {**TABLE5_STATIC, **TABLE5_DYNAMIC}
    print_table(
        "Table 5: DPIA AUC",
        [format_comparison(r.label, r.score, paper.get(r.label), "AUC") for r in rows],
    )
    return {
        "command": "table5",
        "rounds": args.rounds,
        "seed": args.seed,
        "rows": _row_dicts(rows),
    }


def _cmd_fig8(args: argparse.Namespace) -> Optional[dict]:
    model = lenet5()
    cost_model = CostModel(batch_size=32)
    gradsec = cost_model.cycle_cost(model, (2, 5))
    darknetz = cost_model.cycle_cost(model, (2, 3, 4, 5))
    policy = DynamicPolicy(5, 2, DPIA_BEST_V_MW[2], seed=0)
    dynamic, _ = cost_model.dynamic_cost(model, policy.windows, policy.v_mw)
    print_table(
        "Figure 8: GradSec vs DarkneTZ",
        [
            f"  static  GradSec {{L2,L5}}: {gradsec.total_seconds:6.3f}s  {gradsec.tee_memory_mib:5.3f} MiB",
            f"  dynamic GradSec (MW=2) : {dynamic.total_seconds:6.3f}s  {dynamic.tee_memory_mib:5.3f} MiB",
            f"  DarkneTZ {{L2-L5}}      : {darknetz.total_seconds:6.3f}s  {darknetz.tee_memory_mib:5.3f} MiB",
        ],
    )
    return {
        "command": "fig8",
        "rows": [
            {"label": "gradsec_static", **_cost_dict(gradsec)},
            {"label": "gradsec_dynamic_mw2", **_cost_dict(dynamic)},
            {"label": "darknetz", **_cost_dict(darknetz)},
        ],
    }


def _cmd_summary(args: argparse.Namespace) -> Optional[dict]:
    payload = _cmd_fig8(args)
    print("\nAttack side (use 'fig5', 'fig6', 'table5' for details);")
    print("'--fast' runs every experiment at reduced budget.")
    if payload is not None:
        payload = {**payload, "command": "summary"}
    return payload


def _cmd_blocks(args: argparse.Namespace) -> Optional[dict]:
    """Attack sweep over transformer block-shielding policies.

    Audits a transformer from the model zoo under no protection, per-block
    static Pelta shielding, all-blocks static shielding, and a moving
    window over block positions — reporting each attack's score next to
    the policy's cost-model footprint, the static-vs-moving-window
    trade-off of §8 recast with attention blocks as the protection unit.
    """
    from .attacks.suite import AttackSuite
    from . import nn as _nn

    entry = getattr(_nn, args.model)
    factory = lambda num_classes, seed: entry(  # noqa: E731
        num_classes=num_classes, seed=seed
    )
    model = factory(10, args.seed + 1)
    layout = model.layout()
    blocks = layout.block_names()
    roles = tuple(r for r in args.roles.split(",") if r) if args.roles else None

    policies = [("none", NoProtection(layout))]
    for block in blocks:
        policies.append(
            (f"static {block}", PeltaPolicy(layout, blocks=[block], roles=roles))
        )
    policies.append(("static all-blocks", PeltaPolicy(layout, roles=roles)))
    size = args.mw_size
    positions = len(blocks) - size + 1
    policies.append(
        (
            f"MW={size}",
            PeltaPolicy(
                layout,
                roles=roles,
                size_mw=size,
                v_mw=(1.0 / positions,) * positions,
                seed=args.seed + 3,
            ),
        )
    )

    suite = AttackSuite(seed=args.seed, fast=args.fast, model_factory=factory)
    cost_model = CostModel(batch_size=args.batch_size)
    results, lines = [], []
    for label, policy in policies:
        report = suite.audit(policy)
        if args.dpia:
            report.verdicts["DPIA"] = suite.audit_dpia(policy, cycles=args.rounds)
        cost = cost_model.cycle_cost(model, policy.layers_for_cycle(0))
        scores = {
            name: float(verdict.result.score)
            for name, verdict in report.verdicts.items()
        }
        results.append(
            {
                "label": label,
                "policy": policy.describe(),
                "protected": sorted(policy.layers_for_cycle(0)),
                "scores": scores,
                "secure": report.secure,
                **_cost_dict(cost),
            }
        )
        pretty = " ".join(f"{k}={v:7.3f}" for k, v in scores.items())
        lines.append(
            f"  {label:<20} {pretty}  {cost.tee_memory_mib:5.3f} MiB  "
            f"{'SECURE' if report.secure else 'not secure'}"
        )
    print_table(f"Block shielding sweep ({args.model}, batch {args.batch_size})", lines)
    return {
        "command": "blocks",
        "model": args.model,
        "roles": list(roles or PeltaPolicy.DEFAULT_ROLES),
        "mw_size": size,
        "seed": args.seed,
        "rows": results,
    }


def _cmd_trace(args: argparse.Namespace) -> None:
    """Run a tiny FL fleet under a fake clock and emit its trace + metrics.

    The whole run executes inside a fresh observability context with a
    deterministic clock, so two invocations with the same arguments emit
    byte-identical JSON — the trace is validated against the schema before
    anything is written.
    """
    from .core import StaticPolicy
    from .data.synthetic import synthetic_cifar
    from .fl import (
        AdmissionConfig,
        FLClient,
        FLServer,
        RoundConfig,
        ServerConfig,
        TrainingPlan,
    )
    from .nn import lenet5 as make_lenet5
    from .obs import FakeClock, fresh, validate_metrics, validate_trace

    protect = tuple(int(p) for p in args.protect.split(",") if p.strip())
    shape = (3, 16, 16)

    def policy():
        return StaticPolicy(5, protect) if protect else None

    # Admission is always in the loop for traces so the `fl.admission.*`
    # and `fl.reputation.*` counters appear in the metrics snapshot even
    # on a healthy fleet (zero-valued); --max-norm arms the norm ceiling.
    server_config = ServerConfig(
        seed=args.seed,
        round=RoundConfig(
            rule=args.rule,
            admission=AdmissionConfig(max_norm=args.max_norm),
        ),
    )

    with fresh(clock=FakeClock()) as ctx:
        global_model = make_lenet5(num_classes=10, input_shape=shape, seed=args.seed)
        plan = TrainingPlan(lr=0.05, batch_size=4, local_steps=args.steps)
        server = FLServer(global_model, plan, policy=policy(), config=server_config)
        dataset = synthetic_cifar(
            num_samples=8 * args.clients,
            num_classes=10,
            shape=shape,
            seed=args.seed,
        )
        clients = [
            FLClient(
                f"client-{i}",
                shard,
                global_model.clone(),
                policy=policy(),
                seed=args.seed + 100 + i,
            )
            for i, shard in enumerate(dataset.shard(args.clients))
        ]
        for client in clients:
            server.register(client)
        for _ in range(args.rounds):
            server.run_cycle(clients)
        trace = ctx.tracer.export()
        metrics = ctx.registry.snapshot()
        traffic = {
            "downlink_bytes": server.channel.downlink_bytes,
            "uplink_bytes": server.channel.uplink_bytes,
            "downloads": server.channel.downloads,
            "uploads": server.channel.uploads,
        }
    validate_trace(trace)
    validate_metrics(
        metrics,
        required=(
            "fl.admission.rejected",
            "fl.reputation.quarantined",
            "fl.aggregate.rule",
        ),
    )
    payload = {
        "schema": 1,
        "command": "trace",
        "config": {
            "clients": args.clients,
            "rounds": args.rounds,
            "seed": args.seed,
            "steps": args.steps,
            "protected_layers": list(protect),
            "rule": args.rule,
            "max_norm": args.max_norm,
        },
        "trace": trace,
        "metrics": metrics,
        "traffic": traffic,
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)


def _cmd_simulate(args: argparse.Namespace) -> None:
    """Simulate a large FL fleet in virtual time and emit a JSON report.

    Runs entirely under a fresh observability context with a virtual clock,
    and every random draw is keyed on the seed — two invocations with the
    same arguments produce byte-identical reports.  With ``--state-dir``
    the per-round checkpoint lands in a REE-FS backed secure storage (with
    a seed-derived storage key), so a killed run can be re-invoked and
    resumes where it stopped.  With ``--shards N`` updates are folded
    through a hierarchical aggregation tree of N shard aggregators whose
    memory stays O(model size) regardless of fleet size.  The global
    weights are bitwise-identical to the flat path for every rule but sync
    ``trimmed_mean``, which with 2 or more shards streams the exact,
    correctly rounded trimmed mean instead of calling the pure rule.  With
    ``--async`` the round barrier is replaced by the FedBuff-style
    buffered pipeline: commits fire every ``--buffer-size`` admitted
    updates and stale arrivals fold in under the ``--staleness``
    weighting — same determinism guarantees, including mid-buffer
    kill/resume.  An async run that stalls (every client quarantined or
    busy, nothing buffered) exits 1 with one ``error:`` line.
    """
    import hashlib

    from .obs import VirtualClock, fresh
    from .sim import FLSimulator, FaultPlan, FaultRates, SimConfig, SimulationStalled
    from .tee.storage import ReeFsBackend, SecureStorage

    try:
        config = SimConfig(
            num_clients=args.clients,
            rounds=args.rounds,
            seed=args.seed,
            cohort=args.cohort,
            overprovision=args.overprovision,
            quorum=args.quorum,
            deadline_seconds=args.deadline,
            shards=args.shards,
            byzantine=args.byzantine,
            attack=args.attack,
            attack_strength=args.attack_strength,
            rule=args.rule,
            trim=args.trim,
            num_byzantine=args.num_byzantine,
            max_norm=args.max_norm,
            clip=args.clip,
            drift=args.drift,
            update_scale=args.update_scale,
            async_mode=args.async_mode,
            buffer_size=args.buffer_size,
            staleness=args.staleness,
            staleness_exponent=args.staleness_exponent,
            concurrency=args.concurrency,
        )
        rates = FaultRates(
            dropout=args.dropout,
            straggler=args.straggler,
            corrupt=args.corrupt,
            pool_exhaust=args.pool_exhaust,
            attestation=args.attestation,
        )
        fault_plan = FaultPlan(
            rates,
            seed=args.seed,
            shard_down=args.shard_down,
            byzantine=args.byzantine,
            attack=args.attack,
            attack_strength=args.attack_strength,
        )
        model = _zoo_model(args.model, seed=args.seed) if args.model else None
        policy = None
        if args.policy:
            from .nn import mlp

            # The policy needs the layout of whatever model the simulator
            # will run, so replicate its default when --model wasn't given.
            target = model or mlp(
                num_classes=4, input_shape=(6,), hidden=(8, 5), seed=args.seed
            )
            policy = policy_from_spec(args.policy, target.layout(), seed=args.seed)
    except ValueError as exc:
        _fail("simulate", exc, status=2)

    storage = None
    if args.state_dir:
        import os

        # Deterministic SSK (resuming in a fresh process must unseal the
        # checkpoint the killed run wrote) and persistent rollback counters
        # (as RPMB persists across reboots on a real device).
        ssk = hashlib.sha256(f"repro-sim-{args.seed}".encode()).digest()
        storage = SecureStorage(
            ReeFsBackend(args.state_dir),
            ssk=ssk,
            counters_path=os.path.join(args.state_dir, "counters.json"),
        )

    with fresh(clock=VirtualClock()) as ctx:
        simulator = FLSimulator(
            config,
            model=model,
            policy=policy,
            fault_plan=fault_plan,
            storage=storage,
            clock=ctx.clock,
        )
        try:
            report = simulator.run()
        except SimulationStalled as exc:
            _fail("simulate", exc, status=1)
        report["metrics"] = ctx.registry.snapshot()
    payload = {"schema": 1, "command": "simulate", **report}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)


def _cmd_serve(args: argparse.Namespace) -> None:
    """Run the multi-tenant coordinator service under synthetic load.

    Spins up one :class:`~repro.serve.coordinator.Coordinator`, creates
    ``--tenants`` concurrent jobs (one per tenant, each with its own
    seeded client fleet), and drives them to ``--commits`` commits each
    on virtual time.  Entirely deterministic: two invocations with the
    same arguments emit byte-identical JSON reports.  With
    ``--state-dir`` the whole ensemble (coordinator, event loop clock,
    in-flight wire frames) checkpoints through secure storage after
    every ``--checkpoint-every`` events, so a ``kill -9`` mid-commit can
    be re-invoked with the same command line and finishes with a report
    bitwise identical to an uninterrupted run.  With ``--workers N``
    shard-level aggregation at commit time is dispatched to N worker
    processes — same bytes, by the exact reduce's order independence.
    """
    import hashlib

    from .obs import VirtualClock, fresh, validate_metrics
    from .serve import BreakerConfig, LoadSpec, ServeHarness, TenantQuota
    from .tee.storage import ReeFsBackend, SecureStorage

    chaos = bool(getattr(args, "chaos", False))
    specs = [
        LoadSpec(
            tenant=f"tenant-{i}",
            job_id=f"job-{i}",
            clients=args.clients,
            commits=args.commits,
            buffer_size=args.buffer_size,
            shards=args.shards,
            seed=args.seed + i,
            concurrency=args.concurrency,
            ratio=args.ratio,
            encoding=args.encoding,
            drift=args.drift,
            update_scale=args.update_scale,
            dropout=args.dropout,
            straggler=args.straggler,
            byzantine=args.byzantine,
            attack=args.attack,
            attack_strength=args.attack_strength,
            max_norm=args.max_norm,
            clip=args.clip,
            chaos=chaos,
            chaos_rate=args.chaos_rate if chaos else 0.0,
            chaos_seed=args.chaos_seed,
        )
        for i in range(args.tenants)
    ]
    breaker = (
        BreakerConfig(error_budget=args.chaos_breaker_budget)
        if chaos and args.chaos_breaker_budget > 0
        else None
    )
    quota = TenantQuota(max_queue_depth=args.max_queue_depth)
    storage = None
    if args.state_dir:
        import os

        # Same recovery discipline as `simulate`: a deterministic SSK so a
        # fresh process can unseal what the killed one wrote, and rollback
        # counters persisted RPMB-style.
        ssk = hashlib.sha256(f"repro-serve-{args.seed}".encode()).digest()
        storage = SecureStorage(
            ReeFsBackend(args.state_dir),
            ssk=ssk,
            counters_path=os.path.join(args.state_dir, "counters.json"),
        )

    with fresh(clock=VirtualClock()) as ctx:
        with ServeHarness(
            specs,
            workers=args.workers,
            quota=quota,
            storage=storage,
            checkpoint_every=args.checkpoint_every,
            clock=ctx.clock,
            breaker=breaker,
        ) as harness:
            harness.restore()
            report = harness.run()
        required = [
            "serve.jobs.active",
            "serve.queue.depth",
            "serve.backpressure.rejects",
            "serve.worker.restarts",
        ]
        if chaos:
            required += [
                "serve.transport.drops",
                "serve.transport.duplicates",
                "serve.transport.corrupt",
                "serve.transport.retransmits",
                "serve.transport.dedup.hits",
                "serve.transport.breaker.trips",
            ]
        validate_metrics(ctx.registry.snapshot(), required=tuple(required))
    payload = {"schema": 1, "command": "serve", **report}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)


_COMMANDS = {
    "table5": (_cmd_table5, "DPIA AUC, static vs dynamic GradSec"),
    "table6": (_cmd_table6, "CPU time and TEE memory per configuration"),
    "fig5": (_cmd_fig5, "DRIA ImageLoss vs protected layers"),
    "fig6": (_cmd_fig6, "MIA AUC vs protected layers"),
    "fig8": (_cmd_fig8, "GradSec vs DarkneTZ comparison"),
    "summary": (_cmd_summary, "headline comparison (Table 1 flavour)"),
    "blocks": (_cmd_blocks, "attack sweep over transformer block-shielding policies"),
}


def _cmd_list(args: argparse.Namespace) -> None:
    print("available experiments:")
    for name, (_, description) in _COMMANDS.items():
        print(f"  {name:<8} {description}")
    print(f"  {'trace':<8} deterministic FL-round trace + metrics as JSON")
    print(f"  {'simulate':<8} event-driven FL fleet simulation with fault injection")
    print(f"  {'serve':<8} multi-tenant coordinator service under synthetic load")


def _out_path(value: str) -> str:
    """argparse type of ``--out``: a file the run will be able to write.

    Checked at parse time so a long run is not wasted on a path that fails
    only when the result is written.
    """
    directory = os.path.dirname(os.path.abspath(value))
    if os.path.isdir(value):
        raise argparse.ArgumentTypeError(f"{value} is a directory")
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"directory {directory} does not exist")
    if not os.access(directory, os.W_OK) or (
        os.path.exists(value) and not os.access(value, os.W_OK)
    ):
        raise argparse.ArgumentTypeError(f"cannot write {value}")
    return value


def _fail(command: str, message: object, status: int) -> NoReturn:
    """Exit with one ``repro <command>: error: <message>`` line on stderr."""
    sys.stderr.write(f"repro {command}: error: {message}\n")
    raise SystemExit(status)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors are one line: ``<prog>: error: <why>``.

    Subparsers inherit the class, so every subcommand reports bad input
    the same way, with exit status 2 and no usage dump.
    """

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Regenerate the GradSec paper's tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    for name, (_, description) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=description)
        sub.add_argument("--fast", action="store_true", help="reduced budget")
        sub.add_argument("--rounds", type=int, default=36, help="FL rounds (DPIA)")
        sub.add_argument("--batch-size", type=int, default=32, help="batch size")
        sub.add_argument("--seed", type=int, default=0, help="experiment seed")
        sub.add_argument(
            "--out",
            type=_out_path,
            default=None,
            help="write result rows as JSON here",
        )
        if name == "blocks":
            sub.add_argument(
                "--model",
                default="vit_tiny",
                choices=["vit_tiny", "gpt_tiny"],
                help="transformer zoo entry to audit",
            )
            sub.add_argument(
                "--mw-size",
                type=int,
                default=1,
                help="moving-window width in blocks",
            )
            sub.add_argument(
                "--roles",
                default=None,
                help="comma-separated sublayer roles to shield per block "
                "(default: the Pelta set ln1,softmax,ln2)",
            )
            sub.add_argument(
                "--dpia",
                action="store_true",
                help="also run the multi-cycle DPIA pipeline per policy",
            )
    trace = subparsers.add_parser(
        "trace", help="deterministic FL-round trace + metrics as JSON"
    )
    trace.add_argument("--clients", type=int, default=2, help="FL participants")
    trace.add_argument("--rounds", type=int, default=1, help="FL rounds to trace")
    trace.add_argument("--seed", type=int, default=0, help="trace seed")
    trace.add_argument("--steps", type=int, default=1, help="local steps per client")
    trace.add_argument(
        "--protect",
        default="2,3",
        help="comma-separated protected layer indices ('' for none)",
    )
    trace.add_argument(
        "--rule",
        default="fedavg",
        choices=["fedavg", "median", "trimmed_mean", "krum", "clipped_fedavg"],
        help="aggregation rule for the traced rounds",
    )
    trace.add_argument(
        "--max-norm",
        type=float,
        default=None,
        help="admission-control L2 ceiling on update deltas",
    )
    trace.add_argument(
        "--out",
        type=_out_path,
        default=None,
        help="write the JSON here",
    )
    simulate = subparsers.add_parser(
        "simulate", help="event-driven FL fleet simulation with fault injection"
    )
    simulate.add_argument("--clients", type=int, default=100, help="fleet size")
    simulate.add_argument("--rounds", type=int, default=5, help="FL rounds")
    simulate.add_argument("--seed", type=int, default=0, help="simulation seed")
    simulate.add_argument(
        "--model",
        default=None,
        choices=list(MODEL_CHOICES),
        help="client model architecture (default: the simulator's small MLP)",
    )
    simulate.add_argument(
        "--policy",
        default=None,
        metavar="SPEC",
        help="protection policy spec: none, static:SEL+SEL, darknetz:SEL, "
        "mw:K, pelta, pelta:BLOCK, pelta-mw:K (e.g. "
        "--model vit_tiny --policy pelta-mw:1)",
    )
    simulate.add_argument(
        "--cohort", type=int, default=None, help="updates aggregated per round"
    )
    simulate.add_argument(
        "--overprovision", type=float, default=1.25, help="selection surplus factor"
    )
    simulate.add_argument(
        "--quorum", type=float, default=0.5, help="min fraction of cohort to aggregate"
    )
    simulate.add_argument(
        "--deadline", type=float, default=5.0, help="round deadline (virtual seconds)"
    )
    simulate.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard aggregators in the hierarchical reduce tree (1 = flat)",
    )
    simulate.add_argument("--dropout", type=float, default=0.0, help="dropout rate")
    simulate.add_argument(
        "--straggler", type=float, default=0.0, help="straggler rate"
    )
    simulate.add_argument(
        "--corrupt", type=float, default=0.0, help="payload-corruption rate"
    )
    simulate.add_argument(
        "--pool-exhaust", type=float, default=0.0, help="secure-pool exhaustion rate"
    )
    simulate.add_argument(
        "--attestation", type=float, default=0.0, help="attestation-failure rate"
    )
    simulate.add_argument(
        "--shard-down",
        type=float,
        default=0.0,
        help="per-round probability a shard aggregator is dead",
    )
    simulate.add_argument(
        "--byzantine",
        type=float,
        default=0.0,
        help="fraction of the fleet that is Byzantine (persistent identity)",
    )
    simulate.add_argument(
        "--attack",
        default="sign_flip",
        choices=["sign_flip", "scale", "gauss_noise", "collude"],
        help="attack Byzantine clients mount on their updates",
    )
    simulate.add_argument(
        "--attack-strength",
        type=float,
        default=10.0,
        help="attack strength parameter (scale factor / noise multiplier)",
    )
    simulate.add_argument(
        "--rule",
        default="fedavg",
        choices=["fedavg", "median", "trimmed_mean", "krum", "clipped_fedavg"],
        help="aggregation rule",
    )
    simulate.add_argument(
        "--trim",
        type=int,
        default=None,
        help="per-side trim for trimmed_mean (default: assumed attacker count)",
    )
    simulate.add_argument(
        "--num-byzantine",
        type=int,
        default=None,
        help="attacker count Krum assumes (default: ceil(byzantine * cohort))",
    )
    simulate.add_argument(
        "--max-norm",
        type=float,
        default=None,
        help="admission-control delta-norm ceiling (enables the reputation ledger)",
    )
    simulate.add_argument(
        "--clip",
        action="store_true",
        help="rescale over-norm updates onto the ceiling instead of rejecting",
    )
    simulate.add_argument(
        "--drift",
        type=float,
        default=0.2,
        help="per-round honest pull toward the teacher model",
    )
    simulate.add_argument(
        "--update-scale",
        type=float,
        default=0.05,
        help="noise std of honest pseudo-updates",
    )
    simulate.add_argument(
        "--async",
        dest="async_mode",
        action="store_true",
        help="FedBuff-style asynchronous buffered aggregation: no round "
        "barrier; commit every --buffer-size admitted updates, folding "
        "stale arrivals with their staleness weight",
    )
    simulate.add_argument(
        "--buffer-size",
        type=int,
        default=None,
        help="admitted updates per async commit (default: the cohort size)",
    )
    simulate.add_argument(
        "--staleness",
        default="constant",
        choices=["constant", "polynomial"],
        help="staleness weighting of late async updates",
    )
    simulate.add_argument(
        "--staleness-exponent",
        type=float,
        default=0.5,
        help="decay exponent a of the polynomial weighting (1+tau)^-a",
    )
    simulate.add_argument(
        "--concurrency",
        type=int,
        default=None,
        help="max in-flight clients in async mode (default: the asked cohort)",
    )
    simulate.add_argument(
        "--state-dir",
        default=None,
        help="checkpoint directory (enables kill/resume across invocations)",
    )
    simulate.add_argument(
        "--out",
        type=_out_path,
        default=None,
        help="write the JSON report here",
    )
    serve = subparsers.add_parser(
        "serve", help="multi-tenant coordinator service under synthetic load"
    )
    serve.add_argument(
        "--tenants", type=int, default=2, help="concurrent tenant jobs"
    )
    serve.add_argument(
        "--clients", type=int, default=1000, help="simulated clients per tenant"
    )
    serve.add_argument(
        "--commits", type=int, default=10, help="commits each job runs to"
    )
    serve.add_argument(
        "--buffer-size", type=int, default=64, help="admitted updates per commit"
    )
    serve.add_argument(
        "--shards", type=int, default=1, help="aggregation shards per job"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="multiprocess shard workers for commit-time folds (0 = in-process; "
        "the committed bytes are identical either way)",
    )
    serve.add_argument(
        "--concurrency", type=int, default=128, help="in-flight dispatches per job"
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=4096,
        help="staged updates per job before backpressure rejects",
    )
    serve.add_argument(
        "--ratio",
        type=float,
        default=None,
        help="top-k sparsification ratio for uplink deltas (default: dense)",
    )
    serve.add_argument(
        "--encoding",
        default="f64",
        choices=["f64", "f32", "f16", "q8"],
        help="wire value encoding of uplink deltas",
    )
    serve.add_argument("--seed", type=int, default=0, help="base seed (tenant i adds i)")
    serve.add_argument("--dropout", type=float, default=0.0, help="dropout rate")
    serve.add_argument(
        "--straggler", type=float, default=0.0, help="straggler rate"
    )
    serve.add_argument(
        "--byzantine", type=float, default=0.0, help="Byzantine fleet fraction"
    )
    serve.add_argument(
        "--attack",
        default="sign_flip",
        choices=["sign_flip", "scale", "gauss_noise", "collude"],
        help="attack Byzantine clients mount",
    )
    serve.add_argument(
        "--attack-strength", type=float, default=10.0, help="attack strength"
    )
    serve.add_argument(
        "--max-norm",
        type=float,
        default=None,
        help="admission-control delta-norm ceiling (enables reputation)",
    )
    serve.add_argument(
        "--clip",
        action="store_true",
        help="rescale over-norm updates onto the ceiling instead of rejecting",
    )
    serve.add_argument(
        "--drift", type=float, default=0.2, help="honest pull toward the teacher"
    )
    serve.add_argument(
        "--update-scale", type=float, default=0.05, help="honest update noise std"
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        help="checkpoint directory (enables kill/resume across invocations)",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        help="events between checkpoints when --state-dir is set",
    )
    serve.add_argument(
        "--chaos",
        action="store_true",
        help="route frames through the seeded chaos transport "
        "(exactly-once delivery: committed weights stay bitwise identical "
        "to a --chaos-rate 0 run for any rate/seed)",
    )
    serve.add_argument(
        "--chaos-rate",
        type=float,
        default=0.1,
        help="aggregate per-send fault probability, split evenly across "
        "drop/duplicate/reorder/corrupt/truncate/replay",
    )
    serve.add_argument(
        "--chaos-seed", type=int, default=0, help="chaos fault-stream seed"
    )
    serve.add_argument(
        "--chaos-breaker-budget",
        type=int,
        default=0,
        help="malformed frames tolerated per tenant in a 30s sliding window "
        "before the circuit breaker sheds it (0 = breaker off)",
    )
    serve.add_argument(
        "--out",
        type=_out_path,
        default=None,
        help="write the JSON report here",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        _cmd_list(args)
        return 0
    if args.command == "trace":
        _cmd_trace(args)
        return 0
    if args.command == "simulate":
        _cmd_simulate(args)
        return 0
    if args.command == "serve":
        _cmd_serve(args)
        return 0
    handler, _ = _COMMANDS[args.command]
    payload = handler(args)
    if payload is not None and args.out:
        _write_payload(args.out, {"schema": 1, **payload})
    return 0


if __name__ == "__main__":
    sys.exit(main())
