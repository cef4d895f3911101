"""Span recorder and timing wrappers for the traced benchmark run.

The benchmark measures the program without changing it: for a traced
episode it swaps each probed public function for a wrapper that records a
span (name, start, end, parent) and restores the originals afterwards.
A wrapper is installed wherever callers look the function up — on the
class for methods, and in every ``repro`` module namespace that bound a
module-level function by name (``serve.loadgen`` and ``serve.coordinator``
import the ``serve.wire`` functions that way).

Self time of a span is its duration minus the time its child spans cover;
it is accumulated online from the span stack, so the per-layer self times
plus the unattributed remainder add up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["GROUPS", "LAYERS", "PROBES", "SIZED", "USED_BY", "Probe", "SpanRecorder"]


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


@dataclass(frozen=True)
class Probe:
    """One public function of one layer, timed in the traced run.

    ``label`` names the metric group; probes sharing a label (the three
    ``obs`` metric calls) are summed.  ``used_by`` lists the workloads
    meant to call it: the traced run asserts calls on exactly those.
    ``size`` returns the payload bytes of one call from
    ``(args, kwargs, result)``; args include ``self``.
    """

    layer: str
    label: str
    module: str
    target: str
    used_by: Tuple[str, ...]
    size: Optional[Callable] = None

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.label}"


GRADSEC = ("gradsec_round",)
SERVE = ("serve_dense", "serve_chaos")
ALL = ("gradsec_round", "serve_dense", "serve_chaos", "sim_async")

PROBES: Tuple[Probe, ...] = (
    Probe("tee.crypto", "encrypt", "repro.tee.crypto", "encrypt", GRADSEC,
          lambda a, k, r: len(_arg(a, k, 1, "plaintext"))),
    Probe("tee.crypto", "decrypt", "repro.tee.crypto", "decrypt", GRADSEC,
          lambda a, k, r: len(r)),
    Probe("tee.storage", "get", "repro.tee.storage", "SecureStorage.get", GRADSEC,
          lambda a, k, r: len(r)),
    Probe("tee.storage", "put", "repro.tee.storage", "SecureStorage.put", GRADSEC,
          lambda a, k, r: len(_arg(a, k, 3, "payload"))),
    Probe("tee.iopath", "seal", "repro.tee.iopath", "TrustedIOPath.seal", GRADSEC,
          lambda a, k, r: len(r)),
    Probe("tee.iopath", "unseal_remote", "repro.tee.iopath",
          "TrustedIOPath.unseal_remote", GRADSEC,
          lambda a, k, r: len(_arg(a, k, 1, "blob"))),
    Probe("tee.iopath", "unseal_to_enclave", "repro.tee.iopath",
          "TrustedIOPath.unseal_to_enclave", GRADSEC,
          lambda a, k, r: len(_arg(a, k, 1, "blob"))),
    Probe("tee.iopath", "seal_from_enclave", "repro.tee.iopath",
          "TrustedIOPath.seal_from_enclave", GRADSEC, lambda a, k, r: len(r)),
    Probe("tee.monitor", "smc", "repro.tee.monitor", "SecureMonitor.smc", GRADSEC),
    Probe("core.shielded", "train_step", "repro.core.shielded",
          "ShieldedModel.train_step", GRADSEC),
    Probe("core.shielded", "begin_cycle", "repro.core.shielded",
          "ShieldedModel.begin_cycle", GRADSEC),
    Probe("core.shielded", "export_update", "repro.core.shielded",
          "ShieldedModel.export_update", GRADSEC),
    Probe("fl.client", "run_cycle", "repro.fl.client", "FLClient.run_cycle", GRADSEC),
    Probe("fl.server", "run_cycle", "repro.fl.server", "FLServer.run_cycle", GRADSEC),
    Probe("serve.loadgen", "fill", "repro.serve.loadgen", "LoadGenerator.fill", SERVE),
    Probe("serve.wire", "encode_frame", "repro.serve.wire", "encode_frame", SERVE,
          lambda a, k, r: len(r)),
    # decode_frame verifies through the module global, so verify_frame
    # counts on both serve paths.
    Probe("serve.wire", "verify_frame", "repro.serve.wire", "verify_frame", SERVE,
          lambda a, k, r: len(_arg(a, k, 0, "data"))),
    Probe("serve.wire", "decode_frame", "repro.serve.wire", "decode_frame", SERVE,
          lambda a, k, r: len(_arg(a, k, 0, "data"))),
    Probe("serve.coordinator", "submit", "repro.serve.coordinator",
          "Coordinator.submit", ("serve_dense",)),
    Probe("serve.coordinator", "ingest", "repro.serve.coordinator",
          "Coordinator.ingest", ("serve_chaos",)),
    Probe("serve.coordinator", "pump", "repro.serve.coordinator",
          "Coordinator.pump", SERVE),
    Probe("serve.transport", "send", "repro.serve.transport", "ChaosChannel.send",
          ("serve_chaos",)),
    Probe("fl.buffer", "fold", "repro.fl.buffer", "BufferedAggregator.fold",
          SERVE + ("sim_async",)),
    Probe("fl.buffer", "commit", "repro.fl.buffer", "BufferedAggregator.commit",
          SERVE + ("sim_async",)),
    Probe("sim.events", "step", "repro.sim.events", "EventLoop.step",
          SERVE + ("sim_async",)),
    Probe("sim.engine", "step_commit", "repro.sim.engine", "FLSimulator.step_commit",
          ("sim_async",)),
    Probe("obs", "metrics", "repro.obs.metrics", "Counter.inc", ALL),
    Probe("obs", "metrics", "repro.obs.metrics", "Gauge.set", ALL),
    Probe("obs", "metrics", "repro.obs.metrics", "Histogram.observe", ALL),
)

# Layers in the order the trace table prints them.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(p.layer for p in PROBES))

# Metric groups (layer.label) in first-appearance order, the groups that
# carry a byte count, and the workloads meant to call each group.
GROUPS: Tuple[str, ...] = tuple(dict.fromkeys(p.key for p in PROBES))
SIZED: frozenset = frozenset(p.key for p in PROBES if p.size is not None)
USED_BY: Dict[str, Tuple[str, ...]] = {p.key: p.used_by for p in PROBES}


class SpanRecorder:
    """In-memory span store fed by the wrappers while they are installed.

    Spans live in flat typed arrays (group id, start ns, end ns, parent
    index), so a traced serve episode with a few hundred thousand calls
    stays small; :meth:`dump` writes them out once the run ends.
    """

    def __init__(self) -> None:
        self.group_ids: Dict[str, int] = {key: i for i, key in enumerate(GROUPS)}
        self.calls = [0] * len(GROUPS)
        self.self_ns = [0] * len(GROUPS)
        self.nbytes = [0] * len(GROUPS)
        self.span_group = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self._stack: List[List[int]] = []  # [span index, child ns]
        self._installed: List[Tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------
    def _wrap(self, fn, group: int, size):
        calls, self_ns, nbytes = self.calls, self.self_ns, self.nbytes
        starts, ends = self.span_start, self.span_end
        groups, parents = self.span_group, self.span_parent
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = len(starts)
            groups.append(group)
            parents.append(stack[-1][0] if stack else -1)
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            ends.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ends[index] = end
                span = end - start
                self_ns[group] += span - frame[1]
                calls[group] += 1
                if stack:
                    stack[-1][1] += span
            if size is not None:
                nbytes[group] += size(args, kwargs, result)
            return result

        return timed

    def install(self) -> None:
        """Swap every probe's function for its timing wrapper."""
        if self._installed:
            raise RuntimeError("wrappers already installed")
        for probe in PROBES:
            module = importlib.import_module(probe.module)
            group = self.group_ids[probe.key]
            owner_name, _, attr = probe.target.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._installed.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, group, probe.size))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, group, probe.size)
            for name, loaded in list(sys.modules.items()):
                if name != "repro" and not name.startswith("repro."):
                    continue
                namespace = vars(loaded)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._installed.append((loaded, key, original))
                        setattr(loaded, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results -------------------------------------------------------
    def top_level_ns(self) -> int:
        """Summed duration of root spans: all attributed time."""
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        starts = np.frombuffer(self.span_start, dtype=np.int64)
        ends = np.frombuffer(self.span_end, dtype=np.int64)
        roots = parents == -1
        return int((ends[roots] - starts[roots]).sum())

    def dump(self, path) -> None:
        """Write every span (group, start, end, parent) as ``.npz``."""
        np.savez_compressed(
            path,
            names=np.array(GROUPS),
            group=np.frombuffer(self.span_group, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )
