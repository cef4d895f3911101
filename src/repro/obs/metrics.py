"""Process-wide metrics registry: counters, gauges, histograms.

All metric mutation happens under one registry lock, so counts are exact
even when several threads record at once — which is what lets the
invariant tests assert *exact* SMC call counts rather than lower bounds.

Metrics are named with dotted strings (``tee.smc.calls``) and may carry
labels (``ta="gradsec-lenet5", command="forward_run"``).  Each distinct
label combination is a separate series; :meth:`Counter.total` aggregates
across them.  :meth:`MetricsRegistry.snapshot` returns a plain-JSON dict —
the exact payload ``repro trace`` embeds.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "label_key"]

_Scalar = (str, int, float, bool)


def label_key(labels: Dict[str, object]) -> str:
    """Canonical series key: ``"k1=v1,k2=v2"`` with keys sorted."""
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


class _Metric:
    """Shared plumbing: name, description and the registry's lock."""

    kind = "metric"

    def __init__(self, name: str, description: str, lock: threading.RLock) -> None:
        self.name = name
        self.description = description
        self._lock = lock


class Counter(_Metric):
    """Monotonically increasing count, one series per label combination."""

    kind = "counter"

    def __init__(self, name: str, description: str, lock: threading.RLock) -> None:
        super().__init__(name, description, lock)
        self._values: Dict[str, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return sum(self._values.values())

    def series(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._values)

    def snapshot(self) -> Dict[str, float]:
        return self.series()


class Gauge(_Metric):
    """Point-in-time value (pool occupancy, worker count, utilization)."""

    kind = "gauge"

    def __init__(self, name: str, description: str, lock: threading.RLock) -> None:
        super().__init__(name, description, lock)
        self._values: Dict[str, float] = {}

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._values[label_key(labels)] = float(value)

    def set_max(self, value: float, **labels) -> None:
        """Keep the running maximum — used for high-water marks."""
        key = label_key(labels)
        with self._lock:
            current = self._values.get(key)
            if current is None or value > current:
                self._values[key] = float(value)

    def add(self, amount: float, **labels) -> None:
        key = label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + float(amount)

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(label_key(labels), 0.0)

    def series(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._values)

    def snapshot(self) -> Dict[str, float]:
        return self.series()


class Histogram(_Metric):
    """Streaming summary per series: count / sum / min / max.

    No bucket boundaries: the consumers here (tests, the perf JSON) want
    exact counts and totals, and summaries stay deterministic under the
    fake clock, which bucket boundaries chosen against wall time would not.
    """

    kind = "histogram"

    def __init__(self, name: str, description: str, lock: threading.RLock) -> None:
        super().__init__(name, description, lock)
        self._stats: Dict[str, Dict[str, float]] = {}

    def observe(self, value: float, **labels) -> None:
        key = label_key(labels)
        value = float(value)
        with self._lock:
            stats = self._stats.get(key)
            if stats is None:
                self._stats[key] = {
                    "count": 1,
                    "sum": value,
                    "min": value,
                    "max": value,
                }
            else:
                stats["count"] += 1
                stats["sum"] += value
                stats["min"] = min(stats["min"], value)
                stats["max"] = max(stats["max"], value)

    def stats(self, **labels) -> Optional[Dict[str, float]]:
        with self._lock:
            found = self._stats.get(label_key(labels))
            return dict(found) if found else None

    def count(self, **labels) -> int:
        found = self.stats(**labels)
        return int(found["count"]) if found else 0

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {key: dict(stats) for key, stats in self._stats.items()}


class MetricsRegistry:
    """Get-or-create home for every metric in the process.

    Re-requesting a name returns the same object; requesting an existing
    name as a different kind is a bug and raises.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, description: str) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, description, self._lock)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
                )
            return metric

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, description)

    def histogram(self, name: str, description: str = "") -> Histogram:
        return self._get_or_create(Histogram, name, description)

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._metrics))

    def reset(self) -> None:
        """Drop every metric (fresh measurement window)."""
        with self._lock:
            self._metrics.clear()

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready dump: ``{"counters": {...}, "gauges": {...}, ...}``."""
        with self._lock:
            out: Dict[str, Dict[str, object]] = {
                "counters": {},
                "gauges": {},
                "histograms": {},
            }
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                out[metric.kind + "s"][name] = metric.snapshot()
            return out
