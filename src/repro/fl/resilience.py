"""Round resilience: bounded retry with backoff and quorum policy.

Production FL fleets lose clients every round — crashes, network drops,
corrupted relays, enclave aborts.  The seed server treated any client
exception as fatal to the whole cycle.  This module provides the policy
object and the collection loop the resilient paths (both the live
:class:`~repro.fl.server.FLServer` and the event-driven simulator) share:

* failed client work is retried up to ``max_retries`` times with
  exponential backoff;
* clients still failing after the budget are *dropped from the round*, not
  allowed to abort it;
* the round aggregates only if at least ``ceil(quorum * n)`` clients
  delivered, otherwise the caller degrades gracefully (keeps the previous
  global model).

Every attempt and giveup is published to the ``fl.retry.*`` metrics so a
trace shows exactly how hard a round had to fight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from ..obs import get_registry
from .executor import SequentialRoundExecutor

__all__ = ["RetryPolicy", "collect_with_retries"]

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class RetryPolicy:
    """How a round tolerates client failures.

    Attributes
    ----------
    max_retries:
        Extra attempts per client after the first failure.
    backoff_seconds:
        Base backoff; attempt ``i`` waits ``backoff * 2**i`` (accounted in
        metrics — the in-memory deployment does not actually sleep).
    quorum:
        Minimum fraction of the cohort that must deliver an update for the
        round to aggregate.
    """

    max_retries: int = 1
    backoff_seconds: float = 0.1
    quorum: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds cannot be negative")
        if not 0.0 < self.quorum <= 1.0:
            raise ValueError("quorum must be in (0, 1]")

    def quorum_count(self, cohort_size: int) -> int:
        """Minimum deliveries for a cohort of ``cohort_size``."""
        return max(1, math.ceil(self.quorum * cohort_size))

    def backoff_for(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based): ``base * 2**(a-1)``.

        This is the single backoff schedule the whole codebase uses —
        both :func:`collect_with_retries` (round-level client retries)
        and the serve transport's ack-driven retransmission derive their
        delays from it, so the two paths stay numerically identical for
        the same policy.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return self.backoff_seconds * (2 ** (attempt - 1))

    def bounded_backoff_for(self, attempt: int) -> float:
        """:meth:`backoff_for` with the exponent capped at ``max_retries``.

        Unbounded retransmission loops (exactly-once delivery must retry
        until acknowledged) use this form: the delay grows exponentially
        for the first ``max_retries`` attempts and then stays flat, so a
        long outage never inflates the wait past the cap.
        """
        return self.backoff_for(min(max(attempt, 1), self.max_retries + 1))


def collect_with_retries(
    executor: SequentialRoundExecutor,
    fn: Callable[[T], R],
    items: Sequence[T],
    policy: RetryPolicy,
    label_for: Optional[Callable[[T], str]] = None,
) -> List[Tuple[int, R]]:
    """Run ``fn`` over ``items`` with bounded per-item retry.

    The first pass dispatches everything through the executor; items that
    raised are retried in further passes, up to ``policy.max_retries`` per
    item.  Returns the successes as ``(original_index, result)`` pairs
    sorted by index — aggregation order therefore never depends on which
    attempt succeeded.

    Metrics: each re-dispatch counts into ``fl.retry.attempts`` and each
    exhausted item into ``fl.retry.giveups`` (labelled via ``label_for``);
    the accounted backoff accumulates into ``fl.retry.backoff_seconds``.
    """
    registry = get_registry()
    results: List[Tuple[int, R]] = []
    pending: List[int] = list(range(len(items)))
    items = list(items)

    for attempt in range(policy.max_retries + 1):
        if not pending:
            break
        if attempt > 0:
            backoff = policy.backoff_for(attempt)
            for index in pending:
                label = label_for(items[index]) if label_for else str(index)
                registry.counter(
                    "fl.retry.attempts", "client round attempts retried"
                ).inc(client=label)
            registry.counter(
                "fl.retry.backoff_seconds", "accounted retry backoff"
            ).inc(backoff * len(pending))
        settled = executor.map_settled(fn, [items[i] for i in pending])
        still_failing: List[int] = []
        for index, (result, error) in zip(pending, settled):
            if error is None:
                results.append((index, result))
            else:
                still_failing.append(index)
        pending = still_failing

    for index in pending:
        label = label_for(items[index]) if label_for else str(index)
        registry.counter(
            "fl.retry.giveups", "clients abandoned after exhausting retries"
        ).inc(client=label)

    results.sort(key=lambda pair: pair[0])
    return results
