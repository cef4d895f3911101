"""Round executor: how the server dispatches client training in a round.

In the real deployment every FL participant is a separate TrustZone phone
training concurrently; the simulator runs clients one at a time inside
:meth:`FLServer.run_cycle`, in participant order, through
:class:`SequentialRoundExecutor`.  The executor is the seam the server's
retry logic (:meth:`~SequentialRoundExecutor.map_settled`) and the
benchmark's per-client timing (a subclass overriding ``map``) hook into.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from ..obs import get_clock, get_registry

__all__ = ["SequentialRoundExecutor"]

T = TypeVar("T")
R = TypeVar("R")


class SequentialRoundExecutor:
    """Run one unit of client work per item, in the calling thread."""

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, returning results in item order."""
        clock = get_clock()
        results: List[R] = []
        durations: List[float] = []
        for item in items:
            task_start = clock.now()
            results.append(fn(item))
            durations.append(clock.now() - task_start)
        self._account(durations)
        return results

    def map_settled(
        self, fn: Callable[[T], R], items: Sequence[T]
    ) -> List[Tuple[Optional[R], Optional[Exception]]]:
        """Like :meth:`map`, but failures settle instead of propagating.

        Returns one ``(result, exception)`` pair per item, in item order —
        exactly one side is non-None.  This is what resilient round logic
        builds on: a single misbehaving client must not abort the round,
        and the caller decides which exceptions merit a retry.
        """

        def settle(item: T) -> Tuple[Optional[R], Optional[Exception]]:
            try:
                return fn(item), None
            except Exception as exc:  # noqa: BLE001 - settled deliberately
                return None, exc

        return self.map(settle, items)

    def _account(self, durations: List[float]) -> None:
        """Publish dispatch metrics: task count and per-task time."""
        registry = get_registry()
        registry.counter(
            "fl.executor.tasks", "client work items dispatched"
        ).inc(len(durations))
        task_seconds = registry.histogram(
            "fl.executor.task_seconds", "per-task client training time"
        )
        for duration in durations:
            task_seconds.observe(duration)

    def close(self) -> None:
        """Release any held resources (idempotent; nothing to release)."""

    def __enter__(self) -> "SequentialRoundExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
