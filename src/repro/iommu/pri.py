"""Page Request Interface (PRI) with fault batching.

When a page-table walk faults, the GPU's request is recorded in the PRI
queue and the CPU is interrupted to handle the fault.  Because fault
handling is expensive, the IOMMU batches PRI requests (Section 2.2): a
batch dispatches when it reaches ``pri_batch_size`` entries or when the
oldest entry has waited ``pri_timeout`` cycles, and completes after the
CPU-side ``fault_handling_latency``.

:class:`PRIQueue` is the batcher both backends share.  It never
schedules: :meth:`PRIQueue.report` returns the batch to service now, the
timer generation to arm, or ``None``, and :meth:`PRIQueue.expire` (the
timer firing) returns its batch or ``None``.  Servicing a batch is the
caller's, and so are its counters (:class:`~repro.iommu.iommu.IOMMU`).
"""

from __future__ import annotations

from typing import Any

from repro.config.system import IOMMUConfig
from repro.engine.stats import CounterSet


class PRIQueue:
    """The IOMMU's fault batcher: batch size, timeout generation and
    counters."""

    def __init__(self, config: IOMMUConfig) -> None:
        self.batch_size = config.pri_batch_size
        self.timeout = config.pri_timeout
        self.generation = 0
        """Bumped by every flush, so a timer armed before a flush is
        stale."""
        self._pending: list[Any] = []
        self.stats = CounterSet()
        """``faults_reported``, ``batches`` and ``timeout_batches``."""

    def report(self, fault: Any) -> list[Any] | int | None:
        """Queue ``fault`` (opaque to the batcher).

        Returns the batch to service now when ``fault`` fills it; the
        generation of the timer to arm, ``timeout`` cycles from now, when
        ``fault`` is the first to pend; else ``None``.
        """
        self.stats["faults_reported"] += 1
        pending = self._pending
        pending.append(fault)
        if len(pending) >= self.batch_size:
            return self._flush()
        if len(pending) == 1:
            return self.generation
        return None

    def expire(self, generation: int) -> list[Any] | None:
        """The timer armed for ``generation`` fired: the batch to service
        now, or ``None`` when a flush since then made the timer stale."""
        if generation != self.generation or not self._pending:
            return None
        self.stats["timeout_batches"] += 1
        return self._flush()

    def _flush(self) -> list[Any]:
        batch = self._pending
        self._pending = []
        self.generation += 1
        self.stats["batches"] += 1
        return batch

    @property
    def outstanding(self) -> int:
        """Faults reported but not yet dispatched in a batch."""
        return len(self._pending)
