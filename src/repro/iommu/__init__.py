"""The CPU-side IOMMU: shared TLB, walker pool, PRI, and pending table.

The walker pool, PRI fault batcher and pending table are the one
definition of that state for both backends: they decide and count, and
never schedule.  :class:`IOMMU` schedules what they decide on the event
engine; the functional replay drives them from its own loop.
"""

from repro.iommu.iommu import IOMMU
from repro.iommu.page_walker import WalkerPool
from repro.iommu.pending_table import PendingEntry, PendingTable
from repro.iommu.pri import PRIQueue

__all__ = ["IOMMU", "WalkerPool", "PendingEntry", "PendingTable", "PRIQueue"]
