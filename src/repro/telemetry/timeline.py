"""Interval timelines: what the hierarchy did in each epoch of a run.

End-of-run counters say *how much* happened; the timeline says *when*.
Every ``timeline_interval`` cycles the recorder captures an epoch: the
delta of each activity counter since the previous epoch (hits, misses,
walks, spills, faults, remote hits) plus instantaneous state (TLB
occupancy, per-GPU Eviction Counters, pending-table depth, busy
walkers).  Epochs are plain dictionaries, serialised into the result
JSON, so phase behaviour — warm-up, steady state, interference onset —
is visible without re-running anything.

This module also owns :func:`capture_tlb_snapshot`, the TLB-*content*
observation behind ``--snapshot-interval`` (Figures 6 and 11).  The two
samplers answer different questions — the snapshot inspects residency
and duplication, the timeline inspects activity — but they are one
subsystem now: both live here and both are driven by the system's
periodic scheduling hooks.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.results import Snapshot
    from repro.sim.system import MultiGPUSystem

#: Per-application counters whose epoch deltas the timeline tracks.
_APP_COUNTERS = ("l1_hit", "l1_miss", "l2_hit", "l2_miss", "remote_hit")

#: IOMMU counters whose epoch deltas the timeline tracks.
_IOMMU_COUNTERS = (
    "requests", "tlb_hit", "tlb_miss", "page_faults", "spills", "remote_hits",
)


class TimelineRecorder:
    """Accumulates per-epoch activity deltas over a run."""

    def __init__(self, interval: int) -> None:
        if interval <= 0:
            raise ValueError(f"timeline interval must be positive: {interval}")
        self.interval = interval
        self.epochs: list[dict[str, Any]] = []
        self._last_totals: dict[str, int] = {}

    def _totals(self, system: "MultiGPUSystem") -> dict[str, int]:
        totals = {name: 0 for name in _APP_COUNTERS}
        for pid in system.workload.pids:
            stats = system.stats_for(pid)
            for name in _APP_COUNTERS:
                totals[name] += stats[name]
        iommu = system.iommu.stats
        for name in _IOMMU_COUNTERS:
            totals[f"iommu_{name}"] = iommu[name]
        totals["walks_dispatched"] = system.iommu.walkers.stats["walks_dispatched"]
        return totals

    def capture(self, system: "MultiGPUSystem") -> dict[str, Any]:
        """Record one epoch: activity deltas plus instantaneous state."""
        totals = self._totals(system)
        epoch: dict[str, Any] = {
            "cycle": system.queue.now,
            "interval": self.interval,
        }
        for name, value in totals.items():
            epoch[name] = value - self._last_totals.get(name, 0)
        self._last_totals = totals
        lookups = epoch["l2_hit"] + epoch["l2_miss"]
        epoch["l2_hit_rate"] = epoch["l2_hit"] / lookups if lookups else 0.0
        iommu_lookups = epoch["iommu_tlb_hit"] + epoch["iommu_tlb_miss"]
        epoch["iommu_hit_rate"] = (
            epoch["iommu_tlb_hit"] / iommu_lookups if iommu_lookups else 0.0
        )
        epoch["l2_occupancy"] = sum(len(gpu.l2_tlb) for gpu in system.gpus)
        epoch["iommu_occupancy"] = len(system.iommu.tlb)
        epoch["eviction_counters"] = list(system.iommu.eviction_counters)
        epoch["pending_entries"] = len(system.iommu.pending)
        epoch["walkers_busy"] = system.iommu.walkers.busy
        self.epochs.append(epoch)
        return epoch

    def to_list(self) -> list[dict[str, Any]]:
        """The serialisable epoch list (shared, not copied)."""
        return self.epochs


def capture_tlb_snapshot(system: "MultiGPUSystem") -> "Snapshot":
    """One TLB-*content* observation (Figures 6 and 11): residency,
    cross-GPU duplication, cross-level duplication, and the per-GPU
    composition of the IOMMU TLB."""
    from repro.sim.results import Snapshot

    key_counts: Counter = Counter()
    for gpu in system.gpus:
        # sorted() so snapshot construction never depends on set order
        # (staticcheck D1) — the counts are the same either way.
        for key in sorted(gpu.l2_tlb.resident_keys()):
            key_counts[key] += 1
    iommu_keys = system.iommu.tlb.resident_keys()
    return Snapshot(
        cycle=system.queue.now,
        l2_resident=len(key_counts),
        l2_duplicated=sum(1 for c in key_counts.values() if c >= 2),
        l2_also_in_iommu=len(set(key_counts) & iommu_keys),
        iommu_resident=len(iommu_keys),
        iommu_owner_counts=tuple(system.iommu.eviction_counters),
    )
