"""The IOMMU's pending-request lookup table.

Section 4.1 describes it for least-TLB: the IOMMU tracks translations that
were sent both to the page-table walkers and to a remote GPU's L2 TLB;
whichever response returns first serves the requester, and the late arrival
is discarded.  The same table also merges concurrent requests for one
translation arriving from different GPUs, so one walk can feed many
requesters (the IOMMU-level MSHR behaviour every policy needs).

Both backends use this table: keys are packed TLB keys
(:mod:`repro.structures.tlb`), and a waiter is whatever the backend's
request is (an :class:`~repro.gpu.ats.ATSRequest` on the event engine, a
plain tuple in the functional replay).

No responder outlives its entry: a walk, a remote probe and a PRI fault
each keep their ``*_pending`` flag set until they land, and the entry is
reaped only once it is served and all three have cleared.  A walk
cancelled while still queued never calls back, so cancelling clears its
flag.
"""

from __future__ import annotations

from typing import Any

from repro.structures.tlb import unpack_key


class PendingEntry:
    """In-flight state for one translation key."""

    __slots__ = (
        "key",
        "waiters",
        "walk_pending",
        "remote_pending",
        "fault_pending",
        "served",
        "result_ppn",
        "walk_ticket",
        "created_at",
    )

    def __init__(self, key: int, first_waiter: Any, created_at: int) -> None:
        self.key = key
        self.waiters = [first_waiter]
        self.walk_pending = False
        self.remote_pending = False
        self.fault_pending = False
        self.served = False
        self.result_ppn: int | None = None
        self.walk_ticket: Any = None
        """Handle of the racing walk, cancellable while still queued."""
        self.created_at = created_at
        """Cycle the first waiter was issued (surfaced in stall diagnostics)."""

    @property
    def resolved(self) -> bool:
        """True once no response can still arrive for this key."""
        return not (self.walk_pending or self.remote_pending or self.fault_pending)

    def describe(self) -> dict[str, object]:
        """Structured snapshot for diagnostics dumps (the key as
        ``(pid, vpn)``)."""
        return {
            "key": unpack_key(self.key),
            "waiters": len(self.waiters),
            "walk_pending": self.walk_pending,
            "remote_pending": self.remote_pending,
            "fault_pending": self.fault_pending,
            "served": self.served,
            "created_at": self.created_at,
        }


class PendingTable(dict[int, PendingEntry]):
    """Packed key → :class:`PendingEntry`, with the entry lifecycle.

    A plain dict underneath, so lookups (``get``, ``in``) cost what a dict
    lookup costs on the replay's per-miss path."""

    __slots__ = ()

    def create(self, key: int, waiter: Any, created_at: int) -> PendingEntry:
        """Open the entry for ``key`` (must not exist) with its first
        waiter."""
        if key in self:
            raise KeyError(f"pending entry already exists for {unpack_key(key)}")
        entry = PendingEntry(key, waiter, created_at)
        self[key] = entry
        return entry

    def maybe_remove(self, entry: PendingEntry) -> None:
        """Drop the entry once it is served and no response is outstanding.

        The entry must stay while a walk or probe is in flight: its arrival
        needs somewhere to learn it lost the race.
        """
        if entry.served and not (
            entry.walk_pending or entry.remote_pending or entry.fault_pending
        ):
            self.pop(entry.key, None)

    def describe(self) -> list[dict[str, object]]:
        """Diagnostic snapshot of every in-flight entry (stall dumps)."""
        return [entry.describe() for entry in self.values()]
