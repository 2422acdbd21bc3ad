"""Runtime invariant checking for the translation hierarchy.

Opt-in (``--check-invariants``): an :class:`InvariantChecker` audits the
system periodically while it runs and once more at completion, raising
:class:`InvariantViolation` with structured details on the first breach.

The invariants:

* **Event-time monotonicity** — simulated time never moves backwards
  between checks (belt-and-braces over the event queue's own guard).
* **Pending-entry consistency** — a served entry has a result and no
  waiters; an unserved entry has at least one waiter.  Together these
  pin the "waiters served exactly once" lifecycle.
* **Eviction-counter consistency** — the IOMMU's per-GPU Eviction
  Counters (Section 4.2) always equal a recount over the resident
  entries' owners.
* **Least-inclusive exclusivity (bounded)** — for least-inclusive
  policies (``exclusive``, ``least-tlb``) the set of translations
  resident in both the IOMMU TLB and any L2 stays *small*.  The bound is
  deliberately not zero: an L2 victim in flight to the IOMMU can race a
  re-fetch walk for the same page, legitimately landing the translation
  in both levels until one copy is evicted (the same first-responder
  tolerance as the pending table's walk/probe race).  Keys currently in
  the pending table are exempt; the residual overlap must stay within
  ``overlap_tolerance``.
* **Occupancy sanity** — CU outstanding counts and walker occupancy are
  non-negative and within capacity.
* **Completion emptiness** (final check) — the pending table, every
  GPU's MSHRs, and every CU's outstanding window are empty once the run
  completes: nothing leaked, everything was served.

Periodic checks are events, so the checker is opt-in — fault-free runs
without ``--check-invariants`` execute bit-identical event streams.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.engine.event_queue import SimulationError
from repro.structures.tlb import unpack_key, unpack_payload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.system import MultiGPUSystem


class InvariantViolation(SimulationError):
    """A runtime invariant of the translation hierarchy was breached."""

    def __init__(self, message: str, details: dict[str, Any] | None = None) -> None:
        super().__init__(message)
        self.details = details or {}


class InvariantChecker:
    """Periodic + final auditing of one :class:`MultiGPUSystem`."""

    def __init__(
        self,
        system: "MultiGPUSystem",
        interval: int = 10_000,
        overlap_tolerance: int | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"invariant-check interval must be positive: {interval}")
        self.system = system
        self.interval = interval
        self.overlap_tolerance = overlap_tolerance
        self.checks_run = 0
        self.max_overlap = 0
        self._last_now = -1

    # -- scheduling -----------------------------------------------------------

    def arm(self) -> None:
        """Schedule the periodic audit (from ``MultiGPUSystem.run``)."""
        self.system.queue.schedule_after(self.interval, self._tick)

    def _tick(self) -> None:
        if self.system.halted:
            return
        self.check()
        self.system.queue.schedule_after(self.interval, self._tick)

    # -- the audit --------------------------------------------------------------

    def check(self, final: bool = False) -> None:
        """Run every applicable invariant; raise on the first breach."""
        self.checks_run += 1
        system = self.system
        self._check_time_monotonic()
        self._check_pending_entries()
        self._check_eviction_counters()
        self._check_occupancy()
        if getattr(system.policy, "least_inclusive", False):
            self._check_exclusivity()
        if final:
            self._check_completion_empty()

    def _fail(self, invariant: str, message: str, **details: Any) -> None:
        raise InvariantViolation(
            f"invariant {invariant!r} violated at cycle "
            f"{self.system.queue.now}: {message}",
            {"invariant": invariant, "cycle": self.system.queue.now, **details},
        )

    def _check_time_monotonic(self) -> None:
        now = self.system.queue.now
        if now < self._last_now:
            self._fail(
                "time-monotonic",
                f"simulation time moved backwards: {now} < {self._last_now}",
                now=now,
                previous=self._last_now,
            )
        self._last_now = now

    def _check_pending_entries(self) -> None:
        for packed, entry in self.system.iommu.pending.items():
            key = unpack_key(packed)
            if entry.served:
                if entry.result_ppn is None:
                    self._fail(
                        "pending-consistency",
                        f"entry {key} served without a result",
                        key=key,
                    )
                if entry.waiters:
                    self._fail(
                        "pending-consistency",
                        f"entry {key} served but still holds "
                        f"{len(entry.waiters)} waiter(s) — double service risk",
                        key=key,
                        waiters=len(entry.waiters),
                    )
            elif not entry.waiters:
                self._fail(
                    "pending-consistency",
                    f"unserved entry {key} has no waiters — the response "
                    "would be delivered to nobody",
                    key=key,
                )

    def _check_eviction_counters(self) -> None:
        iommu = self.system.iommu
        recount = [0] * self.system.config.num_gpus
        for _, payload in iommu.tlb.items():
            owner = unpack_payload(payload)[1]
            if owner >= 0:
                recount[owner] += 1
        if recount != iommu.eviction_counters:
            self._fail(
                "eviction-counters",
                f"counter drift: recorded {iommu.eviction_counters}, "
                f"recounted {recount}",
                recorded=list(iommu.eviction_counters),
                recounted=recount,
            )

    def _check_occupancy(self) -> None:
        for gpu in self.system.gpus:
            for cu in gpu.cus:
                if cu.outstanding < 0 or cu.outstanding > cu.slots:
                    self._fail(
                        "cu-occupancy",
                        f"gpu{gpu.gpu_id} cu{cu.cu_id} outstanding="
                        f"{cu.outstanding} outside [0, {cu.slots}]",
                        gpu=gpu.gpu_id,
                        cu=cu.cu_id,
                        outstanding=cu.outstanding,
                    )
        walkers = self.system.iommu.walkers
        if walkers.busy < 0 or walkers.busy > walkers.capacity:
            self._fail(
                "walker-occupancy",
                f"walker occupancy {walkers.busy} outside "
                f"[0, {walkers.capacity}]",
                busy=walkers.busy,
                capacity=walkers.capacity,
            )

    def _check_exclusivity(self) -> None:
        system = self.system
        iommu_keys = system.iommu.tlb.resident_keys()
        if not iommu_keys:
            return
        l2_keys: set[int] = set()
        for gpu in system.gpus:
            l2_keys |= gpu.l2_tlb.resident_keys()
        overlap = iommu_keys & l2_keys
        # Keys mid-protocol (being re-fetched while the victim is in
        # flight) are expected to transiently duplicate.
        overlap -= system.iommu.pending.keys()
        count = len(overlap)
        if count > self.max_overlap:
            self.max_overlap = count
        tolerance = self.overlap_tolerance
        if tolerance is None:
            # Empirically the victim-in-flight race keeps <= ~15% of the
            # IOMMU-resident keys transiently duplicated (fault-free and
            # under fault campaigns alike), while a genuine inclusion bug
            # measures ~50%; 25% with a warmup floor separates with ~2x
            # margin on both sides.
            tolerance = max(64, len(iommu_keys) // 4)
        if count > tolerance:
            sample = sorted(map(unpack_key, overlap))[:8]
            self._fail(
                "least-inclusive-exclusivity",
                f"{count} translations resident in both the IOMMU TLB and "
                f"an L2 (tolerance {tolerance}); sample: {sample}",
                overlap=count,
                tolerance=tolerance,
                sample=sample,
            )

    def _check_completion_empty(self) -> None:
        system = self.system
        if len(system.iommu.pending):
            self._fail(
                "completion-empty",
                f"pending table holds {len(system.iommu.pending)} entries "
                "after completion",
                pending=sorted(map(unpack_key, system.iommu.pending)),
            )
        for gpu in system.gpus:
            if gpu.mshr:
                self._fail(
                    "completion-empty",
                    f"gpu{gpu.gpu_id} MSHR holds {len(gpu.mshr)} entries "
                    "after completion",
                    gpu=gpu.gpu_id,
                    keys=sorted(map(unpack_key, gpu.mshr)),
                )
            for cu in gpu.cus:
                if cu.outstanding:
                    self._fail(
                        "completion-empty",
                        f"gpu{gpu.gpu_id} cu{cu.cu_id} still has "
                        f"{cu.outstanding} outstanding translations",
                        gpu=gpu.gpu_id,
                        cu=cu.cu_id,
                    )
