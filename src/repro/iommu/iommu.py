"""The CPU-side IOMMU.

Owns the shared IOMMU TLB, the page-walker pool, the PRI fault queue and
the pending-request table.  The TLB keeps the per-GPU Eviction Counters
that drive least-TLB's spill-receiver selection (Section 4.2).

The IOMMU provides *mechanism*; all *policy* (what to do on hits, misses,
evictions) is delegated to the active
:class:`~repro.policies.base.TranslationPolicy` via
:meth:`receive` → ``policy.on_iommu_request``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.config.system import SystemConfig
from repro.core.protocol import select_spill_receiver
from repro.engine.stats import CounterSet
from repro.gpu.ats import ATSRequest
from repro.iommu.page_walker import WalkerPool, WalkTicket
from repro.iommu.pending_table import PendingTable
from repro.iommu.pri import PRIQueue
from repro.structures.page_table import WalkResult
from repro.structures.tlb import SetAssociativeTLB

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.system import MultiGPUSystem


class IOMMU:
    """The shared translation agent every GPU's ATS traffic lands on."""

    def __init__(self, config: SystemConfig, system: "MultiGPUSystem") -> None:
        self.config = config
        self.system = system
        # Figure 3's infinite IOMMU TLB is the unbounded geometry.
        tlb = config.iommu.tlb
        self.tlb = SetAssociativeTLB(
            None if config.iommu.infinite_tlb else tlb.num_entries,
            tlb.associativity,
            owners=config.num_gpus,
        )
        # Fault injection and hardening are system-owned (None in the
        # default, zero-perturbation configuration).
        injector = system.faults
        self.walkers = WalkerPool(
            system.queue,
            system.page_tables,
            config.iommu,
            config.num_gpus,
            injector=injector,
            telemetry=system.telemetry,
        )
        self.pri = PRIQueue(
            system.queue,
            system.page_tables,
            config.iommu,
            injector=injector,
            hardening=system.hardening,
            telemetry=system.telemetry,
        )
        self.pending = PendingTable()
        self.stats = CounterSet()
        # Rotating-priority pointer for tie-breaking receiver selection,
        # reproducing the walk-through of Figure 13.
        self._spill_pointer = 0
        self._lookup_latency = config.iommu.tlb.lookup_latency

    # -- request entry point ---------------------------------------------------

    def receive(self, request: ATSRequest) -> None:
        """An ATS packet arrived over the host link."""
        self.stats.inc("requests")
        self.system.record_iommu_request(request)
        if request.trace is not None:
            request.trace.begin("iommu_lookup", self.system.queue.now)
        self.system.queue.schedule_after(
            self._lookup_latency, self.system.policy.on_iommu_request, request
        )

    # -- TLB access with statistics -------------------------------------------------

    @property
    def eviction_counters(self) -> list[int]:
        """How many IOMMU TLB entries each GPU's L2 evictions contributed
        (Section 4.2, "where to spill"), kept exact by the TLB itself."""
        return self.tlb.owner_counts

    def lookup(self, request: ATSRequest) -> int | None:
        """IOMMU TLB lookup for ``request``, with per-application stats:
        the entry's payload, or ``None``."""
        key = request.tlb_key
        payload = self.tlb.lookup(key)
        injector = self.system.faults
        if payload is not None and injector is not None and injector.tlb_parity():
            # Parity-error model: the corrupt entry cannot be trusted;
            # invalidate it (the TLB keeps the Eviction Counters exact)
            # and treat the lookup as a miss.
            self.tlb.remove(key)
            self.stats.inc("tlb_parity_errors")
            payload = None
        hit = payload is not None
        if request.measured:
            stats = self.system.stats_for(request.pid)
            stats.inc("iommu_lookup")
            stats.inc("iommu_hit" if hit else "iommu_miss")
        self.stats.inc("tlb_hit" if hit else "tlb_miss")
        if request.trace is not None:
            request.trace.end(
                "iommu_lookup", self.system.queue.now, outcome="hit" if hit else "miss"
            )
        return payload

    # -- walk / fault services ----------------------------------------------------

    def start_walk(
        self, request: ATSRequest, callback: Callable[[ATSRequest, WalkResult], None]
    ) -> WalkTicket:
        """Dispatch a page-table walk for ``request``'s key.  Returns the
        walker ticket (cancellable while the walk is queued)."""
        if request.measured:
            self.system.stats_for(request.pid).inc("walks")
        return self.walkers.request(
            request.pid,
            request.vpn,
            request.gpu_id,
            lambda result: callback(request, result),
        )

    def report_fault(self, request: ATSRequest, callback: Callable[[int], None]) -> None:
        """Route a faulting walk through the PRI batch path."""
        if request.measured:
            self.system.stats_for(request.pid).inc("page_faults")
        self.stats.inc("page_faults")
        self.pri.report(request.pid, request.vpn, callback)

    # -- responses -------------------------------------------------------------------

    def respond(
        self,
        waiters: list[ATSRequest],
        ppn: int,
        *,
        source: str,
        spill_budget: int | None = None,
    ) -> None:
        """Send the translation back to every waiting GPU over the host link.

        ``source`` tags the responder (``iommu``/``walk``/``pending``) for
        per-application accounting.
        """
        if spill_budget is None:
            spill_budget = self.config.spill_budget
        queue = self.system.queue
        now = queue.now
        injector = self.system.faults
        hub = self.system.telemetry
        for request in waiters:
            if request.trace is not None:
                request.trace.end("pending_wait", now)
            if injector is not None and injector.drop_response():
                # The response is lost on the host link.  The GPU's MSHR
                # keeps waiting; the watchdog converts the resulting
                # stall into a diagnosable SimulationStalledError.
                self.stats.inc("responses_dropped")
                self.system.topology.from_iommu[request.gpu_id].record_drop()
                if request.trace is not None:
                    request.trace.add_complete("response", now, now,
                                               outcome="fault")
                continue
            arrival = self.system.topology.iommu_to_gpu(request.gpu_id, now)
            if request.trace is not None:
                request.trace.add_complete("response", now, arrival,
                                           outcome=source)
            queue.schedule(
                arrival,
                self.system.gpus[request.gpu_id].receive_fill,
                request.pid,
                request.vpn,
                ppn,
                spill_budget,
            )
            if injector is not None and injector.duplicate_response():
                # The fabric delivers the packet twice; the second copy
                # finds no MSHR waiters and degenerates to an L2 refresh.
                self.stats.inc("responses_duplicated")
                queue.schedule(
                    arrival,
                    self.system.gpus[request.gpu_id].receive_fill,
                    request.pid,
                    request.vpn,
                    ppn,
                    spill_budget,
                )
            if request.measured:
                stats = self.system.stats_for(request.pid)
                stats.inc(f"served_{source}")
                latency = arrival - request.issue_time
                self.system.latency_for(request.pid).record(latency)
                if hub is not None:
                    hub.record_latency("l2_miss", latency)
                    hub.record_latency(source, latency)
                    hub.record_app_latency(request.pid, latency)
        self.stats.inc(f"responses_{source}", len(waiters))

    # -- spill receiver selection ---------------------------------------------------

    def select_spill_receiver(self) -> int:
        """The GPU whose Eviction Counter is smallest (Section 4.2).

        Ties break by a rotating-priority arbiter: scanning starts just
        after the previously selected GPU, which reproduces the alternating
        receiver choices in the Figure 13 walk-through and avoids always
        dumping spills on GPU 0.
        """
        best_gpu, self._spill_pointer = select_spill_receiver(
            self.eviction_counters, self._spill_pointer
        )
        return best_gpu

    # -- shootdown (Section 4.4) -------------------------------------------------------

    def shootdown(self, pid: int | None = None) -> int:
        """Invalidate the IOMMU TLB (optionally one process only) and let
        the policy reset its tracker state."""
        if pid is None:
            dropped = self.tlb.invalidate_all()
        else:
            dropped = self.tlb.invalidate_pid(pid)
        self.system.policy.on_iommu_shootdown(pid)
        return dropped
