"""The CPU-side IOMMU of the event engine.

Owns the shared IOMMU TLB, the page-walker pool, the PRI fault queue and
the pending-request table.  The TLB keeps the per-GPU Eviction Counters
that drive least-TLB's spill-receiver selection (Section 4.2).

The walker pool, PRI queue and pending table are the structures the
functional replay drives too; they decide and never schedule.  This class
schedules what they decide on the event queue, with the engine's telemetry
hooks around the same calls.

The IOMMU provides *mechanism*; all *policy* (what to do on hits, misses,
evictions) is delegated to the active
:class:`~repro.policies.base.TranslationPolicy` via
:meth:`receive` → ``policy.on_iommu_request``, and finished walks and
serviced faults return to it through ``policy.on_walk_complete`` and
``policy.on_fault_serviced``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.config.system import SystemConfig
from repro.engine.stats import CounterSet, LatencyAccumulator
from repro.gpu.ats import ATSRequest
from repro.iommu.page_walker import WalkerPool, WalkTicket
from repro.iommu.pending_table import PendingTable
from repro.iommu.pri import PRIQueue
from repro.structures.tlb import SetAssociativeTLB

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.system import MultiGPUSystem

#: Per response source, the per-application and IOMMU counters it bumps.
_SOURCE_COUNTERS = {
    source: (f"served_{source}", f"responses_{source}")
    for source in ("iommu", "walk", "pending")
}


class IOMMU:
    """The shared translation agent every GPU's ATS traffic lands on."""

    def __init__(self, config: SystemConfig, system: "MultiGPUSystem") -> None:
        self.config = config
        self.system = system
        self.queue = system.queue
        # Figure 3's infinite IOMMU TLB is the unbounded geometry.
        tlb = config.iommu.tlb
        self.tlb = SetAssociativeTLB(
            None if config.iommu.infinite_tlb else tlb.num_entries,
            tlb.associativity,
            owners=config.num_gpus,
        )
        self.walkers = WalkerPool(system.page_tables, config.iommu, config.num_gpus)
        self.pri = PRIQueue(config.iommu)
        self.pending = PendingTable()
        self.stats = CounterSet()
        self._lookup_latency = config.iommu.tlb.lookup_latency
        self._fault_latency = config.iommu.fault_handling_latency
        self._spill_budget = config.spill_budget
        # Servicing the PRI batches: faults serviced (the batcher counts
        # the batching), and each fault's report-to-service cycles.
        self.pri_service = CounterSet()
        self.pri_service_time = LatencyAccumulator()

    # -- request entry point ---------------------------------------------------

    def receive(self, request: ATSRequest) -> None:
        """An ATS packet arrived over the host link."""
        self.stats["requests"] += 1
        stream = self.system.iommu_stream
        if stream is not None and request.measured:
            stream.append((request.pid, request.vpn))
        if request.trace is not None:
            request.trace.begin("iommu_lookup", self.queue.now)
        self.queue.schedule_after(
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
        payload = self.tlb.lookup(request.key)
        hit = payload is not None
        if request.measured:
            stats = self.system.stats_for(request.pid)
            stats["iommu_lookup"] += 1
            stats["iommu_hit" if hit else "iommu_miss"] += 1
        self.stats["tlb_hit" if hit else "tlb_miss"] += 1
        if request.trace is not None:
            request.trace.end(
                "iommu_lookup", self.queue.now, outcome="hit" if hit else "miss"
            )
        return payload

    # -- walk / fault services ----------------------------------------------------

    def start_walk(self, request: ATSRequest) -> WalkTicket:
        """Request a page-table walk for ``request``'s key.  Returns the
        walker ticket (cancellable while the walk is queued); the result
        reaches ``policy.on_walk_complete``."""
        if request.measured:
            stats = self.system.stats_for(request.pid)
            stats["walks"] += 1
        ticket = WalkTicket(
            request.pid, request.vpn, request.gpu_id, request, self.queue.now
        )
        if self.walkers.request(ticket) is not None:
            self.queue.schedule_after(ticket.cycles, self._walk_done, ticket)
        return ticket

    def _walk_done(self, ticket: WalkTicket) -> None:
        system = self.system
        now = self.queue.now
        if system.telemetry is not None:
            # Service time = queue wait + walk latency, per ticket.
            system.telemetry.record_latency("walk_service", now - ticket.enqueue_time)
        started = self.walkers.finish(ticket, now)
        if started is not None:
            self.queue.schedule_after(started.cycles, self._walk_done, started)
        system.policy.on_walk_complete(ticket.owner, ticket.ppn)

    def report_fault(self, request: ATSRequest) -> None:
        """Route a faulting walk through the PRI batch path; the mapped
        frame reaches ``policy.on_fault_serviced``."""
        if request.measured:
            self.system.stats_for(request.pid).inc("page_faults")
        self.stats.inc("page_faults")
        action = self.pri.report((request, self.queue.now))
        if isinstance(action, list):
            self._send_pri_batch(action)
        elif action is not None:
            self.queue.schedule_after(self.pri.timeout, self._pri_timeout, action)

    def _pri_timeout(self, generation: int) -> None:
        batch = self.pri.expire(generation)
        if batch is not None:
            self._send_pri_batch(batch)

    def _send_pri_batch(self, batch: list[Any]) -> None:
        self.queue.schedule_after(self._fault_latency, self._pri_batch_done, batch)

    def _pri_batch_done(self, batch: list[Any]) -> None:
        system = self.system
        now = self.queue.now
        for request, reported_at in batch:
            ppn = system.page_tables.map_page(request.pid, request.vpn)
            self.pri_service.inc("faults_serviced")
            self.pri_service_time.record(now - reported_at)
            if system.telemetry is not None:
                system.telemetry.record_latency("pri", now - reported_at)
            system.policy.on_fault_serviced(request, ppn)

    # -- responses -------------------------------------------------------------------

    def respond(
        self,
        waiters: list[ATSRequest],
        ppn: int,
        *,
        source: str,
    ) -> None:
        """Send the translation back to every waiting GPU over the host link.

        ``source`` tags the responder (``iommu``/``walk``/``pending``) for
        per-application accounting.
        """
        served, responses = _SOURCE_COUNTERS[source]
        system = self.system
        down = system.topology.send_from_iommu
        fill = system.gpu_fills
        queue = self.queue
        now = queue.now
        hub = system.telemetry
        for request in waiters:
            trace = request.trace
            if trace is not None:
                trace.end("pending_wait", now)
            gpu_id = request.gpu_id
            arrival = down[gpu_id](now)
            if trace is not None:
                trace.add_complete("response", now, arrival, outcome=source)
            queue.schedule(
                arrival, fill[gpu_id], request.pid, request.vpn, ppn,
                self._spill_budget,
            )
            if request.measured:
                pid = request.pid
                stats = system.stats_for(pid)
                stats[served] += 1
                latency = arrival - request.issue_time
                system.latency_for(pid).record(latency)
                if hub is not None:
                    hub.record_latency("l2_miss", latency)
                    hub.record_latency(source, latency)
                    hub.record_app_latency(pid, latency)
        self.stats[responses] += len(waiters)

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
