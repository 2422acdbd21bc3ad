"""The CPU-side IOMMU of the event engine.

Owns the shared IOMMU TLB, the page-walker pool, the PRI fault queue and
the pending-request table.  The TLB keeps the per-GPU Eviction Counters
that drive least-TLB's spill-receiver selection (Section 4.2).

The walker pool, PRI queue and pending table are the structures the
functional replay drives too; they decide and never schedule.  This class
schedules what they decide on the event queue, with the engine's fault
injection, hardening and telemetry hooks around the same calls.

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
        self.walkers = WalkerPool(system.page_tables, config.iommu, config.num_gpus)
        self.pri = PRIQueue(config.iommu)
        self.pending = PendingTable()
        self.stats = CounterSet()
        self._lookup_latency = config.iommu.tlb.lookup_latency
        self._fault_latency = config.iommu.fault_handling_latency
        # PRI batches dispatched under protocol hardening, awaiting their
        # completion: batch id -> (batch, attempt).
        self._pri_in_flight: dict[int, tuple[list[Any], int]] = {}
        self._pri_batch_seq = 0
        # Servicing the PRI batches: faults serviced, batches dropped,
        # retried and abandoned (the batcher counts the batching), and
        # each fault's report-to-service cycles.
        self.pri_service = CounterSet()
        self.pri_service_time = LatencyAccumulator()

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
    # Fault injection, hardening and telemetry are system-owned (None in
    # the default, zero-perturbation configuration).

    def start_walk(self, request: ATSRequest) -> WalkTicket:
        """Request a page-table walk for ``request``'s key.  Returns the
        walker ticket (cancellable while the walk is queued); the result
        reaches ``policy.on_walk_complete``."""
        if request.measured:
            self.system.stats_for(request.pid).inc("walks")
        ticket = WalkTicket(
            request.pid, request.vpn, request.gpu_id, request, self.system.queue.now
        )
        if self.walkers.request(ticket) is not None:
            self._run_walk(ticket)
        return ticket

    def _run_walk(self, ticket: WalkTicket) -> None:
        """Schedule the completion of a started walk."""
        latency = ticket.cycles
        injector = self.system.faults
        if injector is not None:
            latency += injector.walker_stall()
        self.system.queue.schedule_after(latency, self._walk_done, ticket)

    def _walk_done(self, ticket: WalkTicket) -> None:
        system = self.system
        now = system.queue.now
        if system.telemetry is not None:
            # Service time = queue wait + walk latency, per ticket.
            system.telemetry.record_latency("walk_service", now - ticket.enqueue_time)
        walkers = self.walkers
        started = walkers.finish(ticket, now)
        if started is not None:
            self._run_walk(started)
        injector = system.faults
        if ticket.walker_id in walkers.dead or (
            injector is not None and injector.drop_walk_result()
        ):
            # The walker died with this walk in flight, or the result was
            # lost: hardening timeouts re-issue the walk on a survivor.
            walkers.lose()
            return
        system.policy.on_walk_complete(ticket.owner, ticket.ppn)

    def report_fault(self, request: ATSRequest) -> None:
        """Route a faulting walk through the PRI batch path; the mapped
        frame reaches ``policy.on_fault_serviced``."""
        if request.measured:
            self.system.stats_for(request.pid).inc("page_faults")
        self.stats.inc("page_faults")
        action = self.pri.report((request, self.system.queue.now))
        if isinstance(action, list):
            self._send_pri_batch(action, 1)
        elif action is not None:
            self.system.queue.schedule_after(self.pri.timeout, self._pri_timeout, action)

    def _pri_timeout(self, generation: int) -> None:
        batch = self.pri.expire(generation)
        if batch is not None:
            self._send_pri_batch(batch, 1)

    def _send_pri_batch(self, batch: list[Any], attempt: int) -> None:
        system = self.system
        batch_id = self._pri_batch_seq
        self._pri_batch_seq += 1
        if system.faults is not None and system.faults.drop_pri_batch():
            # The completion interrupt is lost in flight; only the
            # hardening re-drive below (or the watchdog) saves the batch.
            self.pri_service.inc("batches_dropped")
        else:
            system.queue.schedule_after(
                self._fault_latency, self._pri_batch_done, batch_id, batch
            )
        hardening = system.hardening
        if hardening is not None:
            # Re-drive the batch after fault_handling_latency +
            # pri_retry_margin cycles of silence.
            self._pri_in_flight[batch_id] = (batch, attempt)
            system.queue.schedule_after(
                self._fault_latency + hardening.pri_retry_margin,
                self._pri_batch_check,
                batch_id,
            )

    def _pri_batch_done(self, batch_id: int, batch: list[Any]) -> None:
        self._pri_in_flight.pop(batch_id, None)
        system = self.system
        now = system.queue.now
        for request, reported_at in batch:
            ppn = system.page_tables.map_page(request.pid, request.vpn)
            self.pri_service.inc("faults_serviced")
            self.pri_service_time.record(now - reported_at)
            if system.telemetry is not None:
                system.telemetry.record_latency("pri", now - reported_at)
            system.policy.on_fault_serviced(request, ppn)

    def _pri_batch_check(self, batch_id: int) -> None:
        """Hardening re-drive: resend a batch that never completed, up to
        ``max_pri_retries`` times; an abandoned batch is left to the
        watchdog."""
        info = self._pri_in_flight.pop(batch_id, None)
        if info is None:
            return
        batch, attempt = info
        hardening = self.system.hardening
        assert hardening is not None
        if attempt > hardening.max_pri_retries:
            self.pri_service.inc("batches_abandoned")
            return
        self.pri_service.inc("batch_retries")
        self._send_pri_batch(batch, attempt + 1)

    @property
    def pri_in_flight(self) -> int:
        """Dispatched PRI batches awaiting completion (hardening only)."""
        return len(self._pri_in_flight)

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
