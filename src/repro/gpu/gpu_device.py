"""The GPU device model: CUs, per-CU L1 TLBs, the shared L2 TLB, and the
GPU side of the translation protocol.

Timing follows Section 2.2: a coalesced access looks up its CU's private
L1 TLB (1 cycle); a miss proceeds to the GPU-shared L2 TLB (10 cycles);
an L2 miss allocates an MSHR (merging concurrent requests for the same
page) and emits an ATS packet toward the IOMMU.  What happens beyond that
point is owned by the active :class:`~repro.policies.base.TranslationPolicy`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config.system import SystemConfig
from repro.gpu.ats import ATSRequest
from repro.gpu.compute_unit import ComputeUnit
from repro.iommu.page_walker import WalkTicket
from repro.structures.tlb import SetAssociativeTLB, pack_key, pack_payload, unpack_key
from repro.workloads.trace import Placement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.system import MultiGPUSystem


class GPUDevice:
    """One GPU: compute units, TLBs, MSHRs, and issue/completion logic."""

    def __init__(self, gpu_id: int, config: SystemConfig, system: "MultiGPUSystem") -> None:
        self.gpu_id = gpu_id
        self.config = config
        self.system = system
        l2 = config.gpu.l2_tlb
        self.l2_tlb = SetAssociativeTLB(l2.num_entries, l2.associativity)
        self.l1_tlbs: dict[int, SetAssociativeTLB] = {}
        self.cus: list[ComputeUnit] = []
        # MSHR: TLB key -> (CU, measured, trace) waiters for the in-flight
        # fill.  The trace slot is None unless the request was
        # telemetry-sampled.
        self.mshr: dict[int, list] = {}
        self._l1_config = config.gpu.l1_tlb
        self._l2_latency = config.gpu.l2_tlb.lookup_latency
        self._l1_latency = config.gpu.l1_tlb.lookup_latency
        # Figure 23 variant: a device-memory page table walked locally,
        # with only local faults escalating to the IOMMU.
        self.local_tables = None
        self.local_walkers = None
        self._started = False

    # -- construction -------------------------------------------------------

    def add_placement(self, placement: Placement, *, rerun: bool) -> None:
        """Attach one application's CU streams to this GPU (the workload's
        placements are checked by :meth:`Workload.check_placements`)."""
        l1 = self._l1_config
        for cu_id, stream in zip(placement.cu_ids, placement.streams):
            self.l1_tlbs[cu_id] = SetAssociativeTLB(l1.num_entries, l1.associativity)
            self.cus.append(
                ComputeUnit(
                    gpu_id=self.gpu_id,
                    cu_id=cu_id,
                    pid=placement.pid,
                    stream=stream,
                    slots=self.config.gpu.slots_per_cu,
                    rerun=rerun,
                )
            )

    def attach_local_translation(self, tables, walkers) -> None:
        """Enable the Figure 23 variant: local page table + walker pool."""
        self.local_tables = tables
        self.local_walkers = walkers

    def start(self) -> None:
        """Schedule the first issue of every CU.  Idempotent, so tests can
        drive the queue manually before calling ``MultiGPUSystem.run``."""
        if self._started:
            return
        self._started = True
        for cu in self.cus:
            if cu.stream.num_runs:
                self.system.queue.schedule(cu.current_gap(), self._issue, cu)

    # -- issue path ----------------------------------------------------------

    def _issue(self, cu: ComputeUnit) -> None:
        if self.system.halted:
            return
        queue = self.system.queue
        now = queue.now
        pid = cu.pid
        vpn = cu.current_vpn()
        measured = cu.measured
        repeats = cu.current_repeats()
        stats = self.system.stats_for(pid) if measured else None

        key = pack_key(pid, vpn)
        hit = self.l1_tlbs[cu.cu_id].lookup(key) is not None
        if stats is not None:
            if pid not in self.system.measure_start:
                self.system.note_measure_start(pid)
            stats.inc("runs")
            stats.inc("accesses", repeats)
            if hit:
                # The whole burst hits the just-touched L1 entry.
                stats.inc("l1_hit", repeats)
            else:
                stats.inc("l1_miss")
                stats.inc("l1_hit", repeats - 1)

        # Telemetry: sample this issue for span tracing.  Every hook in
        # this file is guarded on the hub — a system without telemetry
        # takes the exact pre-telemetry path (pinned by the goldens).
        hub = self.system.telemetry
        trace = None
        if hub is not None and measured:
            trace = hub.maybe_sample(self.gpu_id, cu.cu_id, pid, vpn, now)

        if hit:
            if hub is not None and measured:
                hub.record_latency("l1_hit", self._l1_latency)
            if trace is not None:
                trace.add_complete("l1_lookup", now, now + self._l1_latency,
                                   outcome="hit")
                trace.close_root(now + self._l1_latency, outcome="l1_hit")
                hub.complete(trace)
            self._finish_run(cu, measured)
        else:
            if trace is not None:
                trace.add_complete("l1_lookup", now, now + self._l1_latency,
                                   outcome="miss")
            cu.outstanding += 1
            queue.schedule_after(
                self._l1_latency + self._l2_latency,
                self._l2_lookup, cu, key, measured, trace,
            )

        if cu.advance():
            cu.ready_time = now + cu.current_gap()
            if cu.outstanding < cu.slots:
                queue.schedule(cu.ready_time, self._issue, cu)
            else:
                cu.waiting_for_slot = True

    def _l2_lookup(
        self, cu: ComputeUnit, key: int, measured: bool, trace=None
    ) -> None:
        pid = cu.pid
        stats = self.system.stats_for(pid) if measured else None
        hub = self.system.telemetry
        now = self.system.queue.now
        payload = self.l2_tlb.lookup(key)
        if payload is not None:
            if stats is not None:
                stats.inc("l2_hit")
            if hub is not None and measured:
                hub.record_latency("l2_hit", self._l1_latency + self._l2_latency)
            if trace is not None:
                trace.add_complete("l2_lookup", now - self._l2_latency, now,
                                   outcome="hit")
                trace.close_root(now, outcome="l2_hit")
                hub.complete(trace)
            self.l1_tlbs[cu.cu_id].insert(key, payload)
            self._translation_done(cu, measured)
            return
        if stats is not None:
            stats.inc("l2_miss")
        if trace is not None:
            trace.add_complete("l2_lookup", now - self._l2_latency, now,
                               outcome="miss")
        waiters = self.mshr.get(key)
        if waiters is not None:
            waiters.append((cu, measured, trace))
            if stats is not None:
                stats.inc("l2_mshr_merge")
            if trace is not None:
                trace.begin("mshr_wait", now)
            return
        self.mshr[key] = [(cu, measured, trace)]
        vpn = unpack_key(key)[1]
        request = ATSRequest(
            gpu_id=self.gpu_id,
            pid=pid,
            vpn=vpn,
            issue_time=now,
            measured=measured,
            trace=trace,
        )
        if self.local_walkers is not None:
            if stats is not None:
                stats.inc("local_walks")
            if trace is not None:
                trace.begin("local_walk", now)
            ticket = WalkTicket(pid, vpn, 0, request, now)
            if self.local_walkers.request(ticket) is not None:
                self._run_local_walk(ticket)
        else:
            self.system.policy.on_l2_miss(self, request)

    def _run_local_walk(self, ticket: WalkTicket) -> None:
        self.system.queue.schedule_after(ticket.cycles, self._local_walk_done, ticket)

    def _local_walk_done(self, ticket: WalkTicket) -> None:
        """A device-memory page-table walk finished (Figure 23 variant)."""
        now = self.system.queue.now
        started = self.local_walkers.finish(ticket, now)
        if started is not None:
            self._run_local_walk(started)
        request: ATSRequest = ticket.owner
        ppn = ticket.ppn
        if request.trace is not None:
            request.trace.end(
                "local_walk", now, outcome="hit" if ppn is not None else "miss"
            )
        if ppn is not None:
            self.receive_fill(request.pid, request.vpn, ppn, self.config.spill_budget)
            return
        # Local page fault: only now does the request travel to the IOMMU.
        if request.measured:
            self.system.stats_for(request.pid).inc("local_faults")
        self.system.policy.on_l2_miss(self, request)

    # -- fill / completion path ----------------------------------------------

    def receive_fill(self, pid: int, vpn: int, ppn: int, spill_budget: int) -> None:
        """A translation response arrived (from the IOMMU TLB, a remote L2,
        or a page walk).  Fill L2 per policy, then wake every MSHR waiter;
        the L1s take the L2's entry."""
        key = pack_key(pid, vpn)
        if self.local_tables is not None:
            # Install the mapping in the device-memory page table so future
            # misses resolve locally (Figure 23 variant).
            self.local_tables.table_for(pid).map(vpn, ppn)
        payload = pack_payload(ppn, self.gpu_id, spill_budget)
        self._insert_l2(key, payload)
        waiters = self.mshr.pop(key, [])
        hub = self.system.telemetry
        now = self.system.queue.now
        for cu, measured, trace in waiters:
            self.l1_tlbs[cu.cu_id].insert(key, payload)
            if measured:
                stats = self.system.stats_for(pid)
                stats.inc("translations_filled")
            if trace is not None:
                trace.end("mshr_wait", now)
                trace.close_root(now, outcome="filled")
                hub.complete(trace)
            self._translation_done(cu, measured)

    def receive_spill(self, key: int, payload: int) -> None:
        """An IOMMU TLB victim spilled into this GPU's L2 (multi-app mode).

        No CU is waiting: the insertion (and any eviction it causes) is the
        whole effect."""
        self._insert_l2(key, payload)

    def _insert_l2(self, key: int, payload: int) -> None:
        policy = self.system.policy
        refresh = key in self.l2_tlb
        victim = self.l2_tlb.insert(key, payload)
        if not refresh:
            # Refreshes must not re-register with the tracker: the filter
            # stores one fingerprint per resident translation.
            policy.on_l2_fill(self, key, payload)
        if victim is not None:
            policy.on_l2_eviction(self, *victim)

    def _translation_done(self, cu: ComputeUnit, measured: bool) -> None:
        cu.outstanding -= 1
        self._finish_run(cu, measured)
        if cu.waiting_for_slot and cu.outstanding < cu.slots:
            cu.waiting_for_slot = False
            if not self.system.halted:
                now = self.system.queue.now
                self.system.queue.schedule(max(now, cu.ready_time), self._issue, cu)

    def _finish_run(self, cu: ComputeUnit, measured: bool) -> None:
        # Every retired run is forward progress; the watchdog stalls out
        # only when this marker stops moving.
        self.system.progress_marker += 1
        if measured:
            cu.measured_remaining -= 1
            if cu.measured_remaining == 0:
                self.system.note_cu_first_run_done(cu)

    # -- services for policies ------------------------------------------------

    def probe_l2(self, key: int, *, remove_on_hit: bool) -> int | None:
        """A remote probe against this GPU's L2 TLB: the entry's payload,
        or ``None``.

        Does not perturb the application's own hit/miss statistics.  In
        multi-application mode the hit entry migrates to the requester
        (``remove_on_hit=True``); in single-application mode it stays and is
        refreshed, since shared translations are kept in both L2s."""
        payload = self.l2_tlb.peek(key)
        if payload is None:
            return None
        if remove_on_hit:
            self.l2_tlb.remove(key)
        else:
            self.l2_tlb.touch(key)
        return payload

    def invalidate(self, key: int) -> bool:
        """Back-invalidation (strictly-inclusive ablation / TLB shootdown).
        Removes the translation from the L2 and every CU's L1."""
        found = self.l2_tlb.remove(key) is not None
        for l1 in self.l1_tlbs.values():
            found = (l1.remove(key) is not None) or found
        return found

    def shootdown(self, pid: int | None = None) -> None:
        """Full local TLB shootdown (Section 4.4)."""
        if pid is None:
            self.l2_tlb.invalidate_all()
            for l1 in self.l1_tlbs.values():
                l1.invalidate_all()
        else:
            self.l2_tlb.invalidate_pid(pid)
            for l1 in self.l1_tlbs.values():
                l1.invalidate_pid(pid)
        self.system.policy.on_gpu_shootdown(self.gpu_id, pid)
