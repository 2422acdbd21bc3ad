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
from repro.structures.tlb import FRAME_SHIFT, OWNER_SHIFT, PID_BITS, SetAssociativeTLB
from repro.workloads.trace import Placement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.system import MultiGPUSystem


class GPUDevice:
    """One GPU: compute units, TLBs, MSHRs, and issue/completion logic."""

    def __init__(self, gpu_id: int, config: SystemConfig, system: "MultiGPUSystem") -> None:
        self.gpu_id = gpu_id
        self.config = config
        self.system = system
        self.queue = system.queue
        l2 = config.gpu.l2_tlb
        self.l2_tlb = SetAssociativeTLB(l2.num_entries, l2.associativity)
        self.cus: list[ComputeUnit] = []
        # MSHR: TLB key -> (CU, measured, trace) waiters for the in-flight
        # fill.  The trace slot is None unless the request was
        # telemetry-sampled.
        self.mshr: dict[int, list] = {}
        self._l1_config = config.gpu.l1_tlb
        self._l2_latency = config.gpu.l2_tlb.lookup_latency
        self._l1_latency = config.gpu.l1_tlb.lookup_latency
        self._l1l2_latency = self._l1_latency + self._l2_latency
        # The owner field of every payload this GPU's fills write.
        self._owner_field = (gpu_id + 1) << OWNER_SHIFT
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
        stats = self.system.stats_for(placement.pid)
        for cu_id, stream in zip(placement.cu_ids, placement.streams):
            self.cus.append(
                ComputeUnit(
                    gpu_id=self.gpu_id,
                    cu_id=cu_id,
                    pid=placement.pid,
                    stream=stream,
                    slots=self.config.gpu.slots_per_cu,
                    rerun=rerun,
                    l1_tlb=SetAssociativeTLB(l1.num_entries, l1.associativity),
                    stats=stats,
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
            if cu.num_runs:
                self.queue.schedule(cu.gaps[0], self._issue, cu)

    # -- issue path ----------------------------------------------------------

    def _issue(self, cu: ComputeUnit) -> None:
        system = self.system
        if system.halted:
            return
        queue = self.queue
        now = queue.now
        pid = cu.pid
        index = cu.index
        vpn = cu.vpns[index]
        # Post-warmup runs of the first execution round count toward
        # statistics.
        measured = cu.execution_round == 0 and index >= cu.warmup

        key = (vpn << PID_BITS) | pid
        hit = cu.l1_tlb.lookup(key) is not None
        if measured:
            if pid not in system.measure_start:
                system.note_measure_start(pid, now)
            repeats = cu.repeats[index]
            stats = cu.stats
            stats["runs"] += 1
            stats["accesses"] += repeats
            if hit:
                # The whole burst hits the just-touched L1 entry.
                stats["l1_hit"] += repeats
            else:
                stats["l1_miss"] += 1
                stats["l1_hit"] += repeats - 1

        # Telemetry: sample this issue for span tracing.  Every hook in
        # this file is guarded on the hub — a system without telemetry
        # takes the exact pre-telemetry path (pinned by the goldens).
        hub = system.telemetry
        if hit:
            if hub is not None and measured:
                trace = hub.maybe_sample(self.gpu_id, cu.cu_id, pid, vpn, now)
                hub.record_latency("l1_hit", self._l1_latency)
                if trace is not None:
                    trace.add_complete("l1_lookup", now, now + self._l1_latency,
                                       outcome="hit")
                    trace.close_root(now + self._l1_latency, outcome="l1_hit")
                    hub.complete(trace)
            self._finish_run(cu, measured)
        else:
            trace = None
            if hub is not None and measured:
                trace = hub.maybe_sample(self.gpu_id, cu.cu_id, pid, vpn, now)
                if trace is not None:
                    trace.add_complete("l1_lookup", now, now + self._l1_latency,
                                       outcome="miss")
            cu.outstanding += 1
            queue.schedule_after(
                self._l1l2_latency, self._l2_lookup, cu, key, measured, trace
            )

        # Move to the next run, wrapping to a re-execution round if the
        # CU reruns its stream.
        index += 1
        if index >= cu.num_runs:
            if not cu.rerun:
                cu.index = index
                return
            index = 0
            cu.execution_round += 1
        cu.index = index
        cu.ready_time = ready = now + cu.gaps[index]
        if cu.outstanding < cu.slots:
            queue.schedule(ready, self._issue, cu)
        else:
            cu.waiting_for_slot = True

    def _l2_lookup(
        self, cu: ComputeUnit, key: int, measured: bool, trace=None
    ) -> None:
        hub = self.system.telemetry
        now = self.queue.now
        stats = cu.stats
        payload = self.l2_tlb.lookup(key)
        if payload is not None:
            if measured:
                stats["l2_hit"] += 1
            if hub is not None and measured:
                hub.record_latency("l2_hit", self._l1l2_latency)
            if trace is not None:
                trace.add_complete("l2_lookup", now - self._l2_latency, now,
                                   outcome="hit")
                trace.close_root(now, outcome="l2_hit")
                hub.complete(trace)
            cu.l1_tlb.insert(key, payload)
            self._translation_done(cu, measured)
            return
        if measured:
            stats["l2_miss"] += 1
        if trace is not None:
            trace.add_complete("l2_lookup", now - self._l2_latency, now,
                               outcome="miss")
        waiters = self.mshr.get(key)
        if waiters is not None:
            waiters.append((cu, measured, trace))
            if measured:
                stats["l2_mshr_merge"] += 1
            if trace is not None:
                trace.begin("mshr_wait", now)
            return
        self.mshr[key] = [(cu, measured, trace)]
        request = ATSRequest(self.gpu_id, cu.pid, key >> PID_BITS, now, measured, trace)
        if self.local_walkers is not None:
            if measured:
                stats["local_walks"] += 1
            if trace is not None:
                trace.begin("local_walk", now)
            ticket = WalkTicket(request.pid, request.vpn, 0, request, now)
            if self.local_walkers.request(ticket) is not None:
                self._run_local_walk(ticket)
        else:
            self.system.policy.on_l2_miss(self, request)

    def _run_local_walk(self, ticket: WalkTicket) -> None:
        self.queue.schedule_after(ticket.cycles, self._local_walk_done, ticket)

    def _local_walk_done(self, ticket: WalkTicket) -> None:
        """A device-memory page-table walk finished (Figure 23 variant)."""
        now = self.queue.now
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
        key = (vpn << PID_BITS) | pid
        if self.local_tables is not None:
            # Install the mapping in the device-memory page table so future
            # misses resolve locally (Figure 23 variant).
            self.local_tables.table_for(pid).map(vpn, ppn)
        payload = (ppn << FRAME_SHIFT) | self._owner_field | spill_budget
        self._insert_l2(key, payload)
        waiters = self.mshr.pop(key, None)
        if not waiters:
            return
        hub = self.system.telemetry
        now = self.queue.now
        for cu, measured, trace in waiters:
            cu.l1_tlb.insert(key, payload)
            if measured:
                stats = cu.stats
                stats["translations_filled"] += 1
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
        l2 = self.l2_tlb
        refresh = key in l2
        victim = l2.insert(key, payload)
        if not refresh:
            # Refreshes must not re-register with the tracker: the filter
            # stores one fingerprint per resident translation.
            policy.on_l2_fill(self, key, payload)
        if victim is not None:
            policy.on_l2_eviction(self, victim[0], victim[1])

    def _translation_done(self, cu: ComputeUnit, measured: bool) -> None:
        """A translation of ``cu`` completed: its run retires, and a CU
        stalled on a full issue window resumes."""
        cu.outstanding -= 1
        self._finish_run(cu, measured)
        if cu.waiting_for_slot and cu.outstanding < cu.slots:
            cu.waiting_for_slot = False
            if not self.system.halted:
                now = self.queue.now
                ready = cu.ready_time
                self.queue.schedule(ready if ready > now else now, self._issue, cu)

    def _finish_run(self, cu: ComputeUnit, measured: bool) -> None:
        """A run of ``cu`` retired: an L1 hit at issue, or a completed
        translation."""
        system = self.system
        # Every retired run is forward progress; the watchdog stalls out
        # only when this marker stops moving.
        system.progress_marker += 1
        if measured:
            cu.measured_remaining -= 1
            if cu.measured_remaining == 0:
                system.note_cu_first_run_done(cu, self.queue.now)

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
        for cu in self.cus:
            found = (cu.l1_tlb.remove(key) is not None) or found
        return found

    def shootdown(self, pid: int | None = None) -> None:
        """Full local TLB shootdown (Section 4.4)."""
        if pid is None:
            self.l2_tlb.invalidate_all()
            for cu in self.cus:
                cu.l1_tlb.invalidate_all()
        else:
            self.l2_tlb.invalidate_pid(pid)
            for cu in self.cus:
                cu.l1_tlb.invalidate_pid(pid)
        self.system.policy.on_gpu_shootdown(self.gpu_id, pid)
