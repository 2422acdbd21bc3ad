"""least-TLB: the paper's sharing- and spilling-aware TLB hierarchy.

The design (Section 4) composes three mechanisms on top of the shared
IOMMU TLB:

1. **Least-inclusive hierarchy** — the IOMMU TLB is a victim TLB for the
   GPU L2s.  Walk results fill only the requesting L2; an IOMMU TLB hit
   *moves* the entry to the requester; L2 victims drop into the IOMMU TLB.
   This removes the cross-level redundancy of the mostly-inclusive
   baseline and roughly doubles effective reach (Observation 3).

2. **Translation sharing** (single-application mode) — the Local TLB
   Tracker lets an IOMMU TLB miss be served from a peer GPU's L2.  The
   remote probe races the page-table walk through the pending table;
   whichever returns first wins, so tracker false positives cost nothing
   but fabric traffic.  On a remote hit the translation is kept in *both*
   L2s, since single-application GPUs genuinely share pages.

3. **IOMMU TLB spilling** (multi-application mode) — IOMMU TLB victims are
   spilled into the L2 of the GPU with the smallest Eviction Counter (the
   GPU contributing least to IOMMU TLB pressure, i.e. running the least
   TLB-intensive application).  Each entry carries a spill budget of
   ``N = config.spill_budget`` (1 in the paper); a spilled entry evicted
   from its host L2 is discarded rather than re-entering the IOMMU TLB,
   bounding the ping-pong "chain effect".  A remote hit on a spilled entry
   migrates it back to its owner with a refreshed budget.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.protocol import (
    SpillReceiverSelector,
    choose_probe_target,
    least_tlb_options,
    probe_removes_entry,
    should_reenter_iommu,
    should_spill_victim,
)
from repro.core.tracker import LocalTLBTracker
from repro.gpu.ats import ATSRequest
from repro.policies.base import TranslationPolicy
from repro.structures.tlb import (
    FRAME_SHIFT,
    PID_BITS,
    PID_MASK,
    pack_payload,
    unpack_key,
    unpack_payload,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.gpu_device import GPUDevice
    from repro.iommu.pending_table import PendingEntry
    from repro.sim.system import MultiGPUSystem


class LeastTLBPolicy(TranslationPolicy):
    """The paper's least-inclusive, sharing- and spilling-aware hierarchy.

    Options
    -------
    Resolved by :func:`repro.core.protocol.least_tlb_options`; the
    functional backend reads the resolved values off the built policy.

    mode:
        ``"single"`` (sharing semantics, Algorithm 1) or ``"multi"``
        (spilling semantics, Algorithm 2).  Defaults to the workload's
        execution paradigm.
    race_ptw:
        Issue the page walk in parallel with a remote probe (the paper's
        design).  ``False`` gives the remote-then-walk serial variant used
        as the colored-solid line in Figure 20.
    remote_probes:
        Disable to ablate sharing entirely (pure least-inclusive).
    spilling:
        Defaults to ``mode == "multi"``; disable to ablate spilling.
    receiver_policy:
        How the spill receiver is chosen: ``"counter"`` (the paper's
        Eviction-Counter minimum, default), ``"round-robin"``, or
        ``"random"`` — the latter two exist for the receiver-selection
        ablation bench.
    """

    name = "least-tlb"

    least_inclusive = True

    def __init__(self, system: "MultiGPUSystem", **options: Any) -> None:
        super().__init__(system)
        (
            self.mode,
            self.race_ptw,
            self.remote_probes,
            self.spilling,
            self.receiver_policy,
        ) = least_tlb_options(system.workload.kind, **options)
        config = system.config
        self.tracker = LocalTLBTracker(config.tracker, config.num_gpus, seed=config.seed)
        self._probe_rotor = 0
        self.receivers = SpillReceiverSelector(
            self.receiver_policy, config.num_gpus, config.seed
        )
        self._l2_lookup_latency = config.gpu.l2_tlb.lookup_latency
        self.probe_removes = probe_removes_entry(self.mode)
        """Whether a remote hit removes the entry from the probed L2."""
        self.spills_to = [f"spills_to_gpu{g}" for g in range(config.num_gpus)]
        """Per GPU, the name of the IOMMU counter of spills it receives."""

    # -- IOMMU request handling (Algorithms 1 & 2, lookup) -----------------------

    def on_iommu_request(self, request: ATSRequest) -> None:
        iommu = self.iommu
        payload = iommu.lookup(request)
        if payload is not None:
            # Victim-TLB move: the hit entry migrates to the requester's L2.
            iommu.tlb.remove(request.key)
            iommu.respond([request], payload >> FRAME_SHIFT, source="iommu")
            return
        pending = iommu.pending.get(request.key)
        if pending is not None:
            self._attach(request, pending)
            return
        pending = iommu.pending.create(request.key, request, request.issue_time)

        targets = [
            gpu_id
            for gpu_id in self.tracker.query(request.pid, request.vpn)
            if gpu_id != request.gpu_id
        ]
        probing = bool(targets) and self.remote_probes
        if probing:
            pending.remote_pending = True
            target, self._probe_rotor = choose_probe_target(
                targets, self._probe_rotor
            )
            if request.measured:
                self.system.stats_for(request.pid).inc("tracker_positive")
            now = self.queue.now
            if request.trace is not None:
                request.trace.begin("remote_probe", now, target=target)
            arrival = self.topology.send_probe[target](now)
            self.queue.schedule(
                arrival + self._l2_lookup_latency,
                self._remote_probe,
                request,
                target,
                pending,
            )
        if self.race_ptw or not probing:
            # The walk races the probe; the pending table keeps whichever
            # response arrives second from being delivered twice.
            self._start_walk(request, pending)

    def _remote_probe(
        self, request: ATSRequest, target: int, pending: PendingEntry
    ) -> None:
        pending.remote_pending = False
        payload = self.gpus[target].probe_l2(
            request.key, remove_on_hit=self.probe_removes
        )
        if request.trace is not None:
            request.trace.end(
                "remote_probe",
                self.queue.now,
                outcome="hit" if payload is not None else "miss",
            )
        if payload is not None:
            if self.mode == "multi":
                # No inter-application sharing: the spilled entry migrates
                # back to its owner and leaves the receiver's L2/tracker.
                self.tracker.unregister(target, request.pid, request.vpn)
            self.iommu.stats.inc("remote_hits")
            if pending.served:
                self.iommu.stats.inc("remote_wasted")
            else:
                pending.served = True
                ppn = payload >> FRAME_SHIFT
                pending.result_ppn = ppn
                self._respond_from_remote(pending.waiters, target, ppn)
                pending.waiters.clear()
                # Squash the racing walk if it is still queued: the race
                # must not waste walker throughput when the probe wins.
                if pending.walk_pending and pending.walk_ticket is not None:
                    if self.iommu.walkers.cancel(pending.walk_ticket):
                        pending.walk_pending = False
                        pending.walk_ticket = None
                        if request.trace is not None:
                            # A cancelled walk's callback never fires; close
                            # its span here so the trace stays balanced.
                            request.trace.end("page_walk", self.queue.now,
                                              outcome="cancelled")
        else:
            # Tracker false positive (fingerprint aliasing or a stale entry
            # after a local shootdown).  The racing walk hides the latency
            # (Section 4.1).  Deliberately NOT deleted from the filter: a
            # delete on a false positive would remove an aliased resident
            # key's fingerprint and silently drain the tracker.
            self.iommu.stats.inc("tracker_false_positives")
            if not pending.served and pending.resolved:
                # Serial (remote-only) variant: fall back to the walk now.
                self._start_walk(request, pending)
        self.iommu.pending.maybe_remove(pending)

    def _respond_from_remote(
        self, waiters: list[ATSRequest], target: int, ppn: int
    ) -> None:
        """Deliver a remote L2 hit to every waiter over the peer fabric.

        A re-fetched spilled entry gets a fresh spill budget (the paper
        resets the spill bit to 1 on reuse)."""
        system = self.system
        budget = system.config.spill_budget
        queue = self.queue
        now = queue.now
        gpu_to_gpu = self.topology.gpu_to_gpu
        fill = system.gpu_fills
        hub = system.telemetry
        for waiter in waiters:
            gpu_id = waiter.gpu_id
            arrival = gpu_to_gpu(target, gpu_id, now)
            if waiter.trace is not None:
                waiter.trace.end("pending_wait", now)
                waiter.trace.add_complete("response", now, arrival,
                                          outcome="remote")
            queue.schedule(arrival, fill[gpu_id], waiter.pid, waiter.vpn, ppn, budget)
            if waiter.measured:
                pid = waiter.pid
                stats = system.stats_for(pid)
                stats["remote_hit"] += 1
                stats["served_remote"] += 1
                latency = arrival - waiter.issue_time
                system.latency_for(pid).record(latency)
                if hub is not None:
                    hub.record_latency("l2_miss", latency)
                    hub.record_latency("remote_probe", latency)
                    hub.record_app_latency(pid, latency)
        self.iommu.stats.inc("responses_remote", len(waiters))

    def _fill_levels_after_walk(self, request: ATSRequest, ppn: int) -> None:
        # Least-inclusive: the walk result fills only the requesting GPU's
        # L2 (via the respond path), never the IOMMU TLB (Algorithm 1,
        # line 14).
        return

    # -- L2-side hooks (Algorithms 1 & 2, insertion) --------------------------------

    def on_l2_fill(self, gpu: "GPUDevice", key: int, payload: int) -> None:
        # Every translation brought into an L2 TLB is registered in that
        # GPU's tracker partition (Section 4.1).
        self.tracker.register(gpu.gpu_id, key & PID_MASK, key >> PID_BITS)

    def on_l2_eviction(self, gpu: "GPUDevice", key: int, payload: int) -> None:
        self.tracker.unregister(gpu.gpu_id, *unpack_key(key))
        if not should_reenter_iommu(self.spilling, unpack_payload(payload)[2]):
            # A spilled entry out of budget is abandoned (Algorithm 2,
            # lines 27-29): re-inserting it would ping-pong forever.
            self.iommu.stats.inc("spilled_discarded")
            return
        arrival = self.topology.send_to_iommu[gpu.gpu_id](self.queue.now)
        self.queue.schedule(arrival, self._victim_arrived, gpu.gpu_id, key, payload)

    def on_iommu_tlb_evicted(self, key: int, payload: int) -> None:
        ppn, _, budget = unpack_payload(payload)
        if not should_spill_victim(self.spilling, budget):
            # Single-application least-TLB simply drops the LRU victim
            # (Algorithm 1, lines 27-28).
            return
        receiver = self.receivers.select(self.iommu.eviction_counters)
        self.iommu.stats.inc("spills")
        self.iommu.stats.inc(self.spills_to[receiver])
        arrival = self.topology.send_probe[receiver](self.queue.now)
        self.queue.schedule(
            arrival,
            self.gpus[receiver].receive_spill,
            key,
            pack_payload(ppn, receiver, budget - 1),
        )

    # -- shootdown --------------------------------------------------------------------

    def on_iommu_shootdown(self, pid: int | None) -> None:
        # Section 4.4: an IOMMU TLB shootdown also resets the tracker; the
        # orphaned spilled entries age out of the L2s via LRU.
        self.tracker.clear()

    def on_gpu_shootdown(self, gpu_id: int, pid: int | None) -> None:
        # A local L1/L2 shootdown invalidates every tracked entry of that
        # GPU, so its tracker partition is reset wholesale; remote requests
        # that still race to it find nothing and fall back to the walk
        # (Section 4.4).
        self.tracker.clear(gpu_id)
