"""The translation-policy interface.

A :class:`TranslationPolicy` owns every decision the paper varies between
designs: what an L2 miss does, how the IOMMU reacts to a request, what
happens to L2 and IOMMU TLB victims, and how fills propagate.  The GPU and
IOMMU components call the hooks below at the appropriate simulated times;
policies use the system's services (links, walkers, pending table) to act.

Concrete policies:

* :class:`~repro.policies.mostly_inclusive.MostlyInclusivePolicy` — the
  paper's baseline (Section 2.2/3.1).
* :class:`~repro.policies.strictly_inclusive.StrictlyInclusivePolicy`,
  :class:`~repro.policies.exclusive.ExclusivePolicy` — the other classical
  managements discussed in Section 2.2, for ablation.
* :class:`~repro.policies.tlb_probing.TLBProbingPolicy` — the Section 5.5
  state-of-the-art comparison.
* :class:`~repro.core.least_tlb.LeastTLBPolicy` — the paper's contribution.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Mapping

from repro.gpu.ats import ATSRequest
from repro.structures.tlb import pack_payload, unpack_payload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.gpu_device import GPUDevice
    from repro.iommu.pending_table import PendingEntry
    from repro.sim.system import MultiGPUSystem


def check_no_options(policy: str, options: Mapping[str, Any]) -> None:
    """Reject options given to ``policy``, a policy that takes none (both
    backends raise this same error)."""
    if options:
        raise TypeError(f"policy {policy!r} accepts no options, got {sorted(options)}")


class TranslationPolicy(ABC):
    """Base class wiring a policy to the system it manages."""

    name = "abstract"

    least_inclusive = False
    """True for policies whose walk results bypass the IOMMU TLB (the
    victim-TLB designs).  The invariant checker keys its cross-level
    exclusivity audit off this flag."""

    def __init__(self, system: "MultiGPUSystem", **options: Any) -> None:
        check_no_options(self.name, options)
        self.system = system
        self.iommu = system.iommu
        """The system's IOMMU device."""
        self.queue = system.queue
        """The global event queue."""
        self.topology = system.topology
        """The interconnect topology: its links and their bound sends."""
        self.gpus = system.gpus
        """All GPU devices, indexed by GPU id."""

    # -- GPU-side hooks ----------------------------------------------------------

    def on_l2_miss(self, gpu: "GPUDevice", request: ATSRequest) -> None:
        """An L2 miss allocated an MSHR; route the request onward.

        Default: emit the ATS packet to the IOMMU over the host link.
        """
        now = self.queue.now
        arrival = self.topology.send_to_iommu[gpu.gpu_id](now)
        if request.trace is not None:
            request.trace.add_complete("host_link", now, arrival, outcome="ok")
        self.queue.schedule(arrival, self.iommu.receive, request)

    def on_l2_fill(self, gpu: "GPUDevice", key: int, payload: int) -> None:
        """The entry ``(key, payload)`` was inserted into ``gpu``'s L2 TLB
        (see :mod:`repro.structures.tlb` for the entry format)."""

    def on_l2_eviction(self, gpu: "GPUDevice", key: int, payload: int) -> None:
        """``gpu``'s L2 TLB evicted ``(key, payload)``.  Default: drop
        silently (the mostly-inclusive behaviour — higher levels keep their
        copy)."""

    # -- IOMMU-side hooks ----------------------------------------------------------

    @abstractmethod
    def on_iommu_request(self, request: ATSRequest) -> None:
        """An ATS request finished its IOMMU TLB lookup pipeline stage."""

    def on_iommu_tlb_evicted(self, key: int, payload: int) -> None:
        """The IOMMU TLB evicted ``(key, payload)``.  Default: drop
        silently."""

    def on_iommu_shootdown(self, pid: int | None) -> None:
        """The IOMMU TLB was shot down; reset any policy-side state."""

    def on_gpu_shootdown(self, gpu_id: int, pid: int | None) -> None:
        """A GPU's local L1/L2 TLBs were shot down."""

    # -- shared machinery: dedup + walk + fault handling ------------------------------

    def _attach(self, request: ATSRequest, pending: "PendingEntry") -> None:
        """Merge ``request`` into the pending entry already open for its
        key.  A request arriving after the entry was served, but before
        its stragglers resolved, is answered at once from the recorded
        result."""
        if pending.served:
            assert pending.result_ppn is not None
            self.iommu.respond([request], pending.result_ppn, source="pending")
        else:
            if request.trace is not None:
                request.trace.begin("pending_wait", self.queue.now)
            pending.waiters.append(request)

    def _start_walk(self, request: ATSRequest, pending: "PendingEntry") -> None:
        """Start the walk that answers ``pending``, the entry ``request``
        opened."""
        pending.walk_pending = True
        if request.trace is not None:
            request.trace.begin("page_walk", self.queue.now)
        pending.walk_ticket = self.iommu.start_walk(request)

    def on_walk_complete(self, request: ATSRequest, ppn: int | None) -> None:
        """The walk started for ``request`` finished: ``ppn`` is the frame,
        or ``None`` when the walk faulted."""
        pending = self.iommu.pending[request.key]
        pending.walk_pending = False
        if ppn is None:
            if request.trace is not None:
                request.trace.end("page_walk", self.queue.now, outcome="fault")
            if pending.served:
                # The remote probe won the race; no need to fault.
                self.iommu.pending.maybe_remove(pending)
                return
            pending.fault_pending = True
            if request.trace is not None:
                request.trace.begin("pri_fault", self.queue.now)
            self.iommu.report_fault(request)
            return
        if request.trace is not None:
            request.trace.end("page_walk", self.queue.now, outcome="ok")
        self._deliver_walk_result(request, pending, ppn)

    def on_fault_serviced(self, request: ATSRequest, ppn: int) -> None:
        """The PRI batch holding ``request``'s fault mapped it to ``ppn``."""
        if request.trace is not None:
            request.trace.end("pri_fault", self.queue.now, outcome="ok")
        pending = self.iommu.pending[request.key]
        pending.fault_pending = False
        self._deliver_walk_result(request, pending, ppn)

    def _deliver_walk_result(
        self, request: ATSRequest, pending: "PendingEntry", ppn: int
    ) -> None:
        """A walk (or fault service) produced ``ppn`` for ``pending``;
        serve the waiters unless a racing responder beat it, then apply
        the policy's fill rule via :meth:`_fill_levels_after_walk`."""
        iommu = self.iommu
        if pending.served:
            self.iommu.stats.inc("walks_wasted")
        else:
            pending.served = True
            pending.result_ppn = ppn
            self._fill_levels_after_walk(request, ppn)
            iommu.respond(pending.waiters, ppn, source="walk")
            pending.waiters.clear()
        iommu.pending.maybe_remove(pending)

    def _fill_levels_after_walk(self, request: ATSRequest, ppn: int) -> None:
        """Which TLB levels a walk result populates.  Default: also the
        IOMMU TLB (inclusive behaviour), owned by the requester with a
        spill budget of 1; least-inclusive designs override to skip it."""
        victim = self.iommu.tlb.insert(
            request.key, pack_payload(ppn, request.gpu_id, 1)
        )
        if victim is not None:
            self.on_iommu_tlb_evicted(victim[0], victim[1])

    def _victim_arrived(self, gpu_id: int, key: int, payload: int) -> None:
        """An L2 victim of ``gpu_id`` reached the IOMMU TLB (the victim-TLB
        designs): it enters owned by the sender."""
        ppn, _, budget = unpack_payload(payload)
        victim = self.iommu.tlb.insert(key, pack_payload(ppn, gpu_id, budget))
        if victim is not None:
            self.on_iommu_tlb_evicted(victim[0], victim[1])
