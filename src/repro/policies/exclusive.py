"""Exclusive TLB management (Section 2.2 ablation).

The IOMMU TLB behaves as a victim buffer: walk results fill only the
requesting L2; IOMMU TLB hits *move* the entry to the requester; L2
victims drop into the IOMMU TLB.  This is least-TLB's inclusion discipline
*without* the Local TLB Tracker — a translation living in a peer GPU's L2
is invisible to other GPUs, which pay a full walk.  The gap between this
policy and least-TLB isolates the value of sharing/tracking.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.gpu.ats import ATSRequest
from repro.policies.base import TranslationPolicy
from repro.structures.tlb import FRAME_SHIFT

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.gpu_device import GPUDevice


class ExclusivePolicy(TranslationPolicy):
    """Victim-buffer IOMMU TLB with no cross-GPU sharing support."""

    name = "exclusive"

    least_inclusive = True

    def on_iommu_request(self, request: ATSRequest) -> None:
        iommu = self.iommu
        payload = iommu.lookup(request)
        if payload is not None:
            iommu.tlb.remove(request.key)
            iommu.respond([request], payload >> FRAME_SHIFT, source="iommu")
            return
        pending = iommu.pending.get(request.key)
        if pending is not None:
            self._attach(request, pending)
            return
        pending = iommu.pending.create(request.key, request, request.issue_time)
        self._start_walk(request, pending)

    def _fill_levels_after_walk(self, request: ATSRequest, ppn: int) -> None:
        # Least-inclusive fill: the walk result goes only to the L2/L1 of
        # the requesting GPU (via the respond path), never the IOMMU TLB.
        return

    def on_l2_eviction(self, gpu: "GPUDevice", key: int, payload: int) -> None:
        arrival = self.topology.send_to_iommu[gpu.gpu_id](self.queue.now)
        self.queue.schedule(arrival, self._victim_arrived, gpu.gpu_id, key, payload)
