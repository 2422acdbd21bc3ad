"""The paper's baseline: mostly-inclusive TLB management.

Section 3.1.1: when an IOMMU TLB miss triggers a walk, the returned
translation is populated into the IOMMU TLB *and* the requesting GPU's L2
and L1 TLBs; evictions at any level require no invalidation elsewhere.
IOMMU TLB hits leave the entry in place (it may therefore be duplicated in
L2s — the redundancy Observation 3 quantifies).
"""

from __future__ import annotations

from repro.gpu.ats import ATSRequest
from repro.policies.base import TranslationPolicy
from repro.structures.tlb import FRAME_SHIFT


class MostlyInclusivePolicy(TranslationPolicy):
    """Baseline multi-level TLB management."""

    name = "baseline"

    def on_iommu_request(self, request: ATSRequest) -> None:
        iommu = self.iommu
        payload = iommu.lookup(request)
        if payload is not None:
            iommu.respond([request], payload >> FRAME_SHIFT, source="iommu")
            return
        pending = iommu.pending.get(request.key)
        if pending is not None:
            self._attach(request, pending)
            return
        pending = iommu.pending.create(request.key, request, request.issue_time)
        self._start_walk(request, pending)
