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
from repro.structures.tlb import unpack_payload


class MostlyInclusivePolicy(TranslationPolicy):
    """Baseline multi-level TLB management."""

    name = "baseline"

    def on_iommu_request(self, request: ATSRequest) -> None:
        payload = self.iommu.lookup(request)
        if payload is not None:
            self.iommu.respond([request], unpack_payload(payload)[0], source="iommu")
            return
        if self._attach_or_none(request) is not None:
            return
        self.iommu.pending.create(request.tlb_key, request, request.issue_time)
        self._start_walk(request)
