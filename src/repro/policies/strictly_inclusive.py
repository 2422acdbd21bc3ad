"""Strictly-inclusive TLB management (Section 2.2 ablation).

Every translation cached in a GPU TLB must also reside in the IOMMU TLB,
so an IOMMU TLB eviction back-invalidates the translation from every GPU's
L1/L2.  Translation sharing through the shared level is easy, but the
invalidation traffic and lost L2 reach make it the costliest discipline —
which is why real systems prefer mostly-inclusive, per the paper.
"""

from __future__ import annotations

from repro.policies.mostly_inclusive import MostlyInclusivePolicy


class StrictlyInclusivePolicy(MostlyInclusivePolicy):
    """Baseline plus back-invalidation on IOMMU TLB evictions."""

    name = "strictly-inclusive"

    def on_iommu_tlb_evicted(self, key: int, payload: int) -> None:
        now = self.queue.now
        send = self.topology.send_from_iommu
        self.iommu.stats.inc("back_invalidations")
        for gpu in self.gpus:
            arrival = send[gpu.gpu_id](now)
            self.queue.schedule(arrival, gpu.invalidate, key)
