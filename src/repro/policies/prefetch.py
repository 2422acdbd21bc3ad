"""Sequential TLB prefetching — a related-work comparison policy.

Several prior designs the paper surveys (inter-core cooperative
prefetchers, Valkyrie's prefetch mode) hide translation latency by
prefetching the *next* page's translation on a demand miss.  This policy
adds next-page prefetch to the mostly-inclusive baseline:

* on every demand L2-TLB miss for page ``p``, the GPU also issues a
  prefetch request for ``p + degree`` pages (one request per page) unless
  the translation is already resident or in flight;
* prefetch responses fill the L2 (and the IOMMU TLB via the normal walk
  path) but wake no CU — mis-prefetches cost walker bandwidth and TLB
  capacity, which is exactly the trade-off that makes prefetching shine
  on streaming patterns (FIR, ST rows) and backfire on irregular ones
  (PR, BS) — the "+/-" stride-vs-irregular split of the paper's Table 1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.gpu.ats import ATSRequest
from repro.policies.mostly_inclusive import MostlyInclusivePolicy
from repro.structures.tlb import pack_key

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.gpu_device import GPUDevice


class SequentialPrefetchPolicy(MostlyInclusivePolicy):
    """Mostly-inclusive hierarchy plus next-page translation prefetch."""

    name = "prefetch"

    def __init__(self, system, *, degree: int = 1) -> None:
        super().__init__(system)
        if degree < 1:
            raise ValueError(f"prefetch degree must be >= 1: {degree}")
        self.degree = degree

    def on_l2_miss(self, gpu: "GPUDevice", request: ATSRequest) -> None:
        super().on_l2_miss(gpu, request)
        footprint = self.system.workload.footprints.get(request.pid)
        limit = int(footprint[-1]) if footprint is not None and len(footprint) else None
        for step in range(1, self.degree + 1):
            vpn = request.vpn + step
            if limit is not None and vpn > limit:
                break
            self._issue_prefetch(gpu, request, vpn)

    def _issue_prefetch(self, gpu: "GPUDevice", demand: ATSRequest, vpn: int) -> None:
        key = pack_key(demand.pid, vpn)
        # Skip if already resident locally or already being fetched.
        if key in gpu.l2_tlb or key in gpu.mshr:
            return
        # Allocate an MSHR with no waiting CU: the fill installs the entry
        # and wakes nobody.
        gpu.mshr[key] = []
        self.iommu.stats.inc("prefetches_issued")
        prefetch = ATSRequest(
            gpu_id=gpu.gpu_id,
            pid=demand.pid,
            vpn=vpn,
            issue_time=self.queue.now,
            measured=False,  # prefetches never contribute to statistics
        )
        arrival = self.topology.send_to_iommu[gpu.gpu_id](self.queue.now)
        self.queue.schedule(arrival, self.iommu.receive, prefetch)
