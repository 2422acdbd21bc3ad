"""The Section 5.5 state-of-the-art comparator: ring TLB probing.

Baruah et al.'s Valkyrie probes peer L1 TLBs inside one GPU; the paper
extends the scheme to L2 TLBs and connects all GPUs' L2s in a ring, so a
GPU's L2 miss first probes its two ring neighbours before falling back to
the IOMMU.  Inclusion management elsewhere stays mostly-inclusive.

The scheme's weakness in a multi-GPU setting — long probe delays on the
inter-GPU fabric paid by every miss, whether or not a neighbour has the
translation — is exactly what this model reproduces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.gpu.ats import ATSRequest
from repro.policies.mostly_inclusive import MostlyInclusivePolicy
from repro.structures.tlb import unpack_payload

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.gpu_device import GPUDevice


class _ProbeState:
    """Join point for one request's two concurrent neighbour probes."""

    __slots__ = ("remaining", "found")

    def __init__(self, remaining: int) -> None:
        self.remaining = remaining
        self.found = False


class TLBProbingPolicy(MostlyInclusivePolicy):
    """Mostly-inclusive hierarchy with ring probing of neighbour L2 TLBs."""

    name = "tlb-probing"

    def on_l2_miss(self, gpu: "GPUDevice", request: ATSRequest) -> None:
        if len(self.gpus) < 2:
            super().on_l2_miss(gpu, request)
            return
        now = self.queue.now
        neighbors = self.topology.ring_neighbors(gpu.gpu_id)
        targets = sorted(set(neighbors))
        state = _ProbeState(remaining=len(targets))
        lookup_latency = self.system.config.gpu.l2_tlb.lookup_latency
        self.iommu.stats.inc("ring_probes", len(targets))
        if request.trace is not None:
            request.trace.begin("ring_probe", now, targets=len(targets))
        for neighbor in targets:
            arrival = self.topology.gpu_to_gpu(gpu.gpu_id, neighbor, now)
            self.queue.schedule(
                arrival + lookup_latency, self._probe_result, gpu, request, neighbor, state
            )

    def _probe_result(
        self, gpu: "GPUDevice", request: ATSRequest, neighbor: int, state: _ProbeState
    ) -> None:
        state.remaining -= 1
        if state.found:
            return
        payload = self.gpus[neighbor].probe_l2(request.key, remove_on_hit=False)
        if payload is not None:
            state.found = True
            self.iommu.stats.inc("ring_probe_hits")
            now = self.queue.now
            if request.measured:
                self.system.stats_for(request.pid).inc("remote_hit")
            arrival = self.topology.gpu_to_gpu(neighbor, gpu.gpu_id, now)
            if request.trace is not None:
                request.trace.end("ring_probe", now, outcome="hit")
                request.trace.add_complete("response", now, arrival,
                                           outcome="ring")
            self.queue.schedule(
                arrival,
                gpu.receive_fill,
                request.pid,
                request.vpn,
                unpack_payload(payload)[0],
                self.system.config.spill_budget,
            )
            if request.measured:
                latency = arrival - request.issue_time
                self.system.latency_for(request.pid).record(latency)
                hub = self.system.telemetry
                if hub is not None:
                    hub.record_latency("l2_miss", latency)
                    hub.record_latency("ring_probe", latency)
                    hub.record_app_latency(request.pid, latency)
            return
        if state.remaining == 0:
            # Both neighbours missed: fall back to the normal IOMMU path,
            # having paid the probing delay.
            if request.trace is not None:
                request.trace.end("ring_probe", self.queue.now, outcome="miss")
            super().on_l2_miss(gpu, request)
