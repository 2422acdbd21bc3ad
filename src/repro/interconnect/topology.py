"""System topology: GPU↔IOMMU host links and the GPU↔GPU fabric.

Two fabrics exist side by side, matching Figure 1:

* a *host* star — every GPU has an up and a down PCIe-class link to the
  CPU-side IOMMU (ATS requests, responses, walk traffic);
* a *peer* fabric — high-bandwidth GPU↔GPU connections used by remote-L2
  probe responses (least-TLB) and by the ring probing baseline of
  Section 5.5.

Figure 20's remote-latency sweep scales only the peer fabric
(``InterconnectConfig.remote_latency_scale``); host latency is untouched,
exactly as the paper varies "remote GPU access latency" alone.
"""

from __future__ import annotations

from repro.config.system import InterconnectConfig
from repro.interconnect.link import Link


class Topology:
    """All links of one simulated system."""

    def __init__(self, num_gpus: int, config: InterconnectConfig) -> None:
        if num_gpus <= 0:
            raise ValueError(f"num_gpus must be positive: {num_gpus}")
        self.num_gpus = num_gpus
        self.config = config
        host_bw = 0.5  # one ATS-sized message per 2 cycles on PCIe
        peer_bw = 1.0
        self.to_iommu = [
            Link(f"gpu{g}->iommu", config.host_link_latency, host_bw)
            for g in range(num_gpus)
        ]
        self.from_iommu = [
            Link(f"iommu->gpu{g}", config.host_link_latency, host_bw)
            for g in range(num_gpus)
        ]
        peer_latency = config.scaled_peer_latency
        self.peer = [
            [
                Link(f"gpu{a}->gpu{b}", peer_latency, peer_bw) if a != b else None
                for b in range(num_gpus)
            ]
            for a in range(num_gpus)
        ]
        # The IOMMU reaches a GPU's L2 TLB for a remote probe over the same
        # peer-class fabric (the probe is relayed GPU-side).
        self.iommu_to_gpu_probe = [
            Link(f"iommu~>gpu{g}", peer_latency, peer_bw) for g in range(num_gpus)
        ]
        # Per GPU, each link's bound ``send(now) -> arrival``: the one way
        # both backends put a message on a host or probe link.
        self.send_to_iommu = [link.send for link in self.to_iommu]
        """Per GPU, the send of its up-link to the IOMMU."""
        self.send_from_iommu = [link.send for link in self.from_iommu]
        """Per GPU, the send of the IOMMU's down-link to it."""
        self.send_probe = [link.send for link in self.iommu_to_gpu_probe]
        """Per GPU, the send of the remote-L2 probe link to it."""

    def gpu_to_gpu(self, src: int, dst: int, now: int) -> int:
        """Arrival time of a peer-fabric message from ``src`` to ``dst``."""
        if src == dst:
            return now
        link = self.peer[src][dst]
        assert link is not None
        return link.send(now)

    def ring_neighbors(self, gpu_id: int) -> tuple[int, int]:
        """The two ring neighbours used by the TLB-probing baseline."""
        return ((gpu_id - 1) % self.num_gpus, (gpu_id + 1) % self.num_gpus)

    def total_host_traffic(self) -> int:
        """Messages carried by the GPU<->IOMMU (PCIe-class) links."""
        return sum(l.traffic for l in self.to_iommu) + sum(
            l.traffic for l in self.from_iommu
        )

    def total_peer_traffic(self) -> int:
        """Messages carried by the GPU<->GPU fabric (probes, spills)."""
        peer = sum(l.traffic for row in self.peer for l in row if l is not None)
        probe = sum(l.traffic for l in self.iommu_to_gpu_probe)
        return peer + probe

    def describe_state(self) -> dict[str, int]:
        """Compact fabric summary for stall diagnostics."""
        return {
            "host_traffic": self.total_host_traffic(),
            "peer_traffic": self.total_peer_traffic(),
        }
