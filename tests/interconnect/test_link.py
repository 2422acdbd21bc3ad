"""Unit tests for links and topology."""

import pytest

from repro.config.system import InterconnectConfig
from repro.interconnect.link import Link
from repro.interconnect.topology import Topology


class TestLink:
    def test_latency_applied(self):
        link = Link("l", latency=100, bandwidth=1.0)
        assert link.send(0) == 100

    def test_serialization_queues_messages(self):
        link = Link("l", latency=100, bandwidth=0.5)  # 2 cycles/message
        arrivals = [link.send(0) for _ in range(3)]
        # The third message queued 4 cycles behind the first two.
        assert arrivals == [100, 102, 104]

    def test_idle_link_resets_serialization(self):
        link = Link("l", latency=10, bandwidth=0.5)
        link.send(0)
        assert link.send(100) == 110  # no backlog after idleness

    def test_traffic_counted(self):
        link = Link("l", latency=1)
        for t in range(5):
            link.send(t)
        assert link.traffic == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            Link("l", latency=-1)
        with pytest.raises(ValueError):
            Link("l", latency=1, bandwidth=0)


class TestTopology:
    def make(self, num_gpus=4, **kwargs):
        return Topology(num_gpus, InterconnectConfig(**kwargs))

    def test_host_links_use_host_latency(self):
        topo = self.make(host_link_latency=300)
        assert topo.send_to_iommu[0](0) == 300
        assert topo.send_from_iommu[3](0) == 300

    def test_peer_links_use_peer_latency(self):
        topo = self.make(peer_link_latency=100)
        assert topo.gpu_to_gpu(0, 1, 0) == 100
        assert topo.send_probe[2](0) == 100

    def test_self_send_is_free(self):
        topo = self.make()
        assert topo.gpu_to_gpu(2, 2, 50) == 50

    def test_remote_latency_scale(self):
        topo = self.make(peer_link_latency=100, remote_latency_scale=3.5)
        assert topo.send_probe[0](0) == 350
        # Host latency is NOT scaled (Figure 20 varies only remote access).
        assert topo.send_to_iommu[0](0) == 300

    def test_ring_neighbors(self):
        topo = self.make(num_gpus=4)
        assert topo.ring_neighbors(0) == (3, 1)
        assert topo.ring_neighbors(3) == (2, 0)

    def test_traffic_accounting(self):
        topo = self.make()
        topo.send_to_iommu[0](0)
        topo.send_from_iommu[1](0)
        topo.gpu_to_gpu(0, 1, 0)
        topo.send_probe[2](0)
        assert topo.total_host_traffic() == 2
        assert topo.total_peer_traffic() == 2

    def test_invalid_gpu_count(self):
        with pytest.raises(ValueError):
            self.make(num_gpus=0)
