"""Unit tests for the IOMMU device: counters, spill-receiver selection,
shootdown bookkeeping."""

import numpy as np
import pytest

from repro.sim.system import MultiGPUSystem
from repro.structures.tlb import pack_key, pack_payload
from repro.workloads.trace import CUStream, Placement, Workload


@pytest.fixture
def system(tiny_config):
    placement = Placement(
        gpu_id=0, pid=1, app_name="x", cu_ids=[0],
        streams=[CUStream(np.array([1]), np.array([10]), np.array([1]))],
    )
    workload = Workload(
        name="x", kind="multi", placements=[placement],
        app_names={1: "x"}, footprints={1: np.array([1])},
    )
    return MultiGPUSystem(tiny_config, workload, "least-tlb")


def entry(vpn, owner, pid=1, budget=1):
    return pack_key(pid, vpn), pack_payload(vpn + 1, owner, budget)


class TestEvictionCounters:
    def test_insert_increments_owner(self, system):
        iommu = system.iommu
        iommu.tlb.insert(*entry(1, owner=2))
        assert iommu.eviction_counters == [0, 0, 1, 0]

    def test_remove_decrements_owner(self, system):
        iommu = system.iommu
        iommu.tlb.insert(*entry(1, owner=2))
        iommu.tlb.remove(pack_key(1, 1))
        assert iommu.eviction_counters == [0, 0, 0, 0]

    def test_reinsert_same_key_transfers_ownership(self, system):
        iommu = system.iommu
        iommu.tlb.insert(*entry(1, owner=2))
        iommu.tlb.insert(*entry(1, owner=3))
        assert iommu.eviction_counters == [0, 0, 0, 1]

    def test_conflict_eviction_decrements_victim_owner(self, system):
        iommu = system.iommu
        ways = iommu.tlb.associativity
        sets = iommu.tlb.num_sets
        # Fill one set completely with GPU 0 entries, then overflow it.
        for i in range(ways):
            iommu.tlb.insert(*entry(i * sets, owner=0))
        victim = iommu.tlb.insert(*entry(ways * sets, owner=1))
        assert victim is not None
        assert iommu.eviction_counters[0] == ways - 1
        assert iommu.eviction_counters[1] == 1

    def test_unowned_entries_not_counted(self, system):
        iommu = system.iommu
        iommu.tlb.insert(*entry(1, owner=-1))
        assert iommu.eviction_counters == [0, 0, 0, 0]


class TestSpillReceiverSelection:
    """The run's one spill-receiver selector (``repro.core.protocol``)
    over the IOMMU TLB's Eviction Counters."""

    @staticmethod
    def select(system):
        return system.policy.receivers.select(system.iommu.eviction_counters)

    def test_min_counter_wins(self, system):
        iommu = system.iommu
        iommu.eviction_counters[:] = [5, 2, 7, 9]
        assert self.select(system) == 1

    def test_tie_break_rotates(self, system):
        iommu = system.iommu
        iommu.eviction_counters[:] = [1, 1, 1, 1]
        picks = [self.select(system) for _ in range(6)]
        # Rotating priority: each selection starts scanning after the last
        # winner, so ties spread round-robin instead of dumping on GPU 0.
        assert picks == [0, 1, 2, 3, 0, 1]

    def test_rotation_respects_counter_changes(self, system):
        iommu = system.iommu
        iommu.eviction_counters[:] = [3, 1, 3, 1]
        assert self.select(system) == 1
        assert self.select(system) == 3
        assert self.select(system) == 1


class TestShootdown:
    def test_full_shootdown_clears_tlb_counters_and_tracker(self, system):
        iommu = system.iommu
        iommu.tlb.insert(*entry(1, owner=0))
        system.policy.tracker.register(0, 1, 1)
        dropped = iommu.shootdown()
        assert dropped == 1
        assert iommu.eviction_counters == [0, 0, 0, 0]
        assert len(iommu.tlb) == 0
        assert system.policy.tracker.query(1, 1) == []

    def test_pid_shootdown_rebuilds_counters(self, system):
        iommu = system.iommu
        iommu.tlb.insert(*entry(1, owner=0, pid=1))
        iommu.tlb.insert(*entry(2, owner=2, pid=9))
        iommu.shootdown(pid=1)
        assert len(iommu.tlb) == 1
        assert iommu.eviction_counters == [0, 0, 1, 0]

    def test_gpu_shootdown_clears_tracker_partition(self, system):
        tracker = system.policy.tracker
        tracker.register(0, 1, 1)
        tracker.register(1, 1, 2)
        system.gpus[0].shootdown()
        assert tracker.query(1, 1) == []
        assert tracker.query(1, 2) == [1]
