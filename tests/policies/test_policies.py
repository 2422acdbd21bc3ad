"""Unit tests for the baseline and comparison policies."""

import numpy as np
import pytest

from repro.policies import make_policy, policy_names
from repro.sim.system import MultiGPUSystem
from repro.structures.tlb import pack_key, unpack_key
from repro.workloads.trace import CUStream, Placement, Workload


def stream(vpns, gap=5000):
    n = len(vpns)
    return CUStream(
        vpns=np.array(vpns, dtype=np.int64),
        gaps=np.full(n, gap, dtype=np.int64),
        repeats=np.ones(n, dtype=np.int64),
    )


def workload_on(gpu_streams, kind="single"):
    placements = []
    footprint = set()
    for gpu_id, vpns in gpu_streams.items():
        placements.append(
            Placement(gpu_id=gpu_id, pid=1, app_name="app", cu_ids=[0],
                      streams=[stream(vpns)])
        )
        footprint.update(vpns)
    return Workload(
        name="unit", kind=kind, placements=placements, app_names={1: "app"},
        footprints={1: np.array(sorted(footprint), dtype=np.int64)},
    )


class TestRegistry:
    def test_known_names(self):
        names = policy_names()
        for name in ("baseline", "mostly-inclusive", "strictly-inclusive",
                     "exclusive", "tlb-probing", "least-tlb"):
            assert name in names

    def test_unknown_name(self, tiny_config):
        system = MultiGPUSystem(tiny_config, workload_on({0: [1]}), "baseline")
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("nope", system)


class TestMostlyInclusive:
    def test_walk_fills_iommu_and_l2(self, tiny_config):
        system = MultiGPUSystem(tiny_config, workload_on({0: [5]}), "baseline")
        system.run()
        assert pack_key(1, 5) in system.iommu.tlb
        assert pack_key(1, 5) in system.gpus[0].l2_tlb

    def test_iommu_hit_leaves_entry_in_place(self, tiny_config):
        system = MultiGPUSystem(tiny_config, workload_on({0: [5], 1: [99, 5]}), "baseline")
        system.run()
        # GPU1's later access hits the IOMMU TLB; the entry stays there
        # (duplicated in both L2s and the IOMMU — Observation 3).
        assert pack_key(1, 5) in system.iommu.tlb
        assert pack_key(1, 5) in system.gpus[0].l2_tlb
        assert pack_key(1, 5) in system.gpus[1].l2_tlb
        assert system.iommu.stats["tlb_hit"] == 1

    def test_l2_eviction_is_silent(self, tiny_config):
        vpns = list(range(40))  # overflow the 32-entry L2
        system = MultiGPUSystem(tiny_config, workload_on({0: vpns}), "baseline")
        system.run()
        # All 40 translations remain in the IOMMU TLB despite L2 evictions.
        assert len(system.iommu.tlb) == 40

    def test_request_dedup_across_gpus(self, tiny_config):
        system = MultiGPUSystem(
            tiny_config, workload_on({0: [5], 1: [5], 2: [5]}), "baseline"
        )
        result = system.run()
        # Concurrent identical requests merge into one walk.
        assert system.iommu.walkers.stats["walks_dispatched"] == 1
        assert result.apps[1].counters["runs"] == 3


class TestStrictlyInclusive:
    def test_iommu_eviction_back_invalidates(self, tiny_config):
        # Overflow one IOMMU TLB set so an eviction occurs while the victim
        # is still resident in the GPU's L2.
        sets = tiny_config.iommu.tlb.num_entries // tiny_config.iommu.tlb.associativity
        ways = tiny_config.iommu.tlb.associativity
        vpns = [i * sets for i in range(ways + 1)]  # all map to set 0
        system = MultiGPUSystem(tiny_config, workload_on({0: vpns}), "strictly-inclusive")
        system.run()
        assert system.iommu.stats["back_invalidations"] >= 1
        # Inclusion invariant: nothing in an L2 that is not in the IOMMU TLB.
        iommu_keys = system.iommu.tlb.resident_keys()
        for gpu in system.gpus:
            assert gpu.l2_tlb.resident_keys() <= iommu_keys


class TestExclusive:
    def test_walk_fill_skips_iommu(self, tiny_config):
        system = MultiGPUSystem(tiny_config, workload_on({0: [5]}), "exclusive")
        system.run()
        assert pack_key(1, 5) not in system.iommu.tlb
        assert pack_key(1, 5) in system.gpus[0].l2_tlb

    def test_victims_enter_iommu_and_hits_move_out(self, tiny_config):
        vpns = list(range(33))
        system = MultiGPUSystem(tiny_config, workload_on({0: vpns}), "exclusive")
        system.run()
        assert len(system.iommu.tlb) == 1
        (victim,) = system.iommu.tlb.resident_keys()
        follow = MultiGPUSystem(
            tiny_config, workload_on({0: vpns, 1: [unpack_key(victim)[1]]}), "exclusive"
        )
        follow.run()
        assert victim in follow.gpus[1].l2_tlb

    def test_no_remote_sharing_without_tracker(self, tiny_config):
        # Page 7 lives only in GPU0's L2: exclusive pays a walk for GPU1.
        system = MultiGPUSystem(
            tiny_config, workload_on({0: [7], 1: [99, 7]}), "exclusive"
        )
        system.run()
        assert system.iommu.stats.as_dict().get("remote_hits", 0) == 0
        assert system.iommu.walkers.stats["walks_dispatched"] == 3  # 7, 99, 7


class TestTLBProbing:
    def test_probe_hit_avoids_iommu(self, tiny_config):
        # GPU0 (ring neighbour of GPU1) holds page 7; GPU1's miss probes it.
        system = MultiGPUSystem(
            tiny_config, workload_on({0: [7], 1: [99, 7]}), "tlb-probing"
        )
        result = system.run()
        assert system.iommu.stats["ring_probe_hits"] == 1
        # The probed request never reached the IOMMU.
        assert result.apps[1].counters["iommu_lookup"] == 2  # 7(GPU0), 99

    def test_probe_miss_falls_back_to_iommu(self, tiny_config):
        system = MultiGPUSystem(tiny_config, workload_on({0: [5]}), "tlb-probing")
        result = system.run()
        assert system.iommu.stats["ring_probes"] == 2
        assert system.iommu.stats.as_dict().get("ring_probe_hits", 0) == 0
        assert result.apps[1].counters["served_walk"] == 1

    def test_probing_adds_latency_on_miss(self, tiny_config):
        probing = MultiGPUSystem(tiny_config, workload_on({0: [5]}), "tlb-probing")
        base = MultiGPUSystem(tiny_config, workload_on({0: [5]}), "baseline")
        r_probing = probing.run()
        r_base = base.run()
        assert (
            r_probing.apps[1].mean_translation_latency
            > r_base.apps[1].mean_translation_latency
        )

    def test_distant_gpu_not_probed(self, tiny_config):
        # GPU2 is not a ring neighbour of GPU0 in a 4-GPU ring: GPU0's miss
        # cannot be served by GPU2's copy.
        system = MultiGPUSystem(
            tiny_config, workload_on({2: [7], 0: [99, 7]}), "tlb-probing"
        )
        system.run()
        assert system.iommu.stats.as_dict().get("ring_probe_hits", 0) == 0
