"""Behavioural contrasts between Algorithm 1 (sharing) and Algorithm 2
(spilling) on identical traffic."""

import numpy as np

from repro.sim.system import MultiGPUSystem
from repro.structures.tlb import pack_key
from repro.workloads.trace import CUStream, Placement, Workload


def two_gpu_share(kind):
    """GPU0 touches page 7; GPU1 later requests it (plus a stagger page)."""
    placements = [
        Placement(gpu_id=0, pid=1, app_name="x", cu_ids=[0],
                  streams=[CUStream(np.array([7]), np.array([5000]), np.array([1]))]),
        Placement(gpu_id=1, pid=1, app_name="x", cu_ids=[0],
                  streams=[CUStream(np.array([99, 7]), np.array([5000, 5000]),
                                    np.array([1, 1]))]),
    ]
    return Workload(name="x", kind=kind, placements=placements,
                    app_names={1: "x"}, footprints={1: np.array([7, 99])})


def run(tiny_config, kind, mode):
    system = MultiGPUSystem(
        tiny_config, two_gpu_share(kind), "least-tlb", policy_options={"mode": mode}
    )
    system.run()
    return system


class TestRemoteHitSemantics:
    def test_sharing_mode_keeps_both_copies(self, tiny_config):
        system = run(tiny_config, "single", "single")
        assert system.iommu.stats["remote_hits"] == 1
        # Algorithm 1: the provider keeps its copy; both L2s hold page 7.
        assert pack_key(1, 7) in system.gpus[0].l2_tlb
        assert pack_key(1, 7) in system.gpus[1].l2_tlb
        tracker = system.policy.tracker
        assert set(tracker.query(1, 7)) == {0, 1}

    def test_spilling_mode_migrates_the_entry(self, tiny_config):
        system = run(tiny_config, "multi", "multi")
        assert system.iommu.stats["remote_hits"] == 1
        # Algorithm 2: no inter-application sharing — the entry moves.
        assert pack_key(1, 7) not in system.gpus[0].l2_tlb
        assert pack_key(1, 7) in system.gpus[1].l2_tlb
        assert system.policy.tracker.query(1, 7) == [1]


class TestIOMMUVictimSemantics:
    def flood(self, tiny_config, mode):
        # Enough distinct pages to overflow L2 (32) and IOMMU (128).
        pages = list(range(400))
        placements = [
            Placement(gpu_id=0, pid=1, app_name="x", cu_ids=[0],
                      streams=[CUStream(np.array(pages), np.full(400, 800),
                                        np.ones(400, dtype=np.int64))]),
        ]
        workload = Workload(
            name="x", kind="multi", placements=placements,
            app_names={1: "x"}, footprints={1: np.array(pages)},
        )
        system = MultiGPUSystem(
            tiny_config, workload, "least-tlb", policy_options={"mode": mode}
        )
        system.run()
        return system

    def test_single_mode_drops_iommu_victims(self, tiny_config):
        system = self.flood(tiny_config, "single")
        assert system.iommu.stats.as_dict().get("spills", 0) == 0
        # IOMMU TLB sits at capacity, the overflow was discarded.
        assert len(system.iommu.tlb) == tiny_config.iommu.tlb.num_entries

    def test_multi_mode_spills_iommu_victims(self, tiny_config):
        system = self.flood(tiny_config, "multi")
        assert system.iommu.stats["spills"] > 0
        # Victims landed in the idle GPUs' L2 TLBs.
        spilled_somewhere = any(
            len(system.gpus[g].l2_tlb) > 0 for g in (1, 2, 3)
        )
        assert spilled_somewhere
