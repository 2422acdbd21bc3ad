"""Unit tests for IOMMU response routing and fault handling in context."""

import numpy as np

from repro.sim.system import MultiGPUSystem
from repro.structures.tlb import pack_key
from repro.workloads.trace import CUStream, Placement, Workload


def workload(gpu_vpns, footprints=None, kind="multi"):
    placements = []
    pages = set()
    for gpu_id, vpns in gpu_vpns.items():
        n = len(vpns)
        placements.append(
            Placement(
                gpu_id=gpu_id, pid=1, app_name="x", cu_ids=[0],
                streams=[CUStream(
                    np.array(vpns, dtype=np.int64),
                    np.full(n, 5000, dtype=np.int64),
                    np.ones(n, dtype=np.int64),
                )],
            )
        )
        pages.update(vpns)
    footprint = np.array(sorted(footprints if footprints is not None else pages))
    return Workload(name="x", kind=kind, placements=placements,
                    app_names={1: "x"}, footprints={1: footprint})


class TestFaultPath:
    def test_unmapped_page_served_via_pri(self, tiny_config):
        # Footprint excludes page 99: the walk faults, PRI maps it, and
        # the request still completes.
        system = MultiGPUSystem(
            tiny_config, workload({0: [99]}, footprints=[1]), "baseline"
        )
        result = system.run()
        c = result.apps[1].counters
        assert c["page_faults"] == 1
        assert c["runs"] == 1
        assert system.page_tables.walk(1, 99).hit
        assert system.iommu.pri_service["faults_serviced"] == 1

    def test_fault_latency_dwarfs_walk_latency(self, tiny_config):
        mapped = MultiGPUSystem(tiny_config, workload({0: [5]}), "baseline")
        faulting = MultiGPUSystem(
            tiny_config, workload({0: [99]}, footprints=[1]), "baseline"
        )
        fast = mapped.run().apps[1].mean_translation_latency
        slow = faulting.run().apps[1].mean_translation_latency
        assert slow > fast + tiny_config.iommu.pri_timeout

    def test_fault_under_least_tlb(self, tiny_config):
        system = MultiGPUSystem(
            tiny_config, workload({0: [99]}, footprints=[1]), "least-tlb"
        )
        result = system.run()
        assert result.apps[1].counters["runs"] == 1
        # Least-inclusive: the faulted-then-walked page fills only the L2.
        assert pack_key(1, 99) in system.gpus[0].l2_tlb
        assert pack_key(1, 99) not in system.iommu.tlb


class TestResponseRouting:
    def test_waiters_on_different_gpus_each_get_a_response(self, tiny_config):
        system = MultiGPUSystem(
            tiny_config, workload({0: [5], 1: [5], 2: [5], 3: [5]}, kind="single"),
            "baseline",
        )
        result = system.run()
        assert result.apps[1].counters["runs"] == 4
        for gpu in system.gpus:
            assert pack_key(1, 5) in gpu.l2_tlb
        # All four merged into a single walk.
        assert system.iommu.walkers.stats["walks_dispatched"] == 1

    def test_latency_accumulator_counts_each_serviced_request(self, tiny_config):
        system = MultiGPUSystem(
            tiny_config, workload({0: [5], 1: [5]}, kind="single"), "baseline"
        )
        system.run()
        assert system.latency_for(1).count == 2

    def test_responses_tagged_by_source(self, tiny_config):
        vpns = list(range(40)) + [0]  # final revisit of an IOMMU-resident page
        system = MultiGPUSystem(tiny_config, workload({0: vpns}), "baseline")
        result = system.run()
        c = result.apps[1].counters
        assert c["served_walk"] >= 40
        # The revisit of page 0 (evicted from the small L2, still in the
        # IOMMU TLB under mostly-inclusive) is served by the IOMMU TLB.
        assert c.get("served_iommu", 0) >= 1
