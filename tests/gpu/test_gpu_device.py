"""Unit tests for the GPU device: issue, MSHR, fills, completion."""

import numpy as np
import pytest

from repro.sim.system import MultiGPUSystem
from repro.structures.tlb import pack_key
from repro.workloads.trace import CUStream, Placement, Workload


def stream(vpns, gap=50, repeats=1, warmup=0):
    n = len(vpns)
    return CUStream(
        vpns=np.array(vpns, dtype=np.int64),
        gaps=np.full(n, gap, dtype=np.int64),
        repeats=np.full(n, repeats, dtype=np.int64),
        warmup_runs=warmup,
    )


def one_gpu_workload(vpns, *, gpu_id=0, pid=1, gap=50, repeats=1, kind="multi"):
    placement = Placement(
        gpu_id=gpu_id,
        pid=pid,
        app_name="synthetic",
        cu_ids=[0],
        streams=[stream(vpns, gap=gap, repeats=repeats)],
    )
    return Workload(
        name="synthetic",
        kind=kind,
        placements=[placement],
        app_names={pid: "synthetic"},
        footprints={pid: np.array(sorted(set(vpns)), dtype=np.int64)},
    )


def build(tiny_config, workload, policy="baseline", **kwargs):
    return MultiGPUSystem(tiny_config, workload, policy, **kwargs)


class TestIssueAndCompletion:
    def test_all_runs_complete(self, tiny_config):
        workload = one_gpu_workload([1, 2, 3, 4, 5])
        system = build(tiny_config, workload)
        result = system.run()
        app = result.apps[1]
        assert app.counters["runs"] == 5
        assert app.exec_cycles > 0

    def test_repeats_count_as_l1_hits(self, tiny_config):
        # Gaps longer than the full translation path serialize the runs.
        workload = one_gpu_workload([1, 1, 1], repeats=4, gap=2000)
        system = build(tiny_config, workload)
        result = system.run()
        c = result.apps[1].counters
        assert c["accesses"] == 12
        # First run misses L1; the burst and the revisits hit.
        assert c["l1_miss"] == 1
        assert c["l1_hit"] == 11

    def test_overlapping_same_page_misses_merge_in_mshr(self, tiny_config):
        # With a short gap, run 2 issues before run 1's fill returns: it
        # misses L1 and L2 but merges into the outstanding MSHR.
        workload = one_gpu_workload([1, 1, 1], repeats=4, gap=50)
        system = build(tiny_config, workload)
        result = system.run()
        c = result.apps[1].counters
        assert c["l1_miss"] == 2
        assert c["l2_mshr_merge"] == 1
        assert c["iommu_lookup"] == 1

    def test_l1_hit_completes_without_l2(self, tiny_config):
        workload = one_gpu_workload([7, 7], gap=2000)
        system = build(tiny_config, workload)
        result = system.run()
        c = result.apps[1].counters
        assert c.get("l2_miss", 0) + c.get("l2_hit", 0) == 1  # run 2 stays in L1

    def test_distinct_pages_produce_walks(self, tiny_config):
        vpns = list(range(10))
        workload = one_gpu_workload(vpns)
        system = build(tiny_config, workload)
        result = system.run()
        c = result.apps[1].counters
        assert c["walks"] == 10
        assert c["served_walk"] == 10

    def test_window_limits_outstanding(self, tiny_config):
        # 2 slots per CU: with long translation latency, runs 3+ must wait.
        vpns = list(range(6))
        workload = one_gpu_workload(vpns, gap=1)
        system = build(tiny_config, workload)
        gpu = system.gpus[0]
        peak = 0
        original = gpu._l2_lookup

        def spy(cu, key, measured, trace=None):
            nonlocal peak
            peak = max(peak, cu.outstanding)
            original(cu, key, measured, trace)

        gpu._l2_lookup = spy
        system.run()
        assert peak <= tiny_config.gpu.slots_per_cu


class TestMSHR:
    def test_concurrent_same_page_requests_merge(self, tiny_config):
        # Two CUs touch the same page at the same time: one ATS request.
        placement = Placement(
            gpu_id=0,
            pid=1,
            app_name="synthetic",
            cu_ids=[0, 1],
            streams=[stream([42]), stream([42])],
        )
        workload = Workload(
            name="synthetic",
            kind="multi",
            placements=[placement],
            app_names={1: "synthetic"},
            footprints={1: np.array([42])},
        )
        system = build(tiny_config, workload)
        result = system.run()
        c = result.apps[1].counters
        assert c["l2_miss"] == 2
        assert c["l2_mshr_merge"] == 1
        assert c["iommu_lookup"] == 1
        assert c["runs"] == 2  # both runs still complete

    def test_mshr_cleared_after_fill(self, tiny_config):
        workload = one_gpu_workload([9, 9, 9], gap=2000)
        system = build(tiny_config, workload)
        system.run()
        assert not system.gpus[0].mshr


class TestFills:
    def test_fill_populates_l2_and_l1(self, tiny_config):
        workload = one_gpu_workload([5])
        system = build(tiny_config, workload)
        system.run()
        gpu = system.gpus[0]
        assert pack_key(1, 5) in gpu.l2_tlb
        assert pack_key(1, 5) in gpu.cus[0].l1_tlb

    def test_second_access_hits_locally(self, tiny_config):
        workload = one_gpu_workload([5] + list(range(100, 104)) + [5], gap=2000)
        system = build(tiny_config, workload)
        result = system.run()
        c = result.apps[1].counters
        # The revisit of page 5 must not reach the IOMMU again.
        assert c["iommu_lookup"] == 5

    def test_invalidate_removes_everywhere(self, tiny_config):
        workload = one_gpu_workload([5])
        system = build(tiny_config, workload)
        system.run()
        gpu = system.gpus[0]
        assert gpu.invalidate(pack_key(1, 5)) is True
        assert pack_key(1, 5) not in gpu.l2_tlb
        assert pack_key(1, 5) not in gpu.cus[0].l1_tlb
        assert gpu.invalidate(pack_key(1, 5)) is False


class TestProbe:
    def test_probe_hit_keep(self, tiny_config):
        workload = one_gpu_workload([5])
        system = build(tiny_config, workload)
        system.run()
        gpu = system.gpus[0]
        payload = gpu.probe_l2(pack_key(1, 5), remove_on_hit=False)
        assert payload is not None
        assert pack_key(1, 5) in gpu.l2_tlb

    def test_probe_hit_remove(self, tiny_config):
        workload = one_gpu_workload([5])
        system = build(tiny_config, workload)
        system.run()
        gpu = system.gpus[0]
        payload = gpu.probe_l2(pack_key(1, 5), remove_on_hit=True)
        assert payload is not None
        assert pack_key(1, 5) not in gpu.l2_tlb

    def test_probe_does_not_pollute_stats(self, tiny_config):
        workload = one_gpu_workload([5])
        system = build(tiny_config, workload)
        system.run()
        gpu = system.gpus[0]
        before = system.stats_for(1).as_dict()
        assert gpu.probe_l2(pack_key(1, 6), remove_on_hit=False) is None
        assert gpu.probe_l2(pack_key(1, 5), remove_on_hit=False) is not None
        assert system.stats_for(1).as_dict() == before


class TestWarmup:
    def test_warmup_runs_excluded_from_stats(self, tiny_config):
        placement = Placement(
            gpu_id=0, pid=1, app_name="synthetic", cu_ids=[0],
            streams=[stream([1, 2, 3, 4], warmup=2)],
        )
        workload = Workload(
            name="synthetic", kind="multi", placements=[placement],
            app_names={1: "synthetic"}, footprints={1: np.arange(5)},
        )
        system = build(tiny_config, workload)
        result = system.run()
        c = result.apps[1].counters
        assert c["runs"] == 2
        assert result.apps[1].runs == 2

    def test_exec_time_excludes_warmup(self, tiny_config):
        placement = Placement(
            gpu_id=0, pid=1, app_name="synthetic", cu_ids=[0],
            streams=[stream([1, 2, 3, 4], warmup=2)],
        )
        workload = Workload(
            name="synthetic", kind="multi", placements=[placement],
            app_names={1: "synthetic"}, footprints={1: np.arange(5)},
        )
        system = build(tiny_config, workload)
        result = system.run()
        assert result.apps[1].exec_cycles < result.total_cycles


class TestDuplicateCU:
    def test_duplicate_cu_assignment_rejected(self, tiny_config):
        placement_a = Placement(
            gpu_id=0, pid=1, app_name="a", cu_ids=[0], streams=[stream([1])]
        )
        placement_b = Placement(
            gpu_id=0, pid=2, app_name="b", cu_ids=[0], streams=[stream([2])]
        )
        workload = Workload(
            name="bad", kind="multi",
            placements=[placement_a, placement_b],
            app_names={1: "a", 2: "b"},
            footprints={1: np.array([1]), 2: np.array([2])},
        )
        with pytest.raises(ValueError, match="assigned twice"):
            build(tiny_config, workload)
