"""Unit tests for the least-TLB policy mechanics beyond the walk-throughs."""

import numpy as np
import pytest

from repro.sim.system import MultiGPUSystem
from repro.structures.tlb import pack_key, pack_payload, unpack_key, unpack_payload
from repro.workloads.trace import CUStream, Placement, Workload


def stream(vpns, gap=5000):
    n = len(vpns)
    return CUStream(
        vpns=np.array(vpns, dtype=np.int64),
        gaps=np.full(n, gap, dtype=np.int64),
        repeats=np.ones(n, dtype=np.int64),
    )


def workload_on(gpu_streams, kind="single", pids=None):
    placements = []
    app_names = {}
    footprint = set()
    for gpu_id, vpns in gpu_streams.items():
        pid = 1 if pids is None else pids[gpu_id]
        placements.append(
            Placement(gpu_id=gpu_id, pid=pid, app_name=f"app{pid}", cu_ids=[0],
                      streams=[stream(vpns)])
        )
        app_names[pid] = f"app{pid}"
        footprint.update(vpns)
    footprints = {pid: np.array(sorted(footprint), dtype=np.int64) for pid in app_names}
    return Workload(name="unit", kind=kind, placements=placements,
                    app_names=app_names, footprints=footprints)


class TestModeResolution:
    def test_mode_follows_workload_kind(self, tiny_config):
        single = MultiGPUSystem(tiny_config, workload_on({0: [1]}, kind="single"), "least-tlb")
        assert single.policy.mode == "single"
        assert single.policy.spilling is False
        multi = MultiGPUSystem(tiny_config, workload_on({0: [1]}, kind="multi"), "least-tlb")
        assert multi.policy.mode == "multi"
        assert multi.policy.spilling is True

    def test_explicit_mode_override(self, tiny_config):
        system = MultiGPUSystem(
            tiny_config, workload_on({0: [1]}, kind="single"), "least-tlb",
            policy_options={"mode": "multi"},
        )
        assert system.policy.mode == "multi"

    def test_invalid_mode_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="mode"):
            MultiGPUSystem(
                tiny_config, workload_on({0: [1]}), "least-tlb",
                policy_options={"mode": "both"},
            )


class TestLeastInclusiveInvariant:
    def test_walk_fill_does_not_populate_iommu(self, tiny_config):
        system = MultiGPUSystem(tiny_config, workload_on({0: [1, 2, 3]}), "least-tlb")
        system.run()
        # All three pages live in GPU0's L2; none were inserted into the
        # IOMMU TLB (L2 has room, so no victims arrived either).
        assert len(system.iommu.tlb) == 0
        assert pack_key(1, 1) in system.gpus[0].l2_tlb

    def test_l2_victims_feed_iommu(self, tiny_config):
        # 33 distinct pages overflow the 32-entry L2 by one.
        system = MultiGPUSystem(
            tiny_config, workload_on({0: list(range(33))}), "least-tlb"
        )
        system.run()
        assert len(system.iommu.tlb) == 1
        assert len(system.gpus[0].l2_tlb) == 32

    def test_iommu_hit_moves_entry(self, tiny_config):
        # GPU0 overflows its L2 so one victim reaches the IOMMU TLB; GPU1
        # then requests that victim: the entry must move out of the IOMMU.
        vpns0 = list(range(33))
        system = MultiGPUSystem(
            tiny_config,
            workload_on({0: vpns0, 1: []} | {}, kind="single") if False else
            workload_on({0: vpns0}, kind="single"),
            "least-tlb",
        )
        system.run()
        ((victim_key, _),) = list(system.iommu.tlb.items())
        victim = unpack_key(victim_key)[1]
        follow = MultiGPUSystem(
            tiny_config, workload_on({0: vpns0, 1: [victim]}, kind="single"), "least-tlb"
        )
        follow.run()
        assert pack_key(1, victim) in follow.gpus[1].l2_tlb


class TestTrackerMaintenance:
    def test_fills_register_and_evictions_unregister(self, tiny_config):
        system = MultiGPUSystem(tiny_config, workload_on({0: list(range(33))}), "least-tlb")
        system.run()
        tracker = system.policy.tracker
        resident = {unpack_key(key)[1] for key, _ in system.gpus[0].l2_tlb.items()}
        evicted = set(range(33)) - resident
        for vpn in resident:
            assert 0 in tracker.query(1, vpn)
        for vpn in evicted:
            assert 0 not in tracker.query(1, vpn)


class TestRemoteProbeConfig:
    def test_remote_probes_disabled(self, tiny_config):
        # GPU0 holds page 7; GPU1 requests it.  With probes disabled the
        # request must be served by a walk instead.
        system = MultiGPUSystem(
            tiny_config,
            workload_on({0: [7], 1: [7]}, kind="single"),
            "least-tlb",
            policy_options={"remote_probes": False},
        )
        result = system.run()
        assert system.iommu.stats["remote_hits"] == 0
        assert result.apps[1].counters["served_walk"] == 2

    def test_remote_only_serves_hit_without_any_walk(self, tiny_config):
        # race_ptw=False: the walk starts only if the probe misses.  GPU1's
        # filler access staggers it behind GPU0, so GPU0 holds page 7 by
        # the time GPU1 asks for it.
        system = MultiGPUSystem(
            tiny_config,
            workload_on({0: [7], 1: [99, 7]}, kind="single"),
            "least-tlb",
            policy_options={"race_ptw": False},
        )
        system.run()
        # The genuine hit is served remotely with no racing walk at all.
        assert system.iommu.stats["remote_hits"] == 1
        assert system.iommu.stats.as_dict().get("walks_wasted", 0) == 0
        # Only pages 7 (GPU0) and 99 (GPU1) were ever walked.
        assert system.iommu.walkers.stats["walks_dispatched"] == 2


class TestSpillBudgetN:
    def test_budget_decrements_per_spill(self, tiny_config):
        config = tiny_config.derive(spill_budget=2)
        system = MultiGPUSystem(config, workload_on({0: [1]}, kind="multi"), "least-tlb")
        system.policy.on_iommu_tlb_evicted(pack_key(1, 500), pack_payload(500, 3, 2))
        system.queue.run()
        assert system.iommu.stats["spills"] == 1
        spilled = [
            unpack_payload(payload)
            for gpu in system.gpus
            for key, payload in gpu.l2_tlb.items()
            if key == pack_key(1, 500)
        ]
        assert spilled and spilled[0][2] == 1

    def test_exhausted_budget_drops_victim(self, tiny_config):
        system = MultiGPUSystem(
            tiny_config, workload_on({0: [1]}, kind="multi"), "least-tlb"
        )
        system.policy.on_iommu_tlb_evicted(pack_key(1, 500), pack_payload(500, 3, 0))
        system.queue.run()
        assert system.iommu.stats["spills"] == 0
        assert all(
            pack_key(1, 500) not in gpu.l2_tlb for gpu in system.gpus
        )
