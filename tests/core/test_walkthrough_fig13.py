"""Golden test: the multi-application spilling walk-through of Figure 13.

Tiny system — two-entry L2 TLBs, an eight-entry IOMMU TLB.  Initially
pages 0x7–0xE sit in the IOMMU TLB with the figure's ownership (0x7, 0x8,
0xE evicted from GPU0; 0x9 from GPU1; 0xA–0xC from GPU2; 0xD from GPU3 —
Eviction Counters [3, 1, 3, 1]), and the L2s hold [0x1,0x2], [0x3],
[0x4,0x5], [0x6].

Steps 1 and 2 are asserted exactly against the figure:

1. GPU2 requests 0x11 → walk fills GPU2 (victim 0x4 → IOMMU) → the IOMMU
   overflow spills its LRU entry 0x7 (spill bit cleared) into the L2 of
   the GPU with the smallest Eviction Counter — GPU1.
2. GPU2 requests 0x7 → tracker hit → remote hit in GPU1; in
   multi-application mode the spilled entry *migrates* (removed from
   GPU1, spill budget restored) — "there is no translation sharing among
   the applications".

Beyond step 2 the figure depends on how Eviction-Counter ties break,
which the paper does not specify; our rotating-priority arbiter makes a
different (equally valid) receiver choice at step 2's spill, so the
remaining steps' exact layout diverges.  The step-4 semantics the figure
demonstrates — a spilled entry is discarded on eviction instead of
re-entering the IOMMU TLB — is asserted directly in
``test_spilled_entry_discarded_on_eviction``.

Note: the figure labels translations with bare addresses; we reproduce it
with a single shared PID while running the policy in multi-application
(spilling) mode.
"""

import numpy as np
import pytest

from repro.config.system import (
    GPUConfig,
    IOMMUConfig,
    InterconnectConfig,
    SystemConfig,
    TLBLevelConfig,
    TrackerConfig,
)
from repro.sim.system import MultiGPUSystem
from repro.structures.tlb import pack_key, pack_payload, unpack_key, unpack_payload
from repro.workloads.trace import CUStream, Placement, Workload

PID = 1
STEP = 50_000


def walkthrough_config() -> SystemConfig:
    return SystemConfig(
        num_gpus=4,
        gpu=GPUConfig(
            num_cus=1,
            slots_per_cu=1,
            l1_tlb=TLBLevelConfig(num_entries=1, associativity=1, lookup_latency=1),
            l2_tlb=TLBLevelConfig(num_entries=2, associativity=2, lookup_latency=5),
        ),
        iommu=IOMMUConfig(
            tlb=TLBLevelConfig(num_entries=8, associativity=8, lookup_latency=20),
            num_walkers=2,
            walker_threads=2,
            walk_latency=100,
        ),
        tracker=TrackerConfig(total_entries=64, kind="perfect"),
        interconnect=InterconnectConfig(host_link_latency=30, peer_link_latency=10),
        seed=1,
    )


def stream(accesses) -> CUStream:
    """``accesses``: list of (vpn, absolute-ish gap)."""
    vpns = np.array([v for v, _ in accesses], dtype=np.int64)
    gaps = np.array([g for _, g in accesses], dtype=np.int64)
    return CUStream(vpns=vpns, gaps=gaps, repeats=np.ones(len(accesses), dtype=np.int64))


def build_system(per_gpu_accesses) -> MultiGPUSystem:
    placements = [
        Placement(gpu_id=g, pid=PID, app_name="fig13", cu_ids=[0], streams=[stream(acc)])
        for g, acc in per_gpu_accesses.items()
    ]
    workload = Workload(
        name="fig13", kind="multi", placements=placements,
        app_names={PID: "fig13"},
        footprints={PID: np.arange(0x20, dtype=np.int64)},
    )
    system = MultiGPUSystem(
        walkthrough_config(), workload, "least-tlb", policy_options={"mode": "multi"}
    )
    _install_initial_state(system)
    return system


def _install_initial_state(system: MultiGPUSystem) -> None:
    tracker = system.policy.tracker
    l2_contents = {0: [0x1, 0x2], 1: [0x3], 2: [0x4, 0x5], 3: [0x6]}
    for gpu_id, vpns in l2_contents.items():
        for vpn in vpns:  # insertion order == LRU order (oldest first)
            system.gpus[gpu_id].l2_tlb.insert(
                pack_key(PID, vpn), pack_payload(vpn + 0x100, budget=1)
            )
            tracker.register(gpu_id, PID, vpn)
    iommu_contents = [
        (0x7, 0), (0x8, 0), (0x9, 1), (0xA, 2),
        (0xB, 2), (0xC, 2), (0xD, 3), (0xE, 0),
    ]
    for vpn, owner in iommu_contents:
        system.iommu.tlb.insert(pack_key(PID, vpn), pack_payload(vpn + 0x100, owner, 1))
    assert system.iommu.eviction_counters == [3, 1, 3, 1]


def l2_vpns(system, gpu_id):
    return {unpack_key(key)[1] for key in system.gpus[gpu_id].l2_tlb.resident_keys()}


def iommu_vpns(system):
    return {unpack_key(key)[1] for key in system.iommu.tlb.resident_keys()}


class TestSteps1And2:
    @pytest.fixture
    def system(self):
        return build_system({2: [(0x11, STEP), (0x7, STEP)]})

    def test_step1_spills_lru_victim_to_min_counter_gpu(self, system):
        for gpu in system.gpus:
            gpu.start()
        system.queue.run(until=2 * STEP - 1)
        # GPU2 filled 0x11, evicting 0x4 into the IOMMU TLB...
        assert l2_vpns(system, 2) == {0x5, 0x11}
        # ...whose overflow spilled LRU entry 0x7 to GPU1 (counter 1, the
        # minimum; tie with GPU3 broken toward the lower scan position).
        assert l2_vpns(system, 1) == {0x3, 0x7}
        assert iommu_vpns(system) == {0x8, 0x9, 0xA, 0xB, 0xC, 0xD, 0xE, 0x4}
        assert system.iommu.stats["spills"] == 1
        spilled = system.gpus[1].l2_tlb.peek(pack_key(PID, 0x7))
        assert unpack_payload(spilled)[2] == 0  # the spill bit is now clear

    def test_step2_remote_hit_migrates_spilled_entry(self, system):
        system.run()
        # 0x7 moved from GPU1 (spill host) back to the requesting GPU2.
        assert 0x7 in l2_vpns(system, 2)
        assert 0x7 not in l2_vpns(system, 1)
        assert system.iommu.stats["remote_hits"] == 1
        # Migration restores the spill budget (the paper resets the bit).
        migrated = system.gpus[2].l2_tlb.peek(pack_key(PID, 0x7))
        assert unpack_payload(migrated)[2] == 1
        # GPU2's victim 0x5 entered the IOMMU TLB, matching the figure.
        assert 0x5 in iommu_vpns(system)
        # The tracker no longer claims GPU1 holds 0x7.
        assert 1 not in system.policy.tracker.query(PID, 0x7)


class TestSpillBitSemantics:
    def test_spilled_entry_discarded_on_eviction(self):
        """Figure 13's step 4: evicting a spilled (budget-0) entry discards
        it instead of re-entering the IOMMU TLB — the chain-effect bound."""
        system = build_system(
            {2: [(0x11, STEP)], 1: [(0x12, 2 * STEP), (0x13, 3 * STEP)]}
        )
        system.run()
        # Step 1 spilled 0x7 (budget 0) into GPU1; the two subsequent fills
        # on GPU1 evicted it again.
        assert 0x7 not in l2_vpns(system, 1)
        assert 0x7 not in iommu_vpns(system)
        assert system.iommu.stats["spilled_discarded"] >= 1
        # And the tracker forgot it.
        assert system.policy.tracker.query(PID, 0x7) == []

    def test_unspilled_victims_do_reenter_iommu(self):
        system = build_system({1: [(0x12, STEP), (0x13, 2 * STEP)]})
        system.run()
        # GPU1's own 0x3 (never spilled, budget 1) must re-enter the IOMMU
        # TLB when evicted by the new fills.
        assert 0x3 in iommu_vpns(system)


class TestSingleModeDoesNotSpill:
    def test_iommu_victims_dropped_in_single_mode(self):
        system = build_system({2: [(0x11, STEP)]})
        # Force sharing mode: IOMMU TLB overflow victims are dropped
        # (Algorithm 1, lines 27-28), never spilled.
        system.policy.mode = "single"
        system.policy.spilling = False
        system.run()
        assert system.iommu.stats["spills"] == 0
        assert 0x7 not in l2_vpns(system, 1)
        assert len(iommu_vpns(system)) == 8
