"""Golden test: the single-application walk-through of Figure 10.

Tiny system — each GPU's L2 TLB holds one entry, the IOMMU TLB holds four.
Initially GPU_i's L2 holds page ``0x(i+1)`` and the IOMMU TLB is empty
(least-inclusive: walk results fill only the L2).  The figure's steps:

1. GPU0 requests 0x5 → miss everywhere → walk fills GPU0's L2; the
   evicted 0x1 drops into the IOMMU TLB.
2. GPU1 requests 0x1 → IOMMU TLB hit → the entry *moves* to GPU1's L2;
   GPU1's victim 0x2 drops into the IOMMU TLB.
3. GPU2 requests 0x1 → IOMMU miss, tracker positive → remote hit in
   GPU1's L2; the translation is kept in *both* L2s (sharing mode).
4. GPU3 requests 0x1 → remote hit again.

Final state (figure's last row): L2s = [0x5, 0x1, 0x1, 0x1]; IOMMU TLB =
{0x2, 0x3, 0x4}.
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
from repro.structures.tlb import unpack_key
from repro.workloads.trace import CUStream, Placement, Workload

PID = 1
STEP = 50_000  # far longer than any translation latency: steps serialize


def walkthrough_config() -> SystemConfig:
    return SystemConfig(
        num_gpus=4,
        gpu=GPUConfig(
            num_cus=1,
            slots_per_cu=1,
            l1_tlb=TLBLevelConfig(num_entries=1, associativity=1, lookup_latency=1),
            l2_tlb=TLBLevelConfig(num_entries=1, associativity=1, lookup_latency=5),
        ),
        iommu=IOMMUConfig(
            tlb=TLBLevelConfig(num_entries=4, associativity=4, lookup_latency=20),
            num_walkers=2,
            walker_threads=2,
            walk_latency=100,
        ),
        tracker=TrackerConfig(total_entries=64, kind="perfect"),
        interconnect=InterconnectConfig(host_link_latency=30, peer_link_latency=10),
        seed=1,
    )


def single_access_stream(vpn: int, at: int) -> CUStream:
    return CUStream(
        vpns=np.array([vpn], dtype=np.int64),
        gaps=np.array([at], dtype=np.int64),
        repeats=np.array([1], dtype=np.int64),
    )


@pytest.fixture
def system() -> MultiGPUSystem:
    # The figure's four steps, serialized in time; kind="single" selects
    # the sharing-mode protocol (Algorithm 1).
    accesses = [(0, 0x5, 1 * STEP), (1, 0x1, 2 * STEP), (2, 0x1, 3 * STEP), (3, 0x1, 4 * STEP)]
    placements = [
        Placement(
            gpu_id=gpu, pid=PID, app_name="fig10", cu_ids=[0],
            streams=[single_access_stream(vpn, at)],
        )
        for gpu, vpn, at in accesses
    ]
    workload = Workload(
        name="fig10", kind="single", placements=placements,
        app_names={PID: "fig10"},
        footprints={PID: np.arange(0x10, dtype=np.int64)},
    )
    sys_ = MultiGPUSystem(walkthrough_config(), workload, "least-tlb")
    # Initial state: GPU_i's L2 holds page i+1 (registered in the tracker);
    # the IOMMU TLB is empty.
    for gpu_id in range(4):
        sys_.gpus[gpu_id].receive_fill(PID, gpu_id + 1, gpu_id + 100, 1)
    assert all(len(sys_.gpus[g].l2_tlb) == 1 for g in range(4))
    assert len(sys_.iommu.tlb) == 0
    return sys_


def l2_vpns(system, gpu_id):
    return {unpack_key(key)[1] for key in system.gpus[gpu_id].l2_tlb.resident_keys()}


def iommu_vpns(system):
    return {unpack_key(key)[1] for key in system.iommu.tlb.resident_keys()}


def test_final_state_matches_figure(system):
    system.run()
    assert l2_vpns(system, 0) == {0x5}
    assert l2_vpns(system, 1) == {0x1}
    assert l2_vpns(system, 2) == {0x1}
    assert l2_vpns(system, 3) == {0x1}
    assert iommu_vpns(system) == {0x2, 0x3, 0x4}


def test_step_outcomes(system):
    for gpu in system.gpus:
        gpu.start()
    # Step 1: miss everywhere (one walk); victim 0x1 enters the IOMMU TLB.
    system.queue.run(until=2 * STEP - 1)
    assert l2_vpns(system, 0) == {0x5}
    assert iommu_vpns(system) == {0x1}

    # Step 2: IOMMU TLB hit on 0x1 — the entry moves to GPU1's L2.
    system.queue.run(until=3 * STEP - 1)
    assert l2_vpns(system, 1) == {0x1}
    assert 0x1 not in iommu_vpns(system)
    assert iommu_vpns(system) == {0x2}
    assert system.iommu.stats["tlb_hit"] == 1

    # Steps 3 and 4: remote hits; sharing keeps copies in every L2.
    system.run()
    assert system.iommu.stats["remote_hits"] == 2
    assert l2_vpns(system, 1) == {0x1}  # the provider kept its copy


def test_baseline_comparison_misses_more(system):
    """The figure contrasts least-TLB with the mostly-inclusive baseline:
    under the baseline, steps 1 and 2 both miss (0x1 was never in the
    IOMMU TLB because nothing was walked for it)."""
    system.run()
    least_hits = system.iommu.stats["tlb_hit"] + system.iommu.stats["remote_hits"]
    assert least_hits == 3  # steps 2, 3, 4 all served without waiting for a walk
    # Steps 3/4 race a walk against the remote probe (idle walkers dispatch
    # immediately, so the race cannot be cancelled); both walks lose.
    assert system.iommu.stats["walks_wasted"] == 2
    assert system.iommu.walkers.stats["walks_dispatched"] == 3
