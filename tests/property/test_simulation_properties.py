"""Property-based tests on whole-simulation invariants.

These run miniature systems over randomized synthetic streams and check
the conservation laws the protocol must never violate, under every policy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.system import (
    GPUConfig,
    IOMMUConfig,
    InterconnectConfig,
    SystemConfig,
    TLBLevelConfig,
    TrackerConfig,
)
from repro.sim.system import MultiGPUSystem
from repro.structures.tlb import pack_key, unpack_key, unpack_payload
from repro.workloads.trace import CUStream, Placement, Workload

POLICIES = ["baseline", "strictly-inclusive", "exclusive", "tlb-probing", "least-tlb"]


def tiny_config(seed=1):
    return SystemConfig(
        num_gpus=2,
        gpu=GPUConfig(
            num_cus=2,
            slots_per_cu=2,
            l1_tlb=TLBLevelConfig(num_entries=2, associativity=2, lookup_latency=1),
            l2_tlb=TLBLevelConfig(num_entries=8, associativity=4, lookup_latency=3),
        ),
        iommu=IOMMUConfig(
            tlb=TLBLevelConfig(num_entries=16, associativity=4, lookup_latency=10),
            num_walkers=2,
            walker_threads=2,
            walk_latency=40,
        ),
        tracker=TrackerConfig(total_entries=32, kind="perfect"),
        interconnect=InterconnectConfig(host_link_latency=15, peer_link_latency=5),
        seed=seed,
    )


def build_workload(gpu_vpns, kind):
    placements = []
    footprint = set()
    for gpu_id, vpns in enumerate(gpu_vpns):
        if not vpns:
            continue
        n = len(vpns)
        placements.append(
            Placement(
                gpu_id=gpu_id, pid=1, app_name="rand", cu_ids=[0],
                streams=[CUStream(
                    np.array(vpns, dtype=np.int64),
                    np.full(n, 37, dtype=np.int64),
                    np.ones(n, dtype=np.int64),
                )],
            )
        )
        footprint.update(vpns)
    return Workload(
        name="rand", kind=kind, placements=placements, app_names={1: "rand"},
        footprints={1: np.array(sorted(footprint), dtype=np.int64)},
    )


streams_st = st.tuples(
    st.lists(st.integers(0, 30), min_size=1, max_size=60),
    st.lists(st.integers(0, 30), min_size=0, max_size=60),
)


@pytest.mark.parametrize("policy", POLICIES)
@given(gpu_vpns=streams_st)
@settings(max_examples=25, deadline=None)
def test_every_run_completes_and_translations_are_correct(policy, gpu_vpns):
    """Liveness + correctness: all runs finish, no TLB ever holds a
    translation that disagrees with the page table, and capacities hold."""
    kind = "single" if policy == "least-tlb" else "multi"
    workload = build_workload(gpu_vpns, kind)
    system = MultiGPUSystem(tiny_config(), workload, policy)
    result = system.run(max_cycles=5_000_000)
    # Liveness: everything issued also completed.
    measured = workload.measured_runs_for(1)
    assert result.apps[1].counters.get("runs", 0) == measured
    assert system.halted
    assert not any(gpu.mshr for gpu in system.gpus)
    assert len(system.iommu.pending) == 0

    # Translation correctness everywhere.
    tables = system.page_tables
    tlbs = [system.iommu.tlb]
    for gpu in system.gpus:
        tlbs += [gpu.l2_tlb, *(cu.l1_tlb for cu in gpu.cus)]
    for tlb in tlbs:
        for key, payload in tlb.items():
            assert tables.walk(*unpack_key(key)).ppn == unpack_payload(payload)[0]

    # Capacity invariants.
    assert len(system.iommu.tlb) <= 16
    for gpu in system.gpus:
        assert len(gpu.l2_tlb) <= 8


@given(gpu_vpns=streams_st)
@settings(max_examples=25, deadline=None)
def test_least_tlb_eviction_counters_match_contents(gpu_vpns):
    """The Eviction Counters must equal the per-owner census of the IOMMU
    TLB at quiescence (they drive spill placement)."""
    workload = build_workload(gpu_vpns, "multi")
    system = MultiGPUSystem(tiny_config(), workload, "least-tlb")
    system.run(max_cycles=5_000_000)
    census = [0] * system.config.num_gpus
    for _, payload in system.iommu.tlb.items():
        owner = unpack_payload(payload)[1]
        if owner >= 0:
            census[owner] += 1
    assert census == system.iommu.eviction_counters


@given(gpu_vpns=streams_st)
@settings(max_examples=25, deadline=None)
def test_least_tlb_tracker_exactly_mirrors_l2_contents(gpu_vpns):
    """With a perfect tracker, the tracker's view must equal the union of
    L2 contents once the system quiesces."""
    workload = build_workload(gpu_vpns, "single")
    system = MultiGPUSystem(tiny_config(), workload, "least-tlb")
    system.run(max_cycles=5_000_000)
    tracker = system.policy.tracker
    for gpu in system.gpus:
        for vpn in range(31):
            resident = pack_key(1, vpn) in gpu.l2_tlb
            tracked = gpu.gpu_id in tracker.query(1, vpn)
            assert resident == tracked, (gpu.gpu_id, vpn)


@given(gpu_vpns=streams_st, seed=st.integers(1, 5))
@settings(max_examples=15, deadline=None)
def test_determinism(gpu_vpns, seed):
    def run():
        workload = build_workload(gpu_vpns, "multi")
        return MultiGPUSystem(tiny_config(seed), workload, "least-tlb").run()

    a, b = run(), run()
    assert a.total_cycles == b.total_cycles
    assert a.apps[1].counters == b.apps[1].counters


@given(gpu_vpns=streams_st)
@settings(max_examples=20, deadline=None)
def test_strictly_inclusive_invariant_holds_at_quiescence(gpu_vpns):
    workload = build_workload(gpu_vpns, "multi")
    system = MultiGPUSystem(tiny_config(), workload, "strictly-inclusive")
    system.run(max_cycles=5_000_000)
    iommu_keys = system.iommu.tlb.resident_keys()
    for gpu in system.gpus:
        assert gpu.l2_tlb.resident_keys() <= iommu_keys
