"""Integration tests for the periodic TLB-shootdown scenario (Section 4.4)."""

import numpy as np

from repro.sim.system import MultiGPUSystem
from repro.structures.tlb import pack_key
from repro.workloads.trace import CUStream, Placement, Workload


def looping_workload(pages=32, repeats_of_sweep=20):
    vpns = np.tile(np.arange(pages, dtype=np.int64), repeats_of_sweep)
    placement = Placement(
        gpu_id=0, pid=1, app_name="loop", cu_ids=[0],
        streams=[CUStream(
            vpns,
            np.full(len(vpns), 200, dtype=np.int64),
            np.ones(len(vpns), dtype=np.int64),
        )],
    )
    return Workload(name="loop", kind="multi", placements=[placement],
                    app_names={1: "loop"}, footprints={1: np.arange(pages)})


def test_shootdowns_fire_and_execution_still_completes(tiny_config):
    system = MultiGPUSystem(
        tiny_config, looping_workload(), "least-tlb", shootdown_interval=10_000
    )
    result = system.run()
    assert result.metadata["shootdowns"] >= 2
    assert result.apps[1].counters["runs"] == 640


def test_shootdowns_cost_extra_walks(tiny_config):
    quiet = MultiGPUSystem(tiny_config, looping_workload(), "baseline").run()
    noisy = MultiGPUSystem(
        tiny_config, looping_workload(), "baseline", shootdown_interval=10_000
    ).run()
    # Every shootdown re-cools the TLBs: the same trace needs more walks.
    assert noisy.apps[1].counters["walks"] > quiet.apps[1].counters["walks"]
    assert noisy.apps[1].exec_cycles >= quiet.apps[1].exec_cycles


def test_least_tlb_recovers_after_shootdown(tiny_config):
    """After a shootdown resets the tracker, stale probes must not wedge
    the protocol: everything still completes and the tracker mirrors the
    L2 contents again at quiescence."""
    system = MultiGPUSystem(
        tiny_config, looping_workload(), "least-tlb", shootdown_interval=7_000
    )
    result = system.run()
    assert result.apps[1].counters["runs"] == 640
    tracker = system.policy.tracker
    gpu = system.gpus[0]
    for vpn in range(32):
        assert (pack_key(1, vpn) in gpu.l2_tlb) == (0 in tracker.query(1, vpn))
