"""Unit tests for the sequential-prefetch comparison policy."""

import numpy as np
import pytest

from repro.sim.system import MultiGPUSystem
from repro.structures.tlb import pack_key
from repro.workloads.trace import CUStream, Placement, Workload


def workload(vpns, gap=5000, footprint=None):
    n = len(vpns)
    placement = Placement(
        gpu_id=0, pid=1, app_name="x", cu_ids=[0],
        streams=[CUStream(
            np.array(vpns, dtype=np.int64),
            np.full(n, gap, dtype=np.int64),
            np.ones(n, dtype=np.int64),
        )],
    )
    pages = footprint if footprint is not None else sorted(set(vpns) | {v + 1 for v in vpns})
    return Workload(name="x", kind="multi", placements=[placement],
                    app_names={1: "x"},
                    footprints={1: np.array(sorted(pages), dtype=np.int64)})


def test_prefetch_fills_next_page(tiny_config):
    system = MultiGPUSystem(tiny_config, workload([10]), "prefetch")
    system.run()
    gpu = system.gpus[0]
    assert pack_key(1, 10) in gpu.l2_tlb
    assert pack_key(1, 11) in gpu.l2_tlb  # prefetched
    assert system.iommu.stats["prefetches_issued"] == 1


def test_prefetched_access_hits_locally(tiny_config):
    # Sequential sweep: after the first miss, every next page is prefetched
    # ahead of its demand access.
    vpns = list(range(20, 30))
    system = MultiGPUSystem(tiny_config, workload(vpns), "prefetch")
    result = system.run()
    base = MultiGPUSystem(tiny_config, workload(vpns), "baseline").run()
    assert (
        result.apps[1].counters["l2_miss"] < base.apps[1].counters["l2_miss"]
    )


def test_prefetches_never_counted_in_stats(tiny_config):
    system = MultiGPUSystem(tiny_config, workload([10]), "prefetch")
    result = system.run()
    # Only the demand access appears in per-application IOMMU stats.
    assert result.apps[1].counters["iommu_lookup"] == 1


def test_degree_configurable(tiny_config):
    system = MultiGPUSystem(
        tiny_config,
        workload([10], footprint=list(range(10, 15))),
        "prefetch",
        policy_options={"degree": 3},
    )
    system.run()
    gpu = system.gpus[0]
    assert all(pack_key(1, 10 + k) in gpu.l2_tlb for k in range(4))


def test_invalid_degree(tiny_config):
    with pytest.raises(ValueError, match="degree"):
        MultiGPUSystem(
            tiny_config, workload([10]), "prefetch", policy_options={"degree": 0}
        )


def test_prefetch_respects_footprint_bound(tiny_config):
    # Page 10 is the last page of the footprint: nothing beyond it exists,
    # so no prefetch is issued (no spurious page faults).
    system = MultiGPUSystem(
        tiny_config, workload([10], footprint=[10]), "prefetch"
    )
    system.run()
    assert system.iommu.stats.as_dict().get("prefetches_issued", 0) == 0


def test_no_duplicate_prefetch_for_resident_page(tiny_config):
    system = MultiGPUSystem(tiny_config, workload([10, 12, 10, 12]), "prefetch")
    system.run()
    # 10 -> prefetch 11; 12 -> prefetch 13; revisits hit locally.
    assert system.iommu.stats["prefetches_issued"] == 2
