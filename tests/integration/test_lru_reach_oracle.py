"""Whole-run LRU-reach oracle.

On a degenerate machine the hit counters of a whole run have a closed
form.  One GPU with one CU and one slot issues its accesses strictly one
at a time, so no two misses overlap.  A 1-entry L1 hits only an immediate
repeat of the previous page, so the L2 sees the access stream with
consecutive duplicates collapsed.  Fully associative LRU L2 and IOMMU
TLBs then hit exactly the reuses of their own input stream whose stack
distance is below their size (:func:`fraction_within`).  Under
``baseline`` the IOMMU TLB's input is the recorded IOMMU request stream.

Both backends must match the closed form exactly; comparing the backends
with each other cannot catch a modelling bug in the TLBs they share.
"""

from __future__ import annotations

from dataclasses import replace
from random import Random

import numpy as np
import pytest

from repro.config.presets import baseline_config
from repro.metrics.reuse_distance import fraction_within, reuse_distances
from repro.sim.driver import simulate
from repro.workloads.trace import CUStream, Placement, Workload

PID = 1
SEEDS = range(40)


def _config(l2_entries: int, iommu_entries: int):
    base = baseline_config()
    return replace(
        base,
        num_gpus=1,
        gpu=replace(
            base.gpu,
            num_cus=1,
            slots_per_cu=1,
            l1_tlb=replace(base.gpu.l1_tlb, num_entries=1, associativity=1),
            l2_tlb=replace(
                base.gpu.l2_tlb, num_entries=l2_entries, associativity=l2_entries
            ),
        ),
        iommu=replace(
            base.iommu,
            tlb=replace(
                base.iommu.tlb, num_entries=iommu_entries, associativity=iommu_entries
            ),
        ),
    )


def _workload(rng: Random) -> tuple[Workload, list[int]]:
    pages = rng.randint(2, 24)
    vpns = [rng.randrange(pages) for _ in range(rng.randint(20, 160))]
    stream = CUStream(
        np.array(vpns, dtype=np.int64),
        np.array([rng.randint(1, 20) for _ in vpns], dtype=np.int64),
        np.ones(len(vpns), dtype=np.int64),
    )
    workload = Workload(
        name="oracle", kind="single",
        placements=[Placement(gpu_id=0, pid=PID, app_name="oracle", cu_ids=[0],
                              streams=[stream])],
        app_names={PID: "oracle"},
        footprints={PID: np.arange(pages, dtype=np.int64)},
    )
    return workload, vpns


def _captured(stream: list[tuple[int, int]], capacity: int) -> int:
    """Reuses of ``stream`` a ``capacity``-entry LRU captures."""
    distances = reuse_distances(stream)
    reuses = int((distances >= 0).sum())
    return round(fraction_within(distances, capacity) * reuses)


@pytest.mark.parametrize("backend", ["event", "functional"])
def test_hits_equal_lru_reach(backend):
    for seed in SEEDS:
        rng = Random(seed)
        l2_entries, iommu_entries = rng.randint(1, 8), rng.randint(1, 16)
        workload, vpns = _workload(rng)
        result = simulate(
            _config(l2_entries, iommu_entries), workload, "baseline",
            backend=backend, record_iommu_stream=True,
        )
        counters = result.apps[PID].counters
        l1_misses = [(PID, v) for i, v in enumerate(vpns) if i == 0 or v != vpns[i - 1]]
        case = f"seed {seed}: L2 {l2_entries}, IOMMU {iommu_entries}"
        assert counters.get("l2_hit", 0) == _captured(l1_misses, l2_entries), case
        assert counters.get("iommu_hit", 0) == _captured(
            result.iommu_stream, iommu_entries
        ), case
