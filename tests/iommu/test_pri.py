"""Unit tests for PRI fault batching, driven through the event engine's
IOMMU (which services the batches the shared PRI queue returns)."""

import numpy as np

from repro.config.system import IOMMUConfig, SystemConfig
from repro.gpu.ats import ATSRequest
from repro.sim.system import MultiGPUSystem
from repro.workloads.trace import CUStream, Placement, Workload


def make_pri(batch_size=4, timeout=1000, latency=500):
    """An engine whose GPUs never start: ``fault(vpn)`` reports a fault
    for page ``vpn`` of pid 1, and every serviced fault lands in
    ``served`` as ``(cycle, vpn, ppn)``."""
    config = SystemConfig(
        iommu=IOMMUConfig(
            pri_batch_size=batch_size,
            pri_timeout=timeout,
            fault_handling_latency=latency,
        ),
    )
    stream = CUStream(np.array([0]), np.array([1]), np.array([1]))
    workload = Workload(
        name="idle", kind="multi", app_names={1: "idle"},
        placements=[Placement(gpu_id=0, pid=1, app_name="idle", cu_ids=[0],
                              streams=[stream])],
    )
    system = MultiGPUSystem(config, workload, "baseline", prefault=False)
    served = []
    system.policy.on_fault_serviced = lambda request, ppn: served.append(
        (system.queue.now, request.vpn, ppn)
    )

    def fault(vpn):
        system.iommu.report_fault(
            ATSRequest(gpu_id=0, pid=1, vpn=vpn,
                       issue_time=system.queue.now, measured=False)
        )

    return system, fault, served


def test_full_batch_dispatches_immediately():
    system, fault, served = make_pri(batch_size=2, latency=500)
    fault(10)
    fault(11)
    system.queue.run()
    assert [t for t, _, _ in served] == [500, 500]
    assert system.page_tables.walk(1, 10).hit
    assert system.page_tables.walk(1, 11).hit


def test_timeout_dispatches_partial_batch():
    system, fault, served = make_pri(batch_size=8, timeout=1000, latency=500)
    fault(10)
    system.queue.run()
    assert [t for t, _, _ in served] == [1500]  # timeout at 1000 + handling 500
    assert system.iommu.pri.stats["timeout_batches"] == 1


def test_batches_counted():
    system, fault, _ = make_pri(batch_size=2)
    for vpn in range(6):
        fault(vpn)
    system.queue.run()
    assert system.iommu.pri.stats["batches"] == 3
    assert system.iommu.pri_service["faults_serviced"] == 6


def test_stale_timer_ignored_after_batch_dispatch():
    system, fault, served = make_pri(batch_size=2, timeout=1000, latency=100)
    fault(1)
    fault(2)  # dispatches batch
    fault(3)  # new batch, own timer
    system.queue.run()
    times = [t for t, _, _ in served]
    assert times[:2] == [100, 100]
    assert len(times) == 3
    # The third fault dispatched by its own timer, not the first batch's.
    assert times[2] >= 1000


def test_callbacks_receive_mapped_ppn():
    system, fault, served = make_pri(batch_size=1)
    fault(77)
    system.queue.run()
    assert served[0][2] == system.page_tables.walk(1, 77).ppn


def test_service_time_accumulates():
    system, fault, _ = make_pri(batch_size=1, latency=250)
    fault(5)
    system.queue.run()
    service_time = system.iommu.pri_service_time
    assert service_time.count == 1
    assert service_time.mean == 250
