"""Unit tests for the page-walker pool and its schedulers, driven through
the event engine's IOMMU (which schedules what the pool decides)."""

import numpy as np

from repro.config.system import IOMMUConfig, SystemConfig
from repro.gpu.ats import ATSRequest
from repro.sim.system import MultiGPUSystem
from repro.workloads.trace import CUStream, Placement, Workload


def make_pool(
    num_walkers=2, threads=1, latency=100, scheduler="fifo", num_gpus=4, mapped=64
):
    """An engine whose GPUs never start: the test issues walks through
    ``walk(vpn, gpu, pid)``, and every finished walk lands in ``done`` as
    ``(cycle, vpn, ppn)`` (``ppn`` is ``None`` for a faulted walk)."""
    config = SystemConfig(
        num_gpus=num_gpus,
        iommu=IOMMUConfig(
            num_walkers=num_walkers,
            walker_threads=threads,
            walk_latency=latency,
            walker_scheduler=scheduler,
        ),
    )
    stream = CUStream(np.array([0]), np.array([1]), np.array([1]))
    workload = Workload(
        name="idle", kind="multi", app_names={1: "idle"},
        placements=[Placement(gpu_id=0, pid=1, app_name="idle", cu_ids=[0],
                              streams=[stream])],
    )
    system = MultiGPUSystem(config, workload, "baseline", prefault=False)
    system.page_tables.prefault(1, range(mapped))
    done = []
    system.policy.on_walk_complete = lambda request, ppn: done.append(
        (system.queue.now, request.vpn, ppn)
    )

    def walk(vpn, gpu=0, pid=1):
        return system.iommu.start_walk(
            ATSRequest(gpu_id=gpu, pid=pid, vpn=vpn,
                       issue_time=system.queue.now, measured=False)
        )

    return system, walk, done


def finish_times(done):
    return [time for time, _, _ in done]


class TestFIFO:
    def test_walk_completes_with_latency(self):
        system, walk, done = make_pool()
        walk(0)
        system.queue.run()
        time, _, ppn = done[0]
        assert time == 100
        assert ppn == system.page_tables.translate(1, 0)

    def test_fault_result(self):
        system, walk, done = make_pool()
        walk(999_999)
        system.queue.run()
        assert done[0][2] is None
        assert system.iommu.walkers.stats["walks_faulted"] == 1

    def test_capacity_limits_concurrency(self):
        # 2 walkers x 1 thread: 6 walks finish in 3 serialized waves.
        system, walk, done = make_pool(num_walkers=2, threads=1, latency=100)
        for vpn in range(6):
            walk(vpn)
        system.queue.run()
        assert finish_times(done) == [100, 100, 200, 200, 300, 300]

    def test_threads_multiply_capacity(self):
        system, walk, done = make_pool(num_walkers=2, threads=3, latency=100)
        for vpn in range(6):
            walk(vpn)
        system.queue.run()
        assert finish_times(done) == [100] * 6

    def test_queue_wait_recorded(self):
        system, walk, _ = make_pool(num_walkers=1, threads=1, latency=100)
        for vpn in range(3):
            walk(vpn)
        system.queue.run()
        pool = system.iommu.walkers
        assert pool.queue_wait.count == 3
        assert pool.queue_wait.max == 200

    def test_partial_walk_is_cheaper(self):
        system, walk, done = make_pool()
        # Unknown PID: faults at the first radix level -> 1/4 latency.
        walk(0, pid=77)
        system.queue.run()
        assert done[0][0] == 25


class TestCancellation:
    def test_cancel_queued_walk(self):
        system, walk, done = make_pool(num_walkers=1, threads=1)
        walk(0)
        ticket = walk(1)
        pool = system.iommu.walkers
        assert pool.cancel(ticket) is True
        system.queue.run()
        assert [vpn for _, vpn, _ in done] == [0]
        assert pool.stats["walks_cancelled"] == 1
        assert pool.stats["walks_dispatched"] == 1

    def test_cannot_cancel_running_walk(self):
        system, walk, _ = make_pool()
        ticket = walk(0)
        assert system.iommu.walkers.cancel(ticket) is False
        system.queue.run()

    def test_cancelled_walk_frees_slot_for_later_request(self):
        system, walk, done = make_pool(num_walkers=1, threads=1, latency=100)
        walk(0)
        cancelled = walk(1)
        walk(2)
        system.iommu.walkers.cancel(cancelled)
        system.queue.run()
        # The third walk starts right after the first, skipping the
        # cancelled one.
        assert finish_times(done) == [100, 200]

    def test_pending_counts_only_live_queued_walks(self):
        # One walker, three walks, both queued walks cancelled: nothing
        # is left to start, under either scheduler.
        for scheduler in ("fifo", "dws"):
            system, walk, _ = make_pool(num_walkers=1, scheduler=scheduler)
            pool = system.iommu.walkers
            walk(0)
            queued = [walk(1), walk(2, gpu=1)]
            assert pool.pending() == 2
            for ticket in queued:
                pool.cancel(ticket)
            assert pool.pending() == 0, scheduler


class TestDWS:
    def test_per_gpu_fairness_under_flood(self):
        # GPU 0 floods; GPU 1 sends one walk.  Under DWS the single walk
        # must not wait behind the whole flood.
        system, walk, done = make_pool(
            num_walkers=2, threads=1, latency=100, scheduler="dws", num_gpus=2
        )
        for vpn in range(10):
            walk(vpn, gpu=0)
        walk(40, gpu=1)
        system.queue.run()
        finish = {vpn: time for time, vpn, _ in done}
        flood_last = max(t for vpn, t in finish.items() if vpn != 40)
        assert finish[40] < flood_last

    def test_fifo_flood_starves_late_arrival(self):
        system, walk, done = make_pool(
            num_walkers=2, threads=1, latency=100, scheduler="fifo", num_gpus=2
        )
        for vpn in range(10):
            walk(vpn, gpu=0)
        walk(40, gpu=1)
        system.queue.run()
        finish = {vpn: time for time, vpn, _ in done}
        flood_last = max(t for vpn, t in finish.items() if vpn != 40)
        assert finish[40] >= flood_last  # served after the flood

    def test_stealing_uses_idle_capacity(self):
        system, walk, done = make_pool(
            num_walkers=4, threads=1, latency=100, scheduler="dws", num_gpus=4
        )
        # Only GPU 0 is active: it may steal all four walkers.
        for vpn in range(4):
            walk(vpn)
        system.queue.run()
        assert finish_times(done) == [100] * 4

    def test_dws_cancellation(self):
        system, walk, done = make_pool(
            num_walkers=1, threads=1, latency=100, scheduler="dws", num_gpus=2
        )
        walk(0, gpu=0)
        ticket = walk(1, gpu=0)
        walk(2, gpu=1)
        assert system.iommu.walkers.cancel(ticket)
        system.queue.run()
        assert [vpn for _, vpn, _ in done] == [0, 2]
