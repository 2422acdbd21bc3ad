"""Interleaving tests for the pending-table protocol.

One translation key can have up to three responders in flight: the page
walk, the remote-L2 probe and, once a walk faults, the PRI service.  The
protocol must deliver **exactly one** response to the waiters and reap the
pending entry no matter which order those responders land in.  These tests
hold every responder back as it is scheduled, fire them in *every* order
they can arrive in (a responder scheduled by another joins the race when
it is scheduled), and assert both properties once the rest of the event
queue drains.
"""

from __future__ import annotations

from unittest import mock

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
from repro.engine.event_queue import EventQueue
from repro.gpu.ats import ATSRequest
from repro.sim.system import MultiGPUSystem
from repro.structures.tlb import pack_key, pack_payload
from repro.workloads.trace import CUStream, Placement, Workload

PID = 1
VPN = 77
PPN = 4242
KEY = pack_key(PID, VPN)

RESPONSE_SOURCES = ("iommu", "walk", "pending", "remote")

RESPONDERS = frozenset({"_walk_done", "_remote_probe", "_pri_batch_done"})
"""The callbacks that answer a pending entry: a walk, a probe, a PRI batch."""


class RacingQueue(EventQueue):
    """An event queue that holds the responders back, so a test chooses the
    order they land in; every other event is scheduled as usual."""

    __slots__ = ("held",)

    def __init__(self) -> None:
        super().__init__()
        self.held: list[tuple[str, object, tuple]] = []

    def schedule(self, time, callback, *args):
        if callback.__name__ in RESPONDERS:
            self.held.append((callback.__name__, callback, args))
        else:
            super().schedule(time, callback, *args)

    def schedule_after(self, delay, callback, *args):
        self.schedule(self.now + delay, callback, *args)


def _tiny_config() -> SystemConfig:
    return SystemConfig(
        num_gpus=2,
        gpu=GPUConfig(
            num_cus=1,
            slots_per_cu=2,
            l1_tlb=TLBLevelConfig(num_entries=2, associativity=2, lookup_latency=1),
            l2_tlb=TLBLevelConfig(num_entries=8, associativity=4, lookup_latency=3),
        ),
        iommu=IOMMUConfig(
            tlb=TLBLevelConfig(num_entries=16, associativity=4, lookup_latency=10),
            num_walkers=2,
            walker_threads=2,
            walk_latency=40,
            # One fault per batch: the PRI service is one responder.
            pri_batch_size=1,
        ),
        tracker=TrackerConfig(total_entries=32, kind="perfect"),
        interconnect=InterconnectConfig(host_link_latency=15, peer_link_latency=5),
        seed=3,
    )


def _tiny_workload() -> Workload:
    placements = []
    for gpu_id in (0, 1):
        stream = CUStream(
            np.array([VPN], dtype=np.int64),
            np.full(1, 37, dtype=np.int64),
            np.ones(1, dtype=np.int64),
        )
        placements.append(
            Placement(
                gpu_id=gpu_id, pid=PID, app_name="race", cu_ids=[gpu_id * 4],
                streams=[stream],
            )
        )
    return Workload(
        name="race", kind="single", placements=placements,
        app_names={PID: "race"},
    )


def _missed(*, remote_entry: bool, race_ptw: bool, walk_faults: bool):
    """A system whose GPU 0 just missed on ``KEY`` at the IOMMU.

    The tracker names GPU 1, so least-TLB probes it; ``remote_entry``
    controls whether GPU 1's L2 holds the translation (probe hit) or not
    (tracker false positive), and ``walk_faults`` whether the page table
    maps it."""
    # Every component binds the queue at construction, so the racing queue
    # is the one the system builds.
    with mock.patch("repro.sim.system.EventQueue", RacingQueue):
        system = MultiGPUSystem(
            _tiny_config(), _tiny_workload(), "least-tlb",
            policy_options={"race_ptw": race_ptw}, prefault=False,
        )
    assert isinstance(system.queue, RacingQueue)
    if not walk_faults:
        system.page_tables.table_for(PID).map(VPN, PPN)
    system.policy.tracker.register(1, PID, VPN)
    if remote_entry:
        system.gpus[1].l2_tlb.insert(KEY, pack_payload(PPN, budget=1))
    request = ATSRequest(gpu_id=0, pid=PID, vpn=VPN, issue_time=0, measured=True)
    system.policy.on_iommu_request(request)
    return system


def _every_order(**case) -> list[tuple[str, ...]]:
    """Fire the held responders in every order they can land in, each
    order on a fresh system, and assert exactly one response and a reaped
    entry after each.  Returns the orders explored."""
    orders = []

    def explore(prefix: tuple[int, ...]) -> None:
        system = _missed(**case)
        fired = []
        for choice in prefix:
            name, callback, args = system.queue.held.pop(choice)
            fired.append(name)
            callback(*args)
        held = len(system.queue.held)
        if held:
            for choice in range(held):
                explore((*prefix, choice))
            return
        system.queue.run()
        responses = sum(
            system.iommu.stats[f"responses_{source}"] for source in RESPONSE_SOURCES
        )
        assert responses == 1, f"{fired}: waiter served {responses} times"
        assert KEY not in system.iommu.pending, f"{fired}: pending entry leaked"
        orders.append(tuple(fired))

    explore(())
    return orders


class TestEveryInterleaving:
    @pytest.mark.parametrize("remote_entry", [True, False])
    def test_all_orders_of_walk_and_probe(self, remote_entry):
        for race_ptw in (True, False):
            orders = _every_order(
                remote_entry=remote_entry, race_ptw=race_ptw, walk_faults=False
            )
            if race_ptw:
                # The walk and the probe race: both orders happen.
                assert sorted(orders) == [
                    ("_remote_probe", "_walk_done"),
                    ("_walk_done", "_remote_probe"),
                ]
            elif remote_entry:
                assert orders == [("_remote_probe",)]
            else:
                # Serial variant: a probe miss falls back to the walk.
                assert orders == [("_remote_probe", "_walk_done")]

    @pytest.mark.parametrize("remote_entry", [True, False])
    def test_faulting_walk_orders(self, remote_entry):
        """A faulting walk falls back to the PRI path (or loses to the
        probe) without double service."""
        for race_ptw in (True, False):
            orders = _every_order(
                remote_entry=remote_entry, race_ptw=race_ptw, walk_faults=True
            )
            serviced = [order for order in orders if "_pri_batch_done" in order]
            for order in serviced:
                assert order.index("_walk_done") < order.index("_pri_batch_done")
            if remote_entry:
                # Only a walk that faults before the probe hits reports
                # the fault.
                assert all(o.index("_walk_done") < o.index("_remote_probe")
                           for o in serviced)
            else:
                # A tracker false positive leaves the fault path to serve
                # every order.
                assert serviced == orders
            assert orders
