"""The IOMMU's page-table walker pool.

Table 2 configures eight shared page-table walkers with a 500-cycle walk;
Section 2.2 notes they are multi-threaded, so the pool's *throughput*
(``num_walkers × walker_threads`` concurrent walks) is what saturates under
high-MPKI contention — the central contention effect of the paper's
multi-application study.

Two schedulers are provided:

* ``fifo`` — a single shared queue (the paper's baseline).  A high-MPKI
  application can monopolise the pool, delaying everyone.
* ``dws`` — per-GPU walker partitions with work stealing, modelling the
  page-walk-stealing optimisation of Pratheek et al. that Section 5.6
  combines with least-TLB.

Walks can be *cancelled while still queued*: least-TLB races every tracker
probe against a walk (Section 4.1), and when the remote L2 responds first
the queued walk is squashed so the race does not waste walker throughput.
A walk already running on a walker cannot be cancelled — its result is
simply discarded on arrival.

The pool is shared by both backends and never schedules anything: it
decides and counts, and returns what must happen next.
:meth:`WalkerPool.request` returns the ticket to start now (or ``None``
when the walk queued); :meth:`WalkerPool.finish` frees a walker and
returns the queued ticket it starts next (or ``None``).  Starting a ticket
performs the walk, so a started ticket carries its frame (``ppn``) and
latency (``cycles``); the caller schedules its completion — the event
engine with its telemetry hooks (:class:`~repro.iommu.iommu.IOMMU`), the
functional replay on its heap.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.config.system import IOMMUConfig
from repro.core.protocol import walk_cycles
from repro.engine.stats import CounterSet, LatencyAccumulator
from repro.structures.page_table import PageTableManager

_QUEUED = 0
_RUNNING = 1
_DONE = 2
_CANCELLED = 3


class WalkTicket:
    """One requested walk: its tag, its owner and, once started, its
    outcome."""

    __slots__ = (
        "pid",
        "vpn",
        "gpu_id",
        "owner",
        "enqueue_time",
        "state",
        "ppn",
        "cycles",
    )

    def __init__(
        self, pid: int, vpn: int, gpu_id: int, owner: Any, enqueue_time: int
    ) -> None:
        self.pid = pid
        self.vpn = vpn
        self.gpu_id = gpu_id
        self.owner = owner
        """Opaque to the pool: what the caller resumes when the walk
        finishes."""
        self.enqueue_time = enqueue_time
        self.state = _QUEUED
        self.ppn: int | None = None
        """The walked frame, or ``None`` when the walk faulted (set at
        start)."""
        self.cycles = 0
        """The walk's latency (set at start)."""


class WalkerPool:
    """Eight multi-threaded page-table walkers shared by all GPUs."""

    def __init__(
        self, page_tables: PageTableManager, config: IOMMUConfig, num_gpus: int
    ) -> None:
        self.page_tables = page_tables
        self.num_gpus = num_gpus
        self.capacity = config.num_walkers * config.walker_threads
        self.busy = 0
        """Walks currently occupying walker threads."""
        self.stats = CounterSet()
        self.queue_wait = LatencyAccumulator()
        self._walk_latency = config.walk_latency
        self._levels = page_tables.levels
        # A walk that finds its PTE touches every level: constant latency.
        self._hit_cycles = walk_cycles(self._walk_latency, self._levels, self._levels)
        # FIFO keeps one shared queue; DWS one queue per GPU.
        self._dws = config.walker_scheduler == "dws"
        self._queues: list[deque[WalkTicket]] = [
            deque() for _ in range(num_gpus if self._dws else 1)
        ]
        if self._dws:
            self._allocation = max(1, self.capacity // num_gpus)
            self._busy_per_gpu = [0] * num_gpus
            self._steal_rotor = 0

    # -- public API ----------------------------------------------------------

    def request(self, ticket: WalkTicket) -> WalkTicket | None:
        """Admit a new walk: start it now (returned, with its outcome) if
        a walker thread is free, else queue it (``None``)."""
        self.stats["walks_requested"] += 1
        if self.busy < self.capacity:
            self._start(ticket, ticket.enqueue_time)
            return ticket
        self._queues[ticket.gpu_id if self._dws else 0].append(ticket)
        return None

    def finish(self, ticket: WalkTicket, now: int) -> WalkTicket | None:
        """``ticket``'s walk finished at ``now``: free its walker thread and
        return the queued ticket started in its place, or ``None``."""
        ticket.state = _DONE
        self.busy -= 1
        if self._dws:
            self._busy_per_gpu[ticket.gpu_id] -= 1
            nxt = self._next_dws()
        else:
            # FIFO: the oldest queued walk that was not cancelled.
            nxt = None
            fifo = self._queues[0]
            while fifo:
                queued = fifo.popleft()
                if queued.state == _QUEUED:
                    nxt = queued
                    break
        if nxt is not None:
            self._start(nxt, now)
        return nxt

    def cancel(self, ticket: WalkTicket) -> bool:
        """Squash a walk that has not started yet.

        Returns ``True`` if the walk was still queued (no walker will be
        spent on it); ``False`` if it already ran or is running.
        """
        if ticket.state != _QUEUED:
            return False
        ticket.state = _CANCELLED
        self.stats["walks_cancelled"] += 1
        return True

    def pending(self) -> int:
        """Live walks queued but not yet started."""
        return sum(t.state == _QUEUED for queue in self._queues for t in queue)

    # -- internals ------------------------------------------------------------

    def _start(self, ticket: WalkTicket, now: int) -> None:
        """Put ``ticket`` on a walker and walk the page table."""
        ticket.state = _RUNNING
        self.queue_wait.record(now - ticket.enqueue_time)
        self.busy += 1
        if self._dws:
            self._busy_per_gpu[ticket.gpu_id] += 1
        stats = self.stats
        stats["walks_dispatched"] += 1
        ppn = self.page_tables.translate(ticket.pid, ticket.vpn)
        if ppn is not None:
            ticket.ppn = ppn
            ticket.cycles = self._hit_cycles
        else:
            stats["walks_faulted"] += 1
            touched = self.page_tables.walk(ticket.pid, ticket.vpn).levels_touched
            ticket.cycles = walk_cycles(self._walk_latency, touched, self._levels)

    def _next_dws(self) -> WalkTicket | None:
        """The freed slot goes to the most under-served backlogged GPU.

        Each GPU owns ``capacity / num_gpus`` walker threads; a freed slot
        goes to the backlogged GPU furthest below its allocation (ties
        broken round-robin), so a flooding tenant can steal idle capacity
        but never starve a peer — the page-walk-stealing discipline of
        Section 5.6.
        """
        queues = self._queues
        for queue in queues:
            while queue and queue[0].state != _QUEUED:
                queue.popleft()
        num_gpus = self.num_gpus
        best_gpu = -1
        best_deficit = 0
        for offset in range(num_gpus):
            gpu = (self._steal_rotor + offset) % num_gpus
            if not queues[gpu]:
                continue
            deficit = self._busy_per_gpu[gpu] - self._allocation
            if best_gpu < 0 or deficit < best_deficit:
                best_gpu = gpu
                best_deficit = deficit
        if best_gpu < 0:
            return None
        self._steal_rotor = (best_gpu + 1) % num_gpus
        if self._busy_per_gpu[best_gpu] >= self._allocation:
            self.stats["walks_stolen"] += 1
        return queues[best_gpu].popleft()
