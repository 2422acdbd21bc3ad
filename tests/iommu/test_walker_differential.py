"""Differential tests of the walker pool and PRI batcher both backends
share.

Comparing the two backends cannot catch a bug in a structure they share,
so each structure is driven here alongside a plain test-local model of
the discipline it implements, by the same hypothesis streams, and the two
must agree after every step.

The walker model keeps only live walks in its queues (a cancel removes
its walk at once, where the pool skips cancelled tickets lazily), one
FIFO queue or one queue per GPU under DWS (allocation
``max(1, capacity // num_gpus)``; a freed thread goes to the backlogged
GPU with the smallest deficit, ties to the first GPU at or after the
rotor, counting ``walks_stolen`` when that GPU is at or over its
allocation), a walk latency of ``max(1, latency * levels_touched //
levels)``, and one queue-wait sample per started walk.

The PRI model flushes at the batch size and arms a timer for the batch
that pends when the first fault arrives; a timer flushes only the batch
it was armed for, and only while that batch still pends.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.system import IOMMUConfig
from repro.iommu.page_walker import WalkerPool, WalkTicket
from repro.iommu.pri import PRIQueue
from repro.structures.page_table import PageTableManager

LATENCY = 100
MAPPED = range(8)
"""Pages of pid 1 that walk to a frame; other pages and pid 2 fault."""


class ModelPool:
    def __init__(self, scheduler, num_gpus, num_walkers, threads, page_tables):
        self.dws = scheduler == "dws"
        self.num_gpus = num_gpus
        self.capacity = num_walkers * threads
        self.queues = [[] for _ in range(num_gpus if self.dws else 1)]
        self.running = {}  # walk -> its GPU
        self.busy = [0] * num_gpus
        self.steal_rotor = 0
        self.counters = Counter()
        self.waits = []
        self.page_tables = page_tables
        self.walks = {}  # walk -> (pid, vpn, gpu, enqueued at)
        self.started = {}  # walk -> (ppn, cycles)

    def request(self, walk, pid, vpn, gpu, now):
        self.walks[walk] = (pid, vpn, gpu, now)
        self.counters["walks_requested"] += 1
        if sum(self.busy) < self.capacity:
            self._start(walk, now)
            return walk
        self.queues[gpu if self.dws else 0].append(walk)
        return None

    def finish(self, walk, now):
        """The walk started next, or None."""
        gpu = self.running.pop(walk)
        self.busy[gpu] -= 1
        queue = self._dws_queue() if self.dws else self.queues[0]
        if not queue:
            return None
        nxt = queue.pop(0)
        self._start(nxt, now)
        return nxt

    def cancel(self, walk):
        for queue in self.queues:
            if walk in queue:
                queue.remove(walk)
                self.counters["walks_cancelled"] += 1
                return True
        return False

    def _start(self, walk, now):
        pid, vpn, gpu, enqueued = self.walks[walk]
        self.waits.append(now - enqueued)
        self.running[walk] = gpu
        self.busy[gpu] += 1
        self.counters["walks_dispatched"] += 1
        result = self.page_tables.walk(pid, vpn)
        if result.faulted:
            self.counters["walks_faulted"] += 1
        levels = self.page_tables.levels
        cycles = max(1, LATENCY * result.levels_touched // levels)
        self.started[walk] = (result.ppn, cycles)

    def _dws_queue(self):
        """The queue a freed thread serves under DWS, or None."""
        backlogged = [g for g in range(self.num_gpus) if self.queues[g]]
        if not backlogged:
            return None
        allocation = max(1, self.capacity // self.num_gpus)
        best = min(
            backlogged,
            key=lambda g: (
                self.busy[g] - allocation,
                (g - self.steal_rotor) % self.num_gpus,
            ),
        )
        self.steal_rotor = (best + 1) % self.num_gpus
        if self.busy[best] >= allocation:
            self.counters["walks_stolen"] += 1
        return self.queues[best]


walker_ops = st.lists(
    st.tuples(
        st.sampled_from(["request", "request", "request", "cancel", "finish",
                         "finish"]),
        st.integers(0, 63),
        st.integers(0, 63),
        st.integers(0, 40),
    ),
    min_size=10,
    max_size=80,
)


@given(
    scheduler=st.sampled_from(["fifo", "dws"]),
    num_gpus=st.integers(1, 4),
    num_walkers=st.integers(1, 3),
    threads=st.integers(1, 3),
    ops=walker_ops,
)
@settings(max_examples=300, deadline=None)
def test_walker_pool_matches_model(scheduler, num_gpus, num_walkers, threads, ops):
    page_tables = PageTableManager()
    page_tables.prefault(1, MAPPED)
    config = IOMMUConfig(
        num_walkers=num_walkers, walker_threads=threads, walk_latency=LATENCY,
        walker_scheduler=scheduler,
    )
    pool = WalkerPool(page_tables, config, num_gpus)
    model = ModelPool(scheduler, num_gpus, num_walkers, threads, page_tables)
    tickets = {}
    running = set()
    cancelled = set()
    now = 0
    for kind, x, y, dt in ops:
        now += dt
        if kind == "request":
            walk = len(tickets)
            pid, vpn, gpu = 1 + y % 2, x % 12, y % num_gpus
            ticket = WalkTicket(pid, vpn, gpu, walk, now)
            tickets[walk] = ticket
            started = pool.request(ticket)
            expected = model.request(walk, pid, vpn, gpu, now)
            assert (started is None) == (expected is None)
            if started is not None:
                assert started is ticket
                running.add(walk)
        elif kind == "cancel" and tickets:
            # One of the last three requests: the walks most likely queued.
            walk = len(tickets) - 1 - x % min(3, len(tickets))
            squashed = pool.cancel(tickets[walk])
            assert squashed == model.cancel(walk)
            if squashed:
                cancelled.add(walk)
        elif kind == "finish" and running:
            walk = sorted(running)[x % len(running)]
            running.discard(walk)
            ticket = tickets[walk]
            started = pool.finish(ticket, now)
            expected = model.finish(walk, now)
            assert (None if started is None else started.owner) == expected
            if started is not None:
                running.add(expected)

        assert running == set(model.running)
        assert pool.busy == len(running)
        for walk in running:
            ticket = tickets[walk]
            assert (ticket.ppn, ticket.cycles) == model.started[walk]
        live = [
            [t.owner for t in queue
             if t.owner not in cancelled and t.owner not in model.started]
            for queue in pool._queues
        ]
        assert live == model.queues
        assert pool.pending() == sum(map(len, model.queues))
        assert pool.stats.as_dict() == dict(model.counters)
        waits = pool.queue_wait
        assert (waits.count, waits.total) == (len(model.waits), sum(model.waits))
        if model.waits:
            assert (waits.min, waits.max) == (min(model.waits), max(model.waits))


class ModelPRI:
    def __init__(self, batch_size):
        self.batch_size = batch_size
        self.pending = []
        self.counters = Counter()

    def report(self, fault):
        """The flushed batch, the batch a new timer is armed for, or None."""
        self.counters["faults_reported"] += 1
        self.pending.append(fault)
        if len(self.pending) >= self.batch_size:
            return "flush", self._flush()
        if len(self.pending) == 1:
            return "arm", self.pending
        return None

    def expire(self, armed_for):
        if armed_for is not self.pending or not self.pending:
            return None
        self.counters["timeout_batches"] += 1
        return self._flush()

    def _flush(self):
        batch, self.pending = self.pending, []
        self.counters["batches"] += 1
        return batch


@given(
    batch_size=st.integers(1, 4),
    ops=st.lists(st.tuples(st.booleans(), st.integers(0, 7)), max_size=60),
)
@settings(max_examples=300, deadline=None)
def test_pri_batcher_matches_model(batch_size, ops):
    pri = PRIQueue(IOMMUConfig(pri_batch_size=batch_size))
    model = ModelPRI(batch_size)
    timers = []  # (generation, the model's batch, the fault that armed it)
    reported = 0
    for is_report, which in ops:
        if is_report or not timers:
            fault = reported
            reported += 1
            action = pri.report(fault)
            expected = model.report(fault)
            if expected is None:
                assert action is None
            elif expected[0] == "flush":
                assert action == expected[1]
            else:
                assert isinstance(action, int)
                timers.append((action, expected[1], fault))
        else:
            generation, armed_for, armer = timers.pop(which % len(timers))
            batch = pri.expire(generation)
            assert batch == model.expire(armed_for)
            if batch is not None:
                # A timer only ever flushes the batch it was armed for.
                assert batch[0] == armer
        assert pri.outstanding == len(model.pending)
        assert pri.stats.as_dict() == dict(model.counters)
