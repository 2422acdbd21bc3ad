"""Discrete-event simulation kernel.

The whole simulator is driven by a single :class:`EventQueue`.  Components
never busy-wait: they schedule callbacks at absolute times (integer cycles)
and the queue executes them in ``(time, sequence)`` order, which makes every
simulation fully deterministic for a given workload and seed.

The drain loop in :meth:`EventQueue.run` is the hottest code in the
simulator (every translation, walk, and link hop passes through it), so it
pops events inline instead of calling :meth:`EventQueue.step` per event and
keeps the heap and ``heappop`` in locals.  The common full-drain case (no
``until``, no ``max_events``) runs a branch-free tight loop.  Both paths
execute events in exactly the same order as the naive loop.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """Raised when the simulation kernel is used incorrectly."""


class EventQueue:
    """A deterministic priority queue of timed callbacks.

    Events scheduled for the same cycle execute in the order they were
    scheduled (FIFO), which is the property the translation protocols rely on
    for reproducible tie-breaking.
    """

    __slots__ = ("_heap", "_seq", "now", "_running")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Callable[..., None], tuple[Any, ...]]] = []
        self._seq = 0
        self.now = 0
        """Current simulation time in cycles (advanced only by the queue)."""
        self._running = False

    @property
    def events_executed(self) -> int:
        """Total number of events executed so far: every scheduled event
        that left the heap (an event is never removed unexecuted), the
        running one included."""
        return self._seq - len(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run at absolute cycle ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now={self.now}"
            )
        _heappush(self._heap, (time, self._seq, callback, args))
        self._seq += 1

    def schedule_after(self, delay: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        _heappush(self._heap, (self.now + delay, self._seq, callback, args))
        self._seq += 1

    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` if the queue is empty."""
        if not self._heap:
            return False
        time, _seq, callback, args = _heappop(self._heap)
        self.now = time
        callback(*args)
        return True

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.

        Returns the simulation time after the run.  ``until`` is inclusive:
        events *at* that cycle still execute.  Time never moves backwards:
        after a bounded run reported ``now == until``, a later call with a
        smaller (or absent) ``until`` cannot rewind the clock, so no event
        can ever execute at a cycle earlier than a previously reported
        ``now``.
        """
        if self._running:
            raise SimulationError("EventQueue.run() is not reentrant")
        self._running = True
        heap = self._heap
        pop = _heappop
        try:
            if until is None and max_events is None:
                # Hot path: drain to empty with no per-event bound checks.
                while heap:
                    time, _seq, callback, args = pop(heap)
                    self.now = time
                    callback(*args)
                return self.now
            executed = 0
            while heap:
                if until is not None and heap[0][0] > until:
                    if until > self.now:
                        self.now = until
                    break
                if max_events is not None and executed >= max_events:
                    break
                time, _seq, callback, args = pop(heap)
                self.now = time
                callback(*args)
                executed += 1
            return self.now
        finally:
            self._running = False

    def peek_time(self) -> int | None:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        return self._heap[0][0] if self._heap else None
