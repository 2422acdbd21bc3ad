"""Forward-progress watchdog for the simulation kernel.

A lost response anywhere in the translation hierarchy used to leave
``MultiGPUSystem.run()`` in one of two silent failure modes: the event
queue drains while CUs still wait on translations (the run "completes"
with garbage execution times), or a self-rescheduling event cycle spins
forever.  The watchdog converts both into a
:class:`SimulationStalledError` carrying a structured diagnostic dump —
the pending-table contents, per-GPU outstanding requests, walker and PRI
occupancy, and the event-queue head — so a hung run is debuggable from
the exception alone.

The periodic no-progress check is an *event* (it reschedules itself
every ``interval`` cycles), so it is armed only when requested
(``watchdog=True``); the drained-while-outstanding check in
``MultiGPUSystem.run`` costs nothing and is always on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.engine.event_queue import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.system import MultiGPUSystem


class SimulationStalledError(SimulationError):
    """The simulation can no longer make forward progress.

    ``diagnostics`` is a structured dump of the translation hierarchy's
    in-flight state at detection time (see
    ``MultiGPUSystem.stall_diagnostics``).
    """

    def __init__(self, message: str, diagnostics: dict[str, Any] | None = None) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics or {}

    def __str__(self) -> str:
        base = super().__str__()
        if not self.diagnostics:
            return base
        d = self.diagnostics
        parts = [base]
        if "backend" in d:
            parts.append(f"backend={d['backend']}")
        if "cycle" in d:
            parts.append(f"cycle={d['cycle']}")
        if "events_executed" in d:
            parts.append(f"events={d['events_executed']}")
        if "pending_table" in d:
            parts.append(f"pending={len(d['pending_table'])}")
        if "queue_length" in d:
            parts.append(f"queue={d['queue_length']}")
        return " | ".join(parts)


class Watchdog:
    """Detects N consecutive check intervals without a retirement.

    Progress is the system's ``progress_marker`` — a counter bumped every
    time any CU retires a translation run.  Events may keep executing
    (self-rescheduling timers) without the marker moving; that is exactly
    the livelock this watchdog exists to catch.
    """

    def __init__(
        self,
        system: "MultiGPUSystem",
        interval: int = 50_000,
        patience: int = 4,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"watchdog interval must be positive: {interval}")
        if patience <= 0:
            raise ValueError(f"watchdog patience must be positive: {patience}")
        self.system = system
        self.interval = interval
        self.patience = patience
        self._last_marker = -1
        self._stalled_ticks = 0
        self.ticks = 0

    def arm(self) -> None:
        """Schedule the first check (called from ``MultiGPUSystem.run``)."""
        self._last_marker = self.system.progress_marker
        self._stalled_ticks = 0
        self.system.queue.schedule_after(self.interval, self._tick)

    def _tick(self) -> None:
        system = self.system
        if system.halted:
            # Workload finished; let the queue drain without us.
            return
        self.ticks += 1
        marker = system.progress_marker
        if marker != self._last_marker:
            self._last_marker = marker
            self._stalled_ticks = 0
        else:
            self._stalled_ticks += 1
            if self._stalled_ticks >= self.patience:
                stalled_for = self._stalled_ticks * self.interval
                raise SimulationStalledError(
                    f"no translation retired for {stalled_for} cycles "
                    "with applications still outstanding",
                    system.stall_diagnostics(
                        f"watchdog: no forward progress for {stalled_for} cycles"
                    ),
                )
        system.queue.schedule_after(self.interval, self._tick)
