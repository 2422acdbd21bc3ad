"""Unit and system tests for the forward-progress watchdog."""

import pytest

from repro.config.presets import baseline_config
from repro.core.least_tlb import LeastTLBPolicy
from repro.engine import SimulationStalledError, Watchdog
from repro.sim.driver import simulate
from repro.sim.system import MultiGPUSystem
from repro.workloads.multi_app import build_single_app_workload

#: What every stall report carries, whichever run loop stalled.
DIAGNOSTIC_KEYS = (
    "reason", "cycle", "events_executed", "queue_length",
    "pending_table", "gpus", "walkers", "pri", "interconnect",
)


def make_system(**kwargs):
    config = baseline_config()
    workload = build_single_app_workload("MM", config, scale=0.05)
    return MultiGPUSystem(config, workload, "least-tlb", **kwargs)


class LosingPolicy(LeastTLBPolicy):
    """least-TLB that loses every request reaching the IOMMU: no response
    ever comes back, so the requesting GPUs' MSHRs wait forever."""

    def on_iommu_request(self, request):
        pass


def make_losing_system(**kwargs):
    system = make_system(**kwargs)
    system.policy = LosingPolicy(system)
    return system


class TestWatchdogUnit:
    def test_rejects_bad_parameters(self):
        system = make_system()
        with pytest.raises(ValueError):
            Watchdog(system, interval=0)
        with pytest.raises(ValueError):
            Watchdog(system, patience=0)

    def test_not_armed_without_faults(self):
        """Zero-perturbation: a default system schedules no watchdog
        events unless explicitly asked to."""
        assert make_system().watchdog is None
        assert make_system(watchdog=False).watchdog is None
        assert make_system(watchdog=True).watchdog is not None

    def test_progress_resets_patience(self):
        system = make_system(watchdog=True)
        dog = system.watchdog
        dog.arm()
        for _ in range(10):
            # Progress before every tick: the watchdog must never fire.
            system.progress_marker += 1
            system.queue.run(until=system.queue.now + dog.interval)
        assert dog.ticks == 10

    def test_fires_after_patience_without_progress(self):
        system = make_system(watchdog=True)
        dog = system.watchdog
        dog.arm()
        with pytest.raises(SimulationStalledError) as excinfo:
            system.queue.run(until=dog.interval * (dog.patience + 1))
        assert "no translation retired" in str(excinfo.value)
        assert excinfo.value.diagnostics["reason"].startswith("watchdog")

    def test_stands_down_once_halted(self):
        system = make_system(watchdog=True)
        system.watchdog.arm()
        system.halted = True
        # The tick returns without rescheduling: the queue drains.
        system.queue.run()
        assert len(system.queue) == 0


class TestStallDiagnosticsNameBackend:
    """A stall report must say which backend wedged, so a functional-
    backend hang is never chased through event-engine code."""

    def test_event_system_diagnostics_carry_backend(self):
        diagnostics = make_system().stall_diagnostics("test")
        assert diagnostics["backend"] == "event"

    def test_error_string_names_backend(self):
        error = SimulationStalledError(
            "no forward progress", {"backend": "functional", "cycle": 12}
        )
        assert "backend=functional" in str(error)
        assert "cycle=12" in str(error)

    def test_fired_watchdog_error_names_backend(self):
        system = make_system(watchdog=True)
        system.watchdog.arm()
        with pytest.raises(SimulationStalledError) as excinfo:
            system.queue.run(
                until=system.watchdog.interval * (system.watchdog.patience + 1)
            )
        assert excinfo.value.diagnostics["backend"] == "event"
        assert "backend=event" in str(excinfo.value)


class TestStallDetectionEndToEnd:
    def test_watchdog_converts_lost_responses_into_error(self):
        system = make_losing_system(watchdog=True)
        with pytest.raises(SimulationStalledError) as excinfo:
            system.run()
        diag = excinfo.value.diagnostics
        assert diag["reason"].startswith("watchdog")
        assert diag["pids_pending"] == [1]
        # The loss shows up where it happened: GPU MSHRs still waiting.
        assert any(g["mshr_entries"] > 0 for g in diag["gpus"].values())

    def test_queue_drain_check_is_always_on(self):
        """Even with the watchdog disabled, a drained queue with work
        outstanding must raise, not return garbage results."""
        system = make_losing_system(watchdog=False)
        with pytest.raises(SimulationStalledError, match="drained"):
            system.run()

    @pytest.mark.parametrize("backend", ["event", "functional"])
    def test_max_events_cap_raises_with_diagnostics(self, backend):
        # Both run loops share the system's stall check, so the replay's
        # error carries the engine's full diagnostics.
        config = baseline_config()
        workload = build_single_app_workload("MM", config, scale=0.05)
        with pytest.raises(SimulationStalledError) as excinfo:
            simulate(config, workload, "least-tlb", backend=backend, max_events=200)
        assert "event cap" in str(excinfo.value)
        diag = excinfo.value.diagnostics
        assert diag["events_executed"] == 200
        assert diag["backend"] == backend
        for key in DIAGNOSTIC_KEYS:
            assert key in diag

    def test_max_events_generous_cap_completes(self):
        result = make_system().run(max_events=50_000_000)
        assert result.total_cycles > 0

    def test_diagnostics_structure(self):
        system = make_losing_system(watchdog=True)
        with pytest.raises(SimulationStalledError) as excinfo:
            system.run()
        diag = excinfo.value.diagnostics
        for key in DIAGNOSTIC_KEYS:
            assert key in diag
        assert str(excinfo.value).count("|") >= 3  # compact summary line


class TestStalledErrorFormatting:
    def test_str_without_diagnostics(self):
        err = SimulationStalledError("stuck")
        assert str(err) == "stuck"
        assert err.diagnostics == {}

    def test_str_with_diagnostics(self):
        err = SimulationStalledError(
            "stuck",
            {"cycle": 5, "events_executed": 9, "pending_table": [], "queue_length": 2},
        )
        assert str(err) == "stuck | cycle=5 | events=9 | pending=0 | queue=2"
