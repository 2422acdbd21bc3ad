"""End-to-end span lifecycle invariants on real simulations.

Every sampled trace collected from a run — complete or cut off by
``max_cycles`` — must satisfy the balanced-span-tree contract: root closed with exactly
one terminal outcome, no leaked spans, ``begin <= end``, children nested
inside the root interval.
"""

import pytest

from repro.config.presets import baseline_config
from repro.sim.system import MultiGPUSystem
from repro.telemetry import TelemetryConfig
from repro.workloads.multi_app import (
    build_multi_app_workload,
    build_single_app_workload,
)


def traced_system(workload_name, builder, policy, *, rate=0.1, **kwargs):
    config = baseline_config()
    workload = builder(workload_name, config, scale=0.05)
    return MultiGPUSystem(
        config, workload, policy,
        telemetry=TelemetryConfig(sample_rate=rate),
        **kwargs,
    )


def assert_all_balanced(hub):
    assert hub.traces, "run collected no traces"
    assert not hub.live, "live traces survived finalize"
    for trace in hub.traces:
        assert trace.check_invariants() == [], (
            f"trace {trace.trace_id}: {trace.check_invariants()}"
        )


class TestHealthyRuns:
    @pytest.mark.parametrize(
        "name,builder,policy",
        [
            ("MM", build_single_app_workload, "least-tlb"),
            ("MM", build_single_app_workload, "baseline"),
            ("MM", build_single_app_workload, "tlb-probing"),
            ("W8", build_multi_app_workload, "least-tlb"),
        ],
    )
    def test_traces_balanced(self, name, builder, policy):
        system = traced_system(name, builder, policy)
        system.run()
        assert_all_balanced(system.telemetry)

    def test_every_trace_has_terminal_outcome(self):
        system = traced_system("MM", build_single_app_workload, "least-tlb")
        system.run()
        outcomes = {t.root.outcome for t in system.telemetry.traces}
        assert outcomes <= {"l1_hit", "l2_hit", "filled"}
        # A healthy run loses no traces to the end-of-run sweep.
        assert system.telemetry.incomplete_traces == 0

    def test_remote_probe_race_leaves_no_open_spans(self):
        """least-tlb races probes against walks; losers must close (a
        cancelled walk's callback never fires, a served probe's timeout
        no-ops) without leaking."""
        system = traced_system(
            "MM", build_single_app_workload, "least-tlb", rate=0.25
        )
        system.run()
        hub = system.telemetry
        assert_all_balanced(hub)
        probed = [
            s for t in hub.traces for s in t.spans if s.name == "remote_probe"
        ]
        assert probed, "no remote probes were traced"
        assert {s.outcome for s in probed} <= {"hit", "miss", "timeout", "fault"}

    def test_sampling_is_deterministic(self):
        runs = []
        for _ in range(2):
            system = traced_system("MM", build_single_app_workload, "least-tlb")
            system.run()
            runs.append(
                [(t.trace_id, t.vpn, [s.name for s in t.spans], t.root.outcome)
                 for t in system.telemetry.traces]
            )
        assert runs[0] == runs[1]

    def test_max_traces_caps_collection(self):
        config = baseline_config()
        workload = build_single_app_workload("MM", config, scale=0.05)
        system = MultiGPUSystem(
            config, workload, "least-tlb",
            telemetry=TelemetryConfig(sample_rate=1.0, max_traces=10),
        )
        system.run()
        assert len(system.telemetry.traces) == 10


class TestCutOffRuns:
    def test_finalize_closes_traces_lost_to_event_cap(self):
        """A run cut off mid-flight (max_cycles) leaves live traces; the
        end-of-run sweep must close them as faults, not leak them."""
        config = baseline_config()
        workload = build_single_app_workload("MM", config, scale=0.05)
        system = MultiGPUSystem(
            config, workload, "least-tlb",
            telemetry=TelemetryConfig(sample_rate=0.5),
        )
        system.run(max_cycles=2000)
        hub = system.telemetry
        assert not hub.live
        for trace in hub.traces:
            assert trace.check_invariants() == []
        if hub.incomplete_traces:
            faulted = [t for t in hub.traces if t.root.outcome == "fault"]
            assert len(faulted) == hub.incomplete_traces
