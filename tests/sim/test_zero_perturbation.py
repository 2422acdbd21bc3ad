"""The zero-perturbation guarantee.

The opt-in subsystems (watchdog, invariant checker, telemetry) must be
invisible when disabled: a default run of the instrumented code produces
**bit-identical** results to the pre-instrumentation simulator.  The goldens in ``tests/golden/`` pin
that behaviour — ``events_executed`` is part of the comparison, so even
one extra scheduled event breaks these tests.

If a change legitimately alters simulation behaviour, regenerate the
goldens with::

    PYTHONPATH=src python -m repro.cli run MM --policy least-tlb \\
        --scale 0.05 --json tests/golden/mm_least_tlb_scale005.json
    PYTHONPATH=src python -m repro.cli run W8 --policy baseline \\
        --scale 0.05 --json tests/golden/w8_baseline_scale005.json

and justify the diff in the commit message.
"""

import json
from pathlib import Path

import pytest

from repro.config.presets import baseline_config
from repro.reporting import result_to_dict
from repro.sim.system import MultiGPUSystem
from repro.workloads.multi_app import (
    build_multi_app_workload,
    build_single_app_workload,
)

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

CASES = {
    "mm_least_tlb_scale005.json": ("MM", "least-tlb", build_single_app_workload),
    "w8_baseline_scale005.json": ("W8", "baseline", build_multi_app_workload),
}


def run_case(name, policy, builder, **system_kwargs):
    config = baseline_config()
    workload = builder(name, config, scale=0.05)
    system = MultiGPUSystem(config, workload, policy, **system_kwargs)
    result = system.run()
    # JSON round-trip normalises tuples/keys exactly like the golden file.
    return json.loads(json.dumps(result_to_dict(result)))


class TestGoldenRegression:
    @pytest.mark.parametrize("golden", sorted(CASES))
    def test_fault_free_run_matches_golden(self, golden):
        name, policy, builder = CASES[golden]
        expected = json.loads((GOLDEN_DIR / golden).read_text())
        assert run_case(name, policy, builder) == expected


class TestDisabledSubsystemState:
    def test_fault_free_system_holds_no_robustness_state(self):
        config = baseline_config()
        workload = build_single_app_workload("MM", config, scale=0.05)
        system = MultiGPUSystem(config, workload, "least-tlb")
        assert system.watchdog is None
        assert system.invariants is None
        # The walker pool and PRI queue are shared with the functional
        # replay and hold no hooks of the event engine.
        for shared in (system.iommu.walkers, system.iommu.pri):
            assert not hasattr(shared, "system")

    def test_determinism_across_repeat_runs(self):
        name, policy, builder = CASES["mm_least_tlb_scale005.json"]
        assert run_case(name, policy, builder) == run_case(name, policy, builder)


class TestTelemetryZeroPerturbation:
    """The telemetry subsystem honours the same contract: no hub by
    default, and even an *enabled* span tracer is
    invisible to the simulation — it only annotates existing events."""

    def test_default_system_holds_no_telemetry_state(self):
        config = baseline_config()
        workload = build_single_app_workload("MM", config, scale=0.05)
        system = MultiGPUSystem(config, workload, "least-tlb")
        assert system.telemetry is None
        for shared in (system.iommu.walkers, system.iommu.pri):
            assert not hasattr(shared, "telemetry")

    @pytest.mark.parametrize("golden", sorted(CASES))
    def test_disabled_telemetry_matches_golden(self, golden):
        name, policy, builder = CASES[golden]
        expected = json.loads((GOLDEN_DIR / golden).read_text())
        assert run_case(name, policy, builder) == expected

    @pytest.mark.parametrize("golden", sorted(CASES))
    def test_span_tracing_is_event_identical(self, golden):
        """With tracing enabled (but no timeline), the simulation result —
        including ``events_executed`` — is bit-identical; only the
        ``telemetry`` block is added."""
        from repro.telemetry import TelemetryConfig

        name, policy, builder = CASES[golden]
        expected = json.loads((GOLDEN_DIR / golden).read_text())
        traced = run_case(
            name, policy, builder,
            telemetry=TelemetryConfig(sample_rate=0.1),
        )
        telemetry = traced.pop("telemetry")
        assert traced == expected
        assert telemetry["traces"] > 0
