"""Unit tests for the high-level drivers."""

from repro.config.presets import baseline_config
from repro.sim.driver import (
    run_alone,
    run_mix,
    run_multi_app,
    run_single_app,
)

SCALE = 0.05


class TestDrivers:
    def test_run_single_app_defaults(self):
        result = run_single_app("FIR", scale=SCALE)
        assert result.workload_kind == "single"
        assert result.policy_name == "baseline"
        assert result.apps[1].app_name == "FIR"

    def test_run_multi_app_by_name(self):
        result = run_multi_app("W1", scale=SCALE)
        assert result.workload_name == "W1"
        assert len(result.apps) == 4

    def test_run_multi_app_by_tuple(self):
        result = run_multi_app(("FIR", "AES", "FFT", "SC"), scale=SCALE)
        assert len(result.apps) == 4

    def test_run_mix(self):
        result = run_mix("W18", scale=SCALE)
        assert len(result.apps) == 6
        assert result.workload_kind == "multi"

    def test_run_alone(self):
        result = run_alone("KM", scale=SCALE)
        assert len(result.apps) == 1
        assert result.apps[1].gpu_ids == (0,)

    def test_policy_options_forwarded(self):
        result = run_single_app(
            "FIR", policy="least-tlb", scale=SCALE,
            policy_options={"remote_probes": False},
        )
        assert result.iommu_counters.get("remote_hits", 0) == 0

    def test_explicit_config_used(self):
        config = baseline_config(num_gpus=2)
        result = run_single_app("FIR", config, scale=SCALE)
        assert result.metadata["num_gpus"] == 2
