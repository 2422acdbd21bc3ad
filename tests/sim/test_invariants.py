"""Tests for the opt-in runtime invariant checker."""

import pytest

from repro.config.presets import baseline_config
from repro.gpu.ats import ATSRequest
from repro.sim.invariants import InvariantChecker, InvariantViolation
from repro.sim.system import MultiGPUSystem
from repro.workloads.multi_app import (
    build_multi_app_workload,
    build_single_app_workload,
)

ALL_POLICIES = ["baseline", "least-tlb", "tlb-probing", "exclusive"]


def run_checked(workload_name, policy, *, multi=False, scale=0.1):
    config = baseline_config()
    builder = build_multi_app_workload if multi else build_single_app_workload
    workload = builder(workload_name, config, scale=scale)
    system = MultiGPUSystem(config, workload, policy, check_invariants=True)
    result = system.run()
    return system, result


class TestCleanRunsPass:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_single_app_workload(self, policy):
        system, result = run_checked("MM", policy)
        assert system.invariants.checks_run > 0
        assert result.metadata["invariant_checks"] == system.invariants.checks_run

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_multi_app_workload(self, policy):
        system, result = run_checked("W8", policy, multi=True)
        assert system.invariants.checks_run > 0

    def test_exclusivity_audited_only_for_least_inclusive(self):
        system, _ = run_checked("MM", "baseline")
        assert system.invariants.max_overlap == 0  # audit never ran
        system, result = run_checked("MM", "exclusive")
        assert result.metadata["invariant_max_overlap"] == system.invariants.max_overlap


class TestViolationsAreCaught:
    def _system(self, policy="least-tlb"):
        config = baseline_config()
        workload = build_single_app_workload("MM", config, scale=0.05)
        return MultiGPUSystem(config, workload, policy, check_invariants=True)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            InvariantChecker(self._system(), interval=0)

    def test_time_monotonicity(self):
        system = self._system()
        system.invariants._last_now = 10**9
        with pytest.raises(InvariantViolation, match="time moved backwards"):
            system.invariants.check()

    def test_pending_served_without_result(self):
        system = self._system()
        request = ATSRequest(gpu_id=0, pid=1, vpn=5, issue_time=0)
        entry = system.iommu.pending.create(request.key, request, 0)
        entry.served = True  # but result_ppn is still None
        entry.waiters.clear()
        with pytest.raises(InvariantViolation, match="served without a result"):
            system.invariants.check()

    def test_pending_unserved_without_waiters(self):
        system = self._system()
        request = ATSRequest(gpu_id=0, pid=1, vpn=5, issue_time=0)
        entry = system.iommu.pending.create(request.key, request, 0)
        entry.waiters.clear()
        with pytest.raises(InvariantViolation, match="no waiters"):
            system.invariants.check()

    def test_eviction_counter_drift(self):
        system = self._system()
        system.iommu.eviction_counters[0] += 3
        with pytest.raises(InvariantViolation, match="counter drift"):
            system.invariants.check()

    def test_cu_occupancy(self):
        system = self._system()
        system.gpus[0].cus[0].outstanding = -1
        with pytest.raises(InvariantViolation, match="outstanding"):
            system.invariants.check()

    def test_inclusion_bug_is_detected(self):
        """Force the mostly-inclusive baseline through the exclusivity
        audit: a genuine inclusion violation must exceed the bounded
        tolerance by a wide margin."""
        config = baseline_config()
        workload = build_single_app_workload("MM", config, scale=0.1)
        system = MultiGPUSystem(config, workload, "baseline", check_invariants=True)
        system.policy.least_inclusive = True
        with pytest.raises(InvariantViolation, match="exclusivity"):
            system.run()

    def test_completion_leak_detected(self):
        system = self._system()
        request = ATSRequest(gpu_id=0, pid=1, vpn=5, issue_time=0)
        system.iommu.pending.create(request.key, request, 0)
        with pytest.raises(InvariantViolation, match="pending table holds"):
            system.invariants.check(final=True)

    def test_violation_carries_details(self):
        system = self._system()
        system.iommu.eviction_counters[0] += 3
        with pytest.raises(InvariantViolation) as excinfo:
            system.invariants.check()
        details = excinfo.value.details
        assert details["invariant"] == "eviction-counters"
        assert "cycle" in details
