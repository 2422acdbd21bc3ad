"""End-to-end fault campaigns against real workloads.

Each test injects one class of fault and asserts the hardened protocol's
contract: the run either completes with every waiter served (recovery)
or fails fast with a diagnosable ``SimulationStalledError`` (detection)
— never a silent hang or a truncated result.
"""

import pytest

from repro.config.presets import baseline_config
from repro.engine.watchdog import SimulationStalledError
from repro.faults import HardeningConfig
from repro.sim.system import MultiGPUSystem
from repro.workloads.multi_app import build_single_app_workload

SCALE = 0.05

FAST_HARDENING = HardeningConfig(
    walk_timeout=3_000,
    probe_timeout=1_000,
    retry_backoff_base=100,
    pri_retry_margin=2_000,
)
"""Short timeouts so recovery-heavy campaigns stay fast in tests."""


def run_campaign(faults, policy="least-tlb", *, hardening=FAST_HARDENING, **kwargs):
    config = baseline_config()
    workload = build_single_app_workload("MM", config, scale=SCALE)
    system = MultiGPUSystem(
        config, workload, policy,
        faults=faults, hardening=hardening, check_invariants=True, **kwargs,
    )
    return system, system.run()


def assert_completed(system, result):
    """Every application finished and nothing leaked in flight."""
    assert not system._pids_pending
    assert len(system.iommu.pending) == 0
    for gpu in system.gpus:
        assert not gpu.mshr
        assert all(cu.outstanding == 0 for cu in gpu.cus)
    for app in result.apps.values():
        assert app.exec_cycles > 0


class TestRemoteProbeFaults:
    def test_drop_all_probes_completes_via_walks(self):
        system, result = run_campaign("drop-remote:1.0")
        assert_completed(system, result)
        assert system.iommu.stats["probes_dropped"] > 0
        assert system.iommu.stats["remote_hits"] == 0
        assert system.iommu.stats["probe_timeouts"] > 0
        assert system.topology.total_drops() > 0
        assert result.metadata["faults"] == "drop-remote:1"
        assert result.metadata["fault_injections"]["drop-remote_injected"] > 0

    def test_drop_all_probes_serial_variant(self):
        """remote-then-walk (race_ptw=False) has no racing walk to hide
        the loss: only the probe timeout's walk fallback completes it."""
        system, result = run_campaign(
            "drop-remote:1.0", policy_options={"race_ptw": False}
        )
        assert_completed(system, result)
        assert system.iommu.stats["probe_timeouts"] > 0

    def test_delayed_probes_still_complete(self):
        system, result = run_campaign("delay-remote:0.5:2000")
        assert_completed(system, result)
        assert system.faults.stats["delay-remote_injected"] > 0


class TestWalkerFaults:
    def test_kill_walker_mid_run_redistributes(self):
        system, result = run_campaign("kill-walker:0@20000")
        assert_completed(system, result)
        walkers = system.iommu.walkers
        assert walkers.stats["walkers_killed"] == 1
        assert walkers.lost_capacity == system.config.iommu.walker_threads
        assert walkers.capacity == (
            (system.config.iommu.num_walkers - 1)
            * system.config.iommu.walker_threads
        )

    def test_kill_all_walkers_survives_via_pri(self):
        """With the whole walker pool dead, retry exhaustion must route
        every key through the (walker-free) PRI fault path."""
        config = baseline_config()
        kills = ",".join(
            f"kill-walker:{i}@1000" for i in range(config.iommu.num_walkers)
        )
        system, result = run_campaign(
            kills,
            hardening=HardeningConfig(
                walk_timeout=1_000, probe_timeout=500,
                max_walk_retries=1, retry_backoff_base=50,
            ),
        )
        assert_completed(system, result)
        assert system.iommu.walkers.capacity == 0
        assert system.iommu.stats["walk_retries_exhausted"] > 0

    def test_kill_all_walkers_and_pri_stalls_with_diagnostics(self):
        """Walker pool dead *and* PRI batches lost: no recovery path
        remains, so detection with diagnostics is the contract."""
        config = baseline_config()
        kills = ",".join(
            f"kill-walker:{i}@1000" for i in range(config.iommu.num_walkers)
        )
        with pytest.raises(SimulationStalledError) as excinfo:
            run_campaign(f"{kills},drop-pri:1.0")
        diag = excinfo.value.diagnostics
        assert diag, "stall error must carry diagnostics"
        assert diag["walkers"]["lost_capacity"] > 0
        assert diag["pids_pending"]

    def test_dropped_walk_results_recover_via_retry_or_pri(self):
        system, result = run_campaign("drop-walk:0.3")
        assert_completed(system, result)
        assert system.iommu.walkers.stats["walks_lost"] > 0
        assert system.iommu.stats["walk_timeouts"] > 0
        assert system.iommu.stats["walk_retries"] > 0

    def test_all_walks_lost_falls_back_to_pri(self):
        """Retry exhaustion must route every key through the PRI fault
        path rather than hanging."""
        system, result = run_campaign(
            "drop-walk:1.0",
            hardening=HardeningConfig(
                walk_timeout=1_000, probe_timeout=500,
                max_walk_retries=1, retry_backoff_base=50,
            ),
        )
        assert_completed(system, result)
        assert system.iommu.stats["walk_retries_exhausted"] > 0
        assert system.iommu.stats["page_faults"] > 0

    def test_stalled_walks_complete_late(self):
        system, result = run_campaign("stall-walker:0.2:1500")
        assert_completed(system, result)
        assert system.faults.stats["stall-walker_injected"] > 0


class TestResponseFaults:
    def test_duplicate_responses_served_exactly_once(self):
        system, result = run_campaign("dup-response:0.2")
        assert_completed(system, result)
        assert system.iommu.stats["responses_duplicated"] > 0
        # Exactly-once service: each measured run retires exactly once,
        # so run counts match the workload despite duplicate deliveries.
        for app in result.apps.values():
            assert app.counters["runs"] == app.runs

    def test_drop_all_responses_is_detected_not_hung(self):
        with pytest.raises(SimulationStalledError) as excinfo:
            run_campaign("drop-response:1.0")
        diag = excinfo.value.diagnostics
        assert diag["pids_pending"]
        assert "cycle" in str(excinfo.value)

    def test_sever_every_path_is_detected_not_hung(self):
        """Probes, walks, responses, and PRI batches all dead: detection
        with diagnostics is the only acceptable outcome."""
        with pytest.raises(SimulationStalledError) as excinfo:
            run_campaign(
                "drop-remote:1.0,drop-walk:1.0,drop-response:1.0,drop-pri:1.0"
            )
        diag = excinfo.value.diagnostics
        assert diag["reason"]
        assert diag["fault_injections"]


class TestPriAndTlbFaults:
    def test_dropped_pri_batches_are_redriven(self):
        system, result = run_campaign(
            "drop-walk:1.0,drop-pri:0.5",
            hardening=HardeningConfig(
                walk_timeout=1_000, probe_timeout=500,
                max_walk_retries=0, retry_backoff_base=50,
                pri_retry_margin=1_000, max_pri_retries=8,
            ),
        )
        assert_completed(system, result)
        pri = system.iommu.pri_service
        assert pri["batches_dropped"] > 0
        assert pri["batch_retries"] > 0

    def test_tlb_parity_errors_degrade_to_misses(self):
        system, result = run_campaign("flip-tlb:0.01")
        assert_completed(system, result)
        parity = (
            system.iommu.stats["tlb_parity_errors"]
            + system.faults.stats["flip-tlb_injected"]
        )
        assert parity > 0

    def test_tracker_false_positive_downgrade(self):
        """Past the false-positive threshold the policy must fall back to
        walk-only mode, once."""
        system, result = run_campaign(
            "flip-tlb:0.05",
            hardening=HardeningConfig(
                walk_timeout=3_000, probe_timeout=1_000,
                retry_backoff_base=100, tracker_fp_limit=3,
            ),
        )
        assert_completed(system, result)
        assert system.iommu.stats["tracker_downgrades"] == 1
        assert system.policy.remote_probes is False
        assert system.iommu.stats["tracker_false_positives"] >= 3


class TestCampaignDeterminism:
    def test_same_plan_same_seed_is_bit_identical(self):
        _, a = run_campaign("drop-remote:0.1,flip-tlb:0.001")
        _, b = run_campaign("drop-remote:0.1,flip-tlb:0.001")
        assert a.events_executed == b.events_executed
        assert a.total_cycles == b.total_cycles
        assert a.iommu_counters == b.iommu_counters
        assert a.metadata["fault_injections"] == b.metadata["fault_injections"]
