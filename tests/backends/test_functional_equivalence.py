"""Cross-backend equivalence: the fast path must be bit-identical to
the event engine.

The functional backend (:mod:`repro.sim.backends`) is only allowed to
exist because every observable it produces — hit/miss/eviction/spill
counters, sharing degrees, latency means, ``total_cycles``,
``events_executed`` — equals the event engine's exactly.  These tests
pin that contract over randomized workloads, GPU counts, seeds, and both
supported policies, plus real traced applications;
``scripts/check_fidelity.py`` extends the same check to the full bench
families.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.presets import baseline_config, infinite_iommu_config
from repro.config.system import (
    GPUConfig,
    IOMMUConfig,
    InterconnectConfig,
    SystemConfig,
    TLBLevelConfig,
    TrackerConfig,
)
from repro.sim.backends import BackendUnsupported, run_functional
from repro.sim.driver import run_single_app, simulate
from repro.sim.system import MultiGPUSystem
from repro.structures.tlb import BUDGET_LIMIT, OWNER_LIMIT, PID_LIMIT
from repro.telemetry import TelemetryConfig
from repro.workloads.multi_app import build_single_app_workload
from repro.workloads.trace import CUStream, Placement, Workload


def tiny_config(num_gpus=2, seed=1):
    return SystemConfig(
        num_gpus=num_gpus,
        gpu=GPUConfig(
            num_cus=2,
            slots_per_cu=2,
            l1_tlb=TLBLevelConfig(num_entries=2, associativity=2, lookup_latency=1),
            l2_tlb=TLBLevelConfig(num_entries=8, associativity=4, lookup_latency=3),
        ),
        iommu=IOMMUConfig(
            tlb=TLBLevelConfig(num_entries=16, associativity=4, lookup_latency=10),
            num_walkers=2,
            walker_threads=2,
            walk_latency=40,
        ),
        tracker=TrackerConfig(total_entries=32, kind="cuckoo"),
        interconnect=InterconnectConfig(host_link_latency=15, peer_link_latency=5),
        seed=seed,
    )


def build_workload(gpu_vpns, kind):
    placements = []
    footprint = set()
    for gpu_id, vpns in enumerate(gpu_vpns):
        if not vpns:
            continue
        n = len(vpns)
        placements.append(
            Placement(
                gpu_id=gpu_id, pid=1, app_name="rand", cu_ids=[0],
                streams=[CUStream(
                    np.array(vpns, dtype=np.int64),
                    np.full(n, 37, dtype=np.int64),
                    np.ones(n, dtype=np.int64),
                )],
            )
        )
        footprint.update(vpns)
    return Workload(
        name="rand", kind=kind, placements=placements, app_names={1: "rand"},
        footprints={1: np.array(sorted(footprint), dtype=np.int64)},
    )


@st.composite
def scenarios(draw):
    """A random workload on a tiny system with a random IOMMU: walker
    scheduler and pool size, PRI batching, link latencies, and whether
    pages are prefaulted (if not, every first touch goes through PRI)."""
    num_gpus = draw(st.integers(2, 4))
    gpu_vpns = [
        draw(st.lists(st.integers(0, 30), min_size=0, max_size=40))
        for _ in range(num_gpus)
    ]
    if not any(gpu_vpns):
        gpu_vpns[0] = [0]
    seed = draw(st.integers(0, 3))
    config = tiny_config(num_gpus=num_gpus, seed=seed)
    latencies = st.sampled_from([0, 1, 15])
    config = config.derive(
        iommu=dataclasses.replace(
            config.iommu,
            walker_scheduler=draw(st.sampled_from(["fifo", "dws"])),
            num_walkers=draw(st.integers(1, 3)),
            walker_threads=draw(st.integers(1, 3)),
            pri_batch_size=draw(st.integers(1, 4)),
            pri_timeout=draw(st.integers(1, 400)),
        ),
        interconnect=InterconnectConfig(
            host_link_latency=draw(latencies), peer_link_latency=draw(latencies)
        ),
    )
    return config, gpu_vpns, draw(st.booleans())


@pytest.mark.parametrize("backend", ["functional"])
@pytest.mark.parametrize("policy", ["baseline", "least-tlb"])
@pytest.mark.parametrize("kind", ["single", "multi"])
@given(scenario=scenarios())
@settings(max_examples=20, deadline=None)
def test_fast_backends_are_bit_identical(backend, policy, kind, scenario):
    config, gpu_vpns, prefault = scenario
    workload = build_workload(gpu_vpns, kind)
    ref = simulate(config, workload, policy, max_cycles=5_000_000, prefault=prefault)
    fast = simulate(
        config, workload, policy, backend=backend, max_cycles=5_000_000,
        prefault=prefault,
    )
    assert dataclasses.asdict(fast) == dataclasses.asdict(ref)


@pytest.mark.parametrize("backend", ["functional"])
@pytest.mark.parametrize("policy", ["baseline", "least-tlb"])
def test_real_trace_is_bit_identical(backend, policy):
    ref = run_single_app("MM", policy=policy, scale=0.02)
    fast = run_single_app("MM", policy=policy, scale=0.02, backend=backend)
    assert dataclasses.asdict(fast) == dataclasses.asdict(ref)


@pytest.mark.parametrize("policy", ["baseline", "least-tlb"])
def test_infinite_iommu_tlb_is_bit_identical(policy):
    """Figure 3's unbounded IOMMU TLB: lookups leave recency alone and
    inserts never evict, on both backends' one TLB class."""
    config = infinite_iommu_config()
    ref = run_single_app("ST", config, policy, scale=0.05)
    fast = run_single_app("ST", config, policy, scale=0.05, backend="functional")
    assert ref.apps[1].counters["iommu_hit"] > 0
    assert dataclasses.asdict(fast) == dataclasses.asdict(ref)


@pytest.mark.parametrize("spill_budget", [256, 300])
def test_wide_spill_budgets_are_bit_identical(spill_budget):
    """A spill budget past 8 bits used to overflow into the owner field of
    the replay's payloads (5,161 against 23,595 cycles at 256)."""
    config = tiny_config().derive(spill_budget=spill_budget)
    workload = build_workload(
        [list(range(0, 30)) * 3, list(range(100, 140)) * 3], "multi"
    )
    ref, fast = (
        simulate(config, workload, "least-tlb", backend=backend)
        for backend in ("event", "functional")
    )
    assert ref.iommu_counters["spills"] > 0
    assert dataclasses.asdict(fast) == dataclasses.asdict(ref)


def test_entry_fields_bound_the_config():
    """A spill budget or GPU count past its TLB entry field is rejected,
    naming the field, before any backend can mis-model it."""
    SystemConfig(spill_budget=BUDGET_LIMIT - 1)
    with pytest.raises(ValueError, match="spill_budget must be in"):
        SystemConfig(spill_budget=BUDGET_LIMIT)
    SystemConfig(num_gpus=OWNER_LIMIT)
    with pytest.raises(ValueError, match="num_gpus must be in"):
        SystemConfig(num_gpus=OWNER_LIMIT + 1)


FINGERPRINT_SCRIPT = """
import dataclasses, json, resource, sys
# A cap, so a per-fingerprint table of 2**bits entries fails fast with
# MemoryError instead of exhausting the machine.
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
sys.path.insert(0, {src!r})
from repro.config.presets import baseline_config
from repro.sim.driver import run_single_app
config = baseline_config()
config = config.derive(
    tracker=dataclasses.replace(config.tracker, fingerprint_bits={bits})
)
event, functional = (
    run_single_app("FIR", config, "least-tlb", scale=0.02, backend=backend)
    for backend in ("event", "functional")
)
assert dataclasses.asdict(event) == dataclasses.asdict(functional)
print(json.dumps({{
    "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "events": event.events_executed,
}}))
"""


def test_wide_fingerprints_keep_memory_bounded():
    """The tracker caches a fingerprint's mix only once it is seen, so a
    32-bit fingerprint costs no more memory than the paper's 6 bits."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    runs = {}
    for bits in (6, 32):
        proc = subprocess.run(
            [sys.executable, "-c", FINGERPRINT_SCRIPT.format(src=src, bits=bits)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        runs[bits] = json.loads(proc.stdout)
    assert runs[32]["events"] > 0
    grown_mib = (runs[32]["rss_kib"] - runs[6]["rss_kib"]) / 1024
    assert grown_mib < 8, f"32-bit fingerprints cost {grown_mib:.1f} MiB more"


class TestScopeRejections:
    """Everything outside the replayed scope must refuse loudly, never
    silently diverge.  The scope check reads the built system."""

    def _workload(self):
        return build_workload([[0, 1], [2]], "single")

    def _functional(self, config, policy, **system_kwargs):
        return simulate(
            config, self._workload(), policy, backend="functional",
            **system_kwargs,
        )

    def test_unsupported_policy(self):
        with pytest.raises(BackendUnsupported, match="policy 'tlb-probing'"):
            self._functional(tiny_config(), "tlb-probing")

    @pytest.mark.parametrize(
        "policy", ["strictly-inclusive", "exclusive", "prefetch", "least-tlb-qos"]
    )
    def test_policy_subclasses_are_refused(self, policy):
        # A subclass of a replayed policy overrides hooks the replay
        # restates inline, so only the exact classes are in scope.
        with pytest.raises(BackendUnsupported, match=f"policy '{policy}'"):
            self._functional(tiny_config(), policy)

    def test_local_page_tables(self):
        config = dataclasses.replace(tiny_config(), local_page_tables=True)
        with pytest.raises(BackendUnsupported, match="local page tables"):
            self._functional(config, "baseline")

    def test_unknown_system_option(self):
        # The same error on both backends, from the system's constructor.
        for backend in ("event", "functional"):
            with pytest.raises(TypeError, match="'shields'"):
                simulate(
                    tiny_config(), self._workload(), "baseline",
                    backend=backend, shields="up",
                )

    def test_non_default_system_option(self):
        with pytest.raises(BackendUnsupported, match="snapshot_interval"):
            self._functional(tiny_config(), "baseline", snapshot_interval=100)

    @pytest.mark.parametrize(
        "option, value",
        [
            ("shootdown_interval", 100),
            ("check_invariants", True),
            ("watchdog", True),
            ("telemetry", TelemetryConfig()),
        ],
    )
    def test_engine_only_options_are_refused(self, option, value):
        with pytest.raises(BackendUnsupported, match=f"{option}="):
            self._functional(tiny_config(), "least-tlb", **{option: value})

    @pytest.mark.parametrize("policy", ["baseline", "least-tlb"])
    def test_vpn_wider_than_the_key_field(self, policy):
        # Pages that differ only above bit 48 have their own keys: both
        # backends walk all 4 pages and agree bit for bit.
        wide = (1 << 48) | 5
        workload = build_workload([[5, wide, 9, (1 << 48) | 9] * 50], "single")
        results = [
            simulate(tiny_config(), workload, policy, backend=backend)
            for backend in ("event", "functional")
        ]
        assert results[0].walker_counters["walks_dispatched"] == 4
        assert dataclasses.asdict(results[1]) == dataclasses.asdict(results[0])

    @pytest.mark.parametrize("backend", ["event", "functional"])
    def test_pid_wider_than_the_key_field(self, backend):
        workload = build_workload([[5, 9]], "single")
        for placement in workload.placements:
            placement.pid = PID_LIMIT
        workload.app_names = {PID_LIMIT: "rand"}
        workload.footprints = {PID_LIMIT: workload.footprints[1]}
        with pytest.raises(ValueError, match=f"pid {PID_LIMIT} does not fit"):
            simulate(tiny_config(), workload, "baseline", backend=backend)

    @pytest.mark.parametrize("backend", ["event", "functional"])
    def test_options_of_an_option_free_policy(self, backend):
        # The same error on both backends, from the same check.
        with pytest.raises(TypeError, match="'baseline' accepts no options"):
            simulate(
                tiny_config(), self._workload(), "baseline", backend=backend,
                policy_options={"race_ptw": False},
            )

    @pytest.mark.parametrize("backend", ["event", "functional"])
    def test_unknown_least_tlb_option(self, backend):
        with pytest.raises(TypeError, match="'shields'"):
            simulate(
                tiny_config(), self._workload(), "least-tlb", backend=backend,
                policy_options={"shields": "up"},
            )

    def test_default_valued_options_accepted(self):
        result = self._functional(
            tiny_config(), "baseline", check_invariants=False, watchdog=False,
        )
        assert result.events_executed > 0

    def test_baseline_config_in_scope(self):
        # The paper's default configuration must stay inside the fast
        # path's scope — the benchmarks rely on it.
        workload = build_single_app_workload("FIR", baseline_config(), scale=0.02)
        system = MultiGPUSystem(baseline_config(), workload, "least-tlb")
        assert run_functional(system).events_executed > 0


@pytest.mark.parametrize(
    "options",
    [
        {"race_ptw": False},
        {"remote_probes": False},
        {"mode": "multi"},
        {"mode": "single", "spilling": True},
        {"receiver_policy": "random"},
    ],
    ids=str,
)
def test_policy_options_are_bit_identical(options):
    """The replay reads least-TLB's resolved options off the built
    policy; each one must steer it as it steers the engine."""
    config = tiny_config(num_gpus=3)
    workload = build_workload(
        [list(range(0, 24)) * 3, list(range(12, 36)) * 3, list(range(30, 60)) * 2],
        "multi",
    )
    ref, fast = (
        simulate(
            config, workload, "least-tlb", backend=backend, policy_options=options
        )
        for backend in ("event", "functional")
    )
    assert dataclasses.asdict(fast) == dataclasses.asdict(ref)
