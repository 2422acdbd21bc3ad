"""Unit tests for the device-aware (QoS) least-TLB extension."""

import numpy as np
import pytest

from repro.sim.system import MultiGPUSystem
from repro.structures.tlb import pack_key, pack_payload
from repro.workloads.trace import CUStream, Placement, Workload


def workload(gpu_vpns, kind="multi"):
    placements = []
    footprint = set()
    for gpu_id, vpns in gpu_vpns.items():
        n = len(vpns)
        placements.append(
            Placement(
                gpu_id=gpu_id, pid=1, app_name="x", cu_ids=[0],
                streams=[CUStream(
                    np.array(vpns, dtype=np.int64),
                    np.full(n, 5000, dtype=np.int64),
                    np.ones(n, dtype=np.int64),
                )],
            )
        )
        footprint.update(vpns)
    return Workload(name="x", kind=kind, placements=placements,
                    app_names={1: "x"},
                    footprints={1: np.array(sorted(footprint), dtype=np.int64)})


def build(tiny_config, weights=None, **options):
    opts = dict(options)
    if weights is not None:
        opts["qos_weights"] = weights
    return MultiGPUSystem(
        tiny_config, workload({0: [1]}), "least-tlb-qos", policy_options=opts
    )


class TestValidation:
    def test_wrong_weight_count(self, tiny_config):
        with pytest.raises(ValueError, match="QoS weights"):
            build(tiny_config, weights=[1.0, 2.0])

    def test_nonpositive_weight(self, tiny_config):
        with pytest.raises(ValueError, match="positive"):
            build(tiny_config, weights=[1.0, 0.0, 1.0, 1.0])

    def test_budget_past_the_entry_field(self, tiny_config):
        # The heavy owner's budget, 40000 * 4 / 1.75 = 91429, does not fit
        # the entry's 16-bit spill-budget field; 2x weight (64000) does.
        config = tiny_config.derive(spill_budget=40_000)
        build(config, weights=[2.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="spill budget of 91429"):
            build(config, weights=[4.0, 1.0, 1.0, 1.0])

    def test_default_weights_uniform(self, tiny_config):
        system = build(tiny_config)
        assert system.policy.qos_weights == [1.0] * 4


def select(system):
    """The run's spill receiver for the IOMMU's current Eviction Counters."""
    return system.policy.receivers.select(system.iommu.eviction_counters)


class TestReceiverSelection:
    def test_uniform_weights_match_plain_least_tlb(self, tiny_config):
        qos = build(tiny_config)
        qos.iommu.eviction_counters[:] = [3, 1, 3, 1]
        picks = [select(qos) for _ in range(4)]
        plain = MultiGPUSystem(
            tiny_config, workload({0: [1]}), "least-tlb"
        )
        plain.iommu.eviction_counters[:] = [3, 1, 3, 1]
        plain_picks = [select(plain) for _ in range(4)]
        assert picks == plain_picks

    def test_heavy_device_avoided(self, tiny_config):
        # Equal counters: spills must land on the lightest devices.
        system = build(tiny_config, weights=[10.0, 1.0, 10.0, 1.0])
        system.iommu.eviction_counters[:] = [0, 0, 0, 0]
        picks = {select(system) for _ in range(8)}
        assert picks == {1, 3}

    def test_weighting_trades_off_against_load(self, tiny_config):
        # A light device that is already loaded loses to an idle heavy one.
        system = build(tiny_config, weights=[1.0, 1.0, 1.0, 2.0])
        system.iommu.eviction_counters[:] = [50, 50, 50, 0]
        assert select(system) == 3


class TestBudgets:
    def test_heavy_owner_gets_extra_budget(self, tiny_config):
        system = build(tiny_config, weights=[4.0, 1.0, 1.0, 1.0])
        assert system.policy._budget_for_owner(0) >= 2
        assert system.policy._budget_for_owner(1) == 1

    def test_uniform_budget_unchanged(self, tiny_config):
        system = build(tiny_config)
        for gpu in range(4):
            assert system.policy._budget_for_owner(gpu) == 1


class TestEndToEnd:
    def test_qos_policy_runs_a_workload(self, tiny_config):
        system = MultiGPUSystem(
            tiny_config,
            workload({0: list(range(50)), 1: list(range(100, 130))}),
            "least-tlb-qos",
            policy_options={"qos_weights": [2.0, 1.0, 1.0, 1.0]},
        )
        result = system.run()
        assert result.apps[1].counters["runs"] == 80
        assert result.policy_name == "least-tlb-qos"

    def test_spill_avoids_heavy_device(self, tiny_config):
        system = MultiGPUSystem(
            tiny_config, workload({0: [1]}), "least-tlb-qos",
            policy_options={"qos_weights": [1.0, 100.0, 1.0, 1.0]},
        )
        # Force spills by evicting entries through the policy.
        for vpn in range(300, 330):
            system.policy.on_iommu_tlb_evicted(pack_key(1, vpn), pack_payload(vpn, 0, 1))
        system.queue.run()
        heavy = system.iommu.stats.as_dict().get("spills_to_gpu1", 0)
        total = system.iommu.stats["spills"]
        assert total == 30
        assert heavy < total / 4
