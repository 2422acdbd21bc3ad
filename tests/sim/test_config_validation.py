"""Unit tests for configuration validation and presets."""

import pytest

from repro.config.presets import (
    baseline_config,
    dws_config,
    infinite_iommu_config,
    large_page_config,
    local_page_table_config,
    remote_latency_config,
    scaled_config,
    small_iommu_config,
    spill_budget_config,
)
from repro.config.system import (
    PAGE_2MB,
    PAGE_4KB,
    GPUConfig,
    IOMMUConfig,
    InterconnectConfig,
    SystemConfig,
    TLBLevelConfig,
    TrackerConfig,
)


class TestTLBLevelConfig:
    def test_rejects_non_dividing_associativity(self):
        with pytest.raises(ValueError):
            TLBLevelConfig(num_entries=100, associativity=16, lookup_latency=1)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            TLBLevelConfig(num_entries=16, associativity=16, lookup_latency=-1)


class TestSystemConfig:
    def test_page_size_power_of_two(self):
        with pytest.raises(ValueError):
            SystemConfig(page_size=3000)

    def test_negative_spill_budget(self):
        with pytest.raises(ValueError):
            SystemConfig(spill_budget=-1)

    def test_page_table_levels(self):
        assert SystemConfig(page_size=PAGE_4KB).page_table_levels == 4
        assert SystemConfig(page_size=PAGE_2MB).page_table_levels == 3

    def test_derive_replaces_fields(self):
        config = baseline_config()
        derived = config.derive(num_gpus=8, seed=42)
        assert derived.num_gpus == 8
        assert derived.seed == 42
        assert config.num_gpus == 4  # original untouched


class TestSubConfigs:
    def test_gpu_config_validation(self):
        with pytest.raises(ValueError):
            GPUConfig(num_cus=0)
        with pytest.raises(ValueError):
            GPUConfig(slots_per_cu=0)

    def test_iommu_config_validation(self):
        with pytest.raises(ValueError):
            IOMMUConfig(num_walkers=0)
        with pytest.raises(ValueError):
            IOMMUConfig(walker_threads=0)
        with pytest.raises(ValueError):
            IOMMUConfig(walker_scheduler="lifo")

    def test_tracker_config_validation(self):
        with pytest.raises(ValueError):
            TrackerConfig(kind="neural")
        with pytest.raises(ValueError):
            TrackerConfig(total_entries=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("bucket_size", 0),
            ("bucket_size", -2),
            ("fingerprint_bits", 0),
            ("fingerprint_bits", 1),
            ("fingerprint_bits", 33),
        ],
    )
    def test_tracker_geometry_rejected_at_construction(self, field, value):
        # Each of these used to surface mid-run (ZeroDivisionError,
        # IndexError) or to run on one backend and raise on the other.
        with pytest.raises(ValueError, match=field):
            TrackerConfig(**{field: value})

    @pytest.mark.parametrize("bits", [2, 32])
    def test_fingerprint_bits_bounds_accepted(self, bits):
        assert TrackerConfig(fingerprint_bits=bits).fingerprint_bits == bits

    def test_interconnect_validation(self):
        with pytest.raises(ValueError):
            InterconnectConfig(host_link_latency=-1)
        with pytest.raises(ValueError):
            InterconnectConfig(remote_latency_scale=0)

    def test_scaled_peer_latency_rounds(self):
        ic = InterconnectConfig(peer_link_latency=100, remote_latency_scale=3.5)
        assert ic.scaled_peer_latency == 350


class TestPresets:
    def test_baseline_is_table2(self):
        config = baseline_config()
        assert config.num_gpus == 4
        assert config.iommu.tlb.num_entries == 4096
        assert not config.iommu.infinite_tlb

    def test_infinite_preset(self):
        assert infinite_iommu_config().iommu.infinite_tlb

    def test_small_iommu_preset(self):
        assert small_iommu_config().iommu.tlb.num_entries == 2048

    def test_large_page_preset(self):
        config = large_page_config()
        assert config.page_size == PAGE_2MB
        assert config.page_table_levels == 3

    def test_local_page_table_preset(self):
        assert local_page_table_config().local_page_tables

    def test_scaled_preset_keeps_tracker_budget(self):
        assert scaled_config(16).tracker.total_entries == 2048
        assert scaled_config(16).num_gpus == 16

    def test_remote_latency_preset(self):
        assert remote_latency_config(5.0).interconnect.remote_latency_scale == 5.0

    def test_dws_preset(self):
        assert dws_config().iommu.walker_scheduler == "dws"

    def test_spill_budget_preset(self):
        assert spill_budget_config(2).spill_budget == 2

    def test_presets_are_frozen(self):
        config = baseline_config()
        with pytest.raises(AttributeError):
            config.num_gpus = 8  # staticcheck: ignore[D6] -- asserts frozen-ness
