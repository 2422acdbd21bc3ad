"""Table 2 — GPU system configuration.

Prints the simulated system's configuration and checks it against the
paper's numbers (this is the one experiment that must match exactly).
"""

from common import baseline_config, save_table


def test_table2_system_configuration():
    config = baseline_config()

    rows = [
        ["CU", f"{config.gpu.num_cus} per GPU"],
        ["GPUs", str(config.num_gpus)],
        ["Page size", f"{config.page_size // 1024} KB"],
        ["L1 TLB", f"{config.gpu.l1_tlb.num_entries} entries, "
                   f"{config.gpu.l1_tlb.associativity}-way, "
                   f"{config.gpu.l1_tlb.lookup_latency}-cycle, CU private, LRU"],
        ["L2 TLB", f"{config.gpu.l2_tlb.num_entries} entries, "
                   f"{config.gpu.l2_tlb.associativity}-way, "
                   f"{config.gpu.l2_tlb.lookup_latency}-cycle, CUs shared, LRU"],
        ["IOMMU TLB", f"{config.iommu.tlb.num_entries} entries, "
                      f"{config.iommu.tlb.associativity}-way, "
                      f"{config.iommu.tlb.lookup_latency}-cycle, GPUs shared, LRU"],
        ["Page table walk", f"{config.iommu.num_walkers} shared walkers "
                            f"(x{config.iommu.walker_threads} threads), "
                            f"{config.iommu.walk_latency}-cycle walk"],
        ["Tracker", f"{config.tracker.total_entries}-entry cuckoo filter, "
                    f"{config.tracker.fingerprint_bits}-bit fingerprints"],
    ]
    save_table("table2_config", "Table 2: GPU system configuration", ["Module", "Configuration"], rows)

    # The paper's Table 2, verbatim.
    assert config.gpu.num_cus == 64
    assert config.gpu.l1_tlb.num_entries == 16
    assert config.gpu.l1_tlb.lookup_latency == 1
    assert config.gpu.l2_tlb.num_entries == 512
    assert config.gpu.l2_tlb.associativity == 16
    assert config.gpu.l2_tlb.lookup_latency == 10
    assert config.iommu.tlb.num_entries == 4096
    assert config.iommu.tlb.associativity == 64
    assert config.iommu.tlb.lookup_latency == 200
    assert config.iommu.num_walkers == 8
    assert config.iommu.walk_latency == 500
    assert config.page_size == 4096
    assert config.tracker.total_entries == 2048
