"""Section 4.3 — hardware overhead of least-TLB.

Paper: a 2048-entry cuckoo filter (~1.08 KB), 32 bits of Eviction
Counters, and a CACTI-estimated 0.19% area overhead relative to the IOMMU
TLB.  We reproduce the storage arithmetic and a first-order area ratio.
"""

from common import baseline_config, save_table
from repro.core.overhead import estimate_overhead


def test_overhead_model():
    report = estimate_overhead(baseline_config())

    rows = [
        ["tracker storage", f"{report.tracker_bytes / 1024:.2f} KB",
         "1.08 KB (4.2-bit fingerprints)"],
        ["eviction counters", f"{report.eviction_counter_bits} bits", "32 bits"],
        ["spill bits", f"{report.spill_bit_bits} bits", "1 per IOMMU TLB entry"],
        ["IOMMU TLB storage", f"{report.iommu_tlb_bytes / 1024:.1f} KB", "-"],
        ["storage overhead", f"{report.storage_overhead_fraction * 100:.2f}%", "-"],
        ["area overhead (1st order)", f"{report.area_overhead_fraction * 100:.2f}%",
         "0.19% (CACTI)"],
    ]
    save_table(
        "overhead",
        "Section 4.3: least-TLB hardware overhead (ours vs paper)",
        ["component", "this model", "paper"],
        rows,
    )

    # Same order of magnitude as the paper's accounting.
    assert 0.5 < report.tracker_bytes / 1024 < 4
    assert report.eviction_counter_bits <= 64
    assert report.area_overhead_fraction < 0.01
