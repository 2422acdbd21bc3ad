"""Figure 3 — normalized performance of an infinite IOMMU TLB.

Paper: 5.6% to 2.4x speedup, average +42.3%; the improvement is largest
for the high-MPKI applications (MT, ST).
"""

from common import SINGLE_APP_NAMES, save_table


def test_fig03_infinite_iommu_tlb(runs):
    results = runs("fig03_infinite_iommu")
    speedups = {
        app: results[app, "baseline", "infinite"].speedup_vs(results[app, "baseline"])
        for app in SINGLE_APP_NAMES
    }

    rows = [[app, speedups[app]] for app in SINGLE_APP_NAMES]
    rows.append(["MEAN", sum(speedups.values()) / len(speedups)])
    save_table(
        "fig03_infinite_iommu",
        "Figure 3: normalized performance with an infinite IOMMU TLB "
        "(paper: avg 1.42x, up to 2.4x)",
        ["app", "speedup vs baseline"],
        rows,
    )

    mean = sum(speedups.values()) / len(speedups)
    # Shape: meaningful average headroom, nobody slowed down.
    assert mean > 1.15
    assert all(s > 0.99 for s in speedups.values())
    # High-MPKI applications benefit most (paper: MT and ST dominate).
    high = {speedups["MT"], speedups["ST"]}
    low = {speedups["FIR"], speedups["AES"], speedups["FFT"]}
    assert min(high) > max(low)
    assert max(high) > 1.8  # the paper's 2.4x-class effect
