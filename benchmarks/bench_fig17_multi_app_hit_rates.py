"""Figure 17 — IOMMU TLB hit rate and remote hit rate, multi-application.

Paper: least-TLB improves the IOMMU TLB hit rate by 7.8% on average and
reaches an average remote (spill) hit rate of 10%; spilling captures
long-distance reuses that the IOMMU TLB alone cannot.
"""

from common import MULTI_APP_WORKLOADS, save_table

WORKLOADS = tuple(MULTI_APP_WORKLOADS)


def mean_rate(result, attr):
    apps = result.apps.values()
    return sum(getattr(a, attr) for a in apps) / len(apps)


def test_fig17_multi_app_hit_rates(runs):
    results = runs("fig17_multi_app_hit_rates")

    rows = []
    for wl in WORKLOADS:
        base, least = results[wl, "baseline"], results[wl, "least-tlb"]
        rows.append([
            wl, MULTI_APP_WORKLOADS[wl][1],
            mean_rate(base, "iommu_hit_rate"),
            mean_rate(least, "iommu_hit_rate"),
            mean_rate(least, "remote_hit_rate"),
        ])
    save_table(
        "fig17_multi_app_hit_rates",
        "Figure 17: multi-application IOMMU and remote hit rates "
        "(paper: +7.8% IOMMU hit rate, 10% remote hit rate on average)",
        ["wl", "cat", "IOMMU base", "IOMMU least", "remote"],
        rows,
    )

    gains = [r[3] - r[2] for r in rows]
    remotes = {r[0]: r[4] for r in rows}
    # least-TLB lifts the IOMMU hit rate on average (reach + recycling).
    assert sum(gains) / len(gains) > 0.05
    # Spill-reuse remote hits occur in the contended mixes.
    contended = [remotes[wl] for wl in ("W2", "W3", "W4", "W5")]
    assert sum(contended) / len(contended) > 0.01
    # No remote hits where nothing misses (all-low W1).
    assert remotes["W1"] < 0.02
