"""Figure 15 — IOMMU TLB hit rate and remote-L2 hit rate, single-app.

Paper: least-TLB improves the IOMMU TLB hit rate by 12.9% on average and
adds an average 4.7% remote hit rate; the high-sharing applications (ST,
MT, MM, KM, PR) gain ~22% of combined hit rate.
"""

from common import SINGLE_APP_NAMES, save_table

HIGH_SHARING = ("ST", "MT", "MM", "KM", "PR")


def test_fig15_single_app_hit_rates(runs):
    results = runs("fig15_single_app_hit_rates")

    rows = []
    for app in SINGLE_APP_NAMES:
        base, least = results[app, "baseline"], results[app, "least-tlb"]
        b, l = base.apps[1], least.apps[1]
        rows.append([
            app, b.iommu_hit_rate, l.iommu_hit_rate, l.remote_hit_rate,
            l.iommu_hit_rate + l.remote_hit_rate - b.iommu_hit_rate,
        ])
    save_table(
        "fig15_single_app_hit_rates",
        "Figure 15: IOMMU TLB hit rate and remote hit rate "
        "(paper: +12.9% IOMMU, 4.7% remote on average)",
        ["app", "IOMMU base", "IOMMU least", "remote", "combined gain"],
        rows,
    )

    gains = {r[0]: r[4] for r in rows}
    remotes = {r[0]: r[3] for r in rows}
    # The high-sharing group gains combined hit rate on average.
    high_gain = sum(gains[a] for a in HIGH_SHARING) / len(HIGH_SHARING)
    assert high_gain > 0.05
    # Remote hits materialise for sharing applications.
    assert sum(remotes[a] for a in HIGH_SHARING) / len(HIGH_SHARING) > 0.02
    # Partitioned KM gains purely through reach (no sharing -> no remote).
    assert remotes["KM"] < 0.02
    assert gains["KM"] > 0.1
