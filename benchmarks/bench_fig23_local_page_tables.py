"""Figure 23 — multi-GPU systems with per-GPU local page tables.

Paper: when each GPU walks its own device-memory page table and only
local page faults reach the IOMMU, least-TLB's gains shrink to 2.8%
(single-app) and 3.8% (multi-app) — page faults are far rarer than L2 TLB
misses, so there is little IOMMU traffic left to optimise.
"""

from common import save_table

SINGLE_APPS = ("KM", "MM", "ST")
WORKLOADS = ("W5", "W8")


def test_fig23_local_page_tables(runs):
    results = runs("fig23_local_page_tables")
    single = {}
    for app in SINGLE_APPS:
        base = results[app, "baseline", "local-pt"]
        least = results[app, "least-tlb", "local-pt"]
        single[app] = (least.speedup_vs(base), base)
    multi = {}
    for wl in WORKLOADS:
        base = results[wl, "baseline", "local-pt"]
        least = results[wl, "least-tlb", "local-pt"]
        multi[wl] = sum(least.per_app_speedup_vs(base).values()) / len(base.apps)

    rows = []
    for app in SINGLE_APPS:
        speedup, base = single[app]
        c = base.apps[1].counters
        rows.append([
            "single", app, speedup,
            c.get("local_walks", 0), c.get("iommu_lookup", 0),
        ])
    for wl in WORKLOADS:
        rows.append(["multi", wl, multi[wl], "", ""])
    save_table(
        "fig23_local_page_tables",
        "Figure 23: per-GPU local page tables "
        "(paper: least-TLB gains shrink to +2.8%/+3.8%)",
        ["mode", "workload", "least speedup", "local walks", "IOMMU lookups"],
        rows,
    )

    # IOMMU traffic is a small subset of translation traffic here.
    for app in SINGLE_APPS:
        c = single[app][1].apps[1].counters
        assert c["iommu_lookup"] < c["local_walks"]
    # Gains are small (nothing much left to optimise) but not regressions.
    single_speedups = [single[a][0] for a in SINGLE_APPS]
    assert all(s > 0.95 for s in single_speedups)
    mean_single = sum(single_speedups) / len(single_speedups)
    full_mean = sum(
        results[a, "least-tlb"].speedup_vs(results[a, "baseline"])
        for a in SINGLE_APPS
    ) / len(SINGLE_APPS)
    assert mean_single < full_mean  # far less headroom than the GCN system
    assert all(m > 0.95 for m in multi.values())
