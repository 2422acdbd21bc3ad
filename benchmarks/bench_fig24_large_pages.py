"""Figure 24 — least-TLB with 2 MB pages.

Paper: large pages collapse footprints onto few translations, so TLB reach
stops being the bottleneck; least-TLB's residual gains are small (+0.78%
single-app, +2.3% multi-app) but it never hurts.
"""

from common import save_table

SINGLE_APPS = ("KM", "PR", "MM", "ST")
WORKLOADS = ("W5", "W8")


def test_fig24_large_pages(runs):
    results = runs("fig24_large_pages")
    single = {}
    for app in SINGLE_APPS:
        base = results[app, "baseline", "2MB"]
        least = results[app, "least-tlb", "2MB"]
        single[app] = (least.speedup_vs(base), base.apps[1])
    multi = {}
    for wl in WORKLOADS:
        base = results[wl, "baseline", "2MB"]
        least = results[wl, "least-tlb", "2MB"]
        multi[wl] = sum(least.per_app_speedup_vs(base).values()) / len(base.apps)

    rows = [
        ["single", app, single[app][0], single[app][1].mpki]
        for app in SINGLE_APPS
    ] + [["multi", wl, multi[wl], ""] for wl in WORKLOADS]
    save_table(
        "fig24_large_pages",
        "Figure 24: least-TLB under 2 MB pages "
        "(paper: residual gains of +0.78%/+2.3%)",
        ["mode", "workload", "least speedup", "baseline MPKI"],
        rows,
    )

    # With 2 MB pages the baseline TLBs already cover the footprint: the
    # translation traffic that reaches the L2/IOMMU is negligible.  (For
    # the smallest footprints even the L1 TLBs suffice, so the L2 hit
    # rate can be 0/0; MPKI is the robust criterion.)
    for app in SINGLE_APPS:
        assert single[app][1].mpki < 0.02, app
    # ...so least-TLB's gains are small, and it must not hurt.
    speedups = [single[a][0] for a in SINGLE_APPS] + list(multi.values())
    assert all(0.97 < s < 1.15 for s in speedups)
    # Large-page gains are far below the 4 KB gains.
    small_page_gain = results["KM", "least-tlb"].speedup_vs(results["KM", "baseline"])
    assert single["KM"][0] < small_page_gain
