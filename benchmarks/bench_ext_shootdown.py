"""Extension — TLB shootdown cost (Section 4.4's coherence discussion).

The paper argues least-TLB handles shootdowns gracefully: the tracker is
reset with the IOMMU TLB, stale remote probes fall back to the racing
walk, and orphaned spilled entries age out of the L2s.  This bench
injects periodic full shootdowns (page-migration epochs) and checks that

* shootdowns cost both designs re-walk traffic, and
* least-TLB's *relative* advantage survives the churn (no pathological
  interaction between tracker resets and the protocol).
"""

from common import save_table

APP = "MM"
INTERVALS = (0, 50_000, 20_000)  # 0 = no shootdowns


def test_extension_shootdown_cost(runs):
    family = runs("ext_shootdown")
    results = {
        (interval, policy): family[APP, policy, interval]
        for interval in INTERVALS
        for policy in ("baseline", "least-tlb")
    }

    rows = []
    for interval in INTERVALS:
        base = results[(interval, "baseline")]
        least = results[(interval, "least-tlb")]
        rows.append([
            "none" if interval == 0 else f"every {interval:,}",
            base.metadata["shootdowns"],
            base.apps[1].counters["walks"],
            least.apps[1].counters["walks"],
            least.speedup_vs(base),
        ])
    save_table(
        "ext_shootdown",
        "Extension (Section 4.4): periodic full TLB shootdowns "
        "(page-migration churn)",
        ["shootdown interval", "count", "walks (base)", "walks (least)",
         "least speedup"],
        rows,
    )

    quiet_base = results[(0, "baseline")]
    churn_base = results[(50_000, "baseline")]
    # Shootdowns cost re-walk traffic.
    assert churn_base.apps[1].counters["walks"] > quiet_base.apps[1].counters["walks"]
    # least-TLB keeps an advantage under churn (tracker resets are safe).
    for interval in INTERVALS:
        base = results[(interval, "baseline")]
        least = results[(interval, "least-tlb")]
        assert least.speedup_vs(base) > 0.98, interval
