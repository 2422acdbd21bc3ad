"""Figure 6 — translation redundancy during execution (MM and PR).

Paper observation 3: under the mostly-inclusive baseline, 25-30% of
L2-resident entries are duplicated in more than one GPU's L2 at the same
time, and 30-70% of entries are simultaneously in an L2 and the IOMMU
TLB.  least-TLB removes most of the cross-level redundancy.
"""

from common import save_table
from repro.metrics.sharing import mean_cross_level_duplication, mean_l2_duplication

APPS = ("MM", "PR")


def test_fig06_redundancy_snapshots(runs):
    results = runs("fig06_redundancy")

    rows = []
    for app in APPS:
        for policy in ("baseline", "least-tlb"):
            snaps = results[(app, policy)].snapshots
            rows.append([
                app, policy, len(snaps),
                mean_l2_duplication(snaps),
                mean_cross_level_duplication(snaps),
            ])
    save_table(
        "fig06_redundancy",
        "Figure 6: TLB-content redundancy (paper baseline: 25-30% cross-GPU, "
        "30-70% cross-level for MM/PR)",
        ["app", "policy", "snapshots", "dup across L2s", "also in IOMMU TLB"],
        rows,
    )

    stats = {(r[0], r[1]): (r[3], r[4]) for r in rows}
    for app in APPS:
        base_l2_dup, base_cross = stats[(app, "baseline")]
        least_l2_dup, least_cross = stats[(app, "least-tlb")]
        # The baseline wastes reach on duplication...
        assert base_cross > 0.25, app
        assert base_l2_dup > 0.10, app
        # ...and the least-inclusive hierarchy removes most of the
        # cross-level redundancy.
        assert least_cross < base_cross / 2, app
