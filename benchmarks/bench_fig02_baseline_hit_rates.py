"""Figure 2 — L2 TLB and IOMMU TLB hit rates in the baseline execution.

Paper observation: every workload suffers low hit rates at both levels
(e.g. ST ~5% L2 / ~35% IOMMU; AES ~42% L2 / ~3% IOMMU), which is the
motivation for the whole design.
"""

from common import SINGLE_APP_NAMES, save_table


def test_fig02_baseline_hit_rates(runs):
    results = runs("fig02_baseline_hit_rates")

    rows = []
    for app in SINGLE_APP_NAMES:
        a = results[app, "baseline"].apps[1]
        rows.append([app, a.l2_hit_rate, a.iommu_hit_rate])
    save_table(
        "fig02_baseline_hit_rates",
        "Figure 2: baseline L2 TLB and IOMMU TLB hit rates",
        ["app", "L2 hit rate", "IOMMU hit rate"],
        rows,
    )

    by_app = {r[0]: r for r in rows}
    # Observation 1: hit rates are low across the board.
    for app, l2, iommu in rows:
        assert l2 < 0.95, app
        assert iommu < 0.95, app
    # The paper's contrast: high-MPKI ST has a far lower L2 hit rate than
    # low-MPKI AES, while its IOMMU hit rate is higher.
    assert by_app["ST"][1] < by_app["AES"][1]
    assert by_app["ST"][2] > by_app["AES"][2]
    # High-MPKI apps sit at the bottom of the L2 hit-rate range.
    assert by_app["MT"][1] < 0.35
    assert by_app["ST"][1] < 0.45
