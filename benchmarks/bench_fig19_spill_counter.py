"""Figure 19 — sensitivity to the spilling counter N.

Paper: N=2 still improves over the baseline (+12.7% on average) but is
~3.1% *worse* than N=1 because extra spill chances amplify the ping-pong
"chain effect" between the L2 TLBs and the IOMMU TLB.
"""

from common import save_table

WORKLOADS = ("W2", "W4", "W5", "W8", "W9", "W10")


def test_fig19_spill_counter_n2(runs):
    results = runs("fig19_spill_counter")

    rows = []
    mean_n1 = []
    mean_n2 = []
    for wl in WORKLOADS:
        base, n1, n2 = (results[wl, "baseline"], results[wl, "least-tlb"],
                        results[wl, "least-tlb", "N=2"])
        s1 = sum(n1.per_app_speedup_vs(base).values()) / len(base.apps)
        s2 = sum(n2.per_app_speedup_vs(base).values()) / len(base.apps)
        mean_n1.append(s1)
        mean_n2.append(s2)
        rows.append([wl, s1, s2, n1.iommu_counters.get("spills", 0),
                     n2.iommu_counters.get("spills", 0)])
    avg1 = sum(mean_n1) / len(mean_n1)
    avg2 = sum(mean_n2) / len(mean_n2)
    rows.append(["MEAN", avg1, avg2, "", ""])
    save_table(
        "fig19_spill_counter",
        "Figure 19: spilling counter sensitivity "
        "(paper: N=2 gains +12.7% but trails N=1 by ~3.1%)",
        ["wl", "N=1 speedup", "N=2 speedup", "spills N=1", "spills N=2"],
        rows,
    )

    # N=2 still improves over the baseline...
    assert avg2 > 1.0
    # ...but does not beat N=1 (the chain effect).
    assert avg2 <= avg1 * 1.01
    # N=2 recirculates entries, producing more spill traffic.
    total_spills_n1 = sum(r[3] for r in rows[:-1])
    total_spills_n2 = sum(r[4] for r in rows[:-1])
    assert total_spills_n2 > total_spills_n1
