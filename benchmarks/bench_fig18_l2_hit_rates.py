"""Figure 18 — L2 TLB hit rates in multi-application execution.

Paper: spilling barely perturbs the receivers' L2 TLBs — the average L2
hit rate under least-TLB is within ~3% of the baseline, with the largest
drops in the all-high W10 where the hosts are themselves TLB-sensitive.
"""

from common import MULTI_APP_WORKLOADS, save_table

WORKLOADS = tuple(MULTI_APP_WORKLOADS)


def test_fig18_l2_hit_rates(runs):
    results = runs("fig18_l2_hit_rates")

    rows = []
    deltas = []
    for wl in WORKLOADS:
        base, least = results[wl, "baseline"], results[wl, "least-tlb"]
        apps = MULTI_APP_WORKLOADS[wl][0]
        for pid in sorted(base.apps):
            b = base.apps[pid].l2_hit_rate
            l = least.apps[pid].l2_hit_rate
            deltas.append(l - b)
            rows.append([wl, apps[pid - 1], b, l, l - b])
    save_table(
        "fig18_l2_hit_rates",
        "Figure 18: per-application L2 TLB hit rates "
        "(paper: least-TLB within ~3% of baseline on average)",
        ["wl", "app", "baseline", "least-TLB", "delta"],
        rows,
    )

    mean_delta = sum(deltas) / len(deltas)
    # Spilling must not wreck local L2 behaviour.
    assert abs(mean_delta) < 0.06
    assert min(deltas) > -0.25
