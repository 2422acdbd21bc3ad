"""Figure 16 — least-TLB normalized performance, multi-application.

Paper: up to +59.1%, average +16.3% weighted speedup over the baseline;
gains are larger for workloads with severe IOMMU contention and, within a
workload, for the higher-MPKI applications; even the all-high W10 gains
thanks to interleaved intensity phases.
"""

from common import MULTI_APP_WORKLOADS, alone_refs, save_table
from repro.metrics.weighted_speedup import normalized_weighted_speedup

WORKLOADS = tuple(MULTI_APP_WORKLOADS)


def test_fig16_multi_app_performance(runs):
    results = runs("fig16_multi_app_perf")
    alone = alone_refs(results, WORKLOADS)

    rows = []
    norm_ws = {}
    per_app_speedups = {}
    for wl in WORKLOADS:
        apps, category = MULTI_APP_WORKLOADS[wl]
        base, least = results[wl, "baseline"], results[wl, "least-tlb"]
        speedups = least.per_app_speedup_vs(base)
        per_app_speedups[wl] = speedups
        norm_ws[wl] = normalized_weighted_speedup(least, base, alone)
        rows.append([wl, category] + [speedups[p] for p in sorted(speedups)] + [norm_ws[wl]])
    mean_norm = sum(norm_ws.values()) / len(norm_ws)
    rows.append(["MEAN", "", "", "", "", "", mean_norm])
    save_table(
        "fig16_multi_app_perf",
        "Figure 16: multi-application normalized performance "
        "(paper: avg +16.3% weighted speedup, up to +59.1%)",
        ["wl", "cat", "app1", "app2", "app3", "app4", "norm WS"],
        rows,
    )

    # Average improvement is real; no workload regresses materially.
    assert mean_norm > 1.04
    assert all(v > 0.98 for v in norm_ws.values())
    # The all-low mix has nothing to gain; contended mixes gain most.
    assert norm_ws["W1"] < 1.02
    assert max(norm_ws.values()) > 1.15
    assert norm_ws["W8"] > norm_ws["W1"]
    # Within mixed workloads, the M/H applications improve more than the
    # L applications (paper: the yellow bars).
    for wl in ("W4", "W5"):
        s = per_app_speedups[wl]
        low_apps = (s[1], s[2])
        high_apps = (s[3], s[4])
        assert max(high_apps) > max(low_apps)
    # W10 (HHHH) still gains via phase-aware spilling.
    assert norm_ws["W10"] > 1.03
