"""Figure 7 — per-application slowdown and weighted speedup under
baseline multi-application execution.

Paper observations: IOMMU contention degrades individual applications
(negligibly in W1, by up to ~77% in W10); within a workload the
higher-MPKI application degrades more; the same application degrades more
when co-run with heavier partners (MT in W9 vs W6).
"""

from common import MULTI_APP_WORKLOADS, alone_refs, save_table
from repro.metrics.weighted_speedup import per_app_slowdowns, weighted_speedup

WORKLOADS = tuple(MULTI_APP_WORKLOADS)


def test_fig07_baseline_contention(runs):
    results = runs("fig07_multiapp_slowdown")
    alone = alone_refs(results, WORKLOADS)
    mixes = {wl: results[wl, "baseline"] for wl in WORKLOADS}

    rows = []
    ws = {}
    slowdowns = {}
    for wl in WORKLOADS:
        apps, category = MULTI_APP_WORKLOADS[wl]
        per_app = per_app_slowdowns(mixes[wl], alone)
        slowdowns[wl] = per_app
        ws[wl] = weighted_speedup(mixes[wl], alone)
        rows.append(
            [wl, category]
            + [per_app[pid] for pid in sorted(per_app)]
            + [ws[wl], ws[wl] / len(apps)]
        )
    save_table(
        "fig07_multiapp_slowdown",
        "Figure 7: per-app slowdown (IPC mix / IPC alone) and weighted "
        "speedup, baseline (paper: W1 minor, W10 down ~77%)",
        ["wl", "cat", "app1", "app2", "app3", "app4", "WS", "WS/N"],
        rows,
    )

    # All-low W1 barely degrades; all-high W10 collapses.
    assert ws["W1"] / 4 > 0.9
    assert ws["W10"] / 4 < 0.5
    assert ws["W10"] < ws["W1"]
    # Within W6 (FIR, AES, MT, ST): the high-MPKI apps lose more than the
    # low-MPKI ones.
    w6 = slowdowns["W6"]
    assert min(w6[3], w6[4]) < min(w6[1], w6[2])
    # MT suffers more in W9 (MMHH partners) than in W6 (LLHH partners).
    mt_w6 = slowdowns["W6"][3]
    mt_w9 = slowdowns["W9"][3]
    assert mt_w9 < mt_w6
