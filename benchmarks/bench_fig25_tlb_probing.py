"""Figure 25 — comparison to the TLB-probing scheme (Valkyrie extended to
an inter-GPU L2 ring).

Paper: least-TLB outperforms ring probing by 15.7% (single-application)
and 13.1% (multi-application).  Ring probing pays two-hop probe latency on
*every* L2 miss and can only reach the two neighbours, while the tracker
answers "who has it" without broadcasting.
"""

from common import save_table

SINGLE_APPS = ("KM", "PR", "MM", "ST", "MT")
WORKLOADS = ("W5", "W8", "W9")


def test_fig25_vs_tlb_probing(runs):
    results = runs("fig25_tlb_probing")
    single = {}
    for app in SINGLE_APPS:
        base = results[app, "baseline"]
        probing = results[app, "tlb-probing"]
        least = results[app, "least-tlb"]
        single[app] = (probing.speedup_vs(base), least.speedup_vs(base))
    multi = {}
    for wl in WORKLOADS:
        base = results[wl, "baseline"]
        probing = results[wl, "tlb-probing"]
        least = results[wl, "least-tlb"]
        multi[wl] = (
            sum(probing.per_app_speedup_vs(base).values()) / len(base.apps),
            sum(least.per_app_speedup_vs(base).values()) / len(base.apps),
        )

    rows = [["single", app, *single[app]] for app in SINGLE_APPS]
    rows += [["multi", wl, *multi[wl]] for wl in WORKLOADS]
    save_table(
        "fig25_tlb_probing",
        "Figure 25: TLB probing vs least-TLB, both normalized to baseline "
        "(paper: least-TLB ahead by 15.7%/13.1%)",
        ["mode", "workload", "tlb-probing", "least-TLB"],
        rows,
    )

    # least-TLB beats ring probing in aggregate in both paradigms.
    mean_probe_s = sum(v[0] for v in single.values()) / len(single)
    mean_least_s = sum(v[1] for v in single.values()) / len(single)
    assert mean_least_s > mean_probe_s
    mean_probe_m = sum(v[0] for v in multi.values()) / len(multi)
    mean_least_m = sum(v[1] for v in multi.values()) / len(multi)
    assert mean_least_m > mean_probe_m
    # Probing cannot help inter-application mixes (no shared pages) and
    # pays probe latency: it hovers at or below baseline there.
    assert mean_probe_m < 1.05
