"""Figure 22 + Table 6 — mixed workloads: two applications per GPU.

Paper: with two applications of different MPKI sharing each GPU, least-TLB
still improves performance by an average of 9.8% — the design is not tied
to one-application-per-GPU placement.
"""

from common import save_table
from repro.workloads.multi_app import MIX_WORKLOADS

WORKLOADS = tuple(MIX_WORKLOADS)


def test_fig22_mix_workloads(runs):
    results = runs("fig22_mix_workload")

    rows = []
    means = {}
    for wl in WORKLOADS:
        base, least = results[wl, "baseline"], results[wl, "least-tlb"]
        speedups = least.per_app_speedup_vs(base)
        means[wl] = sum(speedups.values()) / len(speedups)
        pairs_str = ", ".join(
            f"{a}+{b}" for a, b in MIX_WORKLOADS[wl][0]
        )
        rows.append([wl, pairs_str, MIX_WORKLOADS[wl][1], means[wl]])
    overall = sum(means.values()) / len(means)
    rows.append(["MEAN", "", "", overall])
    save_table(
        "fig22_mix_workload",
        "Figure 22: mixed workloads, two applications per GPU "
        "(paper: +9.8% on average)",
        ["wl", "pairs", "cat", "mean app speedup"],
        rows,
    )

    # least-TLB still helps with co-located applications.
    assert overall > 1.0
    assert all(m > 0.97 for m in means.values())
