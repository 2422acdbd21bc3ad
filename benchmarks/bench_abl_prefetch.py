"""Ablation — sequential TLB prefetching vs least-TLB.

The paper's Table 1 classifies prefetch/speculation-style techniques as
effective for stride access and ineffective (or harmful) for irregular
access.  This bench adds a next-page prefetcher to the baseline
hierarchy.  Under a throughput-bound IOMMU, prefetches *compete with
demand walks for walker capacity*, so prefetching is net-harmful here —
far more so for irregular PageRank (half its prefetches are wasted) than
for the streaming stencil.  The stride-vs-irregular ordering survives;
least-TLB, which spends no extra walks, is pattern-independent and far
ahead — the paper's argument for avoiding speculative techniques at the
shared IOMMU.
"""

from common import save_table

APPS = ("ST", "FIR", "PR", "BS")  # two streaming, two irregular


def test_ablation_sequential_prefetch(runs):
    results = runs("abl_prefetch")
    out = {}
    for app in APPS:
        base = results[app, "baseline"]
        prefetch = results[app, "prefetch"]
        least = results[app, "least-tlb"]
        out[app] = (
            prefetch.speedup_vs(base),
            least.speedup_vs(base),
            prefetch.iommu_counters.get("prefetches_issued", 0),
        )

    rows = [[app, *out[app]] for app in APPS]
    save_table(
        "abl_prefetch",
        "Ablation: next-page TLB prefetch vs least-TLB "
        "(Table 1's stride-vs-irregular split)",
        ["app", "prefetch speedup", "least-TLB speedup", "prefetches"],
        rows,
    )

    prefetch = {a: out[a][0] for a in APPS}
    least = {a: out[a][1] for a in APPS}
    # The stride-vs-irregular ordering: prefetching costs streaming ST
    # less than random-access PR.
    assert prefetch["ST"] > prefetch["PR"]
    # least-TLB's gains do not depend on stride regularity: it matches or
    # beats the prefetcher everywhere.
    for app in APPS:
        assert least[app] >= prefetch[app] - 0.03, app
