"""Ablation — tracker implementation: cuckoo vs counting-Bloom vs oracle.

The paper chooses a cuckoo filter because the tracker needs deletions
within a fixed hardware budget.  This bench quantifies what that choice
costs relative to a perfect (oracle) tracker and how the counting-Bloom
alternative compares at equal budget.
"""

from common import save_table

APPS = ("PR", "MM", "ST")
KINDS = ("cuckoo", "bloom", "perfect")


def test_ablation_tracker_kind(runs):
    results = runs("abl_tracker")
    out = {}
    for app in APPS:
        base = results[app, "baseline"]
        for kind in KINDS:
            least = results[app, "least-tlb", kind]
            out[(app, kind)] = (
                least.speedup_vs(base),
                least.apps[1].remote_hit_rate,
                (least.tracker_stats or {}).get("false_positives", 0),
            )

    rows = [
        [app, kind, *out[(app, kind)]]
        for app in APPS
        for kind in KINDS
    ]
    save_table(
        "abl_tracker",
        "Ablation: tracker implementation (speedup over baseline, remote "
        "hit rate, false positives)",
        ["app", "tracker", "speedup", "remote rate", "false positives"],
        rows,
    )

    for app in APPS:
        cuckoo, bloom, perfect = (out[(app, k)] for k in KINDS)
        # The oracle upper-bounds both realizable filters (within noise).
        assert cuckoo[0] <= perfect[0] * 1.05, app
        # The cuckoo filter stays close to the oracle — the paper's design
        # point is sound.
        assert cuckoo[0] > perfect[0] - 0.15, app
        # The oracle never mispredicts.
        assert perfect[2] <= cuckoo[2]
