"""Ablation — inclusion disciplines (Section 2.2's design space).

Orders the classical managements against least-TLB on the same
workloads: strictly-inclusive (back-invalidations), mostly-inclusive (the
baseline), exclusive (victim TLB without sharing), and least-TLB
(victim TLB + tracker + sharing).  The gap between exclusive and
least-TLB isolates the value of the Local TLB Tracker.
"""

from common import save_table

APPS = ("KM", "PR", "MM", "ST")
POLICIES = ("strictly-inclusive", "baseline", "exclusive", "least-tlb")


def test_ablation_inclusion_policies(runs):
    results = runs("abl_policies")
    out = {
        (app, policy): results[app, policy].speedup_vs(results[app, "baseline"])
        for app in APPS
        for policy in POLICIES
    }

    rows = [[app] + [out[(app, p)] for p in POLICIES] for app in APPS]
    means = [sum(out[(a, p)] for a in APPS) / len(APPS) for p in POLICIES]
    rows.append(["MEAN"] + means)
    save_table(
        "abl_policies",
        "Ablation: inclusion disciplines (speedup over mostly-inclusive)",
        ["app", *POLICIES],
        rows,
    )

    mean = dict(zip(POLICIES, means))
    # Strict inclusion pays back-invalidations: never better than baseline.
    assert mean["strictly-inclusive"] <= 1.02
    # The victim-TLB discipline alone already helps on these workloads...
    assert mean["exclusive"] > 1.0
    # ...and tracker-based sharing adds more for the sharing apps.
    sharing_apps = ("PR", "MM", "ST")
    exclusive_sharing = sum(out[(a, "exclusive")] for a in sharing_apps) / 3
    least_sharing = sum(out[(a, "least-tlb")] for a in sharing_apps) / 3
    assert least_sharing >= exclusive_sharing - 0.01
