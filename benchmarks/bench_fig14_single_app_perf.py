"""Figure 14 — least-TLB normalized performance, single-application.

Paper: least-TLB averages 1.24x over the baseline; the five M/H-MPKI
applications (ST, MT, MM, KM, PR) average 1.38x; least-TLB tracks the
infinite IOMMU TLB closely except for MT, whose reuse distances exceed
even the deduplicated reach.
"""

from common import SINGLE_APP_NAMES, save_table

HIGH_GAIN_APPS = ("ST", "MT", "MM", "KM", "PR")


def test_fig14_single_app_performance(runs):
    results = runs("fig14_single_app_perf")
    infinite = runs("fig03_infinite_iommu")
    speedups = {}
    for app in SINGLE_APP_NAMES:
        base = results[app, "baseline"]
        speedups[app] = (
            results[app, "least-tlb"].speedup_vs(base),
            infinite[app, "baseline", "infinite"].speedup_vs(base),
        )

    rows = [[app, *speedups[app]] for app in SINGLE_APP_NAMES]
    mean_least = sum(s[0] for s in speedups.values()) / len(speedups)
    mean_inf = sum(s[1] for s in speedups.values()) / len(speedups)
    rows.append(["MEAN", mean_least, mean_inf])
    save_table(
        "fig14_single_app_perf",
        "Figure 14: normalized performance, single-application "
        "(paper: least-TLB avg 1.24x; M/H apps avg 1.38x)",
        ["app", "least-TLB", "infinite IOMMU TLB"],
        rows,
    )

    # Meaningful average gain, led by the M/H applications.
    assert mean_least > 1.10
    high = [speedups[a][0] for a in HIGH_GAIN_APPS]
    assert sum(high) / len(high) > 1.20
    # Low-MPKI applications are not hurt.
    for app in ("FIR", "AES", "FFT"):
        assert speedups[app][0] > 0.97, app
    # least-TLB never beats the infinite upper bound (modulo noise).
    for app in SINGLE_APP_NAMES:
        least, infinite = speedups[app]
        assert least <= infinite * 1.03, app
    # MT's gap to infinite is the largest (reach-limited reuse distances).
    gaps = {a: speedups[a][1] - speedups[a][0] for a in SINGLE_APP_NAMES}
    assert gaps["MT"] == max(gaps.values())
