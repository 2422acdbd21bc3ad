"""Figure 11 — IOMMU TLB contents during execution of W4 and W6.

The observation motivating Eviction-Counter receiver selection: GPUs
running high-thrash applications keep the most translations in the IOMMU
TLB, so the GPU with the *fewest* is the best spill receiver.
"""

from common import MULTI_APP_WORKLOADS, save_table
from repro.metrics.sharing import iommu_composition

WORKLOADS = ("W4", "W6")


def test_fig11_iommu_composition(runs):
    results = runs("fig11_iommu_composition")

    rows = []
    shares = {}
    for wl in WORKLOADS:
        apps, category = MULTI_APP_WORKLOADS[wl]
        composition = iommu_composition(results[wl, "least-tlb"].snapshots)
        shares[wl] = dict(zip(apps, composition))
        for app, share in zip(apps, composition):
            rows.append([wl, category, app, share])
    save_table(
        "fig11_iommu_composition",
        "Figure 11: average share of IOMMU TLB entries contributed per GPU "
        "(higher thrash -> more residency)",
        ["wl", "cat", "app", "IOMMU share"],
        rows,
    )

    # W4 = FFT, SC, KM, MT: the H app dominates, the L apps are negligible.
    w4 = shares["W4"]
    assert w4["MT"] == max(w4.values())
    assert w4["MT"] > 4 * max(w4["FFT"], w4["SC"])
    # W6 = FIR, AES, MT, ST: the two H apps jointly dominate.
    w6 = shares["W6"]
    assert w6["MT"] + w6["ST"] > 0.6 * sum(w6.values())
