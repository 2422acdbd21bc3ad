"""Figure 26 — least-TLB combined with DWS page-walk scheduling.

Paper: adding the page-walk-stealing scheduler (Pratheek et al.) to
least-TLB lifts multi-application performance to +22.4%, a further +6.1%
over least-TLB alone — the TLB optimisation and the PTW optimisation
compose.
"""

from common import save_table

WORKLOADS = ("W4", "W5", "W8", "W9", "W10")


def test_fig26_least_tlb_plus_dws(runs):
    results = runs("fig26_dws")

    rows = []
    least_means = []
    combo_means = []
    for wl in WORKLOADS:
        base, least, combo = (results[wl, "baseline"], results[wl, "least-tlb"],
                              results[wl, "least-tlb", "dws"])
        s_least = sum(least.per_app_speedup_vs(base).values()) / len(base.apps)
        s_combo = sum(combo.per_app_speedup_vs(base).values()) / len(base.apps)
        least_means.append(s_least)
        combo_means.append(s_combo)
        rows.append([
            wl, s_least, s_combo,
            combo.walker_counters.get("walks_stolen", 0),
        ])
    avg_least = sum(least_means) / len(least_means)
    avg_combo = sum(combo_means) / len(combo_means)
    rows.append(["MEAN", avg_least, avg_combo, ""])
    save_table(
        "fig26_dws",
        "Figure 26: least-TLB + DWS page-walk stealing "
        "(paper: +22.4% combined, +6.1% over least-TLB alone)",
        ["wl", "least-TLB", "least-TLB + DWS", "walks stolen"],
        rows,
    )

    # The combination adds on top of least-TLB on average.
    assert avg_combo > avg_least
    # Stealing actually occurs.
    assert sum(r[3] for r in rows[:-1] if r[3] != "") > 0
