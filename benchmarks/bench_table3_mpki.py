"""Table 3 — single-application workloads and their L2-TLB MPKI.

Regenerates the characterisation table: each application's measured L2
TLB MPKI and its L/M/H class.  The class (which drives every workload mix
in Table 4) must match the paper; the absolute MPKI values are
generator-calibrated and reported side by side.
"""

from common import SINGLE_APP_NAMES, save_table
from repro.workloads.applications import APPLICATIONS, classify_mpki


def test_table3_mpki_classes(runs):
    results = runs("fig02_baseline_hit_rates")

    rows = []
    for app in SINGLE_APP_NAMES:
        spec = APPLICATIONS[app]
        measured = results[app, "baseline"].apps[1].mpki
        rows.append(
            [app, spec.full_name, spec.suite, spec.paper_mpki, measured,
             classify_mpki(measured), spec.mpki_class]
        )
    save_table(
        "table3_mpki",
        "Table 3: single-application workloads (paper vs measured MPKI)",
        ["Abbr", "Application", "Suite", "paper", "measured", "class", "paper-class"],
        rows,
    )

    for app, _, _, _, measured, cls, paper_cls in rows:
        assert cls == paper_cls, f"{app}: measured MPKI {measured:.3f} is {cls}, paper {paper_cls}"
