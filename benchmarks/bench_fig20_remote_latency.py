"""Figure 20 — sensitivity to the remote GPU access latency.

Three designs, as in the paper:

* baseline (mostly-inclusive) — flat: it never touches remote GPUs;
* remote-only (tracker positives go remote first; the walk starts only on
  a remote miss) — degrades as remote latency grows and crosses *below*
  the baseline once a remote round trip costs more than walking;
* least-TLB (remote raced with the walk) — never falls below baseline:
  the walk bounds its latency, so slow remotes only lose the race.

The paper places the crossover at ~3.5-5x the DRAM-walk latency.  The
sweep runs in a latency-bound configuration (walker pool sized so queueing
does not dominate): in a throughput-starved system even an arbitrarily
slow remote hit is profitable because it relieves the walkers, and the
crossover the paper measures would be invisible.
"""

from common import save_table

SCALES = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
APP = "MM"


def test_fig20_remote_latency_sweep(runs):
    results = runs("fig20_remote_latency")
    base = results[APP, "baseline"]
    series = {}
    for scale in SCALES:
        remote_only = results[APP, "remote-only", scale]
        raced = results[APP, "least-tlb", scale]
        series[scale] = (
            remote_only.speedup_vs(base),
            raced.speedup_vs(base),
            remote_only.apps[1].mean_translation_latency,
        )

    rows = [
        [scale, 1.0, series[scale][0], series[scale][1], series[scale][2]]
        for scale in SCALES
    ]
    save_table(
        "fig20_remote_latency",
        "Figure 20: normalized performance vs remote access latency "
        "(baseline flat at 1.0; paper crossover at ~3.5-5x)",
        ["latency scale", "baseline", "remote-only", "least-TLB (raced)",
         "remote-only mean lat"],
        rows,
    )

    serial = {s: v[0] for s, v in series.items()}
    raced = {s: v[1] for s, v in series.items()}
    # The serial variant's translation latency grows with remote latency...
    assert series[16.0][2] > series[0.5][2] * 1.2
    # ...and it eventually crosses below the baseline (the paper's
    # crossover: waiting for a slow remote is worse than walking).
    assert serial[0.5] > 0.99
    assert serial[16.0] < 0.95
    assert serial[16.0] < min(serial[0.5], serial[1.0])
    # The raced design is robust at every latency: the walk bounds it.
    assert all(v > 0.97 for v in raced.values())
    # Beyond the crossover, racing clearly beats waiting.
    assert raced[16.0] > serial[16.0] + 0.05
