"""Ablation — spill receiver selection: Eviction Counters vs round-robin
vs random.

The paper's "where to spill" answer is the GPU with the fewest entries in
the IOMMU TLB (Eviction Counters).  This bench checks that the
counter-guided choice is at least as good as naive placement, i.e. the
extra 32 bits of hardware earn their keep.
"""

from common import save_table

WORKLOADS = ("W4", "W5", "W8")
POLICIES = ("counter", "round-robin", "random")


def test_ablation_receiver_policy(runs):
    results = runs("abl_receiver_policy")
    out = {}
    for wl in WORKLOADS:
        base = results[wl, "baseline"]
        for rp in POLICIES:
            least = results[wl, rp]
            speedups = least.per_app_speedup_vs(base)
            out[(wl, rp)] = (
                sum(speedups.values()) / len(speedups),
                sum(a.remote_hit_rate for a in least.apps.values()) / len(least.apps),
            )

    rows = [[wl, rp, *out[(wl, rp)]] for wl in WORKLOADS for rp in POLICIES]
    save_table(
        "abl_receiver_policy",
        "Ablation: spill receiver selection (mean app speedup, remote rate)",
        ["wl", "receiver policy", "speedup", "remote rate"],
        rows,
    )

    counter_mean = sum(out[(wl, "counter")][0] for wl in WORKLOADS) / len(WORKLOADS)
    for rp in ("round-robin", "random"):
        naive_mean = sum(out[(wl, rp)][0] for wl in WORKLOADS) / len(WORKLOADS)
        # Counter-guided placement is at least as good as naive placement.
        assert counter_mean >= naive_mean - 0.01, rp
