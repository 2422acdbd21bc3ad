"""Extension — device-aware (QoS) spilling for heterogeneous systems.

Section 4.4 sketches extending least-TLB with device IDs and
fairness-aware policies for heterogeneous devices sharing one IOMMU.
This bench realises the sketch on a W5-style mix (AES, FIR, PR, ST): the
latency-critical device hosting ST is given a high QoS weight, which
steers spill placement away from it, and we measure what that protection
costs the light devices.
"""

from common import MULTI_APP_WORKLOADS, save_table

WORKLOAD = "W5"  # AES, FIR, PR, ST — spills naturally flood the L apps
PROTECTED_GPU = 3  # the GPU running ST
WEIGHTS = [1.0, 1.0, 1.0, 8.0]


def test_extension_qos_aware_spilling(runs):
    results = runs("ext_qos_spilling")
    base, plain, qos = (results[WORKLOAD, policy]
                        for policy in ("baseline", "least-tlb", "least-tlb-qos"))

    apps = MULTI_APP_WORKLOADS[WORKLOAD][0]
    plain_speedups = plain.per_app_speedup_vs(base)
    qos_speedups = qos.per_app_speedup_vs(base)
    rows = []
    for pid in sorted(plain_speedups):
        rows.append([
            apps[pid - 1],
            WEIGHTS[pid - 1],
            plain_speedups[pid],
            qos_speedups[pid],
            plain.iommu_counters.get(f"spills_to_gpu{pid - 1}", 0),
            qos.iommu_counters.get(f"spills_to_gpu{pid - 1}", 0),
        ])
    save_table(
        "ext_qos_spilling",
        "Extension (Section 4.4): QoS-aware spill placement on W5 "
        "(GPU3/ST protected with weight 8)",
        ["app", "weight", "least-tlb speedup", "qos speedup",
         "spills (plain)", "spills (qos)"],
        rows,
    )

    protected = PROTECTED_GPU
    plain_spills = plain.iommu_counters.get(f"spills_to_gpu{protected}", 0)
    qos_spills = qos.iommu_counters.get(f"spills_to_gpu{protected}", 0)
    # The heavy device receives a markedly smaller share of spills...
    assert qos_spills < plain_spills or plain_spills == 0
    # ...without collapsing overall behaviour: mean speedup stays within
    # a few percent of plain least-TLB.
    mean_plain = sum(plain_speedups.values()) / len(plain_speedups)
    mean_qos = sum(qos_speedups.values()) / len(qos_speedups)
    assert mean_qos > mean_plain - 0.05
