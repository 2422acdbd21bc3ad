"""Figure 21 + Table 5 — scalability to 8 and 16 GPUs.

Paper: single-application gains average 24.1% (8 GPUs) and 22.5%
(16 GPUs); multi-application gains 20.2% and 14.0% — least-TLB keeps
delivering as the system scales.
"""

from common import save_table
from repro.workloads.multi_app import SCALED_WORKLOADS

SINGLE_APPS = ("KM", "PR", "MM", "ST")
EIGHT_GPU_WORKLOADS = ("W11", "W13")
SIXTEEN_GPU_WORKLOAD = "W16"


def test_fig21_gpu_scaling(runs):
    results = runs("fig21_gpu_scaling")
    out = {"single": {}, "multi": {}}
    for num_gpus in (8, 16):
        for app in SINGLE_APPS:
            base = results[app, "baseline", num_gpus]
            least = results[app, "least-tlb", num_gpus]
            out["single"][(num_gpus, app)] = least.speedup_vs(base)
    for wl in (*EIGHT_GPU_WORKLOADS, SIXTEEN_GPU_WORKLOAD):
        num_gpus = 16 if wl == SIXTEEN_GPU_WORKLOAD else 8
        base = results[wl, "baseline", num_gpus]
        least = results[wl, "least-tlb", num_gpus]
        out["multi"][wl] = sum(least.per_app_speedup_vs(base).values()) / len(base.apps)

    rows = [
        [f"{n} GPUs", app, out["single"][(n, app)]]
        for n in (8, 16)
        for app in SINGLE_APPS
    ]
    rows += [
        [f"{'8' if wl != 'W16' else '16'} GPUs", f"{wl} ({SCALED_WORKLOADS[wl][1]})",
         out["multi"][wl]]
        for wl in (*EIGHT_GPU_WORKLOADS, SIXTEEN_GPU_WORKLOAD)
    ]
    save_table(
        "fig21_gpu_scaling",
        "Figure 21: least-TLB speedups at 8 and 16 GPUs "
        "(paper: +24.1%/+22.5% single-app, +20.2%/+14.0% multi-app)",
        ["system", "workload", "least-TLB speedup"],
        rows,
    )

    eight = [out["single"][(8, a)] for a in SINGLE_APPS]
    sixteen = [out["single"][(16, a)] for a in SINGLE_APPS]
    # Gains persist at scale for the M/H applications.
    assert sum(eight) / len(eight) > 1.05
    assert sum(sixteen) / len(sixteen) > 1.0
    # Multi-application mixes also keep improving.
    assert out["multi"]["W11"] > 1.0
    assert out["multi"]["W16"] > 0.98
