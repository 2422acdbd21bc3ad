"""repro — a reproduction of "Improving Address Translation in Multi-GPUs
via Sharing and Spilling aware TLB Design" (Li, Yin, Zhang, Tang —
MICRO 2021).

The package is a trace-driven, discrete-event simulator of IOMMU-organised
multi-GPU systems, with the paper's least-TLB design, its mostly-inclusive
baseline, and every comparison policy the evaluation uses.

Quick start::

    from repro import run_single_app

    base = run_single_app("MM", policy="baseline", scale=0.3)
    least = run_single_app("MM", policy="least-tlb", scale=0.3)
    print(f"speedup: {least.speedup_vs(base):.2f}x")
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Public names by defining module; each module loads on first use
#: (PEP 562), so ``import repro`` costs no numpy and no simulator.
_EXPORTS = {
    "repro.config.system": (
        "GPUConfig",
        "IOMMUConfig",
        "InterconnectConfig",
        "SystemConfig",
        "TLBLevelConfig",
        "TrackerConfig",
    ),
    "repro.config.presets": (
        "baseline_config",
        "dws_config",
        "infinite_iommu_config",
        "large_page_config",
        "local_page_table_config",
        "remote_latency_config",
        "scaled_config",
        "small_iommu_config",
        "spill_budget_config",
    ),
    "repro.core.device_aware": ("DeviceAwareLeastTLBPolicy",),
    "repro.core.least_tlb": ("LeastTLBPolicy",),
    "repro.core.tracker": ("LocalTLBTracker",),
    "repro.core.overhead": ("estimate_overhead",),
    "repro.analysis.queueing": ("mm_c_wait", "walker_operating_point"),
    "repro.reporting.charts": ("bar_chart", "cdf_chart"),
    "repro.reporting.export": ("result_to_dict", "save_result_json"),
    "repro.workloads.trace_io": (
        "load_workload",
        "save_workload",
        "workload_from_page_streams",
    ),
    "repro.policies": ("policy_names", "make_policy"),
    "repro.policies.base": ("TranslationPolicy",),
    "repro.sim.results": ("AppResult", "SimulationResult", "Snapshot"),
    "repro.sim.system": ("MultiGPUSystem",),
    "repro.sim.driver": (
        "run_alone",
        "run_mix",
        "run_multi_app",
        "run_single_app",
        "simulate",
    ),
    "repro.workloads.applications": ("APPLICATIONS",),
    "repro.workloads.tables": (
        "MIX_WORKLOADS",
        "MULTI_APP_WORKLOADS",
        "SCALED_WORKLOADS",
        "SINGLE_APP_NAMES",
    ),
    "repro.workloads.trace": ("Workload",),
    "repro.workloads.multi_app": (
        "build_alone_workload",
        "build_mix_workload",
        "build_multi_app_workload",
        "build_single_app_workload",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
