"""Synthetic workload generation reproducing the paper's benchmarks.

Public names load on first use (see :mod:`repro._lazy`): the name
tables and trace-file identity helpers are numpy-free, the generators
and the trace parser are not.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.workloads.applications": (
        "APPLICATIONS",
        "ApplicationSpec",
        "application_footprint",
        "classify_mpki",
        "generate_application_traces",
        "generate_gpu_trace",
        "get_application",
    ),
    "repro.workloads.tables": (
        "APPLICATION_NAMES",
        "MIX_WORKLOADS",
        "MULTI_APP_WORKLOADS",
        "SCALED_WORKLOADS",
        "SINGLE_APP_NAMES",
        "workload_category",
    ),
    "repro.workloads.multi_app": (
        "build_alone_workload",
        "build_mix_workload",
        "build_multi_app_workload",
        "build_single_app_workload",
    ),
    "repro.workloads.errors": ("TraceFormatError",),
    "repro.workloads.trace_files": ("SPLIT_POLICIES", "sniff_format", "trace_digest"),
    "repro.workloads.ingest": (
        "IngestResult",
        "IngestStats",
        "ingest_trace",
        "iter_trace_chunks",
        "synthesize_k6_trace",
        "write_k6_trace",
    ),
    "repro.workloads.patterns": (
        "PATTERNS",
        "PatternParams",
        "generate_page_runs",
        "partition_bounds",
    ),
    "repro.workloads.trace": ("CUStream", "GPUTrace", "Placement", "Workload"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
