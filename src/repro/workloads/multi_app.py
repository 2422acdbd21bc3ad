"""Workload construction: Tables 3–6 of the paper.

* single-application workloads — one Table 3 application strong-scaled
  across every GPU (Section 3.2);
* multi-application workloads W1–W10 — four applications, one per GPU
  (Table 4), classified by their L2-TLB MPKI mix;
* 8- and 16-GPU workloads W11–W16 (Table 5);
* mixed workloads W17–W19 — two applications sharing each GPU (Table 6).

The driver re-executes applications that finish early until the longest
application completes (Section 3.1.2); statistics cover only each
application's first full execution.  That behaviour lives in
:mod:`repro.sim.driver`; here we only build the first-execution traces.
"""

from __future__ import annotations

import numpy as np

from repro.config.system import SystemConfig
from repro.workloads.applications import (
    ApplicationSpec,
    application_footprint,
    generate_application_traces,
    get_application,
)
from repro.workloads.tables import (
    MIX_WORKLOADS,
    MULTI_APP_WORKLOADS,
    SCALED_WORKLOADS,
    SINGLE_APP_NAMES,
    workload_category,
)
from repro.workloads.trace import Placement, Workload

__all__ = [
    "MIX_WORKLOADS",
    "MULTI_APP_WORKLOADS",
    "SCALED_WORKLOADS",
    "SINGLE_APP_NAMES",
    "build_alone_workload",
    "build_mix_workload",
    "build_multi_app_workload",
    "build_single_app_workload",
    "workload_category",
]


def _spec_for(name: str, config: SystemConfig) -> ApplicationSpec:
    return get_application(name).scaled_to_page_size(config.page_size)


def build_single_app_workload(
    app_name: str, config: SystemConfig, *, scale: float = 1.0, seed: int | None = None
) -> Workload:
    """One application spanning all GPUs (single-application-multi-GPU)."""
    seed = config.seed if seed is None else seed
    spec = _spec_for(app_name, config)
    pid = 1
    traces = generate_application_traces(
        spec, pid, num_gpus=config.num_gpus, num_cus=config.gpu.num_cus,
        scale=scale, seed=seed,
    )
    cu_ids = list(range(config.gpu.num_cus))
    placements = [
        Placement(
            gpu_id=gpu_id, pid=pid, app_name=spec.name,
            cu_ids=cu_ids, streams=trace.cu_streams,
        )
        for gpu_id, trace in enumerate(traces)
    ]
    return Workload(
        name=spec.name,
        kind="single",
        placements=placements,
        app_names={pid: spec.name},
        footprints={pid: application_footprint(spec)},
    )


def build_multi_app_workload(
    workload: str | tuple[str, ...],
    config: SystemConfig,
    *,
    scale: float = 1.0,
    seed: int | None = None,
) -> Workload:
    """One application per GPU (multi-application-multi-GPU).

    ``workload`` is a Table 4/5 name (``"W1"``…) or an explicit tuple of
    application abbreviations, one per GPU.
    """
    seed = config.seed if seed is None else seed
    if isinstance(workload, str):
        table = {**MULTI_APP_WORKLOADS, **SCALED_WORKLOADS}
        if workload not in table:
            raise ValueError(f"unknown workload {workload!r}; choose from {sorted(table)}")
        apps, _category = table[workload]
        name = workload
    else:
        apps = tuple(workload)
        name = "+".join(apps)
    if len(apps) != config.num_gpus:
        raise ValueError(
            f"workload {name} has {len(apps)} applications but the system "
            f"has {config.num_gpus} GPUs (one application per GPU)"
        )
    placements: list[Placement] = []
    app_names: dict[int, str] = {}
    footprints: dict[int, np.ndarray] = {}
    cu_ids = list(range(config.gpu.num_cus))
    for gpu_id, app_name in enumerate(apps):
        pid = gpu_id + 1
        spec = _spec_for(app_name, config)
        (trace,) = generate_application_traces(
            spec, pid, num_gpus=1, num_cus=config.gpu.num_cus, scale=scale, seed=seed
        )
        placements.append(
            Placement(
                gpu_id=gpu_id, pid=pid, app_name=spec.name,
                cu_ids=cu_ids, streams=trace.cu_streams,
            )
        )
        app_names[pid] = spec.name
        footprints[pid] = application_footprint(spec)
    return Workload(
        name=name, kind="multi", placements=placements,
        app_names=app_names, footprints=footprints,
    )


def build_mix_workload(
    workload: str | tuple[tuple[str, str], ...],
    config: SystemConfig,
    *,
    scale: float = 1.0,
    seed: int | None = None,
) -> Workload:
    """Two applications per GPU (Table 6).  Each GPU's CUs are split
    evenly between its two applications; GPUs beyond the listed pairs stay
    idle, as in the paper's 3-pair tables on a 4-GPU system."""
    seed = config.seed if seed is None else seed
    if isinstance(workload, str):
        if workload not in MIX_WORKLOADS:
            raise ValueError(
                f"unknown mix workload {workload!r}; choose from {sorted(MIX_WORKLOADS)}"
            )
        pairs, _category = MIX_WORKLOADS[workload]
        name = workload
    else:
        pairs = tuple(workload)
        name = "+".join(f"{a}/{b}" for a, b in pairs)
    if len(pairs) > config.num_gpus:
        raise ValueError(
            f"{len(pairs)} application pairs but only {config.num_gpus} GPUs"
        )
    half = config.gpu.num_cus // 2
    placements: list[Placement] = []
    app_names: dict[int, str] = {}
    footprints: dict[int, np.ndarray] = {}
    pid = 0
    for gpu_id, pair in enumerate(pairs):
        cu_splits = (list(range(half)), list(range(half, config.gpu.num_cus)))
        for app_name, cu_ids in zip(pair, cu_splits):
            pid += 1
            spec = _spec_for(app_name, config)
            (trace,) = generate_application_traces(
                spec, pid, num_gpus=1, num_cus=len(cu_ids), scale=scale, seed=seed
            )
            placements.append(
                Placement(
                    gpu_id=gpu_id, pid=pid, app_name=spec.name,
                    cu_ids=cu_ids, streams=trace.cu_streams,
                )
            )
            app_names[pid] = spec.name
            footprints[pid] = application_footprint(spec)
    return Workload(
        name=name, kind="multi", placements=placements,
        app_names=app_names, footprints=footprints,
    )


def build_alone_workload(
    app_name: str,
    config: SystemConfig,
    *,
    gpu_id: int = 0,
    scale: float = 1.0,
    seed: int | None = None,
) -> Workload:
    """One application alone on one GPU — the denominator of the weighted
    speedup metric (``IPC_alone`` in Section 3.1)."""
    seed = config.seed if seed is None else seed
    spec = _spec_for(app_name, config)
    pid = 1
    (trace,) = generate_application_traces(
        spec, pid, num_gpus=1, num_cus=config.gpu.num_cus, scale=scale, seed=seed
    )
    placement = Placement(
        gpu_id=gpu_id, pid=pid, app_name=spec.name,
        cu_ids=list(range(config.gpu.num_cus)), streams=trace.cu_streams,
    )
    return Workload(
        name=f"{spec.name}-alone", kind="multi", placements=[placement],
        app_names={pid: spec.name}, footprints={pid: application_footprint(spec)},
    )
