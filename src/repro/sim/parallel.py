"""Parallel experiment runner.

The paper's evaluation is an embarrassingly parallel matrix of independent
simulations: every figure/ablation bench is a set of ``(kind, workload,
policy, config, scale, seed)`` points, many shared between benches (every
weighted-speedup figure needs the same ``run_alone`` denominators, every
hit-rate figure re-reads the perf figure's runs).  This module makes that
matrix declarative:

* :class:`JobSpec` — one simulation, fully described by value;
* :data:`BENCH_MATRIX` — the experiment matrix, one entry per bench
  family, each expanding to its job specs;
* :func:`run_matrix` — deduplicate shared jobs by cache fingerprint, serve
  hits from the persistent :class:`~repro.sim.cache.ResultCache`, and fan
  the misses out over crash-isolated worker processes under the
  resilience policy of :mod:`repro.sim.resilience` (per-job deadlines,
  bounded retries, checkpoint journal).

Each unique simulation executes exactly once per matrix regardless of how
many benches request it, and exactly zero times when a previous run (of
the same code version) already cached it.
"""

from __future__ import annotations

import fnmatch
import os
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable

from repro.config.presets import (
    baseline_config,
    dws_config,
    infinite_iommu_config,
    large_page_config,
    local_page_table_config,
    remote_latency_config,
    scaled_config,
    small_iommu_config,
    spill_budget_config,
)
from repro.config.system import SystemConfig
from repro.sim.backends import validate_backend
from repro.sim.cache import ResultCache, fingerprint_digest, run_fingerprint
from repro.sim.results import SimulationResult
from repro.workloads.tables import (
    MIX_WORKLOADS,
    MULTI_APP_WORKLOADS,
    SCALED_WORKLOADS,
    SINGLE_APP_NAMES,
)
from repro.workloads.trace_files import default_trace_name, trace_workload_key

#: Job kind → the :mod:`repro.sim.driver` function that runs it.  Named,
#: not imported: the simulator (and numpy) load only where a job executes.
_RUNNERS: dict[str, str] = {
    "single": "run_single_app",
    "multi": "run_multi_app",
    "mix": "run_mix",
    "alone": "run_alone",
    "trace": "run_trace",
}


@dataclass(frozen=True)
class JobSpec:
    """One simulation of the experiment matrix, described entirely by value
    (picklable, hashable, and fingerprintable)."""

    kind: str
    workload: str
    policy: str = "baseline"
    config: SystemConfig | None = None
    """``None`` means the Table 2 baseline config."""
    scale: float = 0.5
    seed: int | None = None
    options: tuple[tuple[str, Any], ...] = ()
    """Extra ``simulate`` keyword arguments, sorted ``(name, value)``."""
    backend: str = "event"
    """Simulation backend (``event`` or ``functional``)."""

    def __post_init__(self) -> None:
        if self.kind not in _RUNNERS:
            raise ValueError(
                f"unknown job kind {self.kind!r}; choose from {sorted(_RUNNERS)}"
            )
        validate_backend(self.backend)

    def resolved_config(self) -> SystemConfig:
        """The spec's config, with ``None`` resolved to the baseline."""
        return self.config if self.config is not None else baseline_config()

    @property
    def label(self) -> str:
        """Compact human-readable identity for progress output."""
        suffix = "" if self.backend == "event" else f"+{self.backend}"
        return f"{self.kind}:{self.workload}/{self.policy}@{self.scale:g}{suffix}"

    def fingerprint(self) -> dict[str, Any]:
        """The spec's persistent-cache fingerprint.

        ``trace`` jobs are content-addressed: the workload key is the
        streaming SHA-256 of the trace file's bytes, not its path, so
        renaming or copying a trace preserves its cached results and
        editing it invalidates them.
        """
        workload: str | dict[str, str] = self.workload
        if self.kind == "trace":
            workload = trace_workload_key(self.workload)
        return run_fingerprint(
            kind=self.kind,
            workload=workload,
            policy=self.policy,
            config=self.resolved_config(),
            scale=self.scale,
            seed=self.seed,
            options=dict(self.options),
            backend=self.backend,
        )

    def execute(self) -> SimulationResult:
        """Run the simulation in the current process."""
        from repro.sim import driver

        runner = getattr(driver, _RUNNERS[self.kind])
        kwargs = dict(self.options)
        if self.backend != "event":
            kwargs["backend"] = self.backend
        return runner(
            self.workload, self.resolved_config(), self.policy,
            scale=self.scale, seed=self.seed, **kwargs,
        )


@dataclass
class JobOutcome:
    """What happened to one unique job of a matrix run.

    A failed job (worker crash, hard timeout, exhausted retries) is still
    an outcome: ``result`` is ``None`` and ``status``/``error`` describe
    the terminal failure, so one bad job degrades the matrix instead of
    aborting it (see :mod:`repro.sim.resilience`).
    """

    spec: JobSpec
    digest: str
    benches: tuple[str, ...]
    cached: bool
    seconds: float
    events: int
    total_cycles: int
    result: SimulationResult = field(repr=False, default=None)  # type: ignore[assignment]
    status: str = "ok"
    """Terminal status: ``ok``, ``failed``, ``timed_out``, or ``crashed``."""
    attempts: int = 1
    """Execution attempts consumed (0 for cache hits)."""
    error: dict[str, str] | None = None
    """``{"class", "message"}`` of the terminal failure, if any."""
    attempt_errors: tuple[str, ...] = ()
    """Per-failed-attempt tags (exception class, ``crashed``, ``timed_out``)."""
    soft_timed_out: bool = False
    """True when any attempt ran past its soft deadline."""

    @property
    def events_per_sec(self) -> float:
        """Simulation throughput (0.0 for cache hits, which do no work)."""
        if self.cached or self.seconds <= 0 or self.result is None:
            return 0.0
        return self.events / self.seconds


# -- the experiment matrix ---------------------------------------------------


def _singles(policies: Iterable[str], scale: float, seed: int | None,
             config: SystemConfig | None = None) -> list[JobSpec]:
    return [
        JobSpec("single", app, policy, config, scale, seed)
        for app in SINGLE_APP_NAMES
        for policy in policies
    ]


def _multis(workloads: Iterable[str], policies: Iterable[str], scale: float,
            seed: int | None, config: SystemConfig | None = None) -> list[JobSpec]:
    return [
        JobSpec("multi", wl, policy, config, scale, seed)
        for wl in workloads
        for policy in policies
    ]


def _alones_for(workloads: Iterable[str], scale: float, seed: int | None) -> list[JobSpec]:
    apps: set[str] = set()
    for wl in workloads:
        table = {**MULTI_APP_WORKLOADS, **SCALED_WORKLOADS}
        if wl in table:
            apps.update(table[wl][0])
        elif wl in MIX_WORKLOADS:
            for a, b in MIX_WORKLOADS[wl][0]:
                apps.update((a, b))
    return [JobSpec("alone", app, "baseline", None, scale, seed) for app in sorted(apps)]


def _fig16_jobs(scale: float, seed: int | None) -> list[JobSpec]:
    workloads = tuple(MULTI_APP_WORKLOADS)
    return (
        _multis(workloads, ("baseline", "least-tlb"), scale, seed)
        + _alones_for(workloads, scale, seed)
    )


def _fig21_jobs(scale: float, seed: int | None) -> list[JobSpec]:
    jobs = _multis(
        ("W11", "W12", "W13", "W14", "W15"), ("baseline", "least-tlb"),
        scale, seed, scaled_config(8),
    )
    jobs += _multis(("W16",), ("baseline", "least-tlb"), scale, seed, scaled_config(16))
    return jobs


#: Figure 19's workload set (multi-app spilling-sensitivity sweep).
_FIG19_WORKLOADS = ("W2", "W4", "W5", "W8", "W9", "W10")


def _fig19_jobs(scale: float, seed: int | None) -> list[JobSpec]:
    return (
        _multis(_FIG19_WORKLOADS, ("baseline", "least-tlb"), scale, seed)
        + _multis(_FIG19_WORKLOADS, ("least-tlb",), scale, seed,
                  spill_budget_config(2))
    )


#: Figure 20's remote-latency multipliers (relative to the DRAM walk).
_FIG20_SCALES = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


def _fig20_config(latency_scale: float) -> SystemConfig:
    """The bench's latency-bound sweep point: walker pool sized so
    queueing does not mask the latency crossover."""
    config = remote_latency_config(latency_scale)
    return config.derive(iommu=replace(config.iommu, walker_threads=8))


def _fig20_jobs(scale: float, seed: int | None) -> list[JobSpec]:
    jobs = [JobSpec("single", "MM", "baseline", _fig20_config(1.0), scale, seed)]
    for latency_scale in _FIG20_SCALES:
        config = _fig20_config(latency_scale)
        jobs.append(JobSpec(
            "single", "MM", "least-tlb", config, scale, seed,
            options=(("policy_options", {"race_ptw": False}),),
        ))
        jobs.append(JobSpec("single", "MM", "least-tlb", config, scale, seed))
    return jobs


def _fig22_jobs(scale: float, seed: int | None) -> list[JobSpec]:
    workloads = tuple(MIX_WORKLOADS)
    return [
        JobSpec("mix", wl, policy, None, scale, seed)
        for wl in workloads
        for policy in ("baseline", "least-tlb")
    ] + _alones_for(workloads, scale, seed)


#: The full experiment matrix: bench family → job-spec builder.  Builders
#: take ``(scale, seed)`` so one flag rescales the whole matrix uniformly.
BENCH_MATRIX: dict[str, Callable[[float, int | None], list[JobSpec]]] = {
    "fig02_baseline_hit_rates": lambda s, d: _singles(("baseline",), s, d),
    "fig03_infinite_iommu": lambda s, d: _singles(("baseline",), s, d)
    + _singles(("baseline",), s, d, infinite_iommu_config()),
    "fig14_single_app_perf": lambda s, d: _singles(("baseline", "least-tlb"), s, d),
    "fig15_single_app_hit_rates": lambda s, d: _singles(("baseline", "least-tlb"), s, d),
    "fig16_multi_app_perf": _fig16_jobs,
    "fig17_multi_app_hit_rates": _fig16_jobs,
    "fig19_spill_counter": _fig19_jobs,
    "fig20_remote_latency": _fig20_jobs,
    "fig21_gpu_scaling": _fig21_jobs,
    "fig22_mix_workload": _fig22_jobs,
    "fig23_local_page_tables": lambda s, d: _singles(
        ("baseline", "least-tlb"), s, d, local_page_table_config()
    ),
    "fig24_large_pages": lambda s, d: _singles(
        ("baseline", "least-tlb"), s, d, large_page_config()
    ),
    "fig25_tlb_probing": lambda s, d: _singles(("tlb-probing",), s, d)
    + _multis(tuple(MULTI_APP_WORKLOADS), ("tlb-probing",), s, d),
    "fig26_dws": lambda s, d: _multis(
        tuple(MULTI_APP_WORKLOADS), ("baseline", "least-tlb"), s, d, dws_config()
    ),
    "abl_policies": lambda s, d: _singles(
        ("baseline", "strictly-inclusive", "exclusive", "least-tlb"), s, d
    ),
    "sens_iommu_size": lambda s, d: _multis(
        tuple(MULTI_APP_WORKLOADS), ("baseline", "least-tlb"), s, d, small_iommu_config()
    ),
}


def bench_names() -> list[str]:
    """Every bench family of the matrix, in declaration order."""
    return list(BENCH_MATRIX)


def select_benches(pattern: str | None) -> list[str]:
    """Bench families matching an ``fnmatch`` pattern (``None`` → all).

    Raises :class:`KeyError` when nothing matches, so the CLI can report a
    usage error with the valid names.
    """
    names = bench_names()
    if pattern is None:
        return names
    matched = [n for n in names if fnmatch.fnmatch(n, pattern) or pattern in n]
    if not matched:
        raise KeyError(pattern)
    return matched


def expand_matrix(
    benches: Iterable[str],
    *,
    scale: float,
    seed: int | None = None,
    backend: str = "event",
) -> list[tuple[str, JobSpec]]:
    """Expand bench families into their ``(bench, spec)`` pairs.

    ``backend`` rewrites every expanded spec to run on that backend (the
    matrix builders declare jobs backend-agnostically).
    """
    validate_backend(backend)
    pairs: list[tuple[str, JobSpec]] = []
    for bench in benches:
        for spec in BENCH_MATRIX[bench](scale, seed):
            if backend != spec.backend:
                spec = replace(spec, backend=backend)
            pairs.append((bench, spec))
    return pairs


#: Policies a trace-backed bench family compares (the paper's headline pair).
TRACE_FAMILY_POLICIES = ("baseline", "least-tlb")


def trace_family(path: str) -> str:
    """The dynamic bench-family name of an ingested trace file."""
    return f"trace_{default_trace_name(path)}"


def trace_bench_pairs(
    path: str,
    *,
    scale: float,
    seed: int | None = None,
    split: str = "round-robin",
    backend: str = "event",
) -> list[tuple[str, JobSpec]]:
    """Expand one ingested trace into a ``(bench, spec)`` family.

    The family mirrors the perf figures' shape — the trace under every
    :data:`TRACE_FAMILY_POLICIES` policy — so a foreign trace slots into
    ``run_matrix`` (dedup, cache, resilience) exactly like a fig02–fig26
    family.  The ``split`` policy always rides in ``options`` so it keys
    the cache fingerprint.
    """
    family = trace_family(path)
    return [
        (
            family,
            JobSpec(
                "trace", path, policy, None, scale, seed,
                options=(("split", split),), backend=backend,
            ),
        )
        for policy in TRACE_FAMILY_POLICIES
    ]


# -- execution ---------------------------------------------------------------


def default_workers() -> int:
    """Pool size: every core, floor one."""
    return max(1, os.cpu_count() or 1)


def dedupe_jobs(
    pairs: Iterable[tuple[str, JobSpec]]
) -> list[tuple[JobSpec, dict[str, Any], str, tuple[str, ...]]]:
    """Collapse the matrix to unique simulations by cache fingerprint.

    Returns ``(spec, fingerprint, digest, benches)`` per unique job, in
    first-appearance order; ``benches`` lists every family that wanted it.
    """
    seen: dict[str, tuple[JobSpec, dict[str, Any], list[str]]] = {}
    order: list[str] = []
    for bench, spec in pairs:
        fingerprint = spec.fingerprint()
        digest = fingerprint_digest(fingerprint)
        if digest not in seen:
            seen[digest] = (spec, fingerprint, [])
            order.append(digest)
        if bench not in seen[digest][2]:
            seen[digest][2].append(bench)
    return [
        (seen[d][0], seen[d][1], d, tuple(seen[d][2])) for d in order
    ]


def run_matrix(
    pairs: Iterable[tuple[str, JobSpec]],
    *,
    workers: int | None = None,
    cache: ResultCache | None = None,
    progress: Callable[[str], None] | None = None,
    **resilience_kwargs: Any,
) -> list[JobOutcome]:
    """Run a (bench, spec) matrix: dedupe, serve cache hits, fan out misses.

    Execution is delegated to :func:`repro.sim.resilience.run_matrix_resilient`
    — every attempt runs in a crash-isolated worker process under per-job
    deadlines and bounded retries, and failures degrade into
    ``status``-carrying outcomes instead of aborting the matrix.
    ``resilience_kwargs`` forwards ``policy``/``chaos``/``journal``/``resume``.

    ``workers=1`` executes in-process (no worker processes), which keeps
    ``--profile`` meaningful and avoids fork overhead for tiny matrices.
    """
    # Imported here: resilience imports this module for the matrix types.
    from repro.sim.resilience import run_matrix_resilient

    return run_matrix_resilient(
        pairs, workers=workers, cache=cache, progress=progress,
        **resilience_kwargs,
    )


def failed_jobs_manifest(outcomes: list[JobOutcome]) -> list[dict[str, Any]]:
    """The structured failure manifest of one matrix run."""
    return [
        {
            "benches": list(o.benches),
            "label": o.spec.label,
            "digest": o.digest,
            "status": o.status,
            "error_class": (o.error or {}).get("class"),
            "error": (o.error or {}).get("message"),
            "attempts": o.attempts,
        }
        for o in outcomes
        if o.result is None
    ]


def families_without_results(
    pairs: Iterable[tuple[str, JobSpec]], outcomes: list[JobOutcome]
) -> list[str]:
    """Bench families whose every job failed (zero usable results)."""
    wanted: dict[str, bool] = {}
    for bench, _spec in pairs:
        wanted.setdefault(bench, False)
    for outcome in outcomes:
        if outcome.result is None:
            continue
        for bench in outcome.benches:
            wanted[bench] = True
    return [bench for bench, usable in wanted.items() if not usable]


def matrix_summary(outcomes: list[JobOutcome]) -> dict[str, Any]:
    """Aggregate statistics of one matrix run, for reporting and JSON.

    Besides the throughput numbers, the summary carries the resilience
    telemetry — retry/timeout/crash counters and the ``failed_jobs``
    manifest — so a degraded sweep is auditable from its JSON alone.
    """
    simulated = [o for o in outcomes if not o.cached and o.result is not None]
    failed = [o for o in outcomes if o.result is None]
    sim_seconds = sum(o.seconds for o in simulated)
    sim_events = sum(o.events for o in simulated)
    return {
        "unique_jobs": len(outcomes),
        "cache_hits": sum(1 for o in outcomes if o.cached),
        "simulated": len(simulated),
        "failed": len(failed),
        "retries": sum(max(0, o.attempts - 1) for o in outcomes),
        "timed_out": sum(1 for o in outcomes if o.status == "timed_out"),
        "soft_timeouts": sum(1 for o in outcomes if o.soft_timed_out),
        "worker_crashes": sum(
            1 for o in outcomes for tag in o.attempt_errors if tag == "crashed"
        ),
        "simulated_seconds": sim_seconds,
        "simulated_events": sim_events,
        "events_per_sec": (sim_events / sim_seconds) if sim_seconds > 0 else 0.0,
        "failed_jobs": failed_jobs_manifest(outcomes),
    }
