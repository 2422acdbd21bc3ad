"""Job canonicalization: the parameters of one simulation → a :class:`JobSpec`.

``repro run`` and ``repro serve`` name a simulation by the same fields —
workload, kind, policy, config preset, scale, seed, backend and options —
and must turn them into the same :class:`~repro.sim.parallel.JobSpec`: the
daemon's dedup rests on a served job fingerprinting exactly like the local
run, and ``repro run --server`` prints what the local run prints.
:func:`job_spec` is that one canonicalization.  A local ``repro run``
executes the spec it returns, ``--server`` posts :func:`spec_request` of
it, and the daemon's :func:`repro.serve.requests.parse_job` calls it on
every JSON job.

Semantics:

* ``kind`` may be omitted: :func:`infer_kind` reads it off the workload
  name ("single" for a Table 3 application, "multi" for a Table 4/5
  W-name, "mix" for a Table 6 mix name).  ``alone`` and ``trace`` runs
  name their kind; a ``trace`` job's workload is the path of a k6/mase
  trace file (fingerprinted by content digest), and its GPU ``split``
  policy rides in ``options``, defaulting to round-robin explicitly like
  ``repro bench --trace`` records it;
* ``config`` names a preset (:data:`repro.config.presets.CONFIG_PRESETS`)
  and a non-null ``seed`` derives the config seed too, so a seeded run is
  bit-identical however it was submitted;
* ``options`` use the names of :data:`OPTION_KEYS`; a false or zero value
  is the same as leaving the option out, so ``max_events`` or
  ``max_cycles`` of 0 means no cap.

Anything malformed raises :class:`RequestError` naming the offending
field: the CLI reports it as a usage error (exit 2), the daemon as HTTP
400.  The module loads only what ``repro.cli`` already has, so the CLI's
argument types share :func:`check_scale` and :func:`check_seed`; the spec
classes are imported where a spec is built.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.config.presets import CONFIG_PRESETS, resolve_preset
from repro.policies import policy_names
from repro.sim.backends import BACKENDS
from repro.workloads.tables import (
    APPLICATION_NAMES,
    MIX_WORKLOADS,
    MULTI_APP_WORKLOADS,
    SCALED_WORKLOADS,
)
from repro.workloads.trace_files import SPLIT_POLICIES

if TYPE_CHECKING:
    from repro.sim.parallel import JobSpec

#: Trace-length scale of a job that names none.
DEFAULT_SCALE = 0.3

#: Largest accepted trace-length scale.
MAX_SCALE = 4.0

#: ``options`` keys, mapped to the ``simulate`` keyword each becomes.
#: Anything else is rejected — no caller forwards arbitrary kwargs into
#: the engine.
OPTION_KEYS = {
    "record_stream": "record_iommu_stream",
    "snapshot_interval": "snapshot_interval",
    "timeline": "telemetry",
    "max_cycles": "max_cycles",
    "max_events": "max_events",
    "check_invariants": "check_invariants",
    "split": "split",
}


class RequestError(ValueError):
    """A malformed job description (CLI exit 2, HTTP 400)."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`RequestError` with ``message`` unless ``condition``."""
    if not condition:
        raise RequestError(message)


def check_count(value: Any, field: str, *, minimum: int = 0) -> int:
    """An integer ``>= minimum`` (a boolean is not an integer here)."""
    require(isinstance(value, int) and not isinstance(value, bool),
            f"{field} must be an integer, got {value!r}")
    require(value >= minimum, f"{field} must be >= {minimum}, got {value}")
    return value


def check_seed(value: Any, field: str = "seed") -> int:
    """A random seed: an integer ``>= 0``."""
    return check_count(value, field)


def check_scale(value: Any, field: str = "scale") -> float:
    """A trace-length scale: a number in ``(0, MAX_SCALE]`` (so never NaN
    or infinite)."""
    require(isinstance(value, (int, float)) and not isinstance(value, bool),
            f"{field} must be a number, got {value!r}")
    scale = float(value)
    require(0.0 < scale <= MAX_SCALE,
            f"{field} must be in (0, {MAX_SCALE:g}], got {scale!r}")
    return scale


def check_backend(value: Any) -> str:
    """A simulation backend name, spelled exactly."""
    require(value in BACKENDS,
            f"unknown backend {value!r}; choose from {', '.join(BACKENDS)}")
    return value


def infer_kind(workload: str) -> str:
    """The runner kind a workload name implies."""
    upper = workload.upper()
    if upper in APPLICATION_NAMES:
        return "single"
    if upper in MULTI_APP_WORKLOADS or upper in SCALED_WORKLOADS:
        return "multi"
    if upper in MIX_WORKLOADS:
        return "mix"
    raise RequestError(
        f"unknown workload {workload!r}: not a Table 3 application, a "
        "multi-app workload, or a mix name"
    )


def _validate_workload(kind: str, workload: str) -> str:
    upper = workload.upper()
    tables: dict[str, bool] = {
        "single": upper in APPLICATION_NAMES,
        "alone": upper in APPLICATION_NAMES,
        "multi": upper in MULTI_APP_WORKLOADS or upper in SCALED_WORKLOADS,
        "mix": upper in MIX_WORKLOADS,
        "trace": True,  # validated below: a trace file path
    }
    require(kind in tables, f"unknown job kind {kind!r}; choose from {sorted(tables)}")
    if kind == "trace":
        # The path names a file on the machine that runs the job; the
        # fingerprint is content-addressed, so the path only locates the
        # bytes.  Existence is the only check here (a stat, safe on the
        # daemon's event loop — reading the file would block it); a
        # malformed trace surfaces as the run's typed TraceFormatError.
        require(Path(workload).is_file(), f"trace file {workload!r} does not exist")
        return workload
    require(tables[kind], f"workload {workload!r} is not a {kind!r} workload")
    return upper


def parse_options(payload: Any) -> tuple[tuple[str, Any], ...]:
    """Canonicalize a job's ``options`` object to ``JobSpec.options``."""
    if payload is None:
        return ()
    require(isinstance(payload, dict), f"options must be an object, got {payload!r}")
    options: dict[str, Any] = {}
    for key, value in payload.items():
        require(key in OPTION_KEYS,
                f"unknown option {key!r}; choose from {sorted(OPTION_KEYS)}")
        if key in ("record_stream", "check_invariants"):
            require(isinstance(value, bool), f"options.{key} must be a boolean")
            if value:
                options[OPTION_KEYS[key]] = True
        elif key == "split":
            require(isinstance(value, str) and value in SPLIT_POLICIES,
                    f"options.split must be one of {', '.join(SPLIT_POLICIES)}, "
                    f"got {value!r}")
            options["split"] = value
        elif key == "timeline":
            interval = check_count(value, "options.timeline")
            if interval:
                from repro.telemetry import TelemetryConfig

                options["telemetry"] = TelemetryConfig(
                    sample_rate=0.0, timeline_interval=interval
                )
        else:
            number = check_count(value, f"options.{key}")
            if number:
                options[OPTION_KEYS[key]] = number
    return tuple(sorted(options.items()))


def job_spec(
    *,
    workload: Any = None,
    kind: Any = None,
    policy: Any = "baseline",
    config: Any = "baseline",
    scale: Any = DEFAULT_SCALE,
    seed: Any = None,
    backend: Any = "event",
    options: Any = None,
) -> JobSpec:
    """The :class:`JobSpec` of one simulation, validated field by field."""
    from repro.sim.parallel import JobSpec

    require(isinstance(workload, str) and bool(workload),
            "job.workload is required and must be a string")
    if kind is None:
        kind = infer_kind(workload)
    require(isinstance(kind, str), f"job.kind must be a string, got {kind!r}")
    workload = _validate_workload(kind, workload)
    require(policy in policy_names(),
            f"unknown policy {policy!r}; choose from {', '.join(policy_names())}")
    require(isinstance(config, str) and config in CONFIG_PRESETS,
            f"unknown config preset {config!r}; choose from {sorted(CONFIG_PRESETS)}")
    scale = check_scale(scale, "job.scale")
    if seed is not None:
        seed = check_seed(seed, "job.seed")
    check_backend(backend)

    spec_options = parse_options(options)
    if kind == "trace":
        # The split policy keys the cache fingerprint; default it
        # explicitly so every trace job canonicalizes like ``repro bench
        # --trace`` (which always records it).
        if not any(name == "split" for name, _ in spec_options):
            spec_options = tuple(sorted((*spec_options, ("split", "round-robin"))))
    else:
        require(not any(name == "split" for name, _ in spec_options),
                "options.split only applies to trace jobs")

    # A seed derives the config seed too (``SystemConfig.seed``).
    preset = resolve_preset(config)
    if seed is not None:
        preset = preset.derive(seed=seed)
    # The Table 2 baseline stays ``None`` so explicit jobs share cache
    # fingerprints with the bench matrix's baseline-config specs.
    spec_config = None if config == "baseline" and seed is None else preset
    return JobSpec(
        kind=kind,
        workload=workload,
        policy=policy,
        config=spec_config,
        scale=scale,
        seed=seed,
        options=spec_options,
        backend=backend,
    )


def spec_request(spec: JobSpec) -> dict[str, Any] | None:
    """The job object :func:`job_spec` turns back into ``spec``, or ``None``.

    ``repro run --server`` submits it, and the daemon's drain journal
    records it so queued-but-unstarted work survives a SIGTERM as
    something a client can POST again.  A spec is representable when its
    config is ``None`` (the shared baseline) or matches a named preset
    (derived with the spec's seed, the way :func:`job_spec` builds it);
    anything else — e.g. a bench-matrix spec carrying a bespoke config —
    gives ``None`` and is re-derivable from its bench family instead.
    """
    preset_name: str | None = None
    if spec.config is not None:
        for name in CONFIG_PRESETS:
            candidate = resolve_preset(name)
            if spec.seed is not None:
                candidate = candidate.derive(seed=spec.seed)
            if candidate == spec.config:
                preset_name = name
                break
        else:
            return None
    payload: dict[str, Any] = {
        "kind": spec.kind,
        "workload": spec.workload,
        "policy": spec.policy,
        "scale": spec.scale,
        "backend": spec.backend,
    }
    if preset_name is not None and preset_name != "baseline":
        payload["config"] = preset_name
    if spec.seed is not None:
        payload["seed"] = spec.seed
    options: dict[str, Any] = {}
    reverse = {v: k for k, v in OPTION_KEYS.items()}
    for name, value in spec.options:
        key = reverse.get(name)
        if key is None:
            return None
        if name == "telemetry":
            options["timeline"] = getattr(value, "timeline_interval", 0)
        else:
            options[key] = value
    if options:
        payload["options"] = options
    return payload
