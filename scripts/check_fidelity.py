#!/usr/bin/env python
"""Cross-backend fidelity gate for the functional fast path.

Expands the fig02/fig14/fig16/fig19/fig20 bench families into their job
specs, runs every spec on **both** backends (the discrete-event engine
and the functional exact-schedule replay) across several seeds, and
fails when anything observable diverges:

* **backend divergence** — the two backends must produce *identical*
  result dataclasses: every hit/miss/eviction/spill counter, sharing
  degree, latency mean, ``total_cycles``, and ``events_executed``;
* **golden drift** — the event engine's results are compared against the
  checked-in golden file (``scripts/fidelity_goldens.json``): integer
  counters must match exactly, floating-point latency means within
  ``--float-tolerance`` (relative).  Every case that ran is checked
  whenever ``--scale`` equals the pinned scale and the requested benches
  and seeds are among the pinned ones, and a pinned case that never ran
  is an error only when the full pinned set was requested.  Goldens pin
  simulation semantics, so an intentional protocol change regenerates
  them with ``--update-goldens``;
* optionally **speedup shortfall** — with ``--min-speedup``, the
  functional backend's aggregate wall-clock advantage must meet the bar
  (the nightly job uses a deliberately loose bar; see
  ``docs/backends.md`` for measured numbers).

A JSON report of every case (timings, speedup, per-case status) is
written to ``--json`` for CI artifact upload.

Usage::

    PYTHONPATH=src python scripts/check_fidelity.py                    # full gate
    PYTHONPATH=src python scripts/check_fidelity.py --scale 0.05 --seeds 0
    PYTHONPATH=src python scripts/check_fidelity.py \
        --benches fig14_single_app_perf --seeds 0                  # golden subset
    PYTHONPATH=src python scripts/check_fidelity.py --update-goldens   # re-pin
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.sim.cache import canonicalize  # noqa: E402
from repro.sim.parallel import JobSpec, expand_matrix  # noqa: E402
from repro.sim.results import SimulationResult  # noqa: E402

#: The bench families the gate replays (reduced-scale forms of the
#: figures the paper's headline claims rest on).
DEFAULT_BENCHES = (
    "fig02_baseline_hit_rates",
    "fig14_single_app_perf",
    "fig16_multi_app_perf",
    "fig19_spill_counter",
    "fig20_remote_latency",
)

DEFAULT_GOLDENS = REPO_ROOT / "scripts" / "fidelity_goldens.json"

#: Summed-over-apps integer counters pinned per case (exact-match gate).
_COUNTER_KEYS = (
    "l1_hit", "l1_miss", "l2_hit", "l2_miss", "iommu_hit", "iommu_miss",
    "translations_filled", "walks", "page_faults",
)


def case_id(spec: JobSpec) -> str:
    """Stable human-readable identity of one spec (backend-agnostic).

    Families like fig19/fig20 run the *same* workload/policy under
    different configs (spill budgets, remote-latency scales) or options
    (``race_ptw``), so the readable part alone would collide and
    silently drop cases at collection time.  A variant is keyed by what
    makes it one: the dotted ``name=value`` of every config field where
    its resolved config differs from the config the same spec resolves to
    without one, plus its options (e.g. ``spill_budget=2``,
    ``interconnect.remote_latency_scale=0.5`` or
    ``policy_options.race_ptw=false``), hashed when long.  A field every
    config holds at the same value never reaches the id, so adding or
    deleting such a field re-keys nothing.
    """
    seed = "cfg" if spec.seed is None else spec.seed
    base = f"{spec.kind}:{spec.workload}/{spec.policy}@{spec.scale:g}/seed{seed}"
    variant = config_changes(
        spec.resolved_config(), replace(spec, config=None).resolved_config()
    )
    for name, value in spec.options:
        if isinstance(value, dict):
            variant += [f"{name}.{key}={_value(value[key])}" for key in sorted(value)]
        else:
            variant.append(f"{name}={_value(value)}")
    if variant:
        text = ",".join(sorted(variant))
        if len(text) > _MAX_VARIANT:
            text = f"v{hashlib.sha256(text.encode()).hexdigest()[:8]}"
        base += f"/{text}"
    return base


_MAX_VARIANT = 100
"""Longest variant text a case id spells out; a longer one is hashed."""


def config_changes(config: object, reference: object, prefix: str = "") -> list[str]:
    """``name=value`` of every (dotted) field where ``config`` differs
    from ``reference``."""
    changes = []
    for field in dataclasses.fields(config):  # type: ignore[arg-type]
        value = getattr(config, field.name)
        other = getattr(reference, field.name)
        name = prefix + field.name
        if dataclasses.is_dataclass(value) and type(value) is type(other):
            changes += config_changes(value, other, f"{name}.")
        elif value != other:
            changes.append(f"{name}={_value(value)}")
    return changes


def _value(value: object) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(canonicalize(value), sort_keys=True, separators=(",", ":"))


def collect_specs(
    benches: list[str], scale: float, seeds: list[int]
) -> list[JobSpec]:
    """Unique backend-agnostic specs of the selected bench families."""
    seen: dict[str, JobSpec] = {}
    for seed in seeds:
        for _bench, spec in expand_matrix(benches, scale=scale, seed=seed):
            seen.setdefault(case_id(spec), spec)
    return list(seen.values())


def result_digest(result: SimulationResult) -> str:
    """SHA-256 over the canonical JSON of the full result dataclass."""
    payload = json.dumps(
        canonicalize(dataclasses.asdict(result)),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def compact(result: SimulationResult) -> dict:
    """The golden record of one run: exact counters + latency floats."""
    agg = {
        key: sum(a.counters.get(key, 0) for a in result.apps.values())
        for key in _COUNTER_KEYS
    }
    ist = result.iommu_counters
    agg["iommu_requests"] = ist.get("requests", 0)
    agg["spills"] = ist.get("spills", 0)
    agg["spilled_discarded"] = ist.get("spilled_discarded", 0)
    agg["remote_hits"] = ist.get("remote_hits", 0)
    ts = result.tracker_stats or {}
    agg["tracker_queries"] = ts.get("queries", 0)
    agg["tracker_positives"] = ts.get("positives", 0)
    agg["tracker_multi_positives"] = ts.get("multi_positives", 0)
    return {
        "digest": result_digest(result),
        "events": result.events_executed,
        "cycles": result.total_cycles,
        "counters": agg,
        "latency": {
            str(pid): app.mean_translation_latency
            for pid, app in sorted(result.apps.items())
        },
    }


def diff_fields(a: SimulationResult, b: SimulationResult) -> list[str]:
    """Result-dataclass fields on which two runs disagree."""
    da, db = dataclasses.asdict(a), dataclasses.asdict(b)
    return [f.name for f in dataclasses.fields(a) if da[f.name] != db[f.name]]


def check_golden(record: dict, golden: dict, float_tolerance: float) -> list[str]:
    """Problems between one measured record and its golden entry."""
    if record["digest"] == golden["digest"]:
        return []
    problems: list[str] = []
    for field in ("events", "cycles"):
        if record[field] != golden.get(field):
            problems.append(
                f"{field} {golden.get(field)} -> {record[field]}"
            )
    for key, expected in golden.get("counters", {}).items():
        got = record["counters"].get(key)
        if got != expected:
            problems.append(f"counter {key} {expected} -> {got}")
    for pid, expected in golden.get("latency", {}).items():
        got = record["latency"].get(pid)
        if got is None or not math.isclose(
            got, expected, rel_tol=float_tolerance, abs_tol=float_tolerance
        ):
            problems.append(f"latency[{pid}] {expected} -> {got}")
    if not problems:
        problems.append(
            "full-result digest changed "
            "(a field outside the pinned scalars drifted)"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benches", default=",".join(DEFAULT_BENCHES),
                        help="comma-separated bench families to replay")
    parser.add_argument("--scale", type=float, default=0.2,
                        help="trace scale for every case (default 0.2)")
    parser.add_argument("--seeds", default="0,1,2",
                        help="comma-separated seeds (default 0,1,2)")
    parser.add_argument("--goldens", default=str(DEFAULT_GOLDENS),
                        help="golden file (default scripts/fidelity_goldens.json)")
    parser.add_argument("--update-goldens", action="store_true",
                        help="rewrite the golden file from this run's "
                             "event-engine results instead of checking")
    parser.add_argument("--float-tolerance", type=float, default=1e-9,
                        help="relative tolerance for latency means "
                             "(default 1e-9)")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail if the functional backend's aggregate "
                             "wall-clock speedup is below this (default: off)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write the per-case report here (CI artifact)")
    args = parser.parse_args(argv)

    benches = [b.strip() for b in args.benches.split(",") if b.strip()]
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    specs = collect_specs(benches, args.scale, seeds)
    print(
        f"fidelity gate: {len(specs)} cases "
        f"({', '.join(benches)}; scale {args.scale:g}; seeds {seeds})"
    )

    golden_path = Path(args.goldens)
    goldens: dict = {}
    full_golden_set = False
    if not args.update_goldens:
        try:
            golden_file = json.loads(golden_path.read_text())
        except FileNotFoundError:
            print(f"note: no golden file at {golden_path}; "
                  "run --update-goldens to pin one", file=sys.stderr)
            golden_file = None
        if golden_file is not None:
            pinned_benches = set(golden_file.get("benches", ()))
            pinned_seeds = set(golden_file.get("seeds", ()))
            if (
                golden_file.get("scale") == args.scale
                and set(benches) <= pinned_benches
                and set(seeds) <= pinned_seeds
            ):
                goldens = golden_file.get("cases", {})
                full_golden_set = (
                    set(benches) == pinned_benches and set(seeds) == pinned_seeds
                )
            else:
                print(
                    "note: golden file was pinned for "
                    f"scale={golden_file.get('scale')} "
                    f"seeds={golden_file.get('seeds')}; this run is not a "
                    "subset of it, skipping the golden comparison",
                    file=sys.stderr,
                )

    cases = []
    divergences = 0
    golden_failures = 0
    event_seconds = functional_seconds = 0.0
    new_goldens: dict[str, dict] = {}
    for spec in specs:
        cid = case_id(spec)
        start = time.perf_counter()
        ref = replace(spec, backend="event").execute()
        t_event = time.perf_counter() - start
        start = time.perf_counter()
        fun = replace(spec, backend="functional").execute()
        t_func = time.perf_counter() - start
        event_seconds += t_event
        functional_seconds += t_func
        mismatched = diff_fields(ref, fun)
        record = compact(ref)
        new_goldens[cid] = record
        golden_problems: list[str] = []
        if goldens:
            golden = goldens.get(cid)
            if golden is None:
                golden_problems = ["case missing from golden file"]
            else:
                golden_problems = check_golden(
                    record, golden, args.float_tolerance
                )
        status = "ok"
        if mismatched:
            status = "DIVERGED"
            divergences += 1
        if golden_problems:
            status = "GOLDEN-DRIFT" if status == "ok" else status
            golden_failures += 1
        speedup = t_event / t_func if t_func > 0 else float("inf")
        print(
            f"  {cid:<44} {ref.events_executed:>8,} ev  "
            f"event {t_event:6.2f}s  functional {t_func:6.2f}s  "
            f"{speedup:4.1f}x  {status}"
        )
        for field in mismatched:
            print(f"    diverged field: {field}", file=sys.stderr)
        for problem in golden_problems:
            print(f"    golden: {problem}", file=sys.stderr)
        cases.append(
            {
                "id": cid,
                "events": ref.events_executed,
                "total_cycles": ref.total_cycles,
                "event_seconds": round(t_event, 4),
                "functional_seconds": round(t_func, 4),
                "speedup": round(speedup, 3),
                "identical": not mismatched,
                "mismatched_fields": mismatched,
                "golden_problems": golden_problems,
            }
        )

    if full_golden_set:
        for cid in goldens:
            if cid not in new_goldens:
                print(f"  golden case never ran: {cid}", file=sys.stderr)
                golden_failures += 1

    speedup = (
        event_seconds / functional_seconds if functional_seconds > 0 else 0.0
    )
    print(
        f"\naggregate: event {event_seconds:.1f}s, functional "
        f"{functional_seconds:.1f}s -> {speedup:.2f}x; "
        f"{divergences} divergences, {golden_failures} golden failures"
    )

    failed = divergences > 0 or golden_failures > 0
    if args.min_speedup > 0 and speedup < args.min_speedup:
        print(
            f"error: aggregate speedup {speedup:.2f}x below the "
            f"--min-speedup {args.min_speedup:g}x bar",
            file=sys.stderr,
        )
        failed = True

    if args.update_goldens:
        golden_path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "scale": args.scale,
                    "seeds": seeds,
                    "benches": benches,
                    "cases": new_goldens,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"wrote goldens {golden_path} ({len(new_goldens)} cases)")

    if args.json:
        report = {
            "schema": 1,
            "scale": args.scale,
            "seeds": seeds,
            "benches": benches,
            "golden_comparison": bool(goldens),
            "summary": {
                "cases": len(cases),
                "divergences": divergences,
                "golden_failures": golden_failures,
                "event_seconds": round(event_seconds, 2),
                "functional_seconds": round(functional_seconds, 2),
                "speedup": round(speedup, 3),
            },
            "cases": cases,
        }
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote report {args.json}")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
