#!/usr/bin/env python
"""Orchestration-chaos invariant check for the resilient matrix runner.

Runs the same bench matrix three times and proves the resilience layer
(``repro.sim.resilience``) never trades determinism for survival:

1. **reference** — fault-free run into a throwaway cache; records every
   job's full result dictionary under its fingerprint digest;
2. **chaos** — a second throwaway cache, pre-seeded with a slice of the
   reference entries (so ``corrupt-cache`` has real entries to scribble
   and worker kills land on real misses mid-sweep), then the same matrix
   under a seeded chaos plan (``--plan``) with retries and deadlines;
3. **resume** — the same cache and journal, chaos off, mimicking
   ``repro bench --resume`` after an operator notices the damage.

The invariant: after the resume pass, **every** job in the matrix is
either bit-identical to its reference result or present in the
failed-jobs manifest with a structured error class.  Seeded chaos may
cost retries and may fail jobs, but it must never produce a divergent
result, an unhandled traceback, or a silently missing job.

Exit 0 when the invariant holds, 1 when it does not, 2 on usage errors.
A JSON report (per-digest verdicts, chaos injection counts, manifests)
is written to ``--json`` for CI artifact upload.

Usage::

    PYTHONPATH=src python scripts/chaos_matrix.py \
        --only fig02 --scale 0.1 --seed 7 \
        --plan kill-worker:2,corrupt-cache:1 --retries 2 --json report.json
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.reporting.export import result_to_dict  # noqa: E402
from repro.sim.cache import ResultCache  # noqa: E402
from repro.sim.parallel import (  # noqa: E402
    JobOutcome,
    dedupe_jobs,
    expand_matrix,
    failed_jobs_manifest,
    run_matrix,
    select_benches,
)
from repro.sim.resilience import (  # noqa: E402
    ChaosPlanError,
    ChaosState,
    ResiliencePolicy,
    SweepJournal,
)


def _result_map(outcomes: list[JobOutcome]) -> dict[str, dict[str, Any]]:
    """digest -> canonical result dictionary, for bit-exact comparison."""
    return {
        o.digest: result_to_dict(o.result, include_stream=True)
        for o in outcomes
        if o.result is not None
    }


def _preseed(reference_dir: Path, chaos_dir: Path, digests: list[str]) -> list[str]:
    """Copy every third reference entry into the chaos cache.

    The slice guarantees the chaos run starts mid-sweep: some jobs are
    cache hits (corruption targets), the rest are real misses (kill and
    hang targets).
    """
    seeded = []
    chaos_dir.mkdir(parents=True, exist_ok=True)
    for digest in digests[::3]:
        entry = reference_dir / f"{digest}.json"
        if entry.is_file():
            shutil.copy2(entry, chaos_dir / entry.name)
            seeded.append(digest)
    return seeded


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default="fig02", metavar="PATTERN",
                        help="bench families to run (default fig02)")
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--backend", choices=("event", "functional"), default="event")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes for every pass (default 2)")
    parser.add_argument("--plan", required=True, metavar="PLAN",
                        help="chaos plan for the middle pass, e.g. "
                             "'kill-worker:2,corrupt-cache:1'")
    parser.add_argument("--retries", type=int, default=2)
    parser.add_argument("--job-timeout", type=float, default=None,
                        help="hard per-job deadline for the chaos pass")
    parser.add_argument("--max-jobs", type=int, default=None, metavar="N",
                        help="cap the matrix to its first N unique jobs "
                             "(the cap is always reported, never silent)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write the invariant report here")
    args = parser.parse_args(argv)

    try:
        plan = ChaosState.from_plan(args.plan)
    except ChaosPlanError as exc:
        print(f"error: --plan: {exc}", file=sys.stderr)
        return 2
    if plan is None:
        print("error: --plan must contain at least one runner-level chaos site",
              file=sys.stderr)
        return 2

    try:
        benches = select_benches(args.only)
    except KeyError:
        print(f"error: --only {args.only!r} matches no bench family", file=sys.stderr)
        return 2
    pairs = list(expand_matrix(benches, scale=args.scale, seed=args.seed,
                               backend=args.backend))
    unique = dedupe_jobs(pairs)
    if args.max_jobs is not None and len(unique) > args.max_jobs:
        kept = {digest for _spec, _fp, digest, _b in unique[: args.max_jobs]}
        dropped = len(unique) - args.max_jobs
        pairs = [(b, s) for (b, s) in pairs
                 if any(s.label == u[0].label for u in unique[: args.max_jobs])]
        unique = unique[: args.max_jobs]
        print(f"note: --max-jobs capped the matrix at {args.max_jobs} unique jobs "
              f"({dropped} dropped, {len(kept)} kept)")
    digests = [digest for _spec, _fp, digest, _benches in unique]

    workdir = Path(tempfile.mkdtemp(prefix="chaos-matrix-"))
    report: dict[str, Any] = {
        "plan": plan.describe(),
        "benches": list(benches),
        "scale": args.scale,
        "seed": args.seed,
        "backend": args.backend,
        "unique_jobs": len(digests),
        "violations": [],
    }
    policy = ResiliencePolicy(retries=args.retries, hard_timeout=args.job_timeout,
                              backoff_seed=args.seed)
    try:
        # Pass 1: fault-free reference.
        ref_cache = ResultCache(workdir / "reference")
        reference = _result_map(
            run_matrix(pairs, workers=args.jobs, cache=ref_cache, policy=policy)
        )
        print(f"reference: {len(reference)}/{len(digests)} jobs produced results")

        # Pass 2: chaos, on a cache pre-seeded mid-sweep.
        chaos_cache = ResultCache(workdir / "chaos")
        seeded = _preseed(ref_cache.cache_dir, chaos_cache.cache_dir, digests)
        journal = SweepJournal.for_cache(chaos_cache)
        chaos_outcomes = run_matrix(
            pairs, workers=args.jobs, cache=chaos_cache, policy=policy,
            chaos=plan, journal=journal,
        )
        chaos_failed = failed_jobs_manifest(chaos_outcomes)
        report["chaos_pass"] = {
            "preseeded": len(seeded),
            "outcomes": len(chaos_outcomes),
            "failed_jobs": chaos_failed,
            "retries": sum(max(0, o.attempts - 1) for o in chaos_outcomes),
            "quarantined": chaos_cache.corruptions,
        }
        print(f"chaos:     {len(chaos_outcomes)} outcomes, "
              f"{len(chaos_failed)} failed, "
              f"{report['chaos_pass']['retries']} retries, "
              f"{chaos_cache.corruptions} cache entries quarantined")

        # Pass 3: resume with chaos off.
        final_outcomes = run_matrix(
            pairs, workers=args.jobs, cache=chaos_cache, policy=policy,
            journal=journal, resume=True,
        )
        final = _result_map(final_outcomes)
        failed = {f["digest"]: f for f in failed_jobs_manifest(final_outcomes)}
    except KeyboardInterrupt:
        raise
    except Exception as exc:  # an escaped traceback IS the invariant violation
        report["violations"].append(
            {"kind": "traceback", "error": f"{type(exc).__name__}: {exc}"}
        )
        final, failed, chaos_outcomes = {}, {}, []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # The invariant: bit-identical result, or a clean failure manifest entry.
    if not report["violations"]:
        if len(chaos_outcomes) != len(digests):
            report["violations"].append({
                "kind": "silent-omission",
                "error": f"chaos pass returned {len(chaos_outcomes)} outcomes "
                         f"for {len(digests)} unique jobs",
            })
        for digest in digests:
            if digest in final:
                if final[digest] != reference.get(digest):
                    report["violations"].append(
                        {"kind": "divergence", "digest": digest,
                         "error": "result differs from fault-free reference"}
                    )
            elif digest in failed:
                entry = failed[digest]
                if not entry.get("error_class") or not entry.get("status"):
                    report["violations"].append(
                        {"kind": "dirty-manifest", "digest": digest,
                         "error": f"manifest entry lacks error class: {entry}"}
                    )
            else:
                report["violations"].append(
                    {"kind": "silent-omission", "digest": digest,
                     "error": "job neither produced a result nor appears in "
                              "the failed-jobs manifest"}
                )

    report["final"] = {
        "identical": sum(1 for d in digests
                         if final.get(d) == reference.get(d) and d in final),
        "failed_cleanly": len(failed),
        "failed_jobs": list(failed.values()),
    }
    report["ok"] = not report["violations"]
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.json}")
    if report["ok"]:
        print(f"OK: {report['final']['identical']} bit-identical to reference, "
              f"{len(failed)} failed with clean manifests, 0 violations")
        return 0
    for violation in report["violations"]:
        print(f"VIOLATION [{violation['kind']}] "
              f"{violation.get('digest', '')} {violation['error']}",
              file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
