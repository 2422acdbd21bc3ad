#!/usr/bin/env python
"""Simulation-kernel microbenchmark harness.

Measures the two numbers this repo's perf trajectory is judged on and
writes them to ``BENCH_kernel.json``:

* **kernel throughput** — events/second of canonical single- and
  multi-application runs (pure discrete-event hot path: EventQueue drain,
  TLB lookup/insert, CU trace advancement);
* **fastpath throughput** — events/second of the functional backend
  (``repro.sim.backends``) replaying the same kernel cases, plus its
  speedup over the event engine (see ``docs/backends.md``);
* **serve throughput** — the ``repro serve`` daemon (``docs/service.md``)
  measured through a real HTTP client: cached submissions/second (the
  dedup + transport overhead) and cold single-job end-to-end jobs/second
  (submit → queue → worker → SSE completion);
* **ingest throughput** — the streaming trace pipeline
  (``docs/traces.md``): accesses/second and MB/s of a cold gzip k6
  parse → page-run conversion, the streaming content digest cold, and
  the stat-memoised digest lookup a warm bench matrix pays per job.
  These rows time a fixed 400k-access trace at every ``--scale`` and
  gate on the median of at least 5 samples.

Usage::

    PYTHONPATH=src python scripts/bench_perf.py                  # full run
    PYTHONPATH=src python scripts/bench_perf.py --scale 0.05     # CI smoke
    PYTHONPATH=src python scripts/bench_perf.py \
        --baseline BENCH_kernel.json --max-regression 0.30       # gate

With ``--baseline``, the harness exits non-zero if any gated section's
throughput falls more than ``--max-regression`` below the
baseline file's, or if a gated baseline row was not measured at all
(used by the CI perf-smoke job).  Numbers are machine-relative: compare
trajectories on one machine, not across machines — the ``machine`` stamp
records where a baseline came from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config.presets import baseline_config  # noqa: E402
from repro.sim.backends import run_functional  # noqa: E402
from repro.sim.cache import ResultCache, code_version_hash  # noqa: E402
from repro.sim.system import MultiGPUSystem  # noqa: E402
from repro.workloads.multi_app import (  # noqa: E402
    build_multi_app_workload,
    build_single_app_workload,
)

#: The canonical kernel workloads (the same pair the goldens pin).
KERNEL_CASES = (
    ("MM-least-tlb", "MM", "least-tlb", build_single_app_workload),
    ("W8-baseline", "W8", "baseline", build_multi_app_workload),
)


def measure_kernel(scale: float, repeats: int) -> list[dict]:
    """Best-of-N wall-clock and events/sec for each canonical run."""
    rows = []
    for label, name, policy, builder in KERNEL_CASES:
        config = baseline_config()
        workload = builder(name, config, scale=scale)
        best = None
        events = cycles = 0
        for _ in range(repeats):
            system = MultiGPUSystem(config, workload, policy)
            start = time.perf_counter()
            result = system.run()
            elapsed = time.perf_counter() - start
            best = elapsed if best is None or elapsed < best else best
            events, cycles = result.events_executed, result.total_cycles
        rows.append(
            {
                "name": label,
                "scale": scale,
                "wall_seconds": round(best, 6),
                "events": events,
                "total_cycles": cycles,
                "events_per_sec": round(events / best, 1),
            }
        )
        print(
            f"kernel {label:<14} {events:>9,} events  {best:.3f}s  "
            f"{events / best:>10,.0f} events/s"
        )
    return rows


def measure_fastpath(scale: float, repeats: int, kernel_rows: list[dict]) -> list[dict]:
    """Best-of-N functional-backend throughput on the same kernel cases.

    ``speedup_vs_event`` relates each case to the event-engine row just
    measured, so both sides of the ratio come from the same machine state.
    """
    event_rows = {row["name"]: row for row in kernel_rows}
    rows = []
    for label, name, policy, builder in KERNEL_CASES:
        config = baseline_config()
        workload = builder(name, config, scale=scale)
        best = None
        events = 0
        for _ in range(repeats):
            start = time.perf_counter()
            result = run_functional(config, workload, policy)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None or elapsed < best else best
            events = result.events_executed
        event = event_rows.get(label)
        speedup = (
            round((events / best) / event["events_per_sec"], 3)
            if event and event["events_per_sec"] > 0
            else None
        )
        rows.append(
            {
                "name": label,
                "scale": scale,
                "wall_seconds": round(best, 6),
                "events": events,
                "events_per_sec": round(events / best, 1),
                "speedup_vs_event": speedup,
            }
        )
        print(
            f"fastpath {label:<14} {events:>9,} events  {best:.3f}s  "
            f"{events / best:>10,.0f} events/s"
            + (f"  ({speedup:.2f}x event)" if speedup is not None else "")
        )
    return rows


#: Cached submissions timed per repeat by the ``serve`` section.
SERVE_CACHED_SUBMITS = 25


def measure_serve(scale: float, repeats: int) -> list[dict]:
    """Serve-daemon throughput (docs/service.md), two rows:

    * ``serve-cached-submit`` — submissions/second for requests the
      persistent cache already settles (the dedup + HTTP round-trip
      overhead a warm client sees);
    * ``serve-e2e-single-job`` — jobs/second for a cold single job
      through submit → queue → worker → SSE ``job_done`` (event-driven,
      no polling granularity in the number).

    Both report their rate in the shared ``events_per_sec`` field so
    :func:`check_regression` gates them like every other section.
    """
    from repro.serve.api import ServerThread
    from repro.serve.app import ServeApp, ServeSettings
    from repro.serve.client import ServeClient

    base = {"workload": "MM", "policy": "least-tlb", "scale": scale,
            "backend": "functional"}
    rows = []
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        cache = ResultCache(tmp)
        app = ServeApp(ServeSettings(workers=2), cache=cache)
        thread = ServerThread(app)
        url = thread.start()
        try:
            client = ServeClient(url, client_name="bench")
            best = None
            for i in range(repeats):
                start = time.perf_counter()
                job = client.submit({"jobs": [dict(base, seed=9000 + i)]})
                for event in client.events(job["job"]):
                    pass  # generator stops at job_done
                elapsed = time.perf_counter() - start
                best = elapsed if best is None or elapsed < best else best
            rows.append({
                "name": "serve-e2e-single-job",
                "scale": scale,
                "wall_seconds": round(best, 6),
                "events_per_sec": round(1.0 / best, 3),
            })
            print(
                f"serve  e2e-single-job     {best:.3f}s  "
                f"{1.0 / best:>10,.2f} jobs/s"
            )

            cached = dict(base, seed=9000)  # settled by the loop above
            best = None
            for _ in range(repeats):
                start = time.perf_counter()
                for _ in range(SERVE_CACHED_SUBMITS):
                    body = client.submit({"jobs": [cached]})
                    assert body["state"] == "done", "cache dedup broke"
                elapsed = time.perf_counter() - start
                best = elapsed if best is None or elapsed < best else best
            rate = SERVE_CACHED_SUBMITS / best
            rows.append({
                "name": "serve-cached-submit",
                "scale": scale,
                "requests": SERVE_CACHED_SUBMITS,
                "wall_seconds": round(best, 6),
                "events_per_sec": round(rate, 1),
            })
            print(
                f"serve  cached-submit      {best:.3f}s  "
                f"{rate:>10,.1f} requests/s"
            )
        finally:
            thread.stop()
    return rows


#: Accesses in the ``ingest`` section's trace, whatever ``--scale`` says.
INGEST_ACCESSES = 400_000

#: Timed samples per ``ingest`` row (or ``--repeats``, if more).
INGEST_SAMPLES = 5

#: Cold digests per ``ingest-digest-cold`` sample.
INGEST_DIGEST_ROUNDS = 10

#: Memoised digest lookups per ``ingest-digest-cached`` sample.
INGEST_CACHED_LOOKUPS = 2_000


def timed_samples(work, samples: int) -> tuple[float, float]:
    """Median and interquartile range of ``samples`` timings of ``work()``."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    quartiles = statistics.quantiles(times, n=4)
    return statistics.median(times), quartiles[2] - quartiles[0]


def measure_ingest(repeats: int, accesses: int = INGEST_ACCESSES) -> list[dict]:
    """Streaming trace-ingestion throughput (docs/traces.md), three rows:

    * ``ingest-cold-parse`` — accesses/second for a cold gzip k6 parse →
      page-run conversion → :class:`Workload` build (digest skipped),
      with the compressed-file read rate in ``mb_per_sec``;
    * ``ingest-digest-cold`` — bytes/second of the streaming SHA-256
      content digest with its stat-memo cleared;
    * ``ingest-digest-cached`` — lookups/second once the (path, size,
      mtime) memo is warm: the per-job fingerprint overhead a trace-backed
      bench matrix actually pays.

    Every row times fixed work, the same at every ``--scale``: each
    sample lasts at least ~10 ms, and the rate comes from the median of
    at least :data:`INGEST_SAMPLES` samples, reported with their IQR.
    All rows report their rate in the shared ``events_per_sec`` field so
    :func:`check_regression` gates them like every other section.
    """
    from repro.workloads import trace_files
    from repro.workloads.ingest import ingest_trace, synthesize_k6_trace, trace_digest

    samples = max(INGEST_SAMPLES, repeats)
    rows = []
    with tempfile.TemporaryDirectory(prefix="repro-ingest-bench-") as tmp:
        path = Path(tmp) / "k6_bench.trc.gz"
        synthesize_k6_trace(path, accesses=accesses, footprint_pages=4096, seed=7)
        file_bytes = path.stat().st_size
        records = ingest_trace(path, compute_digest=False).stats.records

        wall, iqr = timed_samples(lambda: ingest_trace(path, compute_digest=False), samples)
        rows.append({
            "name": "ingest-cold-parse",
            "accesses": records,
            "file_bytes": file_bytes,
            "samples": samples,
            "wall_seconds": round(wall, 6),
            "wall_iqr": round(iqr, 6),
            "events_per_sec": round(records / wall, 1),
            "mb_per_sec": round(file_bytes / wall / 1e6, 3),
        })
        print(
            f"ingest cold-parse         {records:>9,} accesses  {wall:.3f}s  "
            f"{records / wall:>10,.0f} accesses/s  "
            f"({file_bytes / wall / 1e6:.1f} MB/s gzip)"
        )

        digest = trace_digest(path)

        def cold_digests() -> None:
            for _ in range(INGEST_DIGEST_ROUNDS):
                trace_files._DIGEST_CACHE.clear()  # force the streaming hash
                assert trace_digest(path) == digest, "digest changed"

        wall, iqr = timed_samples(cold_digests, samples)
        hashed = INGEST_DIGEST_ROUNDS * file_bytes
        rows.append({
            "name": "ingest-digest-cold",
            "file_bytes": file_bytes,
            "rounds": INGEST_DIGEST_ROUNDS,
            "samples": samples,
            "wall_seconds": round(wall, 6),
            "wall_iqr": round(iqr, 6),
            "events_per_sec": round(hashed / wall, 1),
            "mb_per_sec": round(hashed / wall / 1e6, 3),
        })
        print(
            f"ingest digest-cold        {hashed:>9,} bytes  {wall:.3f}s  "
            f"{hashed / wall / 1e6:>10,.1f} MB/s"
        )

        def cached_lookups() -> None:
            for _ in range(INGEST_CACHED_LOOKUPS):
                assert trace_digest(path) == digest, "digest memo broke"

        wall, iqr = timed_samples(cached_lookups, samples)
        rate = INGEST_CACHED_LOOKUPS / wall
        rows.append({
            "name": "ingest-digest-cached",
            "lookups": INGEST_CACHED_LOOKUPS,
            "samples": samples,
            "wall_seconds": round(wall, 6),
            "wall_iqr": round(iqr, 6),
            "events_per_sec": round(rate, 1),
        })
        print(
            f"ingest digest-cached      {INGEST_CACHED_LOOKUPS:>9,} lookups  "
            f"{wall:.3f}s  {rate:>10,.0f} lookups/s"
        )
    return rows


def machine_stamp() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "code_version": code_version_hash()[:16],
    }


def check_regression(report: dict, baseline_path: Path, max_regression: float) -> int:
    """Compare every gated baseline row's events/sec against this run's;
    a baseline row the run did not measure fails as well."""
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read baseline {baseline_path}: {exc}", file=sys.stderr)
        return 2
    failures = 0
    for section in ("kernel", "fastpath", "serve", "ingest"):
        rows = {row["name"]: row for row in report.get(section, [])}
        for base in baseline.get(section, []):
            row = rows.get(base["name"])
            if row is None:
                print(
                    f"regression-check {section} {base['name']:<14} MISSING "
                    "(in the baseline, not measured by this run)"
                )
                failures += 1
                continue
            floor = base["events_per_sec"] * (1.0 - max_regression)
            status = "ok" if row["events_per_sec"] >= floor else "REGRESSION"
            print(
                f"regression-check {section} {row['name']:<14} "
                f"{row['events_per_sec']:>10,.0f} vs baseline "
                f"{base['events_per_sec']:>10,.0f} (floor {floor:,.0f}) {status}"
            )
            if status != "ok":
                failures += 1
    if failures:
        print(
            f"error: {failures} case(s) regressed more than "
            f"{max_regression:.0%} below {baseline_path} or went unmeasured",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.2,
                        help="trace scale for the kernel cases (default 0.2)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing repeats (default 3); the ingest "
                             "rows take the median of at least 5 samples")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_kernel.json"),
                        help="report destination (default BENCH_kernel.json)")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="compare against this committed report")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="allowed fractional events/sec drop vs the "
                             "baseline (default 0.30)")
    args = parser.parse_args(argv)

    report = {
        "schema": 1,
        "machine": machine_stamp(),
        "kernel": measure_kernel(args.scale, args.repeats),
    }
    report["fastpath"] = measure_fastpath(
        args.scale, args.repeats, report["kernel"]
    )
    report["serve"] = measure_serve(args.scale, args.repeats)
    report["ingest"] = measure_ingest(args.repeats)

    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")

    if args.baseline:
        return check_regression(report, Path(args.baseline), args.max_regression)
    return 0


if __name__ == "__main__":
    sys.exit(main())
