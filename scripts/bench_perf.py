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

Every row times fixed work — the kernel and serve cases at trace scale
0.2, the ingest rows a 400k-access trace — and reports the median and
interquartile range of :data:`SAMPLES` timed samples; the gate reads the
median.

Usage::

    PYTHONPATH=src python scripts/bench_perf.py                  # record
    PYTHONPATH=src python scripts/bench_perf.py --output BENCH_smoke.json \
        --baseline BENCH_kernel.json --max-regression 0.30       # gate

With ``--baseline``, the harness exits 2 when ``--output`` is the baseline
file itself (the run would overwrite the baseline, then compare with
itself) or the baseline cannot be read, and non-zero if any gated section's
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

#: Trace scale of the kernel, fastpath and serve rows.
SCALE = 0.2

#: Timed samples per row; each row reports their median and IQR.
SAMPLES = 5


def timed_samples(work, samples: int) -> tuple[float, float]:
    """Median and interquartile range of ``samples`` timings of ``work()``."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    quartiles = statistics.quantiles(times, n=4)
    return statistics.median(times), quartiles[2] - quartiles[0]


def measure_simulation(
    simulate, scale: float = SCALE, samples: int = SAMPLES
) -> list[dict]:
    """Events/second of ``simulate(config, workload, policy)`` on each
    kernel case: the median and IQR of ``samples`` runs, each from a
    fresh system."""
    rows = []
    for label, name, policy, builder in KERNEL_CASES:
        config = baseline_config()
        workload = builder(name, config, scale=scale)
        results = []
        wall, iqr = timed_samples(
            lambda: results.append(simulate(config, workload, policy)), samples
        )
        result = results[-1]
        events = result.events_executed
        rows.append({
            "name": label,
            "scale": scale,
            "samples": samples,
            "wall_seconds": round(wall, 6),
            "wall_iqr": round(iqr, 6),
            "events": events,
            "total_cycles": result.total_cycles,
            "events_per_sec": round(events / wall, 1),
        })
    return rows


def measure_kernel(scale: float = SCALE, samples: int = SAMPLES) -> list[dict]:
    """Event-engine throughput (system build and run) per kernel case."""
    rows = measure_simulation(
        lambda config, workload, policy: MultiGPUSystem(config, workload, policy).run(),
        scale, samples,
    )
    for row in rows:
        print(
            f"kernel {row['name']:<14} {row['events']:>9,} events  "
            f"{row['wall_seconds']:.3f}s  {row['events_per_sec']:>10,.0f} events/s"
        )
    return rows


def measure_fastpath(
    kernel_rows: list[dict], scale: float = SCALE, samples: int = SAMPLES
) -> list[dict]:
    """Functional-backend throughput (system build and run) on the same
    kernel cases.

    ``speedup_vs_event`` relates each case to the event-engine row just
    measured, so both sides of the ratio come from the same machine state.
    """
    event_rows = {row["name"]: row for row in kernel_rows}
    rows = measure_simulation(
        lambda config, workload, policy: run_functional(
            MultiGPUSystem(config, workload, policy)
        ),
        scale, samples,
    )
    for row in rows:
        event = event_rows.get(row["name"])
        speedup = (
            round(row["events_per_sec"] / event["events_per_sec"], 3)
            if event and event["events_per_sec"] > 0
            else None
        )
        row["speedup_vs_event"] = speedup
        print(
            f"fastpath {row['name']:<14} {row['events']:>9,} events  "
            f"{row['wall_seconds']:.3f}s  {row['events_per_sec']:>10,.0f} events/s"
            + (f"  ({speedup:.2f}x event)" if speedup is not None else "")
        )
    return rows


#: Cached submissions timed per sample by the ``serve`` section.
SERVE_CACHED_SUBMITS = 25


def measure_serve(scale: float = SCALE, samples: int = SAMPLES) -> list[dict]:
    """Serve-daemon throughput (docs/service.md), two rows:

    * ``serve-cached-submit`` — submissions/second for requests the
      persistent cache already settles (the dedup + HTTP round-trip
      overhead a warm client sees);
    * ``serve-e2e-single-job`` — jobs/second for a cold single job
      through submit → queue → worker → SSE ``job_done`` (event-driven,
      no polling granularity in the number); each sample is a new seed.

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
            seeds = iter(range(9000, 9000 + samples))

            def cold_job() -> None:
                job = client.submit({"jobs": [dict(base, seed=next(seeds))]})
                for _event in client.events(job["job"]):
                    pass  # generator stops at job_done

            wall, iqr = timed_samples(cold_job, samples)
            rows.append({
                "name": "serve-e2e-single-job",
                "scale": scale,
                "samples": samples,
                "wall_seconds": round(wall, 6),
                "wall_iqr": round(iqr, 6),
                "events_per_sec": round(1.0 / wall, 3),
            })
            print(
                f"serve  e2e-single-job     {wall:.3f}s  "
                f"{1.0 / wall:>10,.2f} jobs/s"
            )

            cached = dict(base, seed=9000)  # settled by the samples above

            def cached_submits() -> None:
                for _ in range(SERVE_CACHED_SUBMITS):
                    body = client.submit({"jobs": [cached]})
                    assert body["state"] == "done", "cache dedup broke"

            wall, iqr = timed_samples(cached_submits, samples)
            rate = SERVE_CACHED_SUBMITS / wall
            rows.append({
                "name": "serve-cached-submit",
                "scale": scale,
                "requests": SERVE_CACHED_SUBMITS,
                "samples": samples,
                "wall_seconds": round(wall, 6),
                "wall_iqr": round(iqr, 6),
                "events_per_sec": round(rate, 1),
            })
            print(
                f"serve  cached-submit      {wall:.3f}s  "
                f"{rate:>10,.1f} requests/s"
            )
        finally:
            thread.stop()
    return rows


#: Accesses in the ``ingest`` section's trace.
INGEST_ACCESSES = 400_000

#: Cold digests per ``ingest-digest-cold`` sample.
INGEST_DIGEST_ROUNDS = 10

#: Memoised digest lookups per ``ingest-digest-cached`` sample.
INGEST_CACHED_LOOKUPS = 2_000


def measure_ingest(accesses: int = INGEST_ACCESSES, samples: int = SAMPLES) -> list[dict]:
    """Streaming trace-ingestion throughput (docs/traces.md), three rows:

    * ``ingest-cold-parse`` — accesses/second for a cold gzip k6 parse →
      page-run conversion → :class:`Workload` build (digest skipped),
      with the compressed-file read rate in ``mb_per_sec``;
    * ``ingest-digest-cold`` — bytes/second of the streaming SHA-256
      content digest with its stat-memo cleared;
    * ``ingest-digest-cached`` — lookups/second once the (path, size,
      mtime) memo is warm: the per-job fingerprint overhead a trace-backed
      bench matrix actually pays.

    Each sample lasts at least ~10 ms.  All rows report their rate in the shared ``events_per_sec`` field so
    :func:`check_regression` gates them like every other section.
    """
    from repro.workloads import trace_files
    from repro.workloads.ingest import ingest_trace, synthesize_k6_trace, trace_digest

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


def _rate(value: float) -> str:
    """A rate with at least three significant digits, so the log shows how
    near a slow row (a few jobs/s) came to its floor."""
    return f"{value:,.0f}" if abs(value) >= 100 else f"{value:#.3g}"


def load_baseline(path: Path) -> dict | None:
    """The committed baseline report, or ``None`` (with an error printed)
    when it cannot be read."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read baseline {path}: {exc}", file=sys.stderr)
        return None


def check_regression(report: dict, baseline: dict, max_regression: float,
                     baseline_name: str = "the baseline") -> int:
    """Compare every gated baseline row's events/sec against this run's;
    a baseline row the run did not measure fails as well."""
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
                f"{_rate(row['events_per_sec']):>10} vs baseline "
                f"{_rate(base['events_per_sec']):>10} (floor {_rate(floor)}) {status}"
            )
            if status != "ok":
                failures += 1
    if failures:
        print(
            f"error: {failures} case(s) regressed more than "
            f"{max_regression:.0%} below {baseline_name} or went unmeasured",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_kernel.json"),
                        help="report destination (default BENCH_kernel.json)")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="compare against this committed report")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="allowed fractional events/sec drop vs the "
                             "baseline (default 0.30)")
    args = parser.parse_args(argv)
    output = Path(args.output)

    # The baseline is read before anything is written: with --output at
    # its default the run would otherwise overwrite the baseline and then
    # compare against itself.
    baseline = None
    if args.baseline:
        baseline_path = Path(args.baseline)
        if output.resolve() == baseline_path.resolve():
            print(
                f"error: --output {args.output} is the --baseline file; write "
                "the run elsewhere (CI uses --output BENCH_smoke.json)",
                file=sys.stderr,
            )
            return 2
        baseline = load_baseline(baseline_path)
        if baseline is None:
            return 2

    report = {
        "schema": 1,
        "machine": machine_stamp(),
        "kernel": measure_kernel(),
    }
    report["fastpath"] = measure_fastpath(report["kernel"])
    report["serve"] = measure_serve()
    report["ingest"] = measure_ingest()

    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")

    if baseline is not None:
        return check_regression(report, baseline, args.max_regression, args.baseline)
    return 0


if __name__ == "__main__":
    sys.exit(main())
