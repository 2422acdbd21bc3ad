"""The benchmark's four workloads, measured from outside the program.

Every workload times what a user waits for — ``repro`` CLI subprocesses
and HTTP round trips to a ``repro serve`` daemon — and then checks the
program's outputs.  The traced pass re-runs the workload's jobs
in-process, with spans around the public calls each layer exposes
(:func:`run_traced`).  Nothing under ``src/`` is modified or
instrumented.

Load is sized for a 2-core machine: ``--jobs 2``, ``serve --workers 2``
and two closed-loop clients.  Sizes are keyword arguments, so the tests
can run every workload at a tiny size.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import json
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from repro.reporting.export import result_from_dict, result_to_dict
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.requests import parse_job
from repro.sim.cache import ResultCache, fingerprint_digest
from repro.sim.driver import simulate
from repro.sim.parallel import JobSpec, dedupe_jobs, expand_matrix
from repro.sim.results import SimulationResult
from repro.workloads.ingest import ingest_trace, synthesize_k6_trace
from repro.workloads.multi_app import (
    SINGLE_APP_NAMES,
    build_alone_workload,
    build_mix_workload,
    build_multi_app_workload,
    build_single_app_workload,
)

from spans import Tracer, span_cost_seconds

#: Worker processes, daemon workers and serve clients: sized for 2 cores.
WORKERS = 2

#: Upper bound on any one subprocess (the whole run must end in 180 s).
SUBPROCESS_TIMEOUT = 150.0


class BenchError(RuntimeError):
    """The workload cannot continue (a CLI run failed, the daemon died)."""


@dataclass
class Context:
    """Where and how one workload runs."""

    root: Path
    """Checkout root: holds ``src/`` and ``bench/``."""
    work: Path
    """Scratch directory for caches, traces and outputs (caller removes it)."""
    seed: int
    seconds: float
    trace: bool = False
    env: dict[str, str] = field(init=False)

    def __post_init__(self) -> None:
        # Programs write their bytecode cache, as a user's installation
        # does, so timings do not include compiling the sources.
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"}
        env["PYTHONPATH"] = str(self.root / "src")
        env["REPRO_CACHE_DIR"] = str(self.work / "default-cache")
        self.env = env


@dataclass
class Report:
    """Metrics, operation counts and check failures of one workload run."""

    workload: str
    metrics: dict[str, dict[str, Any]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    model_digest: str = ""
    check_s: float = 0.0
    tracer: Tracer | None = None

    def put(self, name: str, value: float, unit: str, n: int = 1,
            samples: list[float] | None = None) -> None:
        entry: dict[str, Any] = {
            "value": value if isinstance(value, int) else float(value),
            "unit": unit,
            "n": n,
        }
        if samples is not None and len(samples) > 1:
            entry["samples"] = [float(v) for v in samples]
        self.metrics[name] = entry

    def put_median(self, name: str, samples: list[float], unit: str) -> None:
        if not samples:
            raise BenchError(f"no samples for {name}")
        self.put(name, statistics.median(samples), unit, len(samples), samples)

    def op(self, ok: bool, what: str) -> bool:
        """Count one attempted operation or check; record it if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


# -- subprocesses --------------------------------------------------------------


@dataclass
class Completed:
    wall: float
    rss_mb: float
    """Peak RSS of the process tree: the command and its reaped children."""
    returncode: int
    stderr: str


@dataclass
class Launched:
    """A command running under ``bench/launch.py`` in its own session."""

    proc: subprocess.Popen
    report: Path

    def start(self) -> float:
        """``time.monotonic`` when the command was started."""
        return json.loads(self.report.read_text())["start"]

    def wait(self) -> Completed:
        """Wait (killing the whole session after the timeout) and read
        the launcher's measurements."""
        try:
            self.proc.wait(SUBPROCESS_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        try:
            info = json.loads(self.report.read_text())
        except ValueError:  # the launcher died before it started the command
            info = {}
        self.report.unlink()
        if "end" not in info:  # the launcher was killed: clear its session
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.proc.pid, signal.SIGKILL)
            return Completed(0.0, 0.0, self.proc.returncode or -1, "")
        return Completed(info["end"] - info["start"], info["maxrss_kb"] / 1024.0,
                         info["returncode"], "")


def launch(ctx: Context, cmd: list[str], **popen: Any) -> Launched:
    """Start ``cmd`` from the checkout root under ``bench/launch.py``,
    which measures it from a process no bigger than an interpreter."""
    fd, report = tempfile.mkstemp(dir=ctx.work, suffix=".json")
    os.close(fd)
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("launch.py")), report, *cmd],
        cwd=ctx.root, env=ctx.env, start_new_session=True, **popen,
    )
    return Launched(proc, Path(report))


def run_timed(ctx: Context, cmd: list[str]) -> Completed:
    """Run ``cmd`` to completion; wall time, peak RSS and stderr."""
    with tempfile.TemporaryFile(dir=ctx.work) as err:
        done = launch(ctx, cmd, stdout=subprocess.DEVNULL, stderr=err).wait()
        err.seek(0)
        done.stderr = err.read().decode(errors="replace")
    return done


def repro(ctx: Context, *args: Any) -> Completed:
    """One ``repro`` CLI run; a non-zero exit ends the workload."""
    argv = [str(a) for a in args]
    done = run_timed(ctx, [sys.executable, "-m", "repro.cli", *argv])
    if done.returncode != 0:
        raise BenchError(
            f"repro {' '.join(argv)} exited {done.returncode}: "
            f"{done.stderr.strip()[-600:]}"
        )
    return done


def import_seconds(ctx: Context, repeats: int = 5) -> tuple[float, int]:
    """Net ``import repro.cli`` time: interleaved medians, minus bare start-up."""
    bare, full = [], []
    for _ in range(repeats):
        bare.append(run_timed(ctx, [sys.executable, "-c", "pass"]).wall)
        full.append(run_timed(ctx, [sys.executable, "-c", "import repro.cli"]).wall)
    return statistics.median(full) - statistics.median(bare), repeats


# -- in-process jobs, layer by layer ---------------------------------------------

_BUILDERS: dict[str, Callable[..., Any]] = {
    "single": build_single_app_workload,
    "multi": build_multi_app_workload,
    "mix": build_mix_workload,
    "alone": build_alone_workload,
}


def run_traced(tracer: Tracer, spec: JobSpec, cache: ResultCache) -> SimulationResult:
    """Run ``spec`` in this process as :meth:`JobSpec.execute` would, with
    one span per layer: key, build or ingest, simulate, export, store, load.
    The tests pin the result equal to ``spec.execute()``."""
    with tracer.span("job", request=spec.label):
        with tracer.span("cache.key"):
            fingerprint = spec.fingerprint()
            fingerprint_digest(fingerprint)
        config = spec.resolved_config()
        options = dict(spec.options)
        ingested = None
        with tracer.span("workloads.build") as span:
            if spec.kind == "trace":
                ingested = ingest_trace(
                    spec.workload, config=config,
                    split=options.pop("split", "round-robin"), scale=spec.scale,
                )
                workload = ingested.workload
                span["count"] = ingested.stats.records
            else:
                workload = _BUILDERS[spec.kind](
                    spec.workload, config, scale=spec.scale, seed=spec.seed
                )
                span["count"] = sum(workload.accesses_for(p) for p in workload.pids)
        with tracer.span(f"sim.{spec.backend}") as span:
            result = simulate(config, workload, spec.policy,
                              backend=spec.backend, **options)
            span["count"] = result.events_executed
        if ingested is not None:
            stats = ingested.stats
            result.metadata["trace"] = {
                "digest": stats.digest, "split": stats.split,
                "format": stats.format, "records": stats.records,
                "unique_pages": stats.unique_pages, "path": str(spec.workload),
            }
        with tracer.span("reporting.to_dict"):
            payload = result_to_dict(result, include_stream=True)
        with tracer.span("reporting.json"):
            json.dumps(payload)
        with tracer.span("cache.put"):
            cache.put(fingerprint, result)
        with tracer.span("cache.get"):
            cache.get(fingerprint)
    return result


def plain(result: SimulationResult) -> Any:
    """A result as the JSON data the CLI and the daemon emit."""
    return json.loads(json.dumps(result_to_dict(result)))


def layer_metrics(report: Report, tracer: Tracer, ctx: Context) -> None:
    """Per-layer self times and counts of the traced pass."""
    own = tracer.self_times()
    build = own.get("workloads.build", 0.0)
    accesses = tracer.count("workloads.build")
    report.put("workloads.build_s", build, "s", len(tracer.durations("workloads.build")))
    report.put("workloads.accesses", accesses, "count")
    report.put("workloads.accesses_per_s", accesses / build if build else 0.0, "1/s")
    for layer in ("cache.key", "cache.put", "cache.get",
                  "reporting.to_dict", "reporting.json"):
        report.put_median(f"{layer}_ms", [d * 1e3 for d in tracer.durations(layer)], "ms")
    for backend in ("event", "functional"):
        name = f"sim.{backend}"
        busy = own.get(name, 0.0)
        events = tracer.count(name)
        runs = len(tracer.durations(name))
        report.put(f"{name}.busy_s", busy, "s", runs)
        report.put(f"{name}.ns_per_event", busy / events * 1e9 if events else 0.0, "ns", runs)
    report.put("trace.overhead_frac",
               len(tracer.spans) * span_cost_seconds() / tracer.wall(), "fraction")
    seconds, repeats = import_seconds(ctx)
    report.put("cli.import_s", seconds, "s", repeats)


def runner_metrics(report: Report, job_seconds: list[float], wall: float,
                   retries: int) -> None:
    """Worker-pool use: busy share, unused worker-seconds, longest job."""
    capacity = WORKERS * wall
    busy = sum(job_seconds)
    report.put("runner.busy_frac", busy / capacity, "fraction", len(job_seconds))
    report.put("runner.overhead_s", capacity - busy, "s", len(job_seconds))
    report.put("runner.longest_job_s", max(job_seconds), "s", len(job_seconds))
    report.put("runner.retries", retries, "count")


def model_metrics(report: Report, results: dict[str, SimulationResult]) -> None:
    """Simulated statistics summed over the workload's results: exact
    counts that a simulator-speed change must leave identical."""
    iommu: Counter = Counter()
    walker: Counter = Counter()
    tracker: Counter = Counter()
    for result in results.values():
        iommu.update(result.iommu_counters)
        walker.update(result.walker_counters)
        tracker.update(result.tracker_stats or {})
    n = len(results)
    requests = iommu["requests"]
    report.put("model.events", sum(r.events_executed for r in results.values()), "count", n)
    report.put("model.total_cycles", sum(r.total_cycles for r in results.values()), "cycles", n)
    report.put("model.iommu_hit_frac", iommu["tlb_hit"] / requests if requests else 0.0,
               "fraction", n)
    report.put("model.remote_hit_frac", iommu["remote_hits"] / requests if requests else 0.0,
               "fraction", n)
    report.put("model.tracker_fp_frac",
               tracker["false_positives"] / tracker["queries"] if tracker["queries"] else 0.0,
               "fraction", n)
    report.put("model.spills", iommu["spills"], "count", n)
    report.put("model.spill_discard_frac",
               iommu["spilled_discarded"] / iommu["spills"] if iommu["spills"] else 0.0,
               "fraction", n)
    report.put("model.walks", walker["walks_dispatched"], "count", n)
    views = []
    for label in sorted(results):
        view = result_to_dict(results[label])
        view.pop("metadata")
        views.append([label, view])
    report.model_digest = hashlib.sha256(
        json.dumps(views, sort_keys=True).encode()
    ).hexdigest()


# -- figure workloads: repro bench, cold and warm -----------------------------------


def _bench_run(ctx: Context, report: Report, flags: list[Any], cache_dir: Path,
               *, cold: bool, reference: dict | None) -> tuple[Completed, dict]:
    summary_path = ctx.work / "summary.json"
    done = repro(ctx, *flags, "--cache-dir", cache_dir, "--json", summary_path)
    summary = json.loads(summary_path.read_text())
    outcomes = summary["outcomes"]
    kind = "cold run" if cold else "warm rerun"
    report.op(all(o["status"] == "ok" for o in outcomes), f"{kind}: every job reports status ok")
    report.op(all(o["cached"] != cold for o in outcomes),
              f"{kind}: {'every job simulated' if cold else 'every job served from the cache'}")
    if reference is not None:
        report.op(_counts(summary) == reference,
                  f"{kind}: same events and total cycles per digest as the first cold run")
    return done, summary


def _counts(summary: dict) -> dict[str, tuple[int, int]]:
    return {o["digest"]: (o["events"], o["total_cycles"]) for o in summary["outcomes"]}


def figure_workload(ctx: Context, name: str, *, family: str, backend: str,
                    other: str, scale: float = 0.05, warm_per_cold: int = 2,
                    min_cold: int = 2, setups: int = 7, sample: int = 2) -> Report:
    """Cold ``repro bench`` runs of one figure family into fresh caches,
    each followed by warm reruns against the filled cache."""
    report = Report(name)
    flags: list[Any] = ["bench", "--only", family, "--scale", scale, "--seed", ctx.seed,
                        "--backend", backend, "--jobs", WORKERS]
    report.put_median("setup_s", [repro(ctx, *flags, "--list").wall for _ in range(setups)], "s")
    specs = [spec for spec, *_ in dedupe_jobs(
        expand_matrix([family], scale=scale, seed=ctx.seed, backend=backend))]

    colds: list[tuple[Completed, dict]] = []
    warms: list[Completed] = []
    reference = None
    deadline = time.monotonic() + ctx.seconds
    cycle = 0.0
    # A cycle starts only if half of one as long as the last fits before
    # the deadline, so the timed phase lasts ``ctx.seconds`` on average
    # however slow the machine is.
    while len(colds) < min_cold or time.monotonic() + cycle / 2 < deadline:
        started = time.monotonic()
        cache_dir = ctx.work / f"cache-{len(colds)}"
        colds.append(_bench_run(ctx, report, flags, cache_dir, cold=True, reference=reference))
        reference = reference or _counts(colds[0][1])
        if ctx.trace:
            break
        for _ in range(warm_per_cold):
            warms.append(_bench_run(ctx, report, flags, cache_dir, cold=False,
                                    reference=reference)[0])
        cycle = time.monotonic() - started

    report.put_median("cold_s", [done.wall for done, _ in colds], "s")
    if warms:
        report.put_median("warm_s", [done.wall for done in warms], "s")
    report.put_median("events_per_s", [s["simulated_events"] / done.wall
                                       for done, s in colds], "1/s")
    report.put_median("peak_rss_mb", [done.rss_mb for done, _ in colds], "MB")
    first = colds[0][1]
    executed = [o["seconds"] for o in first["outcomes"] if not o["cached"]]
    runner_metrics(report, executed, first["wall_seconds"], first["retries"])

    cache = ResultCache(ctx.work / "cache-0")
    results: dict[str, SimulationResult] = {}
    for spec in specs:
        result = cache.get(spec.fingerprint())
        if report.op(result is not None, f"{spec.label} readable from the result cache"):
            results[spec.label] = result
    model_metrics(report, results)

    tracer = report.tracer = Tracer()
    scratch = ResultCache(ctx.work / "traced-cache")
    if ctx.trace:
        for spec in specs:
            result = run_traced(tracer, spec, scratch)
            cached = results.get(spec.label)
            report.op(cached is not None and plain(result) == plain(cached),
                      f"traced {spec.label} equals the CLI's cached result")
    start = time.monotonic()
    for spec in random.Random(f"{name}:{ctx.seed}").sample(specs, sample):
        result = run_traced(tracer, replace(spec, backend=other), scratch)
        cached = results.get(spec.label)
        report.op(cached is not None and plain(result) == plain(cached),
                  f"{spec.label} on the {other} backend equals the cached result")
    report.check_s = time.monotonic() - start
    if ctx.trace:
        layer_metrics(report, tracer, ctx)
    return report


def sharing_event(ctx: Context, **sizes: Any) -> Report:
    """Fig 14: 9 Table 3 apps x baseline/least-tlb on the event engine."""
    return figure_workload(ctx, "sharing-event", family="fig14_single_app_perf",
                           backend="event", other="functional", **sizes)


def spilling_functional(ctx: Context, **sizes: Any) -> Report:
    """Fig 16: W1-W10 multi-app runs plus alone runs on the functional backend."""
    return figure_workload(ctx, "spilling-functional", family="fig16_multi_app_perf",
                           backend="functional", other="event", **sizes)


# -- serve: a closed loop of two clients ----------------------------------------------


@dataclass
class Daemon:
    launched: Launched
    url: str
    boot_s: float
    """Seconds from start to the first ``/v1/health`` 200."""


def boot_daemon(ctx: Context, cache_dir: Path, timeout: float = 60.0) -> Daemon:
    """Start ``repro serve`` and wait for its first ``/v1/health`` 200."""
    log = ctx.work / f"{cache_dir.name}.log"
    with open(log, "wb") as sink:
        launched = launch(ctx, [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                                "--workers", str(WORKERS), "--cache-dir", str(cache_dir)],
                          stdout=sink, stderr=subprocess.STDOUT)
    daemon = Daemon(launched, "", 0.0)
    deadline = time.monotonic() + timeout
    try:
        while True:
            match = re.search(r"serving on (http://\S+)", log.read_text(errors="replace"))
            if match:
                try:
                    ServeClient(match.group(1), timeout=5.0).health()
                except ServeClientError:
                    pass
                else:
                    daemon.url = match.group(1)
                    daemon.boot_s = time.monotonic() - launched.start()
                    return daemon
            if launched.proc.poll() is not None:
                raise BenchError(f"daemon exited {launched.proc.returncode} while booting: "
                                 f"{log.read_text(errors='replace')[-600:]}")
            if time.monotonic() > deadline:
                raise BenchError(f"daemon gave no /v1/health 200 within {timeout:.0f}s")
            time.sleep(0.002)
    except BaseException:
        stop_daemon(daemon)
        raise


def stop_daemon(daemon: Daemon) -> tuple[int, float]:
    """SIGTERM (graceful drain) and wait; ``(exit code, peak RSS MB)``."""
    if daemon.launched.proc.poll() is None:
        os.kill(daemon.launched.proc.pid, signal.SIGTERM)
    done = daemon.launched.wait()
    return done.returncode, done.rss_mb


def _client_loop(url: str, index: int, seed: int, deadline: float, tracer: Tracer,
                 records: list[dict], *, scale: float, min_cold: int) -> None:
    """One closed-loop client: the next request goes out when the last one
    settled.  429s and transport errors are failures, never retried."""
    client = ServeClient(url, client_name=f"bench-{index}", timeout=60.0)
    rng = random.Random(f"serve:{seed}:{index}")
    # New jobs cycle through every (app, policy) pair in a seeded order,
    # so each run sends the same mix and the median does not depend on
    # which apps a seed happened to draw.
    pairs = [(app, policy) for app in SINGLE_APP_NAMES
             for policy in ("baseline", "least-tlb")]
    rng.shuffle(pairs)
    settled: list[dict] = []
    new = cold = hits = 0
    consecutive_failures = 0
    while ((time.monotonic() < deadline or cold < min_cold or not hits)
           and consecutive_failures < 5):
        if settled and rng.random() < 0.5:
            first = rng.choice(settled)
            record: dict[str, Any] = {"kind": "hit", "job": first["job"]}
        else:
            app, policy = pairs[new % len(pairs)]
            new += 1
            job = {"workload": app, "policy": policy, "scale": scale,
                   "seed": rng.randrange(1, 2**31), "backend": "functional"}
            first = None
            record = {"kind": "cold", "job": job}
        record["id"] = f"{index}-{len(records)}"
        records.append(record)
        try:
            start = time.monotonic()
            with tracer.span("serve.request", request=record["id"]):
                with tracer.span("serve.submit"):
                    submitted = client.submit({"jobs": [record["job"]]})
                submit_end = time.monotonic()
                with tracer.span("serve.wait"):
                    events = list(client.events(submitted["job"]))
                wait_end = time.monotonic()
                with tracer.span("serve.result"):
                    status, body = client.result(submitted["job"])
            end = time.monotonic()
        except ServeClientError as exc:
            record["error"] = f"HTTP {exc.status}: {exc}"
            record["status"] = exc.status
            consecutive_failures += 1
            continue
        except (OSError, ValueError) as exc:
            record["error"] = f"transport: {exc!r}"
            consecutive_failures += 1
            continue
        task = body.get("tasks", [{}])[0] if status == 200 else {}
        record.update(
            rtt=end - start, submit=submit_end - start, wait=wait_end - submit_end,
            result_s=end - wait_end, source=task.get("source"),
            exec_s=task.get("seconds", 0.0), result=task.get("result"),
            attempts=next((e.get("attempts", 1) for e in events
                           if e.get("event") == "task_finished"), 1),
        )
        if status != 200 or task.get("state") != "done" or record["result"] is None:
            record["error"] = f"HTTP {status}, task {task.get('state')!r}"
        elif first is not None and record["result"] != first["result"]:
            record["error"] = f"repeat of {first['id']} returned a different body"
        elif first is not None and record["source"] == "run":
            record["error"] = f"repeat of {first['id']} was executed again"
        elif first is None and record["source"] != "run":
            record["error"] = f"new job served from {record['source']!r}, not executed"
        else:
            record["ok"] = True
            consecutive_failures = 0
            if first is None:
                cold += 1
                settled.append(record)
            else:
                hits += 1
            continue
        consecutive_failures += 1


def serve_closed_loop(ctx: Context, *, scale: float = 0.05, min_cold: int = 10,
                      boots: int = 5, sample: int = 3) -> Report:
    """Two closed-loop clients against ``repro serve --workers 2``."""
    report = Report("serve-closed-loop")
    boot_seconds = []
    for i in range(boots):
        daemon = boot_daemon(ctx, ctx.work / f"serve-cache-{i}")
        boot_seconds.append(daemon.boot_s)
        if i < boots - 1:
            report.op(stop_daemon(daemon)[0] == 0, "daemon drains and exits 0")
    report.put_median("setup_s", boot_seconds, "s")

    tracer = report.tracer = Tracer()
    records: list[list[dict]] = [[] for _ in range(WORKERS)]
    try:
        cpu_start = resource.getrusage(resource.RUSAGE_SELF)
        start = time.monotonic()
        deadline = start + ctx.seconds
        clients = [
            threading.Thread(target=_client_loop,
                             args=(daemon.url, i, ctx.seed, deadline, tracer, records[i]),
                             kwargs={"scale": scale, "min_cold": min_cold})
            for i in range(WORKERS)
        ]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(SUBPROCESS_TIMEOUT)
        wall = time.monotonic() - start
        cpu_end = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        code, rss = stop_daemon(daemon)
    if any(thread.is_alive() for thread in clients):
        raise BenchError("a serve client did not finish")
    report.op(code == 0, "daemon drains and exits 0")

    flat = [r for client in records for r in client]
    for record in flat:
        report.op(record.get("ok", False), f"request {record['id']}: {record.get('error')}")
    ok = [r for r in flat if r.get("ok")]
    cold = [r for r in ok if r["kind"] == "cold"]
    hits = [r for r in ok if r["kind"] == "hit"]
    if not cold or not hits:
        raise BenchError(f"serve loop settled {len(cold)} new and {len(hits)} repeated requests")
    report.put_median("cold_s", [r["rtt"] for r in cold], "s")
    report.put_median("warm_s", [r["rtt"] for r in hits], "s")
    report.put_median("events_per_s", [r["result"]["events_executed"] / r["rtt"]
                                       for r in cold], "1/s")
    report.put("peak_rss_mb", rss, "MB")

    # Serve-only numbers: printed and stored, not declared (other
    # workloads cannot emit them).
    # The medians are cold_s and warm_s; p95 only with ten samples beyond it.
    for label, group in (("cold", cold), ("hit", hits)):
        if len(group) >= 200:
            rtts = [r["rtt"] * 1e3 for r in group]
            report.put(f"serve.rtt_{label}_p95_ms",
                       statistics.quantiles(rtts, n=20, method="inclusive")[18],
                       "ms", len(group))
    report.put("serve.requests_per_s", len(ok) / wall, "1/s", len(ok))
    for key, name in (("submit", "submit"), ("wait", "wait"), ("result_s", "result")):
        report.put_median(f"serve.{name}_ms", [r[key] * 1e3 for r in ok], "ms")
    report.put_median("serve.exec_ms", [r["exec_s"] * 1e3 for r in cold], "ms")
    report.put_median("serve.overhead_ms", [(r["rtt"] - r["exec_s"]) * 1e3 for r in cold], "ms")
    report.put("serve.dedup_hit_frac", sum(r["source"] != "run" for r in ok) / len(ok),
               "fraction", len(ok))
    report.put("serve.rejected", sum(r.get("status") == 429 for r in flat), "count")
    cpu = (cpu_end.ru_utime + cpu_end.ru_stime) - (cpu_start.ru_utime + cpu_start.ru_stime)
    report.put("serve.client_cpu_frac", cpu / wall, "fraction")
    runner_metrics(report, [r["exec_s"] for r in cold], wall,
                   sum(r["attempts"] - 1 for r in cold))

    # The model is summed over each client's first seeded new jobs, so it
    # does not depend on how many requests fit in the run.
    firsts = [r for client in records
              for r in [r for r in client if r.get("ok") and r["kind"] == "cold"][:min_cold]]
    model_metrics(report, {r["id"]: result_from_dict(r["result"]) for r in firsts})

    start = time.monotonic()
    scratch = ResultCache(ctx.work / "traced-cache")
    for record in random.Random(f"serve:{ctx.seed}").sample(firsts, min(sample, len(firsts))):
        spec = parse_job(record["job"])
        for backend in ("functional", "event"):
            result = run_traced(tracer, replace(spec, backend=backend), scratch)
            report.op(plain(result) == record["result"],
                      f"served {spec.label} equals an in-process {backend} run")
    report.check_s = time.monotonic() - start
    if ctx.trace:
        layer_metrics(report, tracer, ctx)
    return report


# -- trace ingest: repro run over a synthesised k6 trace -------------------------------


def trace_ingest(ctx: Context, *, accesses: int = 200_000, footprint_pages: int = 16384,
                 scale: float = 0.1, setups: int = 3, min_runs: int = 3) -> Report:
    """``repro run`` of a seeded gzip k6 trace; warm ``repro bench --trace``
    reruns hit the cache through the trace's content digest."""
    report = Report("trace-ingest")
    path = ctx.work / "bench.k6.gz"
    seconds, digests = [], []
    for _ in range(setups):
        start = time.monotonic()
        synthesize_k6_trace(path, accesses=accesses, footprint_pages=footprint_pages,
                            seed=ctx.seed)
        seconds.append(time.monotonic() - start)
        # The gzip header stamps the write time, so compare the content.
        digests.append(hashlib.sha256(gzip.decompress(path.read_bytes())).hexdigest())
    report.op(len(set(digests)) == 1, "the seeded trace synthesises identical records")
    report.put_median("setup_s", seconds, "s")

    split = "address-hash"
    run_flags: list[Any] = ["run", "--trace", path, "--policy", "least-tlb",
                            "--backend", "functional", "--split", split, "--scale", scale]
    bench_flags: list[Any] = ["bench", "--trace", path, "--only", "trace_", "--split", split,
                              "--scale", scale, "--backend", "functional", "--jobs", WORKERS]
    cache_dir = ctx.work / "trace-cache"
    _, summary = _bench_run(ctx, report, bench_flags, cache_dir, cold=True, reference=None)
    reference = _counts(summary)
    runner_metrics(report, [o["seconds"] for o in summary["outcomes"]],
                   summary["wall_seconds"], summary["retries"])

    runs: list[Completed] = []
    outputs: list[Any] = []
    warms: list[Completed] = []
    deadline = time.monotonic() + ctx.seconds
    cycle = 0.0
    while len(runs) < min_runs or time.monotonic() + cycle / 2 < deadline:
        started = time.monotonic()
        out = ctx.work / f"run-{len(runs)}.json"
        runs.append(repro(ctx, *run_flags, "--json", out))
        outputs.append(json.loads(out.read_text()))
        report.op(outputs[-1] == outputs[0], "every repro run writes the same JSON")
        if ctx.trace:
            break
        warms.append(_bench_run(ctx, report, bench_flags, cache_dir, cold=False,
                                reference=reference)[0])
        cycle = time.monotonic() - started

    output = outputs[0]
    least = [(o["events"], o["total_cycles"]) for o in summary["outcomes"]
             if "/least-tlb@" in o["label"]]
    report.op(least == [(output["events_executed"], output["total_cycles"])],
              "repro run equals the least-tlb job of repro bench --trace")
    report.put_median("cold_s", [done.wall for done in runs], "s")
    if warms:
        report.put_median("warm_s", [done.wall for done in warms], "s")
    report.put_median("events_per_s", [output["events_executed"] / done.wall
                                       for done in runs], "1/s")
    report.put_median("peak_rss_mb", [done.rss_mb for done in runs], "MB")
    model_metrics(report, {"least-tlb": result_from_dict(output)})

    spec = JobSpec("trace", str(path), "least-tlb", None, scale, None,
                   options=(("split", split),), backend="functional")
    tracer = report.tracer = Tracer()
    scratch = ResultCache(ctx.work / "traced-cache")
    if ctx.trace:
        report.op(plain(run_traced(tracer, spec, scratch)) == output,
                  "traced run equals repro run")
    start = time.monotonic()
    report.op(plain(run_traced(tracer, replace(spec, backend="event"), scratch)) == output,
              "an event-engine run of the same ingest equals repro run")
    report.check_s = time.monotonic() - start
    if ctx.trace:
        layer_metrics(report, tracer, ctx)
    return report


#: The benchmark's workloads, by name.
WORKLOADS: dict[str, Callable[..., Report]] = {
    "sharing-event": sharing_event,
    "spilling-functional": spilling_functional,
    "serve-closed-loop": serve_closed_loop,
    "trace-ingest": trace_ingest,
}
