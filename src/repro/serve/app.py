"""The service core: submission, three-way dedup, dispatch, drain.

One :class:`ServeApp` owns the daemon's state machine.  Everything here
runs on the event loop (worker threads report back via
``call_soon_threadsafe``), so the logic is single-threaded and the
dedup/fairness invariants hold without locks:

* **dedup, three ways** — a submission's pairs first collapse within the
  request (:func:`~repro.sim.parallel.dedupe_jobs`, the matrix dedup),
  then against in-flight tasks (new jobs *attach* to the queued/running
  task and stream its progress — one worker run, many subscribers), then
  against the persistent :class:`~repro.sim.cache.ResultCache` (instant
  ``done`` tasks with ``source: "cache"``);
* **fairness + backpressure** — new work enqueues into the weighted
  :class:`~repro.serve.fairness.FairQueue`; a client at its depth limit
  is refused up front (HTTP 429 with a ``Retry-After`` estimate), before
  any of the request's tasks are admitted — submissions are atomic;
* **drain** — SIGTERM flips the app to ``draining``: running tasks
  finish under their existing deadlines, queued tasks are journalled
  (fairness order) with resubmittable request bodies, cache session
  stats flush, and the daemon exits 0.  Nothing is lost, nothing runs
  twice.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.reporting.export import result_to_dict
from repro.sim.cache import ResultCache
from repro.sim.parallel import dedupe_jobs
from repro.sim.resilience import ResiliencePolicy
from repro.serve.fairness import DEFAULT_MAX_PENDING, FairQueue, QuotaExceeded
from repro.serve.jobstore import (
    SOURCE_CACHE,
    SOURCE_INFLIGHT,
    SOURCE_RUN,
    TASK_DONE,
    TASK_FAILED,
    TASK_QUEUED,
    TASK_RUNNING,
    TERMINAL_STATES,
    JobRecord,
    JobStore,
    TaskRecord,
)
from repro.serve.pool import ExecuteFn, WorkerPool, default_execute
from repro.serve.requests import RequestError, parse_request, spec_request

SERVE_JOURNAL_NAME = "serve-journal.jsonl"

#: Fallback mean-job-seconds for Retry-After before anything completed.
DEFAULT_JOB_SECONDS = 2.0


@dataclass(frozen=True)
class ServeSettings:
    """Daemon configuration (the ``repro serve`` flags, as data)."""

    host: str = "127.0.0.1"
    port: int = 8177
    workers: int = 2
    cache_dir: str | None = None
    max_pending: int = DEFAULT_MAX_PENDING
    default_weight: float = 1.0
    weights: dict[str, float] = field(default_factory=dict)
    retries: int = 1
    job_timeout: float | None = None
    verbose: bool = False


class ServeJournal:
    """Append-only JSONL record of the daemon's terminal work.

    Lives next to the result cache (like the sweep journal).  Every task
    that reaches a terminal state is recorded, and a drain records every
    queued-but-unstarted task as ``journaled`` together with a
    resubmittable request body — the "zero lost jobs" contract is
    auditable from this file alone.

    The sync methods block on disk, so the event loop never calls them
    directly: :class:`ServeApp` uses the ``*_async`` wrappers, which hop
    to a worker thread.  Concurrent task completions therefore write
    from different threads — the internal lock keeps each JSONL record
    atomic and the handle lifecycle race-free.
    """

    def __init__(self, path: Path | None) -> None:
        self.path = path
        self._handle: Any = None
        self._lock = threading.Lock()

    def open(self) -> None:
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            self._handle = self.path.open("a")

    def write(self, event: dict[str, Any]) -> None:
        with self._lock:
            if self._handle is None:
                return
            self._handle.write(json.dumps(event, sort_keys=True) + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    async def open_async(self) -> None:
        await asyncio.to_thread(self.open)

    async def write_async(self, event: dict[str, Any]) -> None:
        await asyncio.to_thread(self.write, event)

    async def close_async(self) -> None:
        await asyncio.to_thread(self.close)


class ServeApp:
    """The daemon's service core (transport-free; see :mod:`.api`)."""

    def __init__(
        self,
        settings: ServeSettings | None = None,
        *,
        cache: ResultCache | None = None,
        execute: ExecuteFn | None = None,
        note: Callable[[str], None] | None = None,
    ) -> None:
        self.settings = settings or ServeSettings()
        self.cache = cache if cache is not None else ResultCache.from_env(
            self.settings.cache_dir
        )
        self.policy = ResiliencePolicy(
            retries=self.settings.retries,
            hard_timeout=self.settings.job_timeout,
        )
        if note is not None:
            self.note = note
        elif self.settings.verbose:
            self.note = lambda msg: print(msg, file=sys.stderr, flush=True)
        else:
            self.note = lambda _msg: None
        self.store = JobStore()
        self.queue = FairQueue(
            max_pending=self.settings.max_pending,
            default_weight=self.settings.default_weight,
            weights=self.settings.weights,
        )
        self.pool = WorkerPool(
            self.settings.workers,
            execute or default_execute(self.cache, self.policy, self.note),
        )
        self.journal = ServeJournal(
            self.cache.cache_dir / SERVE_JOURNAL_NAME
            if self.cache.enabled else None
        )
        # Injectable seams for the blocking cache reads.  The async entry
        # points (submit_async, job_result_async, health_async) prefetch
        # via asyncio.to_thread and hand the data down, so the event loop
        # itself never touches disk; these bound defaults serve the
        # synchronous callers (CLI, tests) and the rare prefetch races.
        self._cache_lookup: Callable[[str], Any] = self.cache.get
        self._cache_describe: Callable[[], dict[str, Any]] = self.cache.describe
        self.state = "starting"
        self.started_at = time.monotonic()
        self.rejections = 0
        self.drained = {"completed": 0, "journaled": 0}
        self._ewma_seconds: float | None = None
        self._cond = asyncio.Condition()
        self._dispatcher: asyncio.Task | None = None
        self._inflight: set[asyncio.Task] = set()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Open the journal and start the dispatcher."""
        await self.journal.open_async()
        await self.journal.write_async(
            {"event": "serve", "workers": self.pool.workers}
        )
        self.state = "serving"
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def drain(self) -> dict[str, int]:
        """Graceful shutdown: finish running work, journal queued work."""
        if self.state not in ("serving",):
            return dict(self.drained)
        self.state = "draining"
        self.note("drain: no longer accepting work")
        async with self._cond:
            self._cond.notify_all()
        if self._dispatcher is not None:
            await self._dispatcher
        if self._inflight:
            self.note(f"drain: waiting for {len(self._inflight)} running job(s)")
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        journaled = 0
        for client, digest in self.queue.drain():
            task = self.store.tasks.get(digest)
            if task is None or task.state != TASK_QUEUED:
                continue
            await self.journal.write_async({
                "event": "journaled",
                "digest": digest,
                "label": task.label,
                "client": client,
                "request": spec_request(task.spec),
                "benches": list(task.benches),
            })
            journaled += 1
            self.store.publish(task, {
                "event": "journaled",
                "digest": digest,
                "label": task.label,
            })
        self.drained["journaled"] = journaled
        for job in self.store.jobs.values():
            if not self.job_terminal(job):
                self.store.publish_job(job, {
                    "event": "job_done", "state": "drained",
                })
        await self.journal.write_async({
            "event": "drain",
            "completed": self.drained["completed"],
            "journaled": journaled,
        })
        await self.journal.close_async()
        flush = getattr(self.cache, "flush_session_stats", None)
        if flush is not None:
            await asyncio.to_thread(flush)
        self.state = "stopped"
        self.note(
            f"drain: complete ({self.drained['completed']} finished, "
            f"{journaled} journaled)"
        )
        return dict(self.drained)

    # -- submission ---------------------------------------------------------

    async def submit_async(
        self, payload: Any, fallback_client: str | None = None
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        """:meth:`submit` with cache lookups off the event loop.

        The HTTP layer calls this so a large cache-warm submission (up
        to one JSON read per unique job) cannot stall other handlers,
        SSE delivery, or heartbeats.  The lookups run in a thread, then
        the loop-state mutation happens in the sync :meth:`submit` —
        which re-checks in-flight state, so the thread hop cannot
        double-run a job."""
        prefetched: dict[str, Any] | None = None
        if self.state == "serving" and self.cache.enabled:
            # One thread hop covers parsing, fingerprinting, and the
            # cache reads: a trace job's fingerprint digests the file
            # (I/O), and the digest memo warmed here makes the re-parse
            # inside the sync :meth:`submit` a dict hit.  The inflight
            # probe in the thread is only an optimisation — submit()
            # re-checks on the loop, so the race merely wastes a read.
            def prefetch() -> dict[str, Any] | None:
                try:
                    parsed = parse_request(payload)
                except RequestError:
                    return None  # submit() produces the 400
                lookups = [
                    (digest, fingerprint)
                    for _spec, fingerprint, digest, _benches
                    in dedupe_jobs(parsed.pairs)
                    if self.store.inflight(digest) is None
                ]
                return {d: self.cache.get(fp) for d, fp in lookups}

            prefetched = await asyncio.to_thread(prefetch)
        return self.submit(payload, fallback_client, prefetched=prefetched)

    def submit(
        self, payload: Any, fallback_client: str | None = None,
        *, prefetched: dict[str, Any] | None = None
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        """Handle one submission; returns ``(status, body, headers)``.

        ``prefetched`` maps task digests to already-performed persistent
        cache lookups (hit or ``None`` miss) so this method does no disk
        I/O for them; digests not in the map fall back to a synchronous
        lookup."""
        if self.state != "serving":
            return 503, {
                "error": f"server is {self.state}; not accepting submissions",
            }, {"Retry-After": "30"}
        try:
            parsed = parse_request(payload)
        except RequestError as exc:
            return 400, {"error": str(exc)}, {}
        client = parsed.client or fallback_client or "anon"

        unique = dedupe_jobs(parsed.pairs)
        dedup = {
            "matrix": len(parsed.pairs) - len(unique),
            "cache": 0, "inflight": 0, "new": 0,
        }
        plan: list[tuple[str, Any]] = []
        for spec, fingerprint, digest, benches in unique:
            inflight = self.store.inflight(digest)
            if inflight is not None:
                plan.append((SOURCE_INFLIGHT, inflight))
                dedup["inflight"] += 1
                continue
            existing = self.store.tasks.get(digest)
            if prefetched is not None and digest in prefetched:
                cached = prefetched[digest]
            elif existing is not None and existing.state == TASK_DONE \
                    and existing.result is not None:
                # In-memory terminal result — also covers a task that was
                # in flight at prefetch time and finished before submit,
                # so the async path stays off disk in that race.
                cached = existing.result
            else:
                cached = self._cache_lookup(fingerprint)
            if cached is None and existing is not None and \
                    existing.state == TASK_DONE and existing.result is not None:
                cached = existing.result  # memory hit after external prune
            if cached is not None:
                plan.append((SOURCE_CACHE, (spec, fingerprint, digest, benches,
                                            cached)))
                dedup["cache"] += 1
            else:
                plan.append((SOURCE_RUN, (spec, fingerprint, digest, benches)))
                dedup["new"] += 1

        # Admission is atomic: quota-check *before* any task is created.
        if self.queue.pending(client) + dedup["new"] > self.queue.max_pending:
            self.rejections += 1
            retry_after = self.retry_after_estimate()
            body = {
                "error": (
                    f"client {client!r} queue depth "
                    f"{self.queue.pending(client)} + {dedup['new']} new jobs "
                    f"exceeds the per-client limit of {self.queue.max_pending}"
                ),
                "retry_after": retry_after,
                "queued": self.queue.pending(client),
                "limit": self.queue.max_pending,
            }
            return 429, body, {"Retry-After": str(retry_after)}

        digests = tuple(
            item.digest if source == SOURCE_INFLIGHT else item[2]
            for source, item in plan
        )
        job = self.store.new_job(client, digests, dedup)

        enqueued = False
        for source, item in plan:
            if source == SOURCE_INFLIGHT:
                task = item
                task.job_ids.append(job.job_id)
                continue
            if source == SOURCE_CACHE:
                spec, fingerprint, digest, benches, result = item
                task = TaskRecord(
                    digest=digest, spec=spec, fingerprint=fingerprint,
                    benches=benches, state=TASK_DONE, source=SOURCE_CACHE,
                    client=client, attempts=0,
                    events=result.events_executed,
                    total_cycles=result.total_cycles,
                    result=result, telemetry=result.telemetry,
                )
                task.job_ids.append(job.job_id)
                self.store.add_task(task)
                self.store.finish_task(task)
                continue
            spec, fingerprint, digest, benches = item
            task = TaskRecord(
                digest=digest, spec=spec, fingerprint=fingerprint,
                benches=benches, state=TASK_QUEUED, source=SOURCE_RUN,
                client=client,
            )
            task.job_ids.append(job.job_id)
            self.store.add_task(task)
            self.queue.push(client, digest, cost=spec.scale)
            enqueued = True
            self.note(f"queued     {task.label} for {client} ({digest[:12]})")
        if enqueued:
            self._kick()

        body = self.store.describe_job(job)
        return 201, body, {}

    def retry_after_estimate(self) -> int:
        """Seconds until the backlog plausibly has room (whole-queue
        drain time at the observed mean job cost)."""
        mean = self._ewma_seconds or DEFAULT_JOB_SECONDS
        backlog = len(self.queue) + self.pool.busy
        return max(1, int(backlog * mean / self.pool.workers + 0.999))

    def _kick(self) -> None:
        """Wake the dispatcher (new work or state change)."""

        async def notify() -> None:
            async with self._cond:
                self._cond.notify_all()

        asyncio.ensure_future(notify())

    # -- dispatch -----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            await self.pool.semaphore.acquire()
            entry: tuple[str, str] | None = None
            async with self._cond:
                while len(self.queue) == 0 and self.state == "serving":
                    await self._cond.wait()
                if self.state == "serving":
                    entry = self.queue.pop()
            if entry is None:
                self.pool.semaphore.release()
                return
            _client, digest = entry
            task = self.store.tasks.get(digest)
            if task is None or task.state != TASK_QUEUED:
                self.pool.semaphore.release()
                continue
            runner = asyncio.create_task(self._run_task(task))
            self._inflight.add(runner)
            runner.add_done_callback(self._inflight.discard)

    async def _run_task(self, task: TaskRecord) -> None:
        task.state = TASK_RUNNING
        task.started_at = time.monotonic()
        self.store.publish(task, {
            "event": "task_started", "digest": task.digest,
            "label": task.label,
        })
        try:
            outcome = await self.pool.run(task, on_heartbeat=self._heartbeat)
        except Exception as exc:  # the executor itself failed, not the job
            task.state = TASK_FAILED
            task.error = {"class": type(exc).__name__, "message": str(exc)}
            self.note(f"executor   {task.label} failed: {exc!r}")
        else:
            task.attempts = outcome.attempts
            task.seconds = outcome.seconds
            if outcome.result is not None:
                task.state = TASK_DONE
                task.events = outcome.result.events_executed
                task.total_cycles = outcome.result.total_cycles
                task.result = outcome.result
                task.telemetry = outcome.result.telemetry
                seconds = max(outcome.seconds, 1e-3)
                self._ewma_seconds = (
                    seconds if self._ewma_seconds is None
                    else 0.3 * seconds + 0.7 * self._ewma_seconds
                )
            else:
                task.state = TASK_FAILED
                task.error = outcome.error or {
                    "class": outcome.status, "message": outcome.status,
                }
        finally:
            self.pool.semaphore.release()
        self.store.finish_task(task)
        self.drained["completed"] += 1
        # No await between the terminal state and its events: a caller
        # that sees the job terminal must find job_done already queued.
        finished = {
            "event": "task_finished",
            **task.describe(),
        }
        if task.telemetry is not None:
            finished["telemetry"] = task.telemetry
        self.store.publish(task, finished)
        self.note(f"{task.state:<10} {task.label} ({task.seconds:.2f}s)")
        for job_id in task.job_ids:
            job = self.store.jobs.get(job_id)
            if job is not None and self.store.job_state(job) in ("done", "failed"):
                self.store.publish_job(job, {
                    "event": "job_done",
                    "state": self.store.job_state(job),
                })
        await self.journal.write_async({
            "event": "task",
            "digest": task.digest,
            "label": task.label,
            "client": task.client,
            "status": task.state,
            "attempts": task.attempts,
        })

    def _heartbeat(self, task: TaskRecord, elapsed: float) -> None:
        """Per-second progress events while a task's worker runs.

        Carries the latest known telemetry/timeline snapshot for the
        task's digest when one exists (a retried attempt after a partial
        failure, or a previous run's block) — subscribers always see the
        freshest observability data the daemon has.
        """
        if task.state != TASK_RUNNING:
            return
        event: dict[str, Any] = {
            "event": "progress",
            "digest": task.digest,
            "label": task.label,
            "elapsed": round(elapsed, 3),
        }
        if task.telemetry is not None:
            event["telemetry"] = task.telemetry
        self.store.publish(task, event)

    # -- read-side ----------------------------------------------------------

    async def health_async(self) -> dict[str, Any]:
        """:meth:`health` with the cache description — a disk glob per
        call — taken off the event loop (the HTTP layer's entry point)."""
        cache_info = await asyncio.to_thread(self._cache_describe)
        return self.health(cache_info=cache_info)

    def health(
        self, *, cache_info: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        if cache_info is None:
            cache_info = self._cache_describe()
        return {
            "status": self.state,
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "workers": self.pool.workers,
            "busy": self.pool.busy,
            "queued": len(self.queue),
            "clients": self.queue.clients(),
            "weights": dict(self.queue.weights),
            "max_pending_per_client": self.queue.max_pending,
            "rejections": self.rejections,
            "mean_job_seconds": self._ewma_seconds,
            "stats": dict(self.store.stats),
            "cache": cache_info,
        }

    def job_status(self, job_id: str) -> dict[str, Any] | None:
        job = self.store.jobs.get(job_id)
        if job is None:
            return None
        return self.store.describe_job(job)

    async def job_result_async(self, job_id: str) -> tuple[int, dict[str, Any]]:
        """:meth:`job_result` with evicted-result cache loads off the
        event loop (the HTTP layer's entry point)."""
        job = self.store.jobs.get(job_id)
        if job is not None and self.job_terminal(job):
            lookups = [
                (task.digest, task.fingerprint)
                for task in (self.store.tasks.get(d) for d in job.digests)
                if task is not None and task.state != TASK_FAILED
                and task.result is None
            ]
            if lookups:
                prefetched = await asyncio.to_thread(
                    lambda: {d: self.cache.get(fp) for d, fp in lookups}
                )
                return self.job_result(job_id, prefetched=prefetched)
        return self.job_result(job_id)

    def job_result(
        self, job_id: str, *, prefetched: dict[str, Any] | None = None
    ) -> tuple[int, dict[str, Any]]:
        """``(status, body)`` for the result endpoint: 200 when terminal,
        202 while queued/running, 404 unknown, 410 result evicted.

        ``prefetched`` maps task digests to cache loads already done
        off-loop (see :meth:`job_result_async`)."""
        job = self.store.jobs.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        state = self.store.job_state(job)
        if state not in ("done", "failed"):
            return 202, {
                "job": job_id, "state": state,
                "detail": "job still in progress; poll again or stream "
                          f"/v1/jobs/{job_id}/events",
            }
        tasks_payload = []
        for digest in job.digests:
            task = self.store.tasks[digest]
            entry: dict[str, Any] = {
                "digest": digest,
                "label": task.label,
                "source": task.source,
                "state": task.state,
                "seconds": round(task.seconds, 6),
            }
            if task.state == TASK_FAILED:
                entry["error"] = task.error
                entry["result"] = None
            else:
                result = task.result
                if result is None:
                    if prefetched is not None and digest in prefetched:
                        result = prefetched[digest]
                    else:
                        result = self._cache_lookup(task.fingerprint)
                if result is None:
                    return 410, {
                        "error": f"result for {task.label} is no longer "
                                 "available (evicted and not in cache)",
                        "digest": digest,
                    }
                include_stream = any(
                    name == "record_iommu_stream" and value
                    for name, value in task.spec.options
                )
                entry["result"] = result_to_dict(
                    result, include_stream=include_stream
                )
            tasks_payload.append(entry)
        return 200, {"job": job_id, "state": state, "tasks": tasks_payload}

    def subscribe(self, job_id: str) -> tuple[JobRecord, asyncio.Queue] | None:
        job = self.store.jobs.get(job_id)
        if job is None:
            return None
        return job, job.subscribe()

    def job_terminal(self, job: JobRecord) -> bool:
        return self.store.job_state(job) in ("done", "failed")


__all__ = [
    "DEFAULT_JOB_SECONDS",
    "SERVE_JOURNAL_NAME",
    "ServeApp",
    "ServeJournal",
    "ServeSettings",
    "TASK_RUNNING",
    "TERMINAL_STATES",
]
