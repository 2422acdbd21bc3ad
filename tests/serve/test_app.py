"""Service-core behaviour: in-flight dedup, backpressure, drain.

These drive :class:`ServeApp` directly on an event loop with an
injectable executor (a threading gate standing in for a simulation), so
the concurrency contracts are tested without simulation wall-time.  One
real tiny simulation provides the result payload.
"""

import asyncio
import threading
import time

import pytest

from repro.serve.app import ServeApp, ServeJournal, ServeSettings
from repro.serve.requests import parse_job
from repro.sim.cache import ResultCache
from repro.sim.parallel import JobOutcome

JOB = {"workload": "MM", "policy": "baseline", "scale": 0.02, "seed": 3,
       "backend": "functional"}


@pytest.fixture(scope="module")
def tiny_result():
    """One real (tiny) simulation result reused as every fake outcome."""
    return parse_job(JOB).execute()


class GatedExecutor:
    """Counts executions; optionally blocks until released."""

    def __init__(self, result, *, gated=False, cache=None, fail=False):
        self.result = result
        self.gate = threading.Event()
        if not gated:
            self.gate.set()
        self.cache = cache
        self.fail = fail
        self.lock = threading.Lock()
        self.executed = 0

    def __call__(self, task, tick):
        with self.lock:
            self.executed += 1
        assert self.gate.wait(timeout=30), "executor gate never released"
        tick()
        if self.fail:
            return JobOutcome(
                spec=task.spec, digest=task.digest, benches=task.benches,
                cached=False, seconds=0.01, events=0, total_cycles=0,
                result=None, status="crashed", attempts=2,
                error={"class": "WorkerCrash", "message": "boom"},
            )
        if self.cache is not None:
            self.cache.put(task.fingerprint, self.result)
        return JobOutcome(
            spec=task.spec, digest=task.digest, benches=task.benches,
            cached=False, seconds=0.01,
            events=self.result.events_executed,
            total_cycles=self.result.total_cycles,
            result=self.result,
        )


def make_app(tmp_path, execute, **settings):
    defaults = dict(workers=1, max_pending=8)
    defaults.update(settings)
    cache = ResultCache(tmp_path / "cache")
    return ServeApp(ServeSettings(**defaults), cache=cache, execute=execute)


async def wait_until(predicate, timeout=15.0):
    for _ in range(int(timeout / 0.01)):
        if predicate():
            return
        await asyncio.sleep(0.01)
    raise AssertionError("condition not reached in time")


def drain_queue(queue):
    events = []
    while not queue.empty():
        events.append(queue.get_nowait())
    return events


class SlowJournal(ServeJournal):
    """A journal on a slow disk: every write blocks its worker thread."""

    def write(self, event):
        time.sleep(0.05)
        super().write(event)


class TestInflightDedup:
    def test_identical_submissions_execute_once(self, tmp_path, tiny_result):
        async def main():
            executor = GatedExecutor(tiny_result, gated=True)
            app = make_app(tmp_path, executor)
            await app.start()
            s1, b1, _ = app.submit({"jobs": [JOB]}, "alice")
            await wait_until(lambda: app.pool.busy == 1)
            s2, b2, _ = app.submit({"jobs": [JOB]}, "bob")
            assert (s1, s2) == (201, 201)
            assert b1["dedup"]["new"] == 1
            assert b2["dedup"] == {"matrix": 0, "cache": 0, "inflight": 1,
                                   "new": 0}
            # Two subscribers attach to the one running task.
            job1, q1 = app.subscribe(b1["job"])
            job2, q2 = app.subscribe(b2["job"])
            executor.gate.set()
            await wait_until(lambda: app.job_terminal(job1)
                             and app.job_terminal(job2))
            assert executor.executed == 1  # the dedup contract
            for queue in (q1, q2):
                kinds = [e["event"] for e in drain_queue(queue)]
                assert "task_finished" in kinds
                assert "job_done" in kinds
            status, body = app.job_result(b2["job"])
            assert status == 200
            assert body["tasks"][0]["source"] == "run"
            await self._shutdown(app)

        asyncio.run(main())

    async def _shutdown(self, app):
        await app.drain()

    def test_terminal_job_already_holds_its_events(self, tmp_path, tiny_result):
        """Once ``job_terminal(job)`` holds, every subscriber queue already
        holds ``task_finished`` and ``job_done``: no await separates a
        task's terminal state from its events, however slow the journal."""
        async def main():
            executor = GatedExecutor(tiny_result, gated=True)
            app = make_app(tmp_path, executor)
            app.journal = SlowJournal(app.journal.path)
            await app.start()
            _s, b1, _ = app.submit({"jobs": [JOB]}, "alice")
            await wait_until(lambda: app.pool.busy == 1)
            _s, b2, _ = app.submit({"jobs": [JOB]}, "bob")
            subscribers = [app.subscribe(b1["job"]), app.subscribe(b2["job"])]
            executor.gate.set()
            deadline = time.monotonic() + 15
            while not all(app.job_terminal(job) for job, _queue in subscribers):
                assert time.monotonic() < deadline, "jobs never became terminal"
                await asyncio.sleep(0)
            for _job, queue in subscribers:
                kinds = [e["event"] for e in drain_queue(queue)]
                assert "task_finished" in kinds
                assert kinds[-1] == "job_done"
            await app.drain()

        asyncio.run(main())

    def test_resubmit_after_completion_hits_cache(self, tmp_path, tiny_result):
        async def main():
            cache = ResultCache(tmp_path / "cache")
            executor = GatedExecutor(tiny_result, cache=cache)
            app = ServeApp(ServeSettings(workers=1), cache=cache,
                           execute=executor)
            await app.start()
            _s, b1, _ = app.submit({"jobs": [JOB]}, "alice")
            job1 = app.store.jobs[b1["job"]]
            await wait_until(lambda: app.job_terminal(job1))
            _s, b2, _ = app.submit({"jobs": [JOB]}, "bob")
            assert b2["state"] == "done"
            assert b2["dedup"]["cache"] == 1
            assert executor.executed == 1
            assert app.store.stats["dedup_cache"] == 1
            await app.drain()

        asyncio.run(main())

    def test_matrix_dedup_within_request(self, tmp_path, tiny_result):
        async def main():
            app = make_app(tmp_path, GatedExecutor(tiny_result))
            await app.start()
            _s, body, _ = app.submit({"jobs": [JOB, dict(JOB)]}, "alice")
            assert body["dedup"]["matrix"] == 1
            assert body["counts"]["total"] == 1
            await wait_until(
                lambda: app.job_terminal(app.store.jobs[body["job"]]))
            await app.drain()

        asyncio.run(main())


class TestBackpressure:
    def test_quota_exceeded_is_429_with_retry_after(self, tmp_path, tiny_result):
        async def main():
            executor = GatedExecutor(tiny_result, gated=True)
            app = make_app(tmp_path, executor, workers=1, max_pending=1)
            await app.start()
            jobs = [dict(JOB, seed=i) for i in range(3)]
            s1, _b, _ = app.submit({"jobs": [jobs[0]]}, "greedy")
            await wait_until(lambda: app.pool.busy == 1)  # slot taken
            s2, _b, _ = app.submit({"jobs": [jobs[1]]}, "greedy")
            s3, body, headers = app.submit({"jobs": [jobs[2]]}, "greedy")
            assert (s1, s2, s3) == (201, 201, 429)
            assert "Retry-After" in headers
            assert body["retry_after"] >= 1
            assert app.rejections == 1
            # The other client is unaffected by greedy's full queue.
            s4, _b, _ = app.submit({"jobs": [dict(JOB, seed=9)]}, "light")
            assert s4 == 201
            executor.gate.set()
            await wait_until(lambda: not app.store.queued_tasks()
                             and not app.store.running_tasks())
            await app.drain()

        asyncio.run(main())

    def test_whole_request_rejected_atomically(self, tmp_path, tiny_result):
        """A request that would overflow the quota admits none of its
        jobs — no partial enqueue."""
        async def main():
            executor = GatedExecutor(tiny_result, gated=True)
            app = make_app(tmp_path, executor, workers=1, max_pending=2)
            await app.start()
            status, _b, _ = app.submit(
                {"jobs": [dict(JOB, seed=i) for i in range(10)]}, "greedy")
            assert status == 429
            assert app.queue.pending("greedy") == 0
            assert not app.store.tasks
            executor.gate.set()
            await app.drain()

        asyncio.run(main())


class TestFailuresAndResults:
    def test_failed_outcome_fails_the_job(self, tmp_path, tiny_result):
        async def main():
            app = make_app(tmp_path, GatedExecutor(tiny_result, fail=True))
            await app.start()
            _s, body, _ = app.submit({"jobs": [JOB]}, "alice")
            job = app.store.jobs[body["job"]]
            await wait_until(lambda: app.job_terminal(job))
            assert app.store.job_state(job) == "failed"
            status, result = app.job_result(body["job"])
            assert status == 200
            task = result["tasks"][0]
            assert task["state"] == "failed"
            assert task["error"]["class"] == "WorkerCrash"
            assert task["result"] is None
            assert app.store.stats["tasks_failed"] == 1
            await app.drain()

        asyncio.run(main())

    def test_result_endpoint_lifecycle(self, tmp_path, tiny_result):
        async def main():
            executor = GatedExecutor(tiny_result, gated=True)
            app = make_app(tmp_path, executor)
            await app.start()
            assert app.job_result("job-999999")[0] == 404
            assert app.job_status("job-999999") is None
            _s, body, _ = app.submit({"jobs": [JOB]}, "alice")
            status, pending = app.job_result(body["job"])
            assert status == 202
            assert pending["state"] in ("queued", "running")
            executor.gate.set()
            job = app.store.jobs[body["job"]]
            await wait_until(lambda: app.job_terminal(job))
            status, done = app.job_result(body["job"])
            assert status == 200
            assert done["tasks"][0]["result"]["events_executed"] == \
                tiny_result.events_executed
            await app.drain()

        asyncio.run(main())


class TestDrain:
    def test_drain_finishes_running_and_journals_queued(self, tmp_path,
                                                        tiny_result):
        async def main():
            executor = GatedExecutor(tiny_result, gated=True)
            app = make_app(tmp_path, executor, workers=1)
            await app.start()
            bodies = []
            for i in range(3):
                status, body, _ = app.submit(
                    {"jobs": [dict(JOB, seed=i)]}, "alice")
                assert status == 201
                bodies.append(body)
            await wait_until(lambda: app.pool.busy == 1)
            queued_job = app.store.jobs[bodies[2]["job"]]
            _job, queue = app.subscribe(bodies[2]["job"])
            drainer = asyncio.ensure_future(app.drain())
            await asyncio.sleep(0.05)
            # New submissions are refused the moment draining starts.
            status, _b, headers = app.submit({"jobs": [JOB]}, "bob")
            assert status == 503
            assert "Retry-After" in headers
            executor.gate.set()
            drained = await drainer
            assert drained == {"completed": 1, "journaled": 2}
            assert app.state == "stopped"
            assert executor.executed == 1  # queued jobs never started
            # The subscriber of a journalled job sees a terminal event.
            kinds = [e["event"] for e in drain_queue(queue)]
            assert "job_done" in kinds
            # The journal records every submitted digest exactly once.
            journal = await asyncio.to_thread(
                (app.cache.cache_dir / "serve-journal.jsonl").read_text
            )
            submitted = {b["tasks"][0]["digest"] for b in bodies}
            for digest in submitted:
                assert journal.count(digest) == 1
            assert app.store.job_state(queued_job) in ("queued", "running")

        asyncio.run(main())

    def test_drain_is_idempotent(self, tmp_path, tiny_result):
        async def main():
            app = make_app(tmp_path, GatedExecutor(tiny_result))
            await app.start()
            first = await app.drain()
            second = await app.drain()
            assert first == second

        asyncio.run(main())
