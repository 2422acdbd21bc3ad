#!/usr/bin/env python
"""CI smoke for the ``repro serve`` daemon (docs/service.md).

Boots a real daemon subprocess, then walks the service contract
end-to-end:

1. submit a small fig02 bench request and stream its SSE progress
   events to completion;
2. submit the identical request again and assert it is served entirely
   by dedup (persistent cache / in-flight attach — zero new work);
3. run one ``repro run`` with ``--server`` and once locally, and assert
   both write the same JSON and print the same report apart from the
   ``served by`` line;
4. SIGTERM the daemon and assert a clean drain: exit code 0 and a
   journal whose terminal records cover the run.

The daemon's combined output is teed to ``--log`` (uploaded as a CI
artifact) so a failing run leaves the server's side of the story.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py --scale 0.05
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve.client import ServeClient  # noqa: E402


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def check(condition: bool, message: str) -> None:
    if not condition:
        fail(message)
    print(f"ok: {message}")


def tee(stream, sink, prefix: str) -> threading.Thread:
    """Copy a pipe into the log file on a background thread."""

    def pump() -> None:
        for line in stream:
            sink.write(f"{prefix}{line}")
            sink.flush()

    thread = threading.Thread(target=pump, daemon=True)
    thread.start()
    return thread


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05,
                        help="trace scale for the fig02 request")
    parser.add_argument("--log", default="serve-smoke.log",
                        help="daemon log destination (CI artifact)")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="overall wait bound for the first job")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        cache_dir = Path(tmp) / "cache"
        env = dict(os.environ,
                   PYTHONPATH=str(REPO_ROOT / "src"),
                   REPRO_CACHE_DIR=str(cache_dir))
        log = open(args.log, "w")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", "0", "--workers", "2", "--verbose"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        try:
            first = proc.stdout.readline()
            log.write(first)
            match = re.match(r"serving on (http://\S+)", first)
            if not match:
                proc.kill()
                fail(f"daemon never announced its URL (got {first!r})")
            pumps = [tee(proc.stdout, log, ""),
                     tee(proc.stderr, log, "stderr: ")]
            url = match.group(1)
            print(f"daemon up at {url}")
            client = ServeClient(url, client_name="smoke",
                                 timeout=args.timeout)

            request = {"benches": ["fig02"], "scale": args.scale,
                       "seed": 0, "backend": "functional"}

            # 1. First submission runs for real; stream it to the end.
            submitted = client.submit(request)
            job_id = submitted["job"]
            total = len(submitted["tasks"])
            check(total > 0, f"submission created {total} tasks")
            check(submitted["dedup"]["new"] == total - submitted["dedup"]["matrix"]
                  - submitted["dedup"]["cache"] - submitted["dedup"]["inflight"],
                  "dedup counters account for every task")
            kinds: list[str] = []
            deadline = time.monotonic() + args.timeout
            for event in client.events(job_id):
                kinds.append(event.get("event", "?"))
                if time.monotonic() > deadline:
                    fail("SSE stream did not finish in time")
            check(kinds[0] == "snapshot" and kinds[-1] == "job_done",
                  f"SSE stream framed correctly ({len(kinds)} events)")
            check("task_finished" in kinds,
                  "SSE stream carried task completions")
            body = client.wait(job_id, timeout=30)
            check(body["state"] == "done", "first submission completed")
            executed = {t["digest"] for t in body["tasks"]}

            # 2. Identical resubmission: everything dedups, nothing runs.
            again = client.submit(request)
            dedup = again["dedup"]
            check(dedup["new"] == 0,
                  f"second submission queued no work ({dedup})")
            check(dedup["cache"] + dedup["inflight"] > 0,
                  "second submission hit the cache or in-flight tasks")
            health = client.health()
            check(health["stats"]["tasks_executed"] == len(executed),
                  "daemon executed each unique spec exactly once")

            # 3. Thin client: `repro run --server` reports what a local
            # run does.  Each writes run.json in its own directory, so
            # the printed `wrote` lines match too.
            reports = {}
            for mode, extra in (("served", ["--server", url]), ("local", [])):
                where = Path(tmp) / mode
                where.mkdir()
                done = subprocess.run(
                    [sys.executable, "-m", "repro.cli", "run", "FIR",
                     "--scale", str(args.scale), "--policy", "least-tlb",
                     "--check-invariants", "--json", "run.json", *extra],
                    cwd=where, env=env, capture_output=True, text=True,
                    timeout=args.timeout)
                check(done.returncode == 0, f"{mode} repro run exited 0")
                reports[mode] = (done.stdout,
                                 json.loads((where / "run.json").read_text()))
            check(reports["served"][1] == reports["local"][1],
                  "served and local repro run wrote equal JSON")
            served_by = re.search(r"^served by \S+ \(job (\S+),",
                                  reports["served"][0], re.MULTILINE)
            check(served_by is not None, "served repro run named its job")
            printed = {
                mode: [line for line in stdout.splitlines()
                       if not line.startswith("served by ")]
                for mode, (stdout, _data) in reports.items()
            }
            check(printed["served"] == printed["local"],
                  "served and local repro run printed the same report")
            run_job = client.job(served_by.group(1))
            executed.update(t["digest"] for t in run_job["tasks"])

            # 4. Graceful drain on SIGTERM.
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=120)
            check(rc == 0, "daemon drained and exited 0 on SIGTERM")
            for pump in pumps:
                pump.join(timeout=10)

            journal = cache_dir / "serve-journal.jsonl"
            check(journal.exists(), "drain left a journal")
            events = [json.loads(line)
                      for line in journal.read_text().splitlines()]
            terminal = [e for e in events if e["event"] in ("task",
                                                            "journaled")]
            check({e["digest"] for e in terminal} == executed,
                  "journal covers every executed digest exactly")
            drains = [e for e in events if e["event"] == "drain"]
            check(len(drains) == 1 and drains[0]["completed"] == len(executed),
                  "journal records one clean drain")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            log.close()

    print("serve smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
