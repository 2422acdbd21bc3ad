#!/usr/bin/env python3
"""Run one command and record its wall time and peak RSS.

::

    python3 bench/launch.py REPORT.json COMMAND [ARG ...]

A child's peak RSS counts the memory of the process it was forked
from, so a command started straight from the benchmark would report at
least the benchmark's own size.  This small process starts the command
instead and writes ``{"start", "end", "maxrss_kb", "returncode"}``
(``time.monotonic`` seconds; the peak covers the command and every
child it reaped) to REPORT.json, ``{"start"}`` alone while it runs.
SIGTERM and SIGINT are passed on to the command.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path


def write(path: Path, payload: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


def main(argv: list[str]) -> int:
    report, cmd = Path(argv[0]), argv[1:]
    start = time.monotonic()
    child = subprocess.Popen(cmd)
    write(report, {"start": start})
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda signum, _frame: os.kill(child.pid, signum))
    _pid, status, usage = os.wait4(child.pid, 0)
    end = time.monotonic()
    code = os.waitstatus_to_exitcode(status)
    child.returncode = code
    write(report, {"start": start, "end": end, "maxrss_kb": usage.ru_maxrss,
                   "returncode": code})
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
