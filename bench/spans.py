"""In-memory span recorder for the benchmark's traced pass.

Spans are recorded from the benchmark's own code, around calls into the
program's public functions; nothing inside ``src/`` is instrumented.  A
span has a name, start, end, parent and request id; spans nest per
thread.  A layer's *self time* is its spans' durations minus the parts
their child spans cover, so self times never double-count.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator


class Tracer:
    """Collects spans in memory; :meth:`dump` writes them at the end."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.started = time.perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, request: str | None = None) -> Iterator[dict[str, Any]]:
        """Time the ``with`` body as one span; the yielded record's
        ``count`` field carries the work done (events, runs, ...)."""
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent["request"]
        record: dict[str, Any] = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent["id"] if parent is not None else None,
            "request": request,
            "thread": threading.get_ident(),
            "count": 0,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def wall(self) -> float:
        """Seconds since the tracer was created."""
        return time.perf_counter() - self.started

    def _closed(self) -> list[dict[str, Any]]:
        return [s for s in self.spans if s["end"] is not None]

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        covered = [0.0] * len(self.spans)
        for span in self._closed():
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = {}
        for span in self._closed():
            own = span["end"] - span["start"] - covered[span["id"]]
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def durations(self, name: str) -> list[float]:
        """Wall seconds of every span called ``name``."""
        return [s["end"] - s["start"] for s in self._closed() if s["name"] == name]

    def count(self, name: str) -> int:
        """Summed ``count`` of every span called ``name``."""
        return sum(s["count"] for s in self._closed() if s["name"] == name)

    def dump(self, path: Path) -> None:
        """Write every span, with times relative to the tracer's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        threads: dict[int, int] = {}
        spans = [
            {
                "id": s["id"], "name": s["name"], "parent": s["parent"],
                "request": s["request"],
                "thread": threads.setdefault(s["thread"], len(threads)),
                "start_s": s["start"] - self.started,
                "end_s": s["end"] - self.started, "count": s["count"],
            }
            for s in self._closed()
        ]
        path.write_text(json.dumps({"wall_s": self.wall(), "spans": spans}) + "\n")


def span_cost_seconds(samples: int = 4000) -> float:
    """Measured cost of recording one nested span on this machine."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(samples // 2):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    return (time.perf_counter() - start) / samples
