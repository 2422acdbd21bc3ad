"""Span trees for sampled translation requests.

One :class:`RequestTrace` follows a single sampled CU issue end-to-end:

::

    translation                      (root: issue → last protocol action)
      l1_lookup                      outcome hit/miss
      l2_lookup                      outcome hit/miss
      mshr_wait                      merged into an in-flight miss
      host_link                      GPU → IOMMU transit
      iommu_lookup                   IOMMU TLB pipeline, outcome hit/miss
      pending_wait                   merged into an in-flight IOMMU miss
      remote_probe                   tracker-directed peer-L2 probe
      ring_probe                     tlb-probing's neighbour probes
      page_walk                      walker-pool walk
      pri_fault                      PRI batch service of a faulting walk
      local_walk                     device-memory walk (Figure 23 variant)
      response                       IOMMU/peer → GPU transit

Spans carry begin/end cycles and an ``outcome`` tag (``ok``/``hit``/
``miss``/``cancelled``/``fault``/…).  The tree is *balanced* by
construction: at most one span per name is open at a time, closes are
idempotent (closing a span that already closed is a no-op), and closing
a child after the root closed extends the root — so children always
nest inside their parent.  :meth:`RequestTrace.finalize` force-closes
anything still open (e.g. a walk still in flight when ``max_cycles``
cut the run off) with ``outcome="fault"`` so no span ever leaks.
"""

from __future__ import annotations

from typing import Any, Iterator

ROOT_SPAN = "translation"


class Span:
    """One timed, named interval within a request's lifetime."""

    __slots__ = ("span_id", "parent_id", "name", "begin", "end", "outcome", "tags")

    def __init__(
        self,
        span_id: int,
        parent_id: int,
        name: str,
        begin: int,
        tags: dict[str, Any] | None = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.begin = begin
        self.end: int | None = None
        self.outcome: str | None = None
        self.tags = tags or {}

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> int:
        """Cycles from begin to end (0 while still open)."""
        return 0 if self.end is None else self.end - self.begin

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "begin": self.begin,
            "end": self.end,
            "outcome": self.outcome,
            **({"tags": dict(self.tags)} if self.tags else {}),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, [{self.begin}, {self.end}], "
            f"outcome={self.outcome!r})"
        )


class RequestTrace:
    """The span tree of one sampled translation request."""

    __slots__ = (
        "trace_id", "gpu_id", "cu_id", "pid", "vpn",
        "spans", "_open", "_next_id",
    )

    def __init__(
        self, trace_id: int, gpu_id: int, cu_id: int, pid: int, vpn: int, cycle: int
    ) -> None:
        self.trace_id = trace_id
        self.gpu_id = gpu_id
        self.cu_id = cu_id
        self.pid = pid
        self.vpn = vpn
        root = Span(0, -1, ROOT_SPAN, cycle)
        self.spans: list[Span] = [root]
        self._open: dict[str, Span] = {ROOT_SPAN: root}
        self._next_id = 1

    # -- span lifecycle -------------------------------------------------------

    @property
    def root(self) -> Span:
        return self.spans[0]

    @property
    def complete(self) -> bool:
        """True once the root span closed (a response reached the CU)."""
        return self.root.closed

    def is_open(self, name: str) -> bool:
        return name in self._open

    def begin(self, name: str, cycle: int, **tags: Any) -> Span:
        """Open a child span.  A same-named span must be closed first (it
        may be reopened once closed), so this is an API-misuse guard, not
        a limit."""
        if name in self._open:
            raise ValueError(f"span {name!r} is already open in trace {self.trace_id}")
        span = Span(self._next_id, self.root.span_id, name, cycle, tags or None)
        self._next_id += 1
        self.spans.append(span)
        self._open[name] = span
        return span

    def end(self, name: str, cycle: int, outcome: str = "ok") -> bool:
        """Close the open span ``name``.  Idempotent: returns ``False``
        without effect when no such span is open."""
        span = self._open.pop(name, None)
        if span is None:
            return False
        span.end = cycle
        span.outcome = outcome
        if name != ROOT_SPAN:
            root = self.root
            if root.end is not None and cycle > root.end:
                # A straggling responder (e.g. the walk that lost its race
                # against a remote probe) resolved after the CU was served;
                # the root stretches so every child stays nested within it.
                root.end = cycle
        return True

    def add_complete(
        self, name: str, begin: int, end: int, outcome: str = "ok", **tags: Any
    ) -> Span:
        """Record an already-finished interval (e.g. a link transit whose
        arrival time is known at send time)."""
        span = Span(self._next_id, self.root.span_id, name, begin, tags or None)
        self._next_id += 1
        span.end = end
        span.outcome = outcome
        self.spans.append(span)
        root = self.root
        if root.end is not None and end > root.end:
            root.end = end
        return span

    def close_root(self, cycle: int, outcome: str) -> bool:
        """Terminate the request with its single terminal outcome."""
        return self.end(ROOT_SPAN, cycle, outcome)

    def finalize(self, cycle: int, outcome: str = "fault") -> int:
        """Force-close every span still open (children first, root last)
        with ``outcome``; returns how many were closed.  This is how a
        trace whose response never arrived (the run was cut off) stays
        balanced instead of leaking open spans."""
        closed = 0
        for name in [n for n in self._open if n != ROOT_SPAN]:
            self.end(name, cycle, outcome)
            closed += 1
        if ROOT_SPAN in self._open:
            self.end(ROOT_SPAN, cycle, outcome)
            closed += 1
        return closed

    # -- introspection --------------------------------------------------------

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def __len__(self) -> int:
        return len(self.spans)

    def children(self) -> list[Span]:
        """All non-root spans."""
        return self.spans[1:]

    def check_invariants(self) -> list[str]:
        """Violations of the balanced-span-tree contract (empty = healthy).

        Checks: the root exists and is closed with exactly one terminal
        outcome; every span is closed with ``begin <= end`` and an
        outcome; every child nests inside the root's interval; no span
        remains open.
        """
        problems: list[str] = []
        root = self.root
        if root.name != ROOT_SPAN:
            problems.append(f"first span is {root.name!r}, not {ROOT_SPAN!r}")
        if self._open:
            problems.append(f"open spans leaked: {sorted(self._open)}")
        if not root.closed:
            problems.append("root span never closed")
        elif root.outcome is None:
            problems.append("root span closed without a terminal outcome")
        for span in self.spans:
            if not span.closed:
                continue
            if span.end < span.begin:
                problems.append(
                    f"span {span.name!r} ends before it begins "
                    f"({span.end} < {span.begin})"
                )
            if span.outcome is None:
                problems.append(f"span {span.name!r} closed without an outcome")
            if span is not root and root.closed:
                if span.begin < root.begin or span.end > root.end:
                    problems.append(
                        f"span {span.name!r} [{span.begin}, {span.end}] escapes "
                        f"root [{root.begin}, {root.end}]"
                    )
        return problems

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "gpu_id": self.gpu_id,
            "cu_id": self.cu_id,
            "pid": self.pid,
            "vpn": self.vpn,
            "spans": [span.to_dict() for span in self.spans],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestTrace(#{self.trace_id} gpu{self.gpu_id} pid{self.pid} "
            f"vpn={self.vpn:#x}, {len(self.spans)} spans)"
        )
