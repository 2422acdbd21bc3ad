"""The telemetry hub: one object owning every record of a traced run.

The hub is the single integration point between the simulator and the
telemetry layers.  Components never talk to histograms or traces
directly; they ask the system for its hub (``system.telemetry``) and, if
it is not ``None``, call one of the record methods below.  A system
built without telemetry has no hub at all, which is what makes the
disabled path provably zero-perturbation — there is no counter to bump,
no rate to test, no event to schedule.

Tracing itself is also perturbation-free *when enabled*: spans annotate
the existing event flow (every begin/end fires inside callbacks the
simulation already executes), so a traced run produces bit-identical
simulation results to an untraced one.  Only the interval timeline adds
events, exactly like ``--snapshot-interval`` always has.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.telemetry.config import TelemetryConfig
from repro.telemetry.histogram import LogHistogram
from repro.telemetry.spans import RequestTrace
from repro.telemetry.timeline import TimelineRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.system import MultiGPUSystem

#: Latency sites with a fixed meaning across policies.  Policies may add
#: more (the hub creates histograms on demand); these are the documented
#: core set — see docs/observability.md.
CORE_SITES = (
    "l1_hit",        # access resolved in the CU's L1 TLB (constant latency)
    "l2_hit",        # access resolved in the GPU-shared L2 TLB
    "l2_miss",       # end-to-end latency of every L2-missing translation
    "iommu",         # L2 misses served by an IOMMU TLB hit
    "walk",          # L2 misses served by a page walk (end-to-end)
    "walk_service",  # walker-pool service time (queue wait + walk)
    "remote_probe",  # L2 misses served from a peer GPU's L2
    "pending",       # L2 misses served from an already-resolved pending entry
    "pri",           # PRI fault-batch service time
)


class TelemetryHub:
    """Owns traces, histograms, and the timeline for one simulation."""

    def __init__(self, config: TelemetryConfig, num_gpus: int) -> None:
        self.config = config
        self.num_gpus = num_gpus
        self._stride = config.stride
        self._issues_seen = 0
        self._next_trace_id = 0
        self.live: dict[int, RequestTrace] = {}
        self.traces: list[RequestTrace] = []
        self.histograms: dict[str, LogHistogram] = {}
        self.app_histograms: dict[int, LogHistogram] = {}
        self.timeline: TimelineRecorder | None = (
            TimelineRecorder(config.timeline_interval)
            if config.timeline_interval > 0
            else None
        )
        self.leaked_spans = 0
        self.incomplete_traces = 0

    # -- span tracing ---------------------------------------------------------

    def maybe_sample(
        self, gpu_id: int, cu_id: int, pid: int, vpn: int, cycle: int
    ) -> RequestTrace | None:
        """Deterministic stride sampling: start a trace for every N-th
        measured CU issue, or ``None`` when this one is not sampled."""
        if self._stride == 0:
            return None
        self._issues_seen += 1
        if (self._issues_seen - 1) % self._stride != 0:
            return None
        if len(self.traces) + len(self.live) >= self.config.max_traces:
            return None
        trace = RequestTrace(self._next_trace_id, gpu_id, cu_id, pid, vpn, cycle)
        self._next_trace_id += 1
        self.live[trace.trace_id] = trace
        return trace

    def complete(self, trace: RequestTrace) -> None:
        """A trace's root span closed; move it to the collected set."""
        if self.live.pop(trace.trace_id, None) is not None:
            self.traces.append(trace)

    def finalize(self, cycle: int) -> None:
        """End-of-run sweep: any trace still live never got its response
        (the run was cut off by ``max_cycles``).  Close every open span
        with ``outcome="fault"`` so the collected set stays balanced."""
        for trace in list(self.live.values()):
            self.incomplete_traces += 1
            self.leaked_spans += trace.finalize(cycle, outcome="fault")
            self.complete(trace)

    # -- histograms -----------------------------------------------------------

    def record_latency(self, site: str, value: int) -> None:
        """Add one sample to ``site``'s histogram (created on demand)."""
        hist = self.histograms.get(site)
        if hist is None:
            hist = self.histograms[site] = LogHistogram()
        hist.record(value)

    def record_app_latency(self, pid: int, value: int) -> None:
        """Add one end-to-end translation-latency sample for app ``pid``."""
        hist = self.app_histograms.get(pid)
        if hist is None:
            hist = self.app_histograms[pid] = LogHistogram()
        hist.record(value)

    def histogram(self, site: str) -> LogHistogram:
        """The histogram for ``site`` (empty if nothing recorded)."""
        return self.histograms.get(site, LogHistogram())

    # -- timeline -------------------------------------------------------------

    def capture_epoch(self, system: "MultiGPUSystem") -> None:
        """Record one interval-timeline epoch (timeline enabled only)."""
        if self.timeline is not None:
            self.timeline.capture(system)

    # -- result serialisation -------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """The JSON-serialisable telemetry block embedded in results."""
        span_count = sum(len(t) for t in self.traces)
        return {
            "sample_rate": self.config.sample_rate,
            "sampled_issues": self._issues_seen,
            "traces": len(self.traces),
            "spans": span_count,
            "incomplete_traces": self.incomplete_traces,
            "leaked_spans_closed": self.leaked_spans,
            "histograms": {
                site: hist.to_dict() for site, hist in sorted(self.histograms.items())
            },
            "per_app": {
                str(pid): hist.to_dict()
                for pid, hist in sorted(self.app_histograms.items())
            },
            "timeline": list(self.timeline.epochs) if self.timeline else [],
        }
