"""System wiring: GPUs, interconnect, IOMMU, policy, and measurement.

:class:`MultiGPUSystem` assembles one simulated machine around a workload
and runs it to completion, implementing the paper's measurement
methodology:

* page tables are pre-faulted before measurement (steady-state
  translation behaviour, no cold OS faults — the PRI path still exists and
  handles any page outside the pre-faulted footprint);
* in multi-application mode, applications that finish early are re-executed
  so every GPU stays busy until the longest application completes, but only
  each application's *first* full execution contributes statistics
  (Section 3.1.2);
* per-application execution time is the completion cycle of the last run of
  the first execution, from which IPC, normalized performance, and weighted
  speedup derive.

Both backends run this one machine: :meth:`MultiGPUSystem.run` on the
event queue, :func:`repro.sim.backends.run_functional` on the replay loop.
Both apply the measurement rule, the stall check and the result assembly
defined here.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable

from repro.config.system import IOMMUConfig, SystemConfig
from repro.engine.event_queue import EventQueue
from repro.engine.stats import CounterSet, LatencyAccumulator
from repro.engine.watchdog import SimulationStalledError, Watchdog
from repro.gpu.compute_unit import ComputeUnit
from repro.gpu.gpu_device import GPUDevice
from repro.iommu.iommu import IOMMU
from repro.iommu.page_walker import WalkerPool
from repro.interconnect.topology import Topology
from repro.policies import make_policy
from repro.sim.invariants import InvariantChecker
from repro.sim.results import AppResult, SimulationResult, Snapshot
from repro.structures.page_table import PageTableManager
from repro.structures.tlb import unpack_key
from repro.telemetry import TelemetryConfig, TelemetryHub, capture_tlb_snapshot
from repro.workloads.trace import Workload


class MultiGPUSystem:
    """One simulated multi-GPU machine executing one workload."""

    def __init__(
        self,
        config: SystemConfig,
        workload: Workload,
        policy: str = "baseline",
        *,
        policy_options: dict[str, Any] | None = None,
        record_iommu_stream: bool = False,
        snapshot_interval: int = 0,
        shootdown_interval: int = 0,
        prefault: bool = True,
        check_invariants: bool = False,
        watchdog: bool = False,
        telemetry: TelemetryConfig | None = None,
    ) -> None:
        workload.check_placements(config.num_gpus)
        self.config = config
        self.workload = workload
        self.queue = EventQueue()
        self.page_tables = PageTableManager(levels=config.page_table_levels)
        self.topology = Topology(config.num_gpus, config.interconnect)
        self.halted = False
        self.progress_marker = 0

        # The watchdog, the invariant checker and telemetry are opt-in:
        # ``None`` (the default) is the zero-perturbation path.
        self.watchdog = Watchdog(self) if watchdog else None
        self.invariants = InvariantChecker(self) if check_invariants else None
        self.telemetry = (
            TelemetryHub(telemetry, config.num_gpus)
            if telemetry is not None
            else None
        )

        self._pid_stats: dict[int, CounterSet] = {
            pid: CounterSet() for pid in workload.pids
        }
        self._pid_latency: dict[int, LatencyAccumulator] = {
            pid: LatencyAccumulator() for pid in workload.pids
        }
        # The per-application accessors are the dicts' own lookups, so a
        # hot path fetching a set pays no Python-level call.
        self.stats_for: Callable[[int], CounterSet] = self._pid_stats.__getitem__
        """The per-application counter set of a pid."""
        self.latency_for: Callable[[int], LatencyAccumulator] = (
            self._pid_latency.__getitem__
        )
        """The per-application translation-latency accumulator of a pid."""
        self.exec_time: dict[int, int] = {}
        self.measure_start: dict[int, int] = {}
        self.iommu_stream: list[tuple[int, int]] | None = (
            [] if record_iommu_stream else None
        )
        """The measured ``(pid, vpn)`` requests reaching the IOMMU, in
        arrival order, when recording is on."""

        self.gpus = [GPUDevice(g, config, self) for g in range(config.num_gpus)]
        self.gpu_fills = [gpu.receive_fill for gpu in self.gpus]
        """Per GPU, its bound ``receive_fill``: where every translation
        response lands."""
        self.iommu = IOMMU(config, self)
        rerun = workload.kind == "multi"
        for placement in workload.placements:
            self.gpus[placement.gpu_id].add_placement(placement, rerun=rerun)

        self._remaining_cus: Counter = Counter()
        for gpu in self.gpus:
            for cu in gpu.cus:
                if cu.stream.measured_runs:
                    self._remaining_cus[cu.pid] += 1
        self._pids_pending = set(self._remaining_cus)

        if prefault:
            for pid, vpns in workload.footprints.items():
                self.page_tables.prefault(pid, vpns.tolist())

        if config.local_page_tables:
            self._attach_local_walkers()

        # The policy is built last: it may inspect the fully wired system.
        self.policy = make_policy(policy, self, **(policy_options or {}))

        self.snapshot_interval = snapshot_interval
        self.snapshots: list[Snapshot] = []
        self.shootdown_interval = shootdown_interval
        self.shootdowns_performed = 0

    # -- local-page-table variant (Figure 23) ----------------------------------

    def _attach_local_walkers(self) -> None:
        """Give each GPU a device-memory page table and walker pool; only
        pages absent from the local table escalate to the IOMMU."""
        local_cfg = IOMMUConfig(
            num_walkers=self.config.local_num_walkers,
            walker_threads=self.config.iommu.walker_threads,
            walk_latency=self.config.local_walk_latency,
        )
        for gpu in self.gpus:
            tables = PageTableManager(levels=self.config.page_table_levels)
            pool = WalkerPool(tables, local_cfg, num_gpus=1)
            gpu.attach_local_translation(tables, pool)

    # -- measurement services ---------------------------------------------------

    # Both run loops (:meth:`run` and the functional replay) apply the
    # measurement rule through these two calls, passing their own cycle.

    def note_measure_start(self, pid: int, now: int) -> None:
        """The first measured run of ``pid`` issued at cycle ``now``;
        execution time is counted from here (the warmup prefix is
        excluded)."""
        self.measure_start.setdefault(pid, now)

    def note_cu_first_run_done(self, cu: ComputeUnit, now: int) -> None:
        """``cu`` finished the measured portion of its stream at cycle
        ``now``.  An application's execution time ends when its last CU
        does, and the machine halts once every application has one."""
        pid = cu.pid
        remaining = self._remaining_cus
        remaining[pid] -= 1
        if remaining[pid] == 0:
            self.exec_time[pid] = now - self.measure_start.get(pid, 0)
            self._pids_pending.discard(pid)
            if not self._pids_pending:
                self.halted = True

    # -- snapshots (Figures 6 and 11) ----------------------------------------------

    def _take_snapshot(self) -> None:
        if self.halted:
            return
        self.snapshots.append(capture_tlb_snapshot(self))
        self.queue.schedule_after(self.snapshot_interval, self._take_snapshot)

    def _timeline_tick(self) -> None:
        """Recurring interval-timeline epoch (telemetry with a non-zero
        ``timeline_interval`` only — the one telemetry feature that, like
        ``--snapshot-interval``, schedules events of its own)."""
        if self.halted or self.telemetry is None:
            return
        self.telemetry.capture_epoch(self)
        self.queue.schedule_after(
            self.telemetry.config.timeline_interval, self._timeline_tick
        )

    def _periodic_shootdown(self) -> None:
        """Recurring full TLB shootdown (modelling page-migration epochs or
        address-space churn, Section 4.4's coherence scenario)."""
        if self.halted:
            return
        self.shootdown()
        self.shootdowns_performed += 1
        self.queue.schedule_after(self.shootdown_interval, self._periodic_shootdown)

    # -- execution -------------------------------------------------------------------

    def run(
        self,
        max_cycles: int | None = None,
        *,
        max_events: int | None = None,
    ) -> SimulationResult:
        """Execute the workload to completion and return its results.

        ``max_events`` is a safety cap: a run that exhausts it with
        applications still outstanding raises
        :class:`SimulationStalledError` instead of silently returning a
        truncated result.
        """
        for gpu in self.gpus:
            gpu.start()
        if self.snapshot_interval > 0:
            self.queue.schedule_after(self.snapshot_interval, self._take_snapshot)
        if (
            self.telemetry is not None
            and self.telemetry.config.timeline_interval > 0
        ):
            self.queue.schedule_after(
                self.telemetry.config.timeline_interval, self._timeline_tick
            )
        if self.shootdown_interval > 0:
            self.queue.schedule_after(self.shootdown_interval, self._periodic_shootdown)
        if self.watchdog is not None:
            self.watchdog.arm()
        if self.invariants is not None:
            self.invariants.arm()
        queue = self.queue
        queue.run(until=max_cycles, max_events=max_events)
        if max_cycles is None:
            self.check_stalled(max_events, self._queue_state())
        if self.invariants is not None:
            self.invariants.check(final=not self._pids_pending)
        return self.collect_results(queue.now, queue.events_executed)

    def _queue_state(self) -> dict[str, Any]:
        """The event queue's run-loop state, as :meth:`check_stalled`
        takes it."""
        queue = self.queue
        return {
            "backend": "event",
            "cycle": queue.now,
            "events_executed": queue.events_executed,
            "queue_length": len(queue),
            "queue_head": queue.peek_time(),
        }

    def check_stalled(self, max_events: int | None, loop: dict[str, Any]) -> None:
        """The always-on stall check of both run loops, after a run with no
        cycle bound: the queue must never drain, or hit the event cap,
        while CUs still wait on translations.  ``loop`` is the loop's
        state: its ``backend``, ``cycle``, ``events_executed``,
        ``queue_length`` and ``queue_head``."""
        if not self._pids_pending:
            return
        if not loop["queue_length"]:
            raise SimulationStalledError(
                "event queue drained with applications still outstanding "
                "(a response was lost and nothing re-drives the request)",
                self.stall_diagnostics("event queue drained", loop),
            )
        if max_events is not None:
            raise SimulationStalledError(
                f"event cap of {max_events} events exhausted with "
                "applications still outstanding",
                self.stall_diagnostics(f"max_events={max_events} exhausted", loop),
            )

    def stall_diagnostics(
        self, reason: str, loop: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """A structured snapshot of everything in flight, for stall errors.
        ``loop`` is the run loop's state (see :meth:`check_stalled`), the
        event queue's by default."""
        gpus = {}
        for gpu in self.gpus:
            gpus[f"gpu{gpu.gpu_id}"] = {
                "mshr_entries": len(gpu.mshr),
                "mshr_keys": sorted(map(unpack_key, gpu.mshr))[:8],
                "cu_outstanding": sum(cu.outstanding for cu in gpu.cus),
            }
        return {
            "reason": reason,
            **(self._queue_state() if loop is None else loop),
            "pids_pending": sorted(self._pids_pending),
            "pending_table": self.iommu.pending.describe(),
            "gpus": gpus,
            "walkers": {
                "busy": self.iommu.walkers.busy,
                "queued": self.iommu.walkers.pending(),
            },
            "pri": {"outstanding": self.iommu.pri.outstanding},
            "interconnect": self.topology.describe_state(),
        }

    def shootdown(self, pid: int | None = None) -> None:
        """System-wide TLB shootdown (Section 4.4): every GPU's L1/L2, the
        IOMMU TLB, and the policy's tracker state."""
        for gpu in self.gpus:
            gpu.shootdown(pid)
        self.iommu.shootdown(pid)

    # -- results ------------------------------------------------------------------------

    def collect_results(
        self, total_cycles: int, events_executed: int
    ) -> SimulationResult:
        """The run's result, assembled once for both run loops from the
        system's counters, the loop's final cycle and its event count."""
        apps: dict[int, AppResult] = {}
        for pid in self.workload.pids:
            apps[pid] = AppResult(
                pid=pid,
                app_name=self.workload.app_names[pid],
                gpu_ids=tuple(self.workload.gpus_for(pid)),
                instructions=self.workload.measured_instructions_for(pid),
                runs=self.workload.measured_runs_for(pid),
                accesses=self.workload.measured_accesses_for(pid),
                exec_cycles=self.exec_time.get(pid, total_cycles),
                counters=self._pid_stats[pid].as_dict(),
                mean_translation_latency=self._pid_latency[pid].mean,
            )
        telemetry_summary = None
        if self.telemetry is not None:
            self.telemetry.finalize(total_cycles)
            telemetry_summary = self.telemetry.summary()
        tracker_stats = None
        tracker = getattr(self.policy, "tracker", None)
        if tracker is not None:
            stats = tracker.stats
            tracker_stats = {
                "registrations": stats.registrations,
                "unregistrations": stats.unregistrations,
                "queries": stats.queries,
                "positives": stats.positives,
                "multi_positives": stats.multi_positives,
                "false_positives": self.iommu.stats["tracker_false_positives"],
                "remote_hits": self.iommu.stats["remote_hits"],
            }
        return SimulationResult(
            workload_name=self.workload.name,
            workload_kind=self.workload.kind,
            policy_name=self.policy.name,
            total_cycles=total_cycles,
            apps=apps,
            iommu_counters=self.iommu.stats.as_dict(),
            walker_counters=self.iommu.walkers.stats.as_dict(),
            walker_queue_wait_mean=self.iommu.walkers.queue_wait.mean,
            tracker_stats=tracker_stats,
            snapshots=list(self.snapshots),
            iommu_stream=self.iommu_stream,
            events_executed=events_executed,
            metadata=self._result_metadata(),
            telemetry=telemetry_summary,
        )

    def _result_metadata(self) -> dict[str, Any]:
        metadata: dict[str, Any] = {
            "shootdowns": self.shootdowns_performed,
            "num_gpus": self.config.num_gpus,
            "page_size": self.config.page_size,
            "spill_budget": self.config.spill_budget,
            "local_page_tables": self.config.local_page_tables,
            "seed": self.config.seed,
        }
        if self.invariants is not None:
            metadata["invariant_checks"] = self.invariants.checks_run
            metadata["invariant_max_overlap"] = self.invariants.max_overlap
        return metadata
