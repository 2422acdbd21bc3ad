"""Trace data model.

A workload is replayed as per-CU streams of *runs*.  A run is a burst of
consecutive coalesced accesses to the same virtual page: the first access of
a run performs a real translation lookup, while the remaining ``repeats - 1``
accesses are guaranteed L1 TLB hits (the page was just filled and a CU's
accesses within a run are back-to-back).  Collapsing bursts this way keeps
the discrete-event simulation at translation granularity — the granularity
every result in the paper is expressed at — without distorting L1 behaviour.

Instruction accounting: a run's ``gap`` is the number of instructions (and,
at the modelled 1 IPC per CU, cycles) between the *issue* of the previous
run and the issue of this one; it already includes the intra-run memory
instructions.  An application's instruction count is therefore the sum of
its gaps, which is what MPKI and IPC are computed against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.structures.tlb import PID_LIMIT


@dataclass(slots=True)
class CUStream:
    """The replay stream of one compute unit.

    ``vpns[i]`` is the virtual page of run ``i``; ``gaps[i]`` the issue
    distance (instructions/cycles) from run ``i-1``; ``repeats[i]`` the
    number of coalesced accesses in the burst.

    The first ``warmup_runs`` runs execute normally but contribute no
    statistics — the standard warm-TLB methodology, matching the paper's
    steady-state characterisation (its footprints "fill the TLB
    hierarchy"; cold compulsory behaviour is not what any figure reports).
    """

    vpns: np.ndarray
    gaps: np.ndarray
    repeats: np.ndarray
    warmup_runs: int = 0

    def __post_init__(self) -> None:
        if not (len(self.vpns) == len(self.gaps) == len(self.repeats)):
            raise ValueError("vpns, gaps and repeats must have equal length")
        if self.warmup_runs < 0:
            raise ValueError(f"warmup_runs must be >= 0: {self.warmup_runs}")
        if self.num_runs and self.warmup_runs >= self.num_runs:
            # Always leave at least one measured run so completion is
            # well defined.
            self.warmup_runs = self.num_runs - 1

    @property
    def num_runs(self) -> int:
        """Total runs in the stream (including warmup)."""
        return len(self.vpns)

    @property
    def measured_runs(self) -> int:
        """Runs after the warmup prefix (the statistics window)."""
        return max(0, self.num_runs - self.warmup_runs)

    @property
    def num_accesses(self) -> int:
        """Coalesced accesses across every run's burst."""
        return int(self.repeats.sum())

    @property
    def measured_accesses(self) -> int:
        """Accesses in the measured (post-warmup) portion."""
        return int(self.repeats[self.warmup_runs :].sum())

    @property
    def instructions(self) -> int:
        """Instruction count of the whole stream (sum of issue gaps)."""
        return int(self.gaps.sum())

    @property
    def measured_instructions(self) -> int:
        """Instructions in the measured (post-warmup) portion."""
        return int(self.gaps[self.warmup_runs :].sum())


@dataclass(slots=True)
class GPUTrace:
    """Everything one application executes on one GPU."""

    pid: int
    app_name: str
    cu_streams: list[CUStream]

    @property
    def num_runs(self) -> int:
        """Runs across every CU stream."""
        return sum(s.num_runs for s in self.cu_streams)

    @property
    def num_accesses(self) -> int:
        """Accesses across every CU stream."""
        return sum(s.num_accesses for s in self.cu_streams)

    @property
    def instructions(self) -> int:
        """Instructions across every CU stream."""
        return sum(s.instructions for s in self.cu_streams)

    def touched_pages(self) -> set[int]:
        """All VPNs this GPU touches (used for sharing analysis)."""
        pages: set[int] = set()
        for stream in self.cu_streams:
            pages.update(np.unique(stream.vpns).tolist())
        return pages


@dataclass(slots=True)
class Placement:
    """One application's presence on one GPU.

    ``cu_ids`` are the compute units assigned to the application on that
    GPU — all of them in the one-app-per-GPU experiments, half of them in
    the Table 6 mixed-workload-per-GPU experiments.
    """

    gpu_id: int
    pid: int
    app_name: str
    cu_ids: list[int]
    streams: list[CUStream]

    def __post_init__(self) -> None:
        if len(self.cu_ids) != len(self.streams):
            raise ValueError(
                f"{len(self.cu_ids)} CU ids but {len(self.streams)} streams"
            )


@dataclass
class Workload:
    """A fully generated workload, ready for the simulation driver.

    ``kind`` is ``"single"`` (one application spanning all GPUs) or
    ``"multi"`` (one or more applications per GPU, distinct PIDs).
    """

    name: str
    kind: str
    placements: list[Placement]
    app_names: dict[int, str] = field(default_factory=dict)
    footprints: dict[int, np.ndarray] = field(default_factory=dict)
    """Per-PID sorted array of all VPNs the application may touch; the
    driver pre-faults these before measurement (steady-state methodology)."""

    def __post_init__(self) -> None:
        if self.kind not in ("single", "multi"):
            raise ValueError(f"workload kind must be 'single' or 'multi': {self.kind!r}")

    @property
    def pids(self) -> list[int]:
        """All application PIDs, sorted."""
        return sorted(self.app_names)

    def _streams_for(self, pid: int):
        return (
            stream
            for placement in self.placements
            if placement.pid == pid
            for stream in placement.streams
        )

    def instructions_for(self, pid: int) -> int:
        """Total instructions of ``pid`` (including warmup)."""
        return sum(s.instructions for s in self._streams_for(pid))

    def measured_instructions_for(self, pid: int) -> int:
        """Instructions in the measured (post-warmup) portion."""
        return sum(s.measured_instructions for s in self._streams_for(pid))

    def accesses_for(self, pid: int) -> int:
        """Total accesses of ``pid`` (including warmup)."""
        return sum(s.num_accesses for s in self._streams_for(pid))

    def measured_accesses_for(self, pid: int) -> int:
        """Accesses of ``pid`` in the measured window."""
        return sum(s.measured_accesses for s in self._streams_for(pid))

    def runs_for(self, pid: int) -> int:
        """Total runs of ``pid`` (including warmup)."""
        return sum(s.num_runs for s in self._streams_for(pid))

    def measured_runs_for(self, pid: int) -> int:
        """Runs of ``pid`` in the measured window."""
        return sum(s.measured_runs for s in self._streams_for(pid))

    def gpus_for(self, pid: int) -> list[int]:
        """The GPUs application ``pid`` occupies."""
        return sorted({p.gpu_id for p in self.placements if p.pid == pid})

    def check_placements(self, num_gpus: int) -> None:
        """Raise :class:`ValueError` unless this workload can run on a
        ``num_gpus``-GPU system: every placement on an existing GPU, each
        CU of a GPU assigned once, every pid inside a TLB key's pid field,
        and at least one measured run.  Both backends call this."""
        if not self.placements:
            raise ValueError("workload has no placements")
        for placement in self.placements:
            if placement.gpu_id >= num_gpus:
                raise ValueError(
                    f"placement targets GPU {placement.gpu_id} but the system "
                    f"has {num_gpus} GPUs"
                )
            if not 0 <= placement.pid < PID_LIMIT:
                raise ValueError(
                    f"pid {placement.pid} does not fit the pid field of a TLB "
                    f"key (range 0..{PID_LIMIT - 1})"
                )
        assigned: set[tuple[int, int]] = set()
        for placement in self.placements:
            for cu_id in placement.cu_ids:
                if (placement.gpu_id, cu_id) in assigned:
                    raise ValueError(
                        f"CU {cu_id} on GPU {placement.gpu_id} assigned twice"
                    )
                assigned.add((placement.gpu_id, cu_id))
        if not any(
            stream.measured_runs
            for placement in self.placements
            for stream in placement.streams
        ):
            raise ValueError("workload contains no runnable CU streams")

    def placements_on(self, gpu_id: int) -> list[Placement]:
        """Every application placement hosted by ``gpu_id``."""
        return [p for p in self.placements if p.gpu_id == gpu_id]

    def describe(self) -> str:
        """Human-readable summary used by examples and bench output."""
        lines = [f"workload {self.name!r} ({self.kind})"]
        for pid in self.pids:
            gpus = ",".join(str(g) for g in self.gpus_for(pid))
            lines.append(
                f"  pid {pid}: {self.app_names[pid]:<4s} on GPU(s) {gpus} — "
                f"{self.runs_for(pid):,} runs, {self.accesses_for(pid):,} accesses, "
                f"{self.instructions_for(pid):,} instructions"
            )
        return "\n".join(lines)
