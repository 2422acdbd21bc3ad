"""Streaming ingestion of external memory traces (DRAMSim2 k6/mase style).

External memory-system traces are the lingua franca of multi-GPU
translation studies: MASK and Mosaic both evaluate on heterogeneous
application mixes distributed in exactly this kind of flat text format.
This module turns such a trace — plain or gzip-compressed — into the
repo's :class:`~repro.workloads.trace.Workload` model so any foreign
trace replays through every policy, backend, and bench family.

Format (one access per line, ``#``/``;`` comments and blank lines
ignored)::

    <address> <command> <cycle>        # k6:   0x10000 P_MEM_RD 10
    <address> <command> <cycle>        # mase: 0x2008c480 IFETCH 0

Memory guarantees (see ``docs/traces.md``):

* the file is read **incrementally** — a bounded-size chunk of records at
  a time — so peak RSS never scales with the raw trace length, only with
  the run-compressed output (consecutive same-page accesses collapse into
  one run with a repeat count, the trace model's burst convention);
* the streaming content digest
  (:func:`~repro.workloads.trace_files.trace_digest`) hashes the raw
  bytes chunk-wise, never loading the file, and keys the persistent
  result cache: a trace job's fingerprint depends on the file's
  *content*, not its path or mtime.

Malformed input raises :class:`~repro.workloads.errors.TraceFormatError`
with the file, 1-based line number, and offending text; the CLI maps it
to a usage error (exit 2).

Per-GPU splitting is a pluggable, deterministic, seed-independent policy
(:data:`SPLIT_POLICIES`):

* ``round-robin`` — record *i* goes to GPU ``i % num_gpus`` (interleaves
  the stream, maximal page sharing);
* ``address-hash`` — GPU by a splitmix64 hash of the virtual page
  (pages are GPU-private, load-balanced);
* ``contiguous-block`` — GPU by ``(vpn // block_pages) % num_gpus``
  (spatial blocks stay together, the NUMA-style partitioning).
"""

from __future__ import annotations

import gzip
import io
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import IO, Any, Iterator

import numpy as np

from repro.workloads.applications import DEFAULT_WARMUP_FRAC
from repro.workloads.errors import TraceFormatError
from repro.workloads.trace import CUStream, Placement, Workload
from repro.workloads.trace_files import (
    _COMMENT_PREFIXES,
    _FORMATS,
    SPLIT_POLICIES,
    _is_gzip,
    _open_text,
    default_trace_name,
    sniff_format,
    trace_digest,
)

#: Records parsed per chunk — the unit of bounded-memory streaming.
DEFAULT_CHUNK_RECORDS = 65_536

#: VPNs per contiguous block for the ``contiguous-block`` policy
#: (512 × 4 KiB pages = 2 MiB blocks).
DEFAULT_BLOCK_PAGES = 512

#: Issue-gap clamp: trace cycle deltas outside [1, this] are clipped so a
#: single bogus timestamp cannot distort MPKI/IPC accounting.
DEFAULT_MAX_GAP = 100_000


# -- streaming record iterator -----------------------------------------------


@dataclass(frozen=True)
class TraceChunk:
    """One bounded batch of parsed trace records (page-granular)."""

    vpns: np.ndarray
    """Virtual page numbers (``address >> page_shift``), int64."""
    writes: np.ndarray
    """Write flags, bool."""
    cycles: np.ndarray
    """Issue cycles as recorded in the trace, int64."""
    last_line: int = 0
    """1-based number of the last file line consumed for this chunk
    (comments and blanks included) — the cumulative line count."""

    def __len__(self) -> int:
        return len(self.vpns)


def _parse_address(token: str) -> int:
    if token[:2].lower() == "0x":
        return int(token, 16)
    return int(token, 10)


def iter_trace_chunks(
    path: str | Path,
    *,
    fmt: str | None = None,
    page_shift: int = 12,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> Iterator[TraceChunk]:
    """Yield :class:`TraceChunk` batches from a k6/mase trace.

    Reads the file (gzip or plain) incrementally: at most
    ``chunk_records`` parsed records plus one buffered line block are in
    memory at any time.  A malformed line raises
    :class:`TraceFormatError` naming the line; a truncated gzip stream
    raises it naming the file.
    """
    path = Path(path)
    if fmt is None:
        fmt = sniff_format(path)
    if fmt not in _FORMATS:
        raise TraceFormatError(
            f"unknown trace format {fmt!r}; choose from {sorted(_FORMATS)}",
            path=str(path),
        )
    commands = _FORMATS[fmt]
    if chunk_records < 1:
        raise ValueError(f"chunk_records must be >= 1, got {chunk_records}")
    line_no = 0
    with _open_text(path) as handle:
        while True:
            try:
                lines = list(islice(handle, chunk_records))
            except (EOFError, OSError) as exc:
                raise TraceFormatError(
                    "truncated or corrupt compressed trace",
                    path=str(path), line=line_no + 1, cause=exc,
                ) from exc
            if not lines:
                return
            vpns: list[int] = []
            writes: list[bool] = []
            cycles: list[int] = []
            for line in lines:
                line_no += 1
                stripped = line.strip()
                if not stripped or stripped.startswith(_COMMENT_PREFIXES):
                    continue
                fields = stripped.split()
                if len(fields) != 3:
                    raise TraceFormatError(
                        f"expected '<address> <command> <cycle>' "
                        f"({len(fields)} field(s))",
                        path=str(path), line=line_no, text=stripped,
                    )
                try:
                    address = _parse_address(fields[0])
                    cycle = int(fields[2], 10)
                except ValueError as exc:
                    raise TraceFormatError(
                        "unparsable address or cycle",
                        path=str(path), line=line_no, text=stripped, cause=exc,
                    ) from exc
                is_write = commands.get(fields[1])
                if is_write is None:
                    raise TraceFormatError(
                        f"unknown {fmt} command {fields[1]!r} (expected one "
                        f"of {sorted(commands)})",
                        path=str(path), line=line_no, text=stripped,
                    )
                if address < 0 or cycle < 0:
                    raise TraceFormatError(
                        "address and cycle must be non-negative",
                        path=str(path), line=line_no, text=stripped,
                    )
                vpns.append(address >> page_shift)
                writes.append(is_write)
                cycles.append(cycle)
            if vpns:
                yield TraceChunk(
                    vpns=np.asarray(vpns, dtype=np.int64),
                    writes=np.asarray(writes, dtype=bool),
                    cycles=np.asarray(cycles, dtype=np.int64),
                    last_line=line_no,
                )


# -- splitting policies ------------------------------------------------------


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser (deterministic avalanche mix)."""
    x = values.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def assign_gpus(
    policy: str,
    vpns: np.ndarray,
    *,
    num_gpus: int,
    base_index: int = 0,
    block_pages: int = DEFAULT_BLOCK_PAGES,
) -> np.ndarray:
    """The GPU id of each record under ``policy`` (pure and stateless:
    ``base_index`` is the absolute record index of ``vpns[0]``, so the
    assignment is independent of chunking)."""
    if policy not in SPLIT_POLICIES:
        raise ValueError(
            f"unknown split policy {policy!r}; choose from {', '.join(SPLIT_POLICIES)}"
        )
    if num_gpus < 1:
        raise ValueError(f"num_gpus must be >= 1, got {num_gpus}")
    if num_gpus == 1:
        return np.zeros(len(vpns), dtype=np.int64)
    if policy == "round-robin":
        return (base_index + np.arange(len(vpns), dtype=np.int64)) % num_gpus
    if policy == "address-hash":
        return (_splitmix64(vpns) % np.uint64(num_gpus)).astype(np.int64)
    if block_pages < 1:
        raise ValueError(f"block_pages must be >= 1, got {block_pages}")
    return (vpns // block_pages) % num_gpus


# -- run accumulation --------------------------------------------------------


class _GPURunBuilder:
    """Accumulates one GPU's record stream as burst-collapsed runs.

    Consecutive same-page records merge into a single run with a repeat
    count (the trace model's coalesced-burst convention), carried across
    chunk boundaries, so memory is proportional to *runs*, not records.
    """

    __slots__ = ("vpn_parts", "cycle_parts", "count_parts",
                 "pending_vpn", "pending_cycle", "pending_count", "records")

    def __init__(self) -> None:
        self.vpn_parts: list[np.ndarray] = []
        self.cycle_parts: list[np.ndarray] = []
        self.count_parts: list[np.ndarray] = []
        self.pending_vpn = -1
        self.pending_cycle = 0
        self.pending_count = 0
        self.records = 0

    def add(self, vpns: np.ndarray, cycles: np.ndarray) -> None:
        if not len(vpns):
            return
        self.records += len(vpns)
        boundaries = np.flatnonzero(vpns[1:] != vpns[:-1]) + 1
        starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
        run_vpns = vpns[starts]
        run_cycles = cycles[starts]
        run_counts = np.diff(np.concatenate((starts, [len(vpns)])))
        if self.pending_count:
            if int(run_vpns[0]) == self.pending_vpn:
                run_counts[0] += self.pending_count
                run_cycles[0] = self.pending_cycle
            else:
                self.vpn_parts.append(np.array([self.pending_vpn], dtype=np.int64))
                self.cycle_parts.append(np.array([self.pending_cycle], dtype=np.int64))
                self.count_parts.append(np.array([self.pending_count], dtype=np.int64))
        self.pending_vpn = int(run_vpns[-1])
        self.pending_cycle = int(run_cycles[-1])
        self.pending_count = int(run_counts[-1])
        if len(run_vpns) > 1:
            self.vpn_parts.append(run_vpns[:-1])
            self.cycle_parts.append(run_cycles[:-1])
            self.count_parts.append(run_counts[:-1])

    def finalize(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.pending_count:
            self.vpn_parts.append(np.array([self.pending_vpn], dtype=np.int64))
            self.cycle_parts.append(np.array([self.pending_cycle], dtype=np.int64))
            self.count_parts.append(np.array([self.pending_count], dtype=np.int64))
            self.pending_count = 0
        if not self.vpn_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        return (
            np.concatenate(self.vpn_parts).astype(np.int64, copy=False),
            np.concatenate(self.cycle_parts).astype(np.int64, copy=False),
            np.concatenate(self.count_parts).astype(np.int64, copy=False),
        )


# -- ingestion ---------------------------------------------------------------


@dataclass
class IngestStats:
    """Everything observed while streaming one trace file."""

    path: str
    format: str
    compressed: bool
    file_bytes: int
    digest: str | None
    lines: int = 0
    records: int = 0
    reads: int = 0
    writes: int = 0
    non_monotonic: int = 0
    unique_pages: int = 0
    runs: int = 0
    min_cycle: int = 0
    max_cycle: int = 0
    per_gpu_records: tuple[int, ...] = ()
    split: str = "round-robin"
    page_size: int = 4096
    num_gpus: int = 1
    num_cus: int = 1
    scale: float = 1.0

    @property
    def read_fraction(self) -> float:
        return self.reads / self.records if self.records else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "format": self.format,
            "compressed": self.compressed,
            "file_bytes": self.file_bytes,
            "digest": self.digest,
            "lines": self.lines,
            "records": self.records,
            "reads": self.reads,
            "writes": self.writes,
            "read_fraction": round(self.read_fraction, 4),
            "non_monotonic": self.non_monotonic,
            "unique_pages": self.unique_pages,
            "footprint_bytes": self.unique_pages * self.page_size,
            "runs": self.runs,
            "min_cycle": self.min_cycle,
            "max_cycle": self.max_cycle,
            "per_gpu_records": list(self.per_gpu_records),
            "split": self.split,
            "page_size": self.page_size,
            "num_gpus": self.num_gpus,
            "num_cus": self.num_cus,
            "scale": self.scale,
        }


@dataclass
class IngestResult:
    """An ingested trace: the replayable workload plus its statistics."""

    workload: Workload
    stats: IngestStats
    per_gpu_runs: dict[int, int] = field(default_factory=dict)


def _page_shift(page_size: int) -> int:
    if page_size <= 0 or page_size & (page_size - 1):
        raise ValueError(f"page_size must be a positive power of two: {page_size}")
    return page_size.bit_length() - 1


def ingest_trace(
    path: str | Path,
    *,
    config: Any = None,
    num_gpus: int | None = None,
    num_cus: int | None = None,
    split: str = "round-robin",
    page_size: int | None = None,
    fmt: str | None = None,
    scale: float = 1.0,
    warmup_frac: float = DEFAULT_WARMUP_FRAC,
    name: str | None = None,
    block_pages: int = DEFAULT_BLOCK_PAGES,
    max_gap: int = DEFAULT_MAX_GAP,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    compute_digest: bool = True,
) -> IngestResult:
    """Stream a k6/mase trace into a replayable :class:`Workload`.

    The trace becomes one application (pid 1) spanning every GPU the
    split policy assigns records to — the paper's
    single-application-multi-GPU paradigm.  ``config`` (a
    :class:`~repro.config.system.SystemConfig`) supplies
    ``num_gpus``/``num_cus``/``page_size`` defaults; explicit keywords
    override it.  ``scale`` < 1 truncates every CU stream proportionally
    (the same trace-length-scale semantics the synthetic generators use).

    Raises :class:`TraceFormatError` on malformed/truncated/empty input
    and ``ValueError`` on bad parameters.
    """
    path = Path(path)
    if config is not None:
        num_gpus = config.num_gpus if num_gpus is None else num_gpus
        num_cus = config.gpu.num_cus if num_cus is None else num_cus
        page_size = config.page_size if page_size is None else page_size
    num_gpus = 4 if num_gpus is None else num_gpus
    num_cus = 64 if num_cus is None else num_cus
    page_size = 4096 if page_size is None else page_size
    if num_gpus < 1:
        raise ValueError(f"num_gpus must be >= 1, got {num_gpus}")
    if num_cus < 1:
        raise ValueError(f"num_cus must be >= 1, got {num_cus}")
    if split not in SPLIT_POLICIES:
        raise ValueError(
            f"unknown split policy {split!r}; choose from {', '.join(SPLIT_POLICIES)}"
        )
    if not 0.0 < scale <= 4.0:
        raise ValueError(f"scale must be in (0, 4], got {scale!r}")
    if not 0.0 <= warmup_frac < 1.0:
        raise ValueError(f"warmup_frac must be in [0, 1), got {warmup_frac!r}")
    shift = _page_shift(page_size)
    if fmt is None:
        fmt = sniff_format(path)

    compressed = _is_gzip(path)
    stats = IngestStats(
        path=str(path),
        format=fmt,
        compressed=compressed,
        file_bytes=path.stat().st_size,
        digest=trace_digest(path) if compute_digest else None,
        split=split,
        page_size=page_size,
        num_gpus=num_gpus,
        num_cus=num_cus,
        scale=scale,
    )

    builders = [_GPURunBuilder() for _ in range(num_gpus)]
    footprint = np.empty(0, dtype=np.int64)
    base_index = 0
    first_cycle: int | None = None
    last_cycle = 0
    for chunk in iter_trace_chunks(
        path, fmt=fmt, page_shift=shift, chunk_records=chunk_records
    ):
        stats.records += len(chunk)
        stats.writes += int(chunk.writes.sum())
        stats.lines = chunk.last_line
        if first_cycle is None:
            first_cycle = int(chunk.cycles[0])
            stats.min_cycle = first_cycle
        deltas = np.diff(chunk.cycles)
        stats.non_monotonic += int((deltas < 0).sum())
        if int(chunk.cycles[0]) < last_cycle:
            stats.non_monotonic += 1
        last_cycle = int(chunk.cycles[-1])
        stats.max_cycle = max(stats.max_cycle, int(chunk.cycles.max()))
        footprint = np.union1d(footprint, chunk.vpns)
        gpu_ids = assign_gpus(
            split, chunk.vpns,
            num_gpus=num_gpus, base_index=base_index, block_pages=block_pages,
        )
        base_index += len(chunk)
        for gpu in range(num_gpus):
            mask = gpu_ids == gpu
            if mask.any():
                builders[gpu].add(chunk.vpns[mask], chunk.cycles[mask])
    stats.reads = stats.records - stats.writes
    if stats.records == 0:
        raise TraceFormatError("trace contains no records", path=str(path))
    stats.unique_pages = len(footprint)
    stats.per_gpu_records = tuple(b.records for b in builders)

    trace_start = first_cycle if first_cycle is not None else 0
    workload_name = name if name is not None else default_trace_name(path)
    pid = 1
    placements: list[Placement] = []
    per_gpu_runs: dict[int, int] = {}
    for gpu, builder in enumerate(builders):
        run_vpns, run_cycles, run_counts = builder.finalize()
        if not len(run_vpns):
            continue
        per_gpu_runs[gpu] = len(run_vpns)
        stats.runs += len(run_vpns)
        cu_ids: list[int] = []
        streams: list[CUStream] = []
        for cu in range(num_cus):
            vpns = run_vpns[cu::num_cus]
            if not len(vpns):
                continue
            cycles = run_cycles[cu::num_cus]
            counts = run_counts[cu::num_cus]
            gaps = np.empty(len(cycles), dtype=np.int64)
            gaps[0] = cycles[0] - trace_start + 1
            if len(cycles) > 1:
                gaps[1:] = np.diff(cycles)
            np.clip(gaps, 1, max_gap, out=gaps)
            if scale < 1.0:
                keep = max(1, int(round(len(vpns) * scale)))
                vpns, gaps, counts = vpns[:keep], gaps[:keep], counts[:keep]
            cu_ids.append(cu)
            streams.append(
                CUStream(
                    vpns=np.ascontiguousarray(vpns),
                    gaps=np.ascontiguousarray(gaps),
                    repeats=np.ascontiguousarray(counts),
                    warmup_runs=int(len(vpns) * warmup_frac),
                )
            )
        placements.append(
            Placement(
                gpu_id=gpu, pid=pid, app_name=workload_name,
                cu_ids=cu_ids, streams=streams,
            )
        )
    workload = Workload(
        name=workload_name,
        kind="single",
        placements=placements,
        app_names={pid: workload_name},
        footprints={pid: footprint},
    )
    return IngestResult(workload=workload, stats=stats, per_gpu_runs=per_gpu_runs)


# -- fixture synthesis (tests, CI smoke, perf bench) -------------------------


def write_k6_trace(
    path: str | Path,
    addresses: np.ndarray,
    writes: np.ndarray,
    cycles: np.ndarray,
    *,
    batch_lines: int = 100_000,
) -> Path:
    """Write records as k6 text; a ``.gz`` suffix gzip-compresses.

    The inverse of ingestion at record granularity — used by the
    round-trip property tests, the CI trace-smoke fixture, and the
    ingest perf bench.  Writes in bounded batches, so synthesising a
    large fixture never materialises the full text either.
    """
    path = Path(path)
    handle: IO[str]
    if path.suffix == ".gz":
        # mtime=0: the header would otherwise stamp the wall clock, and
        # the same records written a second later would change the
        # file's content digest (its result-cache key).
        handle = io.TextIOWrapper(gzip.GzipFile(path, "wb", mtime=0), encoding="utf-8")
    else:
        handle = open(path, "wt", encoding="utf-8")
    with handle:
        for start in range(0, len(addresses), batch_lines):
            chunk = slice(start, start + batch_lines)
            lines = [
                f"0x{int(addr):x} {'P_MEM_WR' if wr else 'P_MEM_RD'} {int(cyc)}"
                for addr, wr, cyc in zip(
                    addresses[chunk], writes[chunk], cycles[chunk]
                )
            ]
            handle.write("\n".join(lines) + "\n")
    return path


def synthesize_k6_trace(
    path: str | Path,
    *,
    accesses: int,
    footprint_pages: int = 2048,
    seed: int = 0,
    write_frac: float = 0.2,
    mean_repeats: int = 4,
    mean_gap: int = 40,
    page_size: int = 4096,
) -> Path:
    """Generate a deterministic, run-structured k6 trace file.

    The stream has geometric same-page bursts (so burst collapsing is
    exercised), sub-page offsets, and monotone cycles — a miniature
    stand-in for a real instrumentation trace.  Fully seeded (replay
    fidelity: same arguments → byte-identical file).
    """
    if accesses < 1:
        raise ValueError(f"accesses must be >= 1, got {accesses}")
    rng = np.random.default_rng(seed)
    runs = max(1, accesses // max(1, mean_repeats))
    pages = rng.integers(0, footprint_pages, runs, dtype=np.int64)
    repeats = 1 + rng.geometric(1.0 / max(1, mean_repeats), runs).astype(np.int64)
    total = int(repeats.sum())
    if total > accesses:
        # Trim the expansion back to the requested length.
        cumulative = np.cumsum(repeats)
        cut = int(np.searchsorted(cumulative, accesses, side="left")) + 1
        pages, repeats = pages[:cut], repeats[:cut]
        overshoot = int(repeats.sum()) - accesses
        if overshoot > 0:
            repeats[-1] = max(1, repeats[-1] - overshoot)
    vpns = np.repeat(pages, repeats)
    offsets = (np.arange(len(vpns), dtype=np.int64) * 64) % page_size
    addresses = (vpns << _page_shift(page_size)) + offsets
    writes = rng.random(len(vpns)) < write_frac
    gaps = rng.integers(1, max(2, mean_gap), len(vpns), dtype=np.int64)
    cycles = np.cumsum(gaps)
    return write_k6_trace(path, addresses, writes, cycles)
