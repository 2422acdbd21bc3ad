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

* the file is read **incrementally** — a bounded-size chunk of lines at
  a time — so peak RSS never scales with the raw trace length, only with
  the run-compressed output (consecutive same-page accesses collapse into
  one run with a repeat count, the trace model's burst convention);
* the streaming content digest
  (:func:`~repro.workloads.trace_files.trace_digest`) hashes the raw
  bytes chunk-wise, never loading the file, and keys the persistent
  result cache: a trace job's fingerprint depends on the file's
  *content*, not its path or mtime.

Each chunk is parsed as arrays, with no Python loop over its lines.  A
chunk outside that plain grammar (comments, a lone ``\r``, non-ASCII or
control bytes, ``+``/``_`` numerals, numbers too long for int64, any
malformed line) goes through the per-line parser instead, which is also
the reference the tests hold the array parser to.  Malformed input
raises :class:`~repro.workloads.errors.TraceFormatError` with the file,
1-based line number, and offending text; the CLI maps it to a usage
error (exit 2).

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
    _open_bytes,
    default_trace_name,
    sniff_format,
    trace_digest,
)

#: Lines per chunk — the unit of bounded-memory streaming.
DEFAULT_CHUNK_RECORDS = 16_384

#: VPNs per contiguous block for the ``contiguous-block`` policy
#: (512 × 4 KiB pages = 2 MiB blocks).
DEFAULT_BLOCK_PAGES = 512

#: Issue-gap clamp: trace cycle deltas outside [1, this] are clipped so a
#: single bogus timestamp cannot distort MPKI/IPC accounting.
DEFAULT_MAX_GAP = 100_000

#: Fewest new pages worth a footprint merge.
_MIN_PAGE_MERGE = 1 << 16


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


def _parse_lines(
    lines: list[str],
    *,
    path: Path,
    fmt: str,
    page_shift: int,
    line_no: int,
) -> tuple[list[int], list[bool], list[int]]:
    """Parse text lines one at a time: the reference parser, and the
    only source of :class:`TraceFormatError` diagnostics.  ``line_no``
    is the number of file lines before ``lines``."""
    commands = _FORMATS[fmt]
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
        vpn = address >> page_shift
        if vpn > _INT64_MAX or cycle > _INT64_MAX:
            raise TraceFormatError(
                "page number or cycle does not fit in int64",
                path=str(path), line=line_no, text=stripped,
            )
        vpns.append(vpn)
        writes.append(is_write)
        cycles.append(cycle)
    return vpns, writes, cycles


def _text_lines(data: bytes) -> list[str]:
    """``data`` as the lines text mode reads from it (UTF-8 with
    replacement, universal newlines)."""
    text = data.decode("utf-8", "replace")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


#: Hex digit values; 0x80 marks every other byte.
_DIGIT = np.full(256, 0x80, dtype=np.uint8)
_DIGIT[list(b"0123456789abcdef")] = range(16)
_DIGIT[list(b"ABCDEF")] = range(10, 16)
_INT64_MAX = (1 << 63) - 1
#: Longest numerals the array path converts: 16 hex or 19 decimal digits
#: fit in uint64.  Longer ones take the per-line parser.
_MAX_HEX_DIGITS, _MAX_DEC_DIGITS = 16, 19
#: Zero bytes around a block's word view, so every word read stays inside.
_PAD = 24
#: ``_LOW_BYTES[m]`` keeps the ``m`` low (first) bytes of a word.
_LOW_BYTES = np.array([(1 << 8 * m) - 1 for m in range(9)], dtype=np.uint64)
_HIGH_BITS = 0x8080808080808080


def _words(data: np.ndarray) -> np.ndarray:
    """Every 8-byte window of ``data`` as a little-endian uint64: word
    ``i + _PAD`` holds bytes ``i`` to ``i + 7`` (zeros outside ``data``)."""
    padded = np.zeros(len(data) + 2 * _PAD, dtype=np.uint8)
    padded[_PAD : _PAD + len(data)] = data
    return np.ndarray((len(padded) - 7,), dtype="<u8", buffer=padded, strides=(1,))


def _numerals(
    words: np.ndarray, starts: np.ndarray, ends: np.ndarray, base: int
) -> np.ndarray | None:
    """The uint64 value of each numeral ``[start, end)`` in ``base``, or
    ``None`` if one holds a byte that is no digit of ``base``.

    ``words`` is :func:`_words` over the block.  Each 8-digit group, last
    group first, is one word; its digits combine pairwise in three
    multiply-adds (SWAR).
    """
    value = np.zeros(len(starts), dtype=np.uint64)
    groups = -(-int((ends - starts).max()) // 8)
    for group in range(groups):
        first = ends - 8 * (group + 1)
        word = np.take(_DIGIT, words[first + _PAD].view(np.uint8)).view("<u8")
        word &= ~_LOW_BYTES[np.clip(starts - first, 0, 8)]
        # A non-digit byte is 0x80; adding 0x76 flags the hex digits 10-15.
        flags = word | (word + 0x7676767676767676) if base == 10 else word
        if (flags & _HIGH_BITS).any():
            return None
        word = (word & 0x00FF00FF00FF00FF) * base + ((word >> 8) & 0x00FF00FF00FF00FF)
        word = (word & 0x0000FFFF0000FFFF) * base**2 + ((word >> 16) & 0x0000FFFF0000FFFF)
        word = (word & 0xFFFFFFFF) * base**4 + (word >> 32)
        value += word * base ** (8 * group)
    return value


def _command_words(commands: dict[str, bool]) -> tuple[np.ndarray, np.ndarray]:
    """Each command as two little-endian words (16 bytes, zero-padded),
    and its write flag."""
    names = b"".join(name.encode().ljust(16, b"\0") for name in commands)
    words = np.frombuffer(names, dtype="<u8").reshape(-1, 2)
    return words, np.fromiter(commands.values(), dtype=bool)


_COMMAND_WORDS = {fmt: _command_words(commands) for fmt, commands in _FORMATS.items()}


def _commands(
    words: np.ndarray, starts: np.ndarray, ends: np.ndarray, fmt: str
) -> np.ndarray | None:
    """The write flag of each command token ``[start, end)``, or ``None``
    if one is not a command of ``fmt``.  ``words`` is :func:`_words` over
    the block."""
    names, name_writes = _COMMAND_WORDS[fmt]
    lengths = ends - starts
    if lengths.max() > 16:
        return None
    head = words[starts + _PAD] & _LOW_BYTES[np.minimum(lengths, 8)]
    tail = words[starts + 8 + _PAD] & _LOW_BYTES[np.clip(lengths - 8, 0, 8)]
    known = np.zeros(len(starts), dtype=bool)
    writes = np.zeros(len(starts), dtype=bool)
    for (name_head, name_tail), is_write in zip(names, name_writes):
        match = (head == name_head) & (tail == name_tail)
        known |= match
        if is_write:
            writes |= match
    return writes if known.all() else None


def _parse_block(
    data: bytes, fmt: str, page_shift: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Parse whole lines as arrays, with no loop over lines.

    Returns the records' ``(vpns, writes, cycles)``, or ``None`` when a
    line falls outside the plain grammar -- a comment, a lone ``\\r``, a
    control or non-ASCII byte, a signed or ``_``-grouped numeral, a number
    too long for int64, or any malformed line -- and the per-line parser
    must decide.  The plain grammar: blank lines, and lines of three
    tokens separated by spaces or tabs -- a ``0x``-hex or decimal address,
    a command of ``fmt`` and a decimal cycle.
    """
    b = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(b == ord("\n"))
    controls = len(newlines) + np.count_nonzero(b == ord("\t"))
    if b"\r" in data:
        cr = np.flatnonzero(b == ord("\r"))
        if cr[-1] == len(b) - 1 or (b[cr + 1] != ord("\n")).any():
            return None
        controls += len(cr)
    if b.max(initial=0) > 0x7E or np.count_nonzero(b < 0x20) != controls:
        return None
    bounds = np.flatnonzero(np.diff(b > 0x20, prepend=False, append=False))
    starts, ends = bounds[0::2], bounds[1::2]
    # Each line holds three tokens or none.
    per_line = np.diff(np.searchsorted(starts, newlines), prepend=0, append=len(starts))
    if ((per_line != 0) & (per_line != 3)).any():
        return None
    if not len(starts):
        return np.empty(0, np.int64), np.empty(0, bool), np.empty(0, np.int64)

    address_starts, address_ends = starts[0::3], ends[0::3]
    cycle_starts, cycle_ends = starts[2::3], ends[2::3]
    is_hex = (
        (address_ends - address_starts > 2)
        & (b[address_starts] == ord("0"))
        & ((b[address_starts + 1] | 0x20) == ord("x"))
    )
    digit_starts = address_starts + 2 * is_hex
    if (
        (address_ends - digit_starts > np.where(is_hex, _MAX_HEX_DIGITS, _MAX_DEC_DIGITS)).any()
        or (cycle_ends - cycle_starts > _MAX_DEC_DIGITS).any()
    ):
        return None
    words = _words(b)
    addresses = np.empty(len(address_starts), dtype=np.uint64)
    for base, mask in ((16, is_hex), (10, ~is_hex)):
        if mask.any():
            values = _numerals(words, digit_starts[mask], address_ends[mask], base)
            if values is None:
                return None
            addresses[mask] = values
    cycles = _numerals(words, cycle_starts, cycle_ends, 10)
    writes = _commands(words, starts[1::3], ends[1::3], fmt)
    if cycles is None or writes is None:
        return None
    vpns = addresses >> page_shift
    if vpns.max() > _INT64_MAX or cycles.max() > _INT64_MAX:
        return None
    return vpns.astype(np.int64), writes, cycles.astype(np.int64)


#: Bytes asked of the (decompressed) stream per read.
_READ_BYTES = 1 << 16


def _count_line_ends(data: bytes) -> int:
    """Line ends in ``data`` under universal newlines; a ``\\r\\n``
    split across two reads counts twice, so the count may run ahead."""
    count = data.count(b"\n")
    if b"\r" in data:
        count += data.count(b"\r") - data.count(b"\r\n")
    return count


def _line_ends(data: bytes, final: bool) -> np.ndarray:
    """Offsets just past each line end in ``data``: ``\\n``, ``\\r\\n`` or
    a lone ``\\r``, the universal newlines of text mode.  A ``\\r`` closing
    ``data`` ends a line only at the end of the stream (``final``);
    before that, the next read may start with its ``\\n``."""
    b = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(b == ord("\n")) + 1
    if b"\r" in data:
        cr = np.flatnonzero(b[:-1] == ord("\r"))
        lone = cr[b[cr + 1] != ord("\n")] + 1
        if final and data.endswith(b"\r"):
            lone = np.append(lone, len(b))
        ends = np.sort(np.concatenate((ends, lone)))
    return ends


def _line_blocks(
    raw: IO[bytes], chunk_records: int, path: Path
) -> Iterator[tuple[bytes, int]]:
    """Split a byte stream into ``(data, lines)`` blocks of
    ``chunk_records`` lines, the last block holding the rest.

    Lines end where text mode ends them, so each block holds the lines a
    text-mode reader groups into the same chunk.  A failed read raises
    :class:`TraceFormatError` after the blocks read in full, at the line
    after them -- where a text-mode reader fails.
    """
    parts: list[bytes] = []
    pending = done = 0
    while True:
        error = None
        try:
            block = raw.read1(_READ_BYTES)
        except (EOFError, OSError) as exc:
            error, block = exc, b""
        parts.append(block)
        pending += _count_line_ends(block)
        final = not block
        if pending < chunk_records and not final:
            continue
        data = b"".join(parts)
        ends = _line_ends(data, final and error is None)
        start = 0
        for stop in ends[chunk_records - 1 :: chunk_records].tolist():
            yield data[start:stop], chunk_records
            done += chunk_records
            start = stop
        rest = data[start:]
        if error is not None:
            raise TraceFormatError(
                "truncated or corrupt compressed trace",
                path=str(path), line=done + 1, cause=error,
            ) from error
        if final:
            if rest:
                unterminated = not rest.endswith((b"\n", b"\r"))
                yield rest, len(ends) % chunk_records + unterminated
            return
        parts, pending = [rest], _count_line_ends(rest)


def _chunks(
    path: Path, fmt: str | None, page_shift: int, chunk_records: int
) -> Iterator[TraceChunk]:
    """Every chunk of the trace, record-less ones included."""
    if fmt is None:
        fmt = sniff_format(path)
    if fmt not in _FORMATS:
        raise TraceFormatError(
            f"unknown trace format {fmt!r}; choose from {sorted(_FORMATS)}",
            path=str(path),
        )
    if chunk_records < 1:
        raise ValueError(f"chunk_records must be >= 1, got {chunk_records}")
    line_no = 0
    with _open_bytes(path) as raw:
        for data, lines in _line_blocks(raw, chunk_records, path):
            records = _parse_block(data, fmt, page_shift)
            if records is None:
                vpns, writes, cycles = _parse_lines(
                    _text_lines(data), path=path, fmt=fmt,
                    page_shift=page_shift, line_no=line_no,
                )
                records = (
                    np.asarray(vpns, dtype=np.int64),
                    np.asarray(writes, dtype=bool),
                    np.asarray(cycles, dtype=np.int64),
                )
            line_no += lines
            yield TraceChunk(*records, last_line=line_no)


def iter_trace_chunks(
    path: str | Path,
    *,
    fmt: str | None = None,
    page_shift: int = 12,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> Iterator[TraceChunk]:
    """Yield :class:`TraceChunk` batches from a k6/mase trace.

    Reads the file (gzip or plain) incrementally, ``chunk_records``
    lines at a time, so at most one chunk of bytes and its arrays are in
    memory.  Each chunk is parsed as arrays; one outside the plain
    grammar goes through the per-line parser instead, with the same
    result.  A malformed line raises :class:`TraceFormatError` naming the
    line; a truncated gzip stream raises it naming the file.
    """
    for chunk in _chunks(Path(path), fmt, page_shift, chunk_records):
        if len(chunk):
            yield chunk


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


def _unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` by sorting, which is many times faster than
    numpy's hash-based unique on large integer arrays."""
    values = np.sort(values)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


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
    # Each chunk's pages wait here until they outnumber the footprint, so
    # the merges cost O(n log n) over the trace, not a sort per chunk.
    new_pages: list[np.ndarray] = []
    new_count = 0
    base_index = 0
    first_cycle: int | None = None
    last_cycle = 0
    for chunk in _chunks(path, fmt, shift, chunk_records):
        stats.lines = chunk.last_line
        if not len(chunk):
            continue
        stats.records += len(chunk)
        stats.writes += int(chunk.writes.sum())
        if first_cycle is None:
            first_cycle = int(chunk.cycles[0])
            stats.min_cycle = first_cycle
        deltas = np.diff(chunk.cycles)
        stats.non_monotonic += int((deltas < 0).sum())
        if int(chunk.cycles[0]) < last_cycle:
            stats.non_monotonic += 1
        last_cycle = int(chunk.cycles[-1])
        stats.max_cycle = max(stats.max_cycle, int(chunk.cycles.max()))
        new_pages.append(_unique(chunk.vpns))
        new_count += len(new_pages[-1])
        if new_count >= max(len(footprint), _MIN_PAGE_MERGE):
            footprint = _unique(np.concatenate([footprint, *new_pages]))
            new_pages, new_count = [], 0
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
    footprint = _unique(np.concatenate([footprint, *new_pages]))
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
        # file's content digest (its result-cache key).  Level 1: the
        # default level 9 spends ~20x the time for a ~20% smaller
        # fixture that inflates no faster.
        handle = io.TextIOWrapper(
            gzip.GzipFile(path, "wb", compresslevel=1, mtime=0), encoding="utf-8"
        )
    else:
        handle = open(path, "wt", encoding="utf-8")
    with handle:
        for start in range(0, len(addresses), batch_lines):
            chunk = slice(start, start + batch_lines)
            # Plain Python ints and bools format far faster than numpy
            # scalars.
            lines = [
                f"0x{addr:x} {'P_MEM_WR' if wr else 'P_MEM_RD'} {cyc}"
                for addr, wr, cyc in zip(
                    np.asarray(addresses[chunk]).tolist(),
                    np.asarray(writes[chunk]).tolist(),
                    np.asarray(cycles[chunk]).tolist(),
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
