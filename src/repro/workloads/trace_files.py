"""Trace-file identity: format sniffing, content digest, and names.

Everything the front end needs to know about a k6/mase trace file
without parsing it — which format it is, the content digest that keys
the result cache, the workload name derived from its file name, and the
per-GPU split policies a run may ask for.  Stdlib only, so a
cache-served ``repro bench --trace`` never imports numpy; the streaming
parser itself is :mod:`repro.workloads.ingest`.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import re
import threading
from pathlib import Path
from typing import IO

from repro.workloads.errors import TraceFormatError

#: Recognised trace-file suffixes (``.gz`` may wrap any of them).
TRACE_SUFFIXES = (".trc", ".k6", ".mase", ".trace", ".txt")

#: k6-format commands → is_write (DRAMSim2's recommended format).
K6_COMMANDS: dict[str, bool] = {
    "P_MEM_RD": False,
    "P_FETCH": False,
    "P_LOCK_RD": False,
    "P_MEM_WR": True,
    "P_LOCK_WR": True,
}

#: mase-format commands → is_write.
MASE_COMMANDS: dict[str, bool] = {
    "READ": False,
    "IFETCH": False,
    "WRITE": True,
}

_FORMATS: dict[str, dict[str, bool]] = {"k6": K6_COMMANDS, "mase": MASE_COMMANDS}

#: Per-GPU splitting/interleaving policies (see :mod:`repro.workloads.ingest`).
SPLIT_POLICIES = ("round-robin", "address-hash", "contiguous-block")

_COMMENT_PREFIXES = ("#", ";", "//")


# -- format sniffing ---------------------------------------------------------


def _is_gzip(path: Path) -> bool:
    try:
        with open(path, "rb") as handle:
            return handle.read(2) == b"\x1f\x8b"
    except OSError as exc:
        raise TraceFormatError("cannot read trace", path=str(path), cause=exc) from exc


def _open_text(path: Path) -> IO[str]:
    if _is_gzip(path):
        return gzip.open(path, "rt", encoding="utf-8", errors="replace")
    return open(path, "rt", encoding="utf-8", errors="replace")


def _first_data_line(path: Path) -> str | None:
    with _open_text(path) as handle:
        try:
            for line in handle:
                stripped = line.strip()
                if stripped and not stripped.startswith(_COMMENT_PREFIXES):
                    return stripped
        except (EOFError, OSError) as exc:
            raise TraceFormatError(
                "truncated or corrupt compressed trace", path=str(path), cause=exc
            ) from exc
    return None


def sniff_format(path: str | Path) -> str:
    """Detect ``"k6"`` vs ``"mase"`` for ``path``.

    Follows DRAMSim2's convention first — a file name starting with
    ``k6`` or ``mase`` declares its format — then falls back to matching
    the command column of the first data line.
    """
    path = Path(path)
    stem = path.name.lower()
    for fmt in _FORMATS:
        if stem.startswith(fmt):
            return fmt
    line = _first_data_line(path)
    if line is None:
        raise TraceFormatError("trace contains no records", path=str(path))
    fields = line.split()
    command = fields[1] if len(fields) >= 2 else ""
    for fmt, commands in _FORMATS.items():
        if command in commands:
            return fmt
    raise TraceFormatError(
        "cannot sniff trace format (expected a k6 command like P_MEM_RD or "
        "a mase command like READ in column 2)",
        path=str(path), line=1, text=line,
    )


# -- streaming content digest ------------------------------------------------

_DIGEST_CACHE: dict[str, tuple[int, int, str]] = {}
_DIGEST_LOCK = threading.Lock()


def trace_digest(path: str | Path, *, chunk_bytes: int = 1 << 20) -> str:
    """SHA-256 of the trace file's raw bytes, streamed chunk-wise.

    The digest is over the *stored* bytes (compressed, for ``.gz``
    inputs), so it never decompresses the trace.  Results are memoised
    per ``(path, size, mtime)`` so repeated fingerprint computations —
    bench dedup, serve canonicalization — re-hash only after the file
    actually changes.
    """
    resolved = Path(path).resolve()
    try:
        stat = os.stat(resolved)
    except OSError as exc:
        raise TraceFormatError("cannot stat trace", path=str(path), cause=exc) from exc
    key = str(resolved)
    identity = (stat.st_size, stat.st_mtime_ns)
    with _DIGEST_LOCK:
        cached = _DIGEST_CACHE.get(key)
        if cached is not None and cached[:2] == identity:
            return cached[2]
    digest = hashlib.sha256()
    try:
        with open(resolved, "rb") as handle:
            while True:
                block = handle.read(chunk_bytes)
                if not block:
                    break
                digest.update(block)
    except OSError as exc:
        raise TraceFormatError("cannot read trace", path=str(path), cause=exc) from exc
    value = digest.hexdigest()
    with _DIGEST_LOCK:
        _DIGEST_CACHE[key] = (*identity, value)
    return value


def trace_workload_key(path: str | Path) -> dict[str, str]:
    """The cache-fingerprint identity of a trace workload.

    Content-addressed: two paths holding identical bytes share cache
    entries; editing the file invalidates them.  The name is deliberately
    excluded so moving a trace keeps its cached results.
    """
    return {"trace_digest": trace_digest(path)}


def default_trace_name(path: str | Path) -> str:
    """A workload name derived from the trace file name."""
    stem = Path(path).name
    for suffix in (".gz", *TRACE_SUFFIXES):
        if stem.lower().endswith(suffix):
            stem = stem[: -len(suffix)]
    stem = re.sub(r"[^A-Za-z0-9_.-]+", "_", stem).strip("_")
    return stem or "trace"
