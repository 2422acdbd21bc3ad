"""Persistent, content-addressed simulation result cache.

A simulation is a pure function of its inputs: the
:class:`~repro.config.system.SystemConfig`, the workload specification
(name, kind, scale, seed), the translation policy, any fault/hardening
configuration, and the simulator code itself.  This module fingerprints
that tuple, hashes it, and stores the finished
:class:`~repro.sim.results.SimulationResult` on disk under the digest, so
re-running any benchmark after an unrelated edit is a cache hit instead of
a re-simulation.

Keying rules (see ``docs/performance.md``):

* every field of the (frozen, nested) config dataclasses is in the key —
  mutating any of them forces a re-simulation;
* ``scale`` and ``seed`` are keyed explicitly, never read from the
  environment at lookup time;
* fault plans and hardening configs are keyed via their canonical forms,
  so a fault campaign never reuses a fault-free result (determinism
  interaction: the fault-plan seed is the config seed, which is keyed);
* a hash over the ``repro`` package's source invalidates everything
  whenever simulator code changes.

Stores are atomic (write-to-temp + ``os.replace``) so a killed run never
leaves a half-written entry, and loads tolerate corruption: an unreadable
entry is *quarantined* (renamed to ``*.corrupt``, with a
:class:`CacheCorruptionWarning`) and treated as a miss — disk bitrot is
visible for forensics instead of silently recomputed away.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import time
import warnings
from dataclasses import asdict, is_dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any

try:  # advisory inter-process locking; absent on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover - POSIX-only test environment
    fcntl = None  # type: ignore[assignment]

from repro.faults.plan import FaultPlan
from repro.reporting.export import result_from_dict, result_to_dict
from repro.sim.results import SimulationResult

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_DISABLE_ENV = "REPRO_NO_CACHE"


class CacheCorruptionWarning(UserWarning):
    """A cache entry failed to load and was quarantined as ``*.corrupt``."""

#: Bumped when the cache entry layout itself changes.
CACHE_FORMAT = 1


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-sim``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-sim"


@lru_cache(maxsize=1)
def code_version_hash() -> str:
    """SHA-256 over every ``repro`` source file, path-ordered.

    Any edit to the simulator invalidates every cached result; results
    therefore never survive the code that produced them.
    """
    import repro

    package_root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to a deterministic JSON-serialisable form.

    Dataclasses flatten to field dictionaries, fault plans to their CLI
    syntax, containers recurse, and anything else falls back to ``repr``
    (stable for the value types that reach a simulation's keyword
    arguments).

    numpy values are handled explicitly: scalars (``np.generic``) unwrap
    via ``item()``, arrays serialise with dtype, shape *and* data.  The
    generic ``hasattr(value, "item")`` probe alone would either raise on
    a multi-element array or silently collapse a one-element array to its
    scalar — two different option values fingerprinting identically.
    They are recognised by their type's module, and numpy is then read
    from ``sys.modules``: keying never imports numpy, and never touches
    a numpy that another thread is still importing (the serve pool's
    pre-fork preload runs beside the event loop, which keys requests).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, FaultPlan):
        return {"fault_plan": value.describe()}
    if is_dataclass(value) and not isinstance(value, type):
        return {"__type__": type(value).__name__, **canonicalize(asdict(value))}
    if isinstance(value, dict):
        return {str(k): canonicalize(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(canonicalize(v) for v in value)
    if any(cls.__module__.partition(".")[0] == "numpy" for cls in type(value).__mro__):
        np = sys.modules["numpy"]
        if isinstance(value, np.generic):
            return value.item()
        if isinstance(value, np.ndarray):
            return {
                "__ndarray__": {"dtype": str(value.dtype), "shape": list(value.shape)},
                "data": value.tolist(),
            }
    if hasattr(value, "item") and callable(value.item):  # scalar-like wrappers
        return value.item()
    return repr(value)


def run_fingerprint(
    *,
    kind: str,
    workload: Any,
    policy: str,
    config: Any,
    scale: float,
    seed: int | None,
    options: dict[str, Any] | None = None,
    backend: str = "event",
    shards: int = 1,
) -> dict[str, Any]:
    """The complete identity of one simulation as a plain dictionary.

    ``seed=None`` resolves to the config seed (what the drivers do), so a
    run keyed with an explicit seed equal to the config's and one keyed
    with ``None`` share an entry — they are the same simulation.

    ``backend`` is part of the key even though the functional backend is
    cross-validated to produce bit-identical results: keeping the entries
    separate means a fidelity regression can never poison (or be masked
    by) the event engine's cache, and ``scripts/check_fidelity.py`` always
    measures a real run per backend.

    ``shards`` is keyed for the same reason: ``shards>1`` is a documented
    partitioned-system approximation (see :mod:`repro.sim.sharding`), so
    a sharded result must never be served for an unsharded request or
    vice versa.
    """
    resolved_seed = seed
    if resolved_seed is None:
        resolved_seed = getattr(config, "seed", None)
    return {
        "format": CACHE_FORMAT,
        "code": code_version_hash(),
        "kind": kind,
        "backend": backend,
        "shards": shards,
        "workload": canonicalize(workload),
        "policy": policy,
        "scale": scale,
        "seed": resolved_seed,
        "config": canonicalize(config),
        "options": canonicalize(options or {}),
    }


def fingerprint_digest(fingerprint: dict[str, Any]) -> str:
    """Content address of a fingerprint: SHA-256 of its canonical JSON."""
    payload = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


#: Sidecar file (inside the cache dir) accumulating counters across
#: processes.  Deliberately *not* ``*.json`` so ``clear``/``prune`` never
#: sweep it up with the digest-named entries.
STATS_SIDECAR = "stats.meta"

#: Lock file name for the advisory inter-process cache lock.
LOCK_NAME = ".lock"

#: Orphaned ``*.tmp`` files (a writer killed mid-store) older than this
#: are reclaimed by :meth:`ResultCache.prune`.
STALE_TMP_SECONDS = 3600.0

_PERSISTENT_COUNTERS = ("hits", "misses", "stores", "corruptions")


class CacheLock:
    """Advisory ``flock`` over a cache directory's ``.lock`` file.

    Serialises destructive maintenance (``clear``, ``prune``, stats
    flushes) across processes.  Plain stores don't need it — they are
    already atomic via write-to-temp + ``os.replace`` — and on platforms
    without ``fcntl`` the lock degrades to a no-op (stores stay safe;
    only concurrent maintenance loses mutual exclusion).
    """

    def __init__(self, cache_dir: Path) -> None:
        self.path = cache_dir / LOCK_NAME
        self._handle: Any = None

    def __enter__(self) -> "CacheLock":
        if fcntl is None:
            return self
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a")
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
        except OSError:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._handle is not None:
            try:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            finally:
                self._handle.close()
                self._handle = None


class ResultCache:
    """On-disk store of finished simulation results, one JSON per digest."""

    def __init__(self, cache_dir: str | Path | None = None, *, enabled: bool = True) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corruptions = 0

    @classmethod
    def from_env(cls, cache_dir: str | Path | None = None) -> "ResultCache":
        """A cache honouring ``REPRO_NO_CACHE`` / ``REPRO_CACHE_DIR``."""
        disabled = os.environ.get(CACHE_DISABLE_ENV, "").strip() not in ("", "0")
        return cls(cache_dir, enabled=not disabled)

    def path_for(self, fingerprint: dict[str, Any]) -> Path:
        """Where the entry for ``fingerprint`` lives (existing or not)."""
        return self.cache_dir / f"{fingerprint_digest(fingerprint)}.json"

    # -- load ---------------------------------------------------------------

    def get(self, fingerprint: dict[str, Any]) -> SimulationResult | None:
        """The cached result for ``fingerprint``, or ``None`` on a miss.

        A corrupt or unreadable entry (truncated write from a killed
        process, stray file, disk bitrot, hash collision) is quarantined
        — renamed to ``<digest>.json.corrupt`` and announced with a
        :class:`CacheCorruptionWarning` — and reported as a miss, so the
        caller re-simulates while the evidence survives on disk.
        """
        if not self.enabled:
            return None
        path = self.path_for(fingerprint)
        try:
            payload = json.loads(path.read_text())
            if payload["fingerprint"] != fingerprint:
                raise ValueError("fingerprint mismatch (digest collision?)")
            result = result_from_dict(payload["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self._quarantine(path, exc)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _quarantine(self, path: Path, reason: Exception) -> None:
        """Move a corrupt entry aside (``*.corrupt``) and warn, so bitrot
        is visible instead of silently recomputed away."""
        quarantine = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, quarantine)
        except OSError:
            # Renaming failed (permissions, vanished file): fall back to
            # removing the bad entry so the cache never serves it.
            try:
                path.unlink()
            except OSError:
                return
            quarantine = None  # type: ignore[assignment]
        self.corruptions += 1
        where = f"quarantined as {quarantine}" if quarantine else "deleted"
        warnings.warn(
            f"corrupt result-cache entry {path.name} "
            f"({type(reason).__name__}: {reason}); {where}, will re-simulate",
            CacheCorruptionWarning,
            stacklevel=3,
        )

    # -- store --------------------------------------------------------------

    def put(self, fingerprint: dict[str, Any], result: SimulationResult) -> Path | None:
        """Store ``result`` under ``fingerprint`` atomically.

        The recorded IOMMU stream (when present) is kept, so a cache hit
        reproduces the full result including reuse-distance inputs.
        """
        if not self.enabled:
            return None
        path = self.path_for(fingerprint)
        payload = {
            "fingerprint": fingerprint,
            "result": result_to_dict(result, include_stream=True),
        }
        # Tolerate-and-retry: a concurrent ``clear``/``prune`` may remove
        # the cache directory between our mkdir and the temp-file write or
        # the final rename.  One retry after re-creating the directory is
        # enough — the store itself stays atomic either way.
        last_error: OSError | None = None
        for attempt in range(2):
            try:
                self._put_once(path, payload)
            except FileNotFoundError as exc:
                last_error = exc
                continue
            self.stores += 1
            return path
        raise last_error if last_error is not None else OSError("cache store failed")

    def _put_once(self, path: Path, payload: dict[str, Any]) -> None:
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.cache_dir, prefix=path.stem[:16], suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, separators=(",", ":"))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- maintenance --------------------------------------------------------

    def lock(self) -> CacheLock:
        """The cache directory's advisory inter-process lock."""
        return CacheLock(self.cache_dir)

    def clear(self) -> int:
        """Delete every cache entry.  Returns the number removed.

        Takes the inter-process lock so a concurrent ``clear``/``prune``
        never races this sweep; concurrent *stores* are safe regardless
        (atomic rename, and ``put`` retries if the directory vanishes).
        """
        removed = 0
        if not self.cache_dir.is_dir():
            return 0
        with self.lock():
            for path in self.cache_dir.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def prune(
        self,
        *,
        older_than_days: float | None = None,
        max_bytes: int | None = None,
    ) -> dict[str, int]:
        """Bound the cache by age and/or size; returns a removal summary.

        ``older_than_days`` removes entries (and quarantined ``*.corrupt``
        files) whose mtime is older; ``max_bytes`` then removes the oldest
        surviving entries until the remainder fits.  Orphaned ``*.tmp``
        files from killed writers are always reclaimed once stale.  Runs
        under the inter-process lock.
        """
        summary = {
            "removed": 0, "bytes_freed": 0, "kept": 0, "bytes_kept": 0,
            "corrupt_removed": 0, "tmp_removed": 0,
        }
        if not self.cache_dir.is_dir():
            return summary
        now = time.time()  # staticcheck: ignore[D2] - file-age policy needs wall clock
        cutoff = None
        if older_than_days is not None:
            cutoff = now - older_than_days * 86400.0

        def try_remove(path: Path, size: int, key: str) -> bool:
            try:
                path.unlink()
            except OSError:
                return False
            summary[key] += 1
            if key == "removed":
                summary["bytes_freed"] += size
            return True

        with self.lock():
            entries: list[tuple[float, int, Path]] = []
            for path in self.cache_dir.glob("*.json"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
            entries.sort()  # oldest first

            survivors: list[tuple[float, int, Path]] = []
            for mtime, size, path in entries:
                if cutoff is not None and mtime < cutoff:
                    try_remove(path, size, "removed")
                else:
                    survivors.append((mtime, size, path))

            if max_bytes is not None:
                total = sum(size for _mtime, size, _path in survivors)
                kept: list[tuple[float, int, Path]] = []
                for mtime, size, path in survivors:  # oldest first
                    if total > max_bytes and try_remove(path, size, "removed"):
                        total -= size
                    else:
                        kept.append((mtime, size, path))
                survivors = kept

            summary["kept"] = len(survivors)
            summary["bytes_kept"] = sum(s for _m, s, _p in survivors)

            for path in self.cache_dir.glob("*.json.corrupt"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                if cutoff is not None and stat.st_mtime < cutoff:
                    try_remove(path, stat.st_size, "corrupt_removed")

            for path in self.cache_dir.glob("*.tmp"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                if now - stat.st_mtime > STALE_TMP_SECONDS:
                    try_remove(path, stat.st_size, "tmp_removed")
        return summary

    def entry_count(self) -> int:
        """How many entries are currently stored."""
        if not self.cache_dir.is_dir():
            return 0
        return sum(1 for _ in self.cache_dir.glob("*.json"))

    def describe(self) -> dict[str, Any]:
        """Session statistics plus the on-disk state, for CLI reporting."""
        return {
            "dir": str(self.cache_dir),
            "enabled": self.enabled,
            "entries": self.entry_count(),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corruptions": self.corruptions,
        }

    # -- cross-process statistics -------------------------------------------

    def _stats_path(self) -> Path:
        return self.cache_dir / STATS_SIDECAR

    def _read_sidecar(self) -> dict[str, int]:
        try:
            payload = json.loads(self._stats_path().read_text())
        except (OSError, ValueError):
            payload = {}
        return {
            name: int(payload.get(name, 0)) for name in _PERSISTENT_COUNTERS
        }

    def flush_session_stats(self) -> dict[str, int]:
        """Fold this process's hit/miss/store counters into the sidecar.

        Counters accumulate across processes until :meth:`stamp_stats`
        zeroes them — ``repro cache stats`` reports the hit rate *since
        the last stamp*.  Flushing resets the in-memory counters so
        repeated flushes never double-count; runs under the lock.
        """
        if not self.enabled:
            return self._read_sidecar()
        with self.lock():
            totals = self._read_sidecar()
            for name in _PERSISTENT_COUNTERS:
                totals[name] += getattr(self, name)
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            self._stats_path().write_text(json.dumps(totals, sort_keys=True))
        for name in _PERSISTENT_COUNTERS:
            setattr(self, name, 0)
        return totals

    def stamp_stats(self) -> None:
        """Zero the persistent counters (start a new measurement window)."""
        with self.lock():
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            self._stats_path().write_text(json.dumps(
                {name: 0 for name in _PERSISTENT_COUNTERS}, sort_keys=True))


def cache_stats(cache: ResultCache) -> dict[str, Any]:
    """The full statistics report for ``repro cache stats`` and the
    daemon's ``/v1/cache/stats`` endpoint.

    Combines on-disk state (entries, bytes, quarantined ``*.corrupt``
    and orphaned ``*.tmp`` counts) with counters: this process's session
    numbers and the cross-process sidecar totals since the last stamp,
    including the derived hit rate.
    """
    entries = 0
    total_bytes = 0
    corrupt = 0
    tmp = 0
    if cache.cache_dir.is_dir():
        for path in cache.cache_dir.glob("*.json"):
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue
            entries += 1
        corrupt = sum(1 for _ in cache.cache_dir.glob("*.json.corrupt"))
        tmp = sum(1 for _ in cache.cache_dir.glob("*.tmp"))
    session = {
        "hits": cache.hits,
        "misses": cache.misses,
        "stores": cache.stores,
        "corruptions": cache.corruptions,
    }
    totals = cache._read_sidecar()
    for name in _PERSISTENT_COUNTERS:
        totals[name] += session[name]
    lookups = totals["hits"] + totals["misses"]
    return {
        "dir": str(cache.cache_dir),
        "enabled": cache.enabled,
        "entries": entries,
        "bytes": total_bytes,
        "corrupt_entries": corrupt,
        "stale_tmp_files": tmp,
        "session": session,
        "since_stamp": {
            **totals,
            "lookups": lookups,
            "hit_rate": round(totals["hits"] / lookups, 4) if lookups else None,
        },
    }
