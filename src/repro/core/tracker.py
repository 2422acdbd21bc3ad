"""The Local TLB Tracker (Section 4.1).

A hardware structure in the IOMMU recording which translations currently
live in which GPU's L2 TLB, so the least-inclusive hierarchy can still
support cross-GPU translation sharing: an IOMMU TLB miss that hits the
tracker is forwarded to the indicated GPU's L2 instead of paying a walk.

The paper implements the tracker as a 2048-entry cuckoo filter divided
equally among the GPUs (≈1.08 KB, ≈0.2 false-positive probability).  The
``kind`` knob also offers a counting-Bloom-filter variant and a ``perfect``
oracle for the tracker ablation benches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.system import TrackerConfig
from repro.structures.bloom_filter import CountingBloomFilter
from repro.structures.cuckoo_filter import CuckooFilter, CuckooHashing, probe_all


class _PerfectFilter:
    """Oracle membership: exact set semantics, zero hardware realism."""

    __slots__ = ("_keys",)

    def __init__(self) -> None:
        self._keys: set[tuple[int, int]] = set()

    def insert(self, pid: int, vpn: int) -> bool:
        self._keys.add((pid, vpn))
        return True

    def contains(self, pid: int, vpn: int) -> bool:
        return (pid, vpn) in self._keys

    def delete(self, pid: int, vpn: int) -> bool:
        try:
            self._keys.remove((pid, vpn))
            return True
        except KeyError:
            return False

    def clear(self) -> None:
        self._keys.clear()

    def __len__(self) -> int:
        return len(self._keys)

    def size_bytes(self) -> float:
        return float("inf")


@dataclass(slots=True)
class TrackerStats:
    """Aggregate operation counts across all tracker partitions."""

    registrations: int = 0
    unregistrations: int = 0
    queries: int = 0
    positives: int = 0
    multi_positives: int = 0


class LocalTLBTracker:
    """Per-GPU membership filters over L2 TLB contents.

    Every cuckoo partition has the same bucket count, so they share one
    :class:`CuckooHashing`: a key is hashed once per tracker, and a query
    locates it once for all GPUs.  That count is the equal share of
    ``total_entries`` rounded down to a power of two, the only geometry
    in which partial-key cuckoo relocation maps back (at 4, 8 and 16 GPUs
    the default budget already divides into 128, 64 and 32 buckets).
    """

    def __init__(self, config: TrackerConfig, num_gpus: int, seed: int = 0) -> None:
        if num_gpus <= 0:
            raise ValueError(f"num_gpus must be positive: {num_gpus}")
        self.config = config
        self.num_gpus = num_gpus
        per_gpu = max(config.bucket_size, config.total_entries // num_gpus)
        # A bucket multiple: the Bloom variant sizes its cells from it.
        per_gpu -= per_gpu % config.bucket_size
        self._filters: list[CuckooFilter | CountingBloomFilter | _PerfectFilter]
        self._hashing: CuckooHashing | None = None
        self._cuckoos: list[CuckooFilter] = []
        if config.kind == "cuckoo":
            buckets = 1 << ((per_gpu // config.bucket_size).bit_length() - 1)
            hashing = CuckooHashing(buckets, config.fingerprint_bits)
            self._hashing = hashing
            self._cuckoos = [
                CuckooFilter(
                    num_entries=buckets * config.bucket_size,
                    bucket_size=config.bucket_size,
                    fingerprint_bits=config.fingerprint_bits,
                    seed=seed + g,
                    hashing=hashing,
                )
                for g in range(num_gpus)
            ]
            self._filters = list(self._cuckoos)
        elif config.kind == "bloom":
            self._filters = [
                CountingBloomFilter(num_cells=per_gpu * 2, num_hashes=2)
                for _ in range(num_gpus)
            ]
        else:
            self._filters = [_PerfectFilter() for _ in range(num_gpus)]
        self.stats = TrackerStats()

    # -- protocol operations ---------------------------------------------------

    def register(self, gpu_id: int, pid: int, vpn: int) -> None:
        """A translation entered ``gpu_id``'s L2 TLB."""
        self.stats.registrations += 1
        if self._hashing is not None:
            fp, i1, i2 = self._hashing.locate(pid, vpn)
            self._cuckoos[gpu_id].insert_at(fp, i1, i2)
        else:
            self._filters[gpu_id].insert(pid, vpn)

    def unregister(self, gpu_id: int, pid: int, vpn: int) -> None:
        """A translation left ``gpu_id``'s L2 TLB."""
        self.stats.unregistrations += 1
        if self._hashing is not None:
            fp, i1, i2 = self._hashing.locate(pid, vpn)
            self._cuckoos[gpu_id].delete_at(fp, i1, i2)
        else:
            self._filters[gpu_id].delete(pid, vpn)

    def query(self, pid: int, vpn: int) -> list[int]:
        """GPUs whose filter reports the translation resident.

        May contain false positives (fingerprint aliasing) — the protocol
        tolerates this by racing the walk with the remote probe.
        """
        stats = self.stats
        stats.queries += 1
        if self._hashing is not None:
            fp, i1, i2 = self._hashing.locate(pid, vpn)
            positives = probe_all(self._cuckoos, fp, i1, i2)
        else:
            positives = [
                gpu_id
                for gpu_id, filt in enumerate(self._filters)
                if filt.contains(pid, vpn)
            ]
        if positives:
            stats.positives += 1
            if len(positives) > 1:
                stats.multi_positives += 1
        return positives

    def clear(self, gpu_id: int | None = None) -> None:
        """Shootdown handling: reset one GPU's partition or all of them."""
        if gpu_id is None:
            for filt in self._filters:
                filt.clear()
        else:
            self._filters[gpu_id].clear()

    # -- introspection -------------------------------------------------------------

    def occupancy(self, gpu_id: int) -> int:
        return len(self._filters[gpu_id])

    def size_bytes(self) -> float:
        """Total tracker storage (the paper reports 1.08 KB)."""
        return sum(f.size_bytes() for f in self._filters)
