"""Cuckoo filter (Fan et al., CoNEXT'14) used by the Local TLB Tracker.

The paper's tracker stores *fingerprints* of the translations resident in
each GPU's L2 TLB (Section 4.1).  A cuckoo filter supports the three
operations the tracker needs — insert, membership test, and delete — in a
fixed hardware budget (2048 entries total, ~1.08 KB, ≈0.2 false-positive
probability in the paper's configuration).

Two imperfections of the structure are deliberately modelled because the
paper's protocol depends on them being tolerable:

* **False positives** — distinct keys can share a fingerprint and bucket
  pair, so a membership test may wrongly report presence.  The protocol
  hides the cost by racing the remote lookup with the page-table walk.
* **False negatives after overflow or aliased deletes** — when both candidate
  buckets are full and the relocation chain exceeds ``max_kicks``, a resident
  fingerprint is displaced (the victim key is silently forgotten); deleting a
  key may likewise remove an aliased twin's fingerprint.  A tracker miss only
  costs a page-table walk, so correctness is unaffected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence


def _splitmix64(x: int) -> int:
    """A strong, seedable 64-bit mixer (deterministic across runs, unlike
    Python's builtin ``hash`` for strings)."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


@dataclass(slots=True)
class CuckooFilterStats:
    """Operation accounting for one filter instance."""

    insertions: int = 0
    deletions: int = 0
    failed_deletions: int = 0
    displaced: int = 0  # fingerprints lost to overflow (false-negative risk)
    queries: int = 0
    positives: int = 0


class CuckooHashing:
    """Where keys live in a filter of ``num_buckets`` buckets.

    A key ``(pid, vpn)`` has a fingerprint and two candidate buckets that
    depend only on the key, the bucket count and the fingerprint width —
    not on a filter's seed or contents — so one instance serves every
    partition of a tracker, and each key is hashed once per instance
    (``locate`` memoises it).  ``mix`` caches ``_splitmix64(fp)`` for each
    fingerprint seen, which is every fingerprint a bucket can hold.
    """

    __slots__ = ("num_buckets", "fp_mask", "mix", "_located")

    def __init__(self, num_buckets: int, fingerprint_bits: int) -> None:
        # ``(i ^ mix) % num_buckets`` maps back to ``i`` only for a power
        # of two; any other count strands relocated fingerprints in
        # buckets their key never probes (silent false negatives).
        if num_buckets < 1 or num_buckets & (num_buckets - 1):
            raise ValueError(
                f"num_buckets must be a power of two, got {num_buckets}"
            )
        self.num_buckets = num_buckets
        self.fp_mask = (1 << fingerprint_bits) - 1
        self.mix: dict[int, int] = {}
        self._located: dict[int, tuple[int, int, int]] = {}

    def locate(self, pid: int, vpn: int) -> tuple[int, int, int]:
        """``(fingerprint, i1, i2)`` of the key ``(pid, vpn)``."""
        key = (pid << 48) ^ vpn
        located = self._located.get(key)
        if located is None:
            key_hash = _splitmix64(key)
            # The fingerprint comes from the HIGH bits of the key hash while
            # the bucket index uses the low bits — deriving both from the
            # same bits would correlate fingerprint with bucket and break
            # the false-positive bound.  A fingerprint of zero is avoided so
            # hardware-faithful encodings remain possible.
            fp = (key_hash >> 40) & self.fp_mask or 1
            mix = self.mix.get(fp)
            if mix is None:
                mix = self.mix[fp] = _splitmix64(fp)
            i1 = key_hash % self.num_buckets
            # A fingerprint in bucket i has its other candidate at
            # (i ^ mix) % num_buckets; the kicks in insert_at rely on it.
            located = self._located[key] = (fp, i1, (i1 ^ mix) % self.num_buckets)
        return located


class CuckooFilter:
    """A bucketised cuckoo filter over ``(pid, vpn)`` translation keys.

    Parameters
    ----------
    num_entries:
        Total fingerprint slots (buckets × bucket_size, with a power-of-two
        bucket count).  The paper uses 2048 slots split evenly across GPUs.
    bucket_size:
        Slots per bucket (4 in the canonical design).
    fingerprint_bits:
        Width of the stored fingerprint.  Smaller fingerprints save area but
        raise the false-positive probability; 6 bits lands near the paper's
        0.2 figure under high occupancy.
    hashing:
        Key geometry shared with other filters of the same bucket count and
        fingerprint width (the tracker's partitions); by default the filter
        gets its own.

    ``insert``/``contains``/``delete`` take a key; ``insert_at``,
    ``delete_at`` and :func:`probe_all` take the key's ``hashing.locate``
    result, so a caller probing several filters hashes the key once.
    """

    __slots__ = (
        "num_buckets",
        "bucket_size",
        "fingerprint_bits",
        "max_kicks",
        "hashing",
        "_buckets",
        "_rng",
        "stats",
    )

    def __init__(
        self,
        num_entries: int = 512,
        bucket_size: int = 4,
        fingerprint_bits: int = 6,
        max_kicks: int = 64,
        seed: int = 0,
        hashing: CuckooHashing | None = None,
    ) -> None:
        if num_entries <= 0 or num_entries % bucket_size != 0:
            raise ValueError(
                f"num_entries {num_entries} must be a positive multiple of "
                f"bucket_size {bucket_size}"
            )
        if not 2 <= fingerprint_bits <= 32:
            raise ValueError(f"fingerprint_bits out of range: {fingerprint_bits}")
        self.num_buckets = num_entries // bucket_size
        self.bucket_size = bucket_size
        self.fingerprint_bits = fingerprint_bits
        self.max_kicks = max_kicks
        self.hashing = hashing or CuckooHashing(self.num_buckets, fingerprint_bits)
        self._buckets: list[list[int]] = [[] for _ in range(self.num_buckets)]
        self._rng = random.Random(seed)
        self.stats = CuckooFilterStats()

    # -- operations ---------------------------------------------------------

    def insert(self, pid: int, vpn: int) -> bool:
        """Insert a key.  Returns ``False`` when an unrelated fingerprint had
        to be displaced to make room (a future false negative for its key);
        the new key itself is always stored."""
        fp, i1, i2 = self.hashing.locate(pid, vpn)
        return self.insert_at(fp, i1, i2)

    def insert_at(self, fp: int, i1: int, i2: int) -> bool:
        """``insert`` of a located key."""
        self.stats.insertions += 1
        size = self.bucket_size
        buckets = self._buckets
        bucket = buckets[i1]
        if len(bucket) < size:
            bucket.append(fp)
            return True
        bucket = buckets[i2]
        if len(bucket) < size:
            bucket.append(fp)
            return True
        # Both buckets full: relocate resident fingerprints cuckoo-style,
        # starting from a random candidate and kicking a random slot.  A
        # draw below ``n`` takes ``n.bit_length()`` random bits and redraws
        # while the value is ``>= n``: the draws ``Random.choice`` and
        # ``Random.randrange`` make on CPython, defined here so results do
        # not depend on the interpreter's private ``_randbelow``.
        getrandbits = self._rng.getrandbits
        draw = getrandbits(2)
        while draw >= 2:
            draw = getrandbits(2)
        index = i2 if draw else i1
        bits = size.bit_length()
        mix = self.hashing.mix  # holds every resident fingerprint's mix
        nb = self.num_buckets
        for _ in range(self.max_kicks):
            slot = getrandbits(bits)
            while slot >= size:
                slot = getrandbits(bits)
            bucket = buckets[index]
            fp, bucket[slot] = bucket[slot], fp
            index = (index ^ mix[fp]) % nb
            bucket = buckets[index]
            if len(bucket) < size:
                bucket.append(fp)
                return True
        # Relocation chain exhausted: drop the orphaned fingerprint.  Its
        # original key becomes a false negative, which the translation
        # protocol tolerates (the PTW path always races the tracker).
        self.stats.displaced += 1
        return False

    def contains(self, pid: int, vpn: int) -> bool:
        """Membership test (may return false positives)."""
        fp, i1, i2 = self.hashing.locate(pid, vpn)
        return bool(probe_all((self,), fp, i1, i2))

    def delete(self, pid: int, vpn: int) -> bool:
        """Remove one copy of the key's fingerprint.

        Returns ``False`` if no matching fingerprint was present (the key was
        never inserted, or its fingerprint was displaced earlier).
        """
        fp, i1, i2 = self.hashing.locate(pid, vpn)
        return self.delete_at(fp, i1, i2)

    def delete_at(self, fp: int, i1: int, i2: int) -> bool:
        """``delete`` of a located key."""
        buckets = self._buckets
        bucket = buckets[i1]
        if fp not in bucket:
            bucket = buckets[i2]
            if fp not in bucket:
                self.stats.failed_deletions += 1
                return False
        bucket.remove(fp)
        self.stats.deletions += 1
        return True

    def clear(self) -> None:
        """Reset the filter (IOMMU TLB shootdown path, Section 4.4)."""
        for bucket in self._buckets:
            bucket.clear()

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets)

    @property
    def capacity(self) -> int:
        """Total fingerprint slots."""
        return self.num_buckets * self.bucket_size

    def load_factor(self) -> float:
        """Occupied fraction of the fingerprint slots."""
        return len(self) / self.capacity

    def size_bytes(self) -> float:
        """Storage cost in bytes (fingerprints only, as the paper counts)."""
        return self.capacity * self.fingerprint_bits / 8


def probe_all(filters: Sequence[CuckooFilter], fp: int, i1: int, i2: int) -> list[int]:
    """Positions in ``filters`` whose membership test reports the located
    key ``(fp, i1, i2)`` — ``contains`` on each filter, counted in each
    filter's stats, in one call."""
    found: list[int] = []
    for position, filt in enumerate(filters):
        stats = filt.stats
        stats.queries += 1
        buckets = filt._buckets
        if fp in buckets[i1] or fp in buckets[i2]:
            stats.positives += 1
            found.append(position)
    return found
