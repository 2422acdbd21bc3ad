"""Packed, set-indexed TLB state mirrors for the functional fast path.

:class:`~repro.structures.tlb.SetAssociativeTLB` stores rich
:class:`~repro.structures.tlb.TLBEntry` objects keyed by ``(pid, vpn)``
tuples — convenient for the event engine, but every lookup allocates a
tuple and every fill allocates an entry.  The functional backend
(:mod:`repro.sim.backends`) replays hundreds of thousands of accesses per
second through three TLB levels, so it uses this allocation-free mirror
instead:

* translation tags are **packed integers** ``(pid << VPN_BITS) | vpn``;
* entry payloads are **packed integers**
  ``(ppn << 16) | ((owner_gpu + 1) << 8) | spill_budget``;
* each set is one insertion-ordered mapping whose order *is* the LRU
  stack (head = least recent), exactly like the event engine's per-set
  ``OrderedDict``.

The replacement behaviour is a bit-exact mirror of ``SetAssociativeTLB``
with the default LRU policy: same set-index function (mask for
power-of-two set counts, modulo otherwise), same refresh-in-place on
duplicate insert, same head-of-set victim once a set reaches its
associativity.  ``tests/structures/test_tlb_array.py`` pins the equivalence
differentially against the reference model.

Only LRU is mirrored; the functional backend refuses configurations using
other replacement policies (see :mod:`repro.sim.backends`).
"""

from __future__ import annotations

from collections import OrderedDict

VPN_BITS = 48
"""VPN field width in a packed key; PIDs occupy the bits above."""

_OWNER_SHIFT = 8
_PPN_SHIFT = 16
_BUDGET_MASK = 0xFF
_OWNER_MASK = 0xFF


def pack_key(pid: int, vpn: int) -> int:
    """Pack a ``(pid, vpn)`` tag into one integer."""
    return (pid << VPN_BITS) | vpn


def unpack_key(key: int) -> tuple[int, int]:
    """Recover ``(pid, vpn)`` from a packed key."""
    return key >> VPN_BITS, key & ((1 << VPN_BITS) - 1)


def pack_value(ppn: int, spill_budget: int, owner_gpu: int) -> int:
    """Pack an entry payload.  ``owner_gpu`` may be -1 (unowned)."""
    return (ppn << _PPN_SHIFT) | ((owner_gpu + 1) << _OWNER_SHIFT) | spill_budget


def value_ppn(value: int) -> int:
    """The PPN field of a packed payload."""
    return value >> _PPN_SHIFT


def value_budget(value: int) -> int:
    """The spill-budget field of a packed payload."""
    return value & _BUDGET_MASK


def value_owner(value: int) -> int:
    """The owner-GPU field of a packed payload (-1 when unowned)."""
    return ((value >> _OWNER_SHIFT) & _OWNER_MASK) - 1


class PackedTLB:
    """Set-associative LRU TLB over packed integer keys and payloads.

    The caller supplies both the packed key and the raw VPN (the set index
    depends on the VPN only, like hardware: the PID lives in the tag).
    Statistics are the caller's job — the functional backend accounts hits
    and misses in its own counter dictionaries.
    """

    __slots__ = ("num_entries", "associativity", "num_sets", "_sets", "_mask", "_only")

    def __init__(self, num_entries: int, associativity: int) -> None:
        if num_entries <= 0:
            raise ValueError(f"num_entries must be positive, got {num_entries}")
        if associativity <= 0 or num_entries % associativity != 0:
            raise ValueError(
                f"associativity {associativity} must divide num_entries {num_entries}"
            )
        self.num_entries = num_entries
        self.associativity = associativity
        self.num_sets = num_entries // associativity
        self._sets: list[OrderedDict[int, int]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self._mask = (
            self.num_sets - 1 if self.num_sets & (self.num_sets - 1) == 0 else -1
        )
        self._only = self._sets[0] if self.num_sets == 1 else None

    def _set_for(self, vpn: int) -> OrderedDict[int, int]:
        only = self._only
        if only is not None:
            return only
        mask = self._mask
        return self._sets[vpn & mask if mask >= 0 else vpn % self.num_sets]

    def lookup(self, key: int, vpn: int) -> int | None:
        """Payload for ``key``, promoting it to most-recent; None on miss."""
        tlb_set = self._set_for(vpn)
        value = tlb_set.get(key)
        if value is not None:
            tlb_set.move_to_end(key)
        return value

    def peek(self, key: int, vpn: int) -> int | None:
        """Payload for ``key`` without touching recency."""
        return self._set_for(vpn).get(key)

    def has(self, key: int, vpn: int) -> bool:
        """Presence test with no recency side effects (tuple-free
        ``__contains__`` for the functional backend's hot paths)."""
        return key in self._set_for(vpn)

    def touch(self, key: int, vpn: int) -> bool:
        """Promote ``key`` to most-recent without recording anything."""
        tlb_set = self._set_for(vpn)
        if key not in tlb_set:
            return False
        tlb_set.move_to_end(key)
        return True

    def insert(self, key: int, vpn: int, value: int) -> tuple[int, int] | None:
        """Insert ``key → value``; returns the evicted ``(key, value)``
        pair if the set was full, or None (duplicate inserts refresh the
        stored payload in place, promote, and never evict)."""
        tlb_set = self._set_for(vpn)
        if key in tlb_set:
            tlb_set[key] = value
            tlb_set.move_to_end(key)
            return None
        victim: tuple[int, int] | None = None
        if len(tlb_set) >= self.associativity:
            victim = tlb_set.popitem(last=False)
        tlb_set[key] = value
        return victim

    def remove(self, key: int, vpn: int) -> int | None:
        """Remove ``key``; returns its payload or None if absent."""
        return self._set_for(vpn).pop(key, None)

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def __contains__(self, item: tuple[int, int]) -> bool:
        key, vpn = item
        return key in self._set_for(vpn)


class InfinitePackedTLB:
    """Unbounded mirror of :class:`~repro.structures.tlb.InfiniteTLB`:
    lookups do not touch recency and inserts never evict (Figure 3's
    infinite-IOMMU-TLB study — only cold misses occur)."""

    __slots__ = ("_store",)

    def __init__(self) -> None:
        self._store: dict[int, int] = {}

    def lookup(self, key: int, vpn: int) -> int | None:
        return self._store.get(key)

    def peek(self, key: int, vpn: int) -> int | None:
        return self._store.get(key)

    def has(self, key: int, vpn: int) -> bool:
        return key in self._store

    def touch(self, key: int, vpn: int) -> bool:
        return key in self._store

    def insert(self, key: int, vpn: int, value: int) -> tuple[int, int] | None:
        self._store[key] = value
        return None

    def remove(self, key: int, vpn: int) -> int | None:
        return self._store.pop(key, None)

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, item: tuple[int, int]) -> bool:
        key, _vpn = item
        return key in self._store
