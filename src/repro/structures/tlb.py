"""The TLB of both simulation backends, and its entry format.

Every TLB in the hierarchy — the per-CU L1s, the per-GPU L2s and the
shared IOMMU TLB — is a :class:`SetAssociativeTLB`, in the event engine
and in the functional replay alike.  An entry is two ints:

* a **key** packing the translation's ``(pid, vpn)`` tag, with the pid in
  the low :data:`PID_BITS` bits, so a VPN of any width keys its own entry
  (:func:`pack_key`);
* a **payload** packing the frame number, the owner GPU and the spill
  budget (:func:`pack_payload`).

The spill budget is the paper's per-entry spill bit generalised to a
counter (Section 4.2): it starts at ``N`` (1 in the paper), an IOMMU TLB
victim spilled into a GPU's L2 loses one, and an L2 victim with none left
is discarded instead of re-entering the IOMMU TLB, which bounds the
ping-pong "chain effect".  The owner is the GPU whose L2 holds the entry
or, in the IOMMU TLB, whose L2 eviction inserted it; the per-GPU Eviction
Counters are the number of resident entries per owner, and a TLB built
with ``owners`` keeps them itself.

A payload can be 0 (frame 0, no owner, no budget): test a lookup's result
with ``is None``, never by truthiness.

The structures are pure state containers: they know nothing about
latencies or the protocol that manages them.  Timing and policy live in
:mod:`repro.gpu`, :mod:`repro.iommu` and :mod:`repro.policies`.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from typing import Iterator

#: Bits of a key holding the pid; pids lie in ``range(PID_LIMIT)``.
PID_BITS = 16
#: Bits of a payload holding the spill budget; budgets lie in
#: ``range(BUDGET_LIMIT)``.
BUDGET_BITS = 16
#: Bits of a payload holding the owner field, which stores ``owner + 1``
#: (0 means no owner); owner GPUs lie in ``range(OWNER_LIMIT)``.
OWNER_BITS = 16

PID_LIMIT = 1 << PID_BITS
BUDGET_LIMIT = 1 << BUDGET_BITS
OWNER_LIMIT = (1 << OWNER_BITS) - 1

PID_MASK = PID_LIMIT - 1
BUDGET_MASK = BUDGET_LIMIT - 1
OWNER_MASK = (1 << OWNER_BITS) - 1
#: Shift of the owner field in a payload.
OWNER_SHIFT = BUDGET_BITS
#: Shift of the frame number in a payload.
FRAME_SHIFT = BUDGET_BITS + OWNER_BITS


def pack_key(pid: int, vpn: int) -> int:
    """The key of translation ``(pid, vpn)``."""
    return (vpn << PID_BITS) | pid


def unpack_key(key: int) -> tuple[int, int]:
    """The ``(pid, vpn)`` tag a key packs."""
    return key & PID_MASK, key >> PID_BITS


def pack_payload(ppn: int, owner: int = -1, budget: int = 0) -> int:
    """The payload of frame ``ppn`` owned by GPU ``owner`` (-1: none) with
    ``budget`` spills left."""
    return (ppn << FRAME_SHIFT) | ((owner + 1) << OWNER_SHIFT) | budget


def unpack_payload(payload: int) -> tuple[int, int, int]:
    """The ``(ppn, owner, budget)`` a payload packs."""
    return (
        payload >> FRAME_SHIFT,
        ((payload >> OWNER_SHIFT) & OWNER_MASK) - 1,
        payload & BUDGET_MASK,
    )


class SetAssociativeTLB:
    """A set-associative LRU TLB over packed keys and payloads.

    Each set is an insertion-ordered dict ``{key: payload}`` whose order is
    its LRU stack, least recent first.  The set index comes from the VPN
    only (the pid lives in the tag), as in hardware, so concurrently
    running applications conflict in the shared IOMMU TLB — one of the
    contention effects the paper measures.  A power-of-two set count
    indexes by mask (``index_mask``), any other by modulo
    (``index_mask == -1``); a fully associative TLB has one set,
    ``only_set``.

    ``num_entries=None`` builds Figure 3's unbounded TLB: one set of
    unlimited ways, whose inserts never evict and whose lookups leave
    recency alone.

    ``owners=n`` keeps ``owner_counts``, the number of resident entries of
    each of ``n`` owners, exact through every insert, refresh, eviction,
    removal and invalidation; it is empty otherwise.
    """

    __slots__ = (
        "associativity",
        "num_sets",
        "sets",
        "index_mask",
        "only_set",
        "bounded",
        "owner_counts",
    )

    def __init__(
        self, num_entries: int | None, associativity: int = 1, *, owners: int = 0
    ) -> None:
        self.bounded = num_entries is not None
        if num_entries is None:
            associativity = sys.maxsize
            num_sets = 1
        else:
            if num_entries <= 0:
                raise ValueError(f"num_entries must be positive, got {num_entries}")
            if associativity <= 0 or num_entries % associativity != 0:
                raise ValueError(
                    f"associativity {associativity} must divide num_entries "
                    f"{num_entries}"
                )
            num_sets = num_entries // associativity
        self.associativity = associativity
        self.num_sets = num_sets
        self.sets: list[OrderedDict[int, int]] = [OrderedDict() for _ in range(num_sets)]
        self.index_mask = num_sets - 1 if num_sets & (num_sets - 1) == 0 else -1
        self.only_set = self.sets[0] if num_sets == 1 else None
        self.owner_counts = [0] * owners

    # -- indexing ---------------------------------------------------------

    def _set_of(self, key: int) -> OrderedDict[int, int]:
        only = self.only_set
        if only is not None:
            return only
        vpn = key >> PID_BITS
        mask = self.index_mask
        return self.sets[vpn & mask if mask >= 0 else vpn % self.num_sets]

    def _count(self, payload: int, delta: int) -> None:
        owner = (payload >> OWNER_SHIFT) & OWNER_MASK
        if owner:
            self.owner_counts[owner - 1] += delta

    # -- core operations ---------------------------------------------------

    def lookup(self, key: int) -> int | None:
        """The payload stored under ``key``, or ``None``.  A hit becomes the
        most recently used entry of its set."""
        tlb_set = self.only_set
        if tlb_set is None:
            vpn = key >> PID_BITS
            mask = self.index_mask
            tlb_set = self.sets[vpn & mask if mask >= 0 else vpn % self.num_sets]
        payload = tlb_set.get(key)
        if payload is not None and self.bounded:
            tlb_set.move_to_end(key)
        return payload

    def peek(self, key: int) -> int | None:
        """The payload stored under ``key``, recency untouched."""
        return self._set_of(key).get(key)

    def touch(self, key: int) -> bool:
        """Make ``key`` its set's most recently used entry; whether it is
        resident."""
        tlb_set = self._set_of(key)
        if key not in tlb_set:
            return False
        if self.bounded:
            tlb_set.move_to_end(key)
        return True

    def insert(self, key: int, payload: int) -> tuple[int, int] | None:
        """Store ``payload`` under ``key``; the evicted ``(key, payload)``
        if the set was full, else ``None``.

        Inserting a resident key replaces its payload, evicting nothing; in
        a bounded TLB it also becomes the most recently used entry.
        """
        tlb_set = self.only_set
        if tlb_set is None:
            vpn = key >> PID_BITS
            mask = self.index_mask
            tlb_set = self.sets[vpn & mask if mask >= 0 else vpn % self.num_sets]
        # ``displaced``: the payload this insert overwrites or evicts.
        displaced = tlb_set.get(key)
        victim = None
        if displaced is None:
            if len(tlb_set) >= self.associativity:
                victim = tlb_set.popitem(last=False)
                displaced = victim[1]
        elif self.bounded:
            tlb_set.move_to_end(key)
        tlb_set[key] = payload
        counts = self.owner_counts
        if counts:
            owner = (payload >> OWNER_SHIFT) & OWNER_MASK
            if owner:
                counts[owner - 1] += 1
            if displaced is not None:
                owner = (displaced >> OWNER_SHIFT) & OWNER_MASK
                if owner:
                    counts[owner - 1] -= 1
        return victim

    def remove(self, key: int) -> int | None:
        """Remove ``key``; its payload, or ``None`` if it was absent."""
        payload = self._set_of(key).pop(key, None)
        if payload is not None and self.owner_counts:
            self._count(payload, -1)
        return payload

    # -- bulk operations ----------------------------------------------------

    def invalidate_all(self) -> int:
        """Drop every entry (TLB shootdown).  Returns the number dropped."""
        dropped = len(self)
        for tlb_set in self.sets:
            tlb_set.clear()
        counts = self.owner_counts
        counts[:] = [0] * len(counts)
        return dropped

    def invalidate_pid(self, pid: int) -> int:
        """Drop every entry of ``pid`` (process teardown).  Returns the
        number dropped."""
        dropped = 0
        for tlb_set in self.sets:
            stale = [key for key in tlb_set if key & PID_MASK == pid]
            for key in stale:
                payload = tlb_set.pop(key)
                if self.owner_counts:
                    self._count(payload, -1)
            dropped += len(stale)
        return dropped

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return sum(len(s) for s in self.sets)

    def __contains__(self, key: int) -> bool:
        # One set probe: every L2 fill tests for a refresh this way.
        tlb_set = self.only_set
        if tlb_set is None:
            vpn = key >> PID_BITS
            mask = self.index_mask
            tlb_set = self.sets[vpn & mask if mask >= 0 else vpn % self.num_sets]
        return key in tlb_set

    def items(self) -> Iterator[tuple[int, int]]:
        """Every resident ``(key, payload)``: set by set, least recent
        first."""
        for tlb_set in self.sets:
            yield from tlb_set.items()

    def resident_keys(self) -> set[int]:
        """The keys of all resident entries."""
        return {key for tlb_set in self.sets for key in tlb_set}
