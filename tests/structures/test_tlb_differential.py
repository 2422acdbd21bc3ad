"""Differential test of the one TLB both backends build.

:class:`SetAssociativeTLB` packs each entry into two ints, indexes sets
off the key, and keeps the per-GPU Eviction Counters itself.  Comparing
the two backends cannot catch a bug in a structure they share, so the
oracle below is the plain object model those shortcuts must reproduce:
``(pid, vpn)`` tuple keys and entry records in LRU ``OrderedDict`` sets
(indexed by mask for a power-of-two set count, else by modulo), the
unbounded mode of Figure 3's infinite IOMMU TLB, and the Eviction Counter
bookkeeping of an IOMMU that adjusts the counters around each insert and
removal and recounts the survivors after a per-process shootdown.  After
every operation both must agree on each set's contents in order, on
every returned entry and victim, and on the owner counts.
"""

from collections import OrderedDict
from dataclasses import astuple, dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures.tlb import (
    BUDGET_LIMIT,
    SetAssociativeTLB,
    pack_key,
    pack_payload,
    unpack_key,
    unpack_payload,
)

OWNERS = 3


@dataclass
class Entry:
    ppn: int
    owner: int
    budget: int


class OracleTLB:
    """The TLB as a plain object model; ``ways=None`` is unbounded."""

    def __init__(self, num_sets, ways):
        self.sets = [OrderedDict() for _ in range(num_sets)]
        self.ways = ways
        self.counters = [0] * OWNERS

    def _set(self, vpn):
        num_sets = len(self.sets)
        if num_sets & (num_sets - 1) == 0:
            return self.sets[vpn & (num_sets - 1)]
        return self.sets[vpn % num_sets]

    def _count(self, entry, delta):
        if entry.owner >= 0:
            self.counters[entry.owner] += delta

    def lookup(self, pid, vpn):
        tlb_set = self._set(vpn)
        entry = tlb_set.get((pid, vpn))
        if entry is not None and self.ways is not None:
            tlb_set.move_to_end((pid, vpn))
        return entry

    def peek(self, pid, vpn):
        return self._set(vpn).get((pid, vpn))

    def touch(self, pid, vpn):
        tlb_set = self._set(vpn)
        if (pid, vpn) not in tlb_set:
            return False
        if self.ways is not None:
            tlb_set.move_to_end((pid, vpn))
        return True

    def insert(self, pid, vpn, entry):
        tlb_set = self._set(vpn)
        key = (pid, vpn)
        existing = tlb_set.get(key)
        if existing is not None:
            self._count(existing, -1)
        victim = None
        if existing is not None:
            tlb_set[key] = entry
            if self.ways is not None:
                tlb_set.move_to_end(key)
        else:
            if self.ways is not None and len(tlb_set) >= self.ways:
                victim = tlb_set.popitem(last=False)
            tlb_set[key] = entry
        self._count(entry, 1)
        if victim is not None:
            self._count(victim[1], -1)
        return victim

    def remove(self, pid, vpn):
        entry = self._set(vpn).pop((pid, vpn), None)
        if entry is not None:
            self._count(entry, -1)
        return entry

    def invalidate_all(self):
        dropped = sum(len(s) for s in self.sets)
        for tlb_set in self.sets:
            tlb_set.clear()
        self.counters = [0] * OWNERS
        return dropped

    def invalidate_pid(self, pid):
        dropped = 0
        for tlb_set in self.sets:
            for key in [key for key in tlb_set if key[0] == pid]:
                del tlb_set[key]
                dropped += 1
        self.counters = [0] * OWNERS
        for tlb_set in self.sets:
            for entry in tlb_set.values():
                self._count(entry, 1)
        return dropped


def as_record(payload):
    return None if payload is None else unpack_payload(payload)


def as_victim(victim):
    return None if victim is None else (unpack_key(victim[0]), unpack_payload(victim[1]))


def oracle_record(entry):
    return None if entry is None else astuple(entry)


def oracle_victim(victim):
    return None if victim is None else (victim[0], astuple(victim[1]))


geometries = st.one_of(
    st.tuples(st.sampled_from([1, 2, 3, 4, 5, 6]), st.integers(1, 4)),
    st.just((1, None)),
)
# A small key space, so lookups hit and sets conflict often: VPNs 0-3,
# and copies of 0 and 3 that differ only above bit 48.
vpns = st.sampled_from([0, 1, 2, 3, 1 << 48, (1 << 48) | 3])
entries = st.one_of(
    st.just(Entry(0, -1, 0)),  # payload 0
    st.builds(
        Entry,
        st.integers(0, 5),
        st.integers(-1, OWNERS - 1),
        st.sampled_from([0, 1, 2, BUDGET_LIMIT - 1]),
    ),
)
operations = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert"] * 6
            + ["lookup"] * 3
            + ["peek", "touch", "remove", "invalidate_all", "invalidate_pid"]
        ),
        st.integers(1, 3),
        vpns,
        entries,
    ),
    min_size=20,
    max_size=80,
)


@given(geometry=geometries, ops=operations)
@settings(max_examples=400, deadline=None)
def test_tlb_matches_object_model(geometry, ops):
    num_sets, ways = geometry
    oracle = OracleTLB(num_sets, ways)
    if ways is None:
        tlb = SetAssociativeTLB(None, owners=OWNERS)
    else:
        tlb = SetAssociativeTLB(num_sets * ways, ways, owners=OWNERS)
    for op, pid, vpn, entry in ops:
        key = pack_key(pid, vpn)
        if op == "insert":
            got = as_victim(tlb.insert(key, pack_payload(*astuple(entry))))
            want = oracle_victim(oracle.insert(pid, vpn, entry))
        elif op in ("lookup", "peek", "remove"):
            got = as_record(getattr(tlb, op)(key))
            want = oracle_record(getattr(oracle, op)(pid, vpn))
        elif op == "touch":
            got, want = tlb.touch(key), oracle.touch(pid, vpn)
        elif op == "invalidate_all":
            got, want = tlb.invalidate_all(), oracle.invalidate_all()
        else:
            got, want = tlb.invalidate_pid(pid), oracle.invalidate_pid(pid)
        assert got == want, op
        assert [
            [(unpack_key(k), unpack_payload(p)) for k, p in tlb_set.items()]
            for tlb_set in tlb.sets
        ] == [
            [(k, astuple(e)) for k, e in tlb_set.items()] for tlb_set in oracle.sets
        ], op
        assert tlb.owner_counts == oracle.counters, op
        assert len(tlb) == sum(len(s) for s in oracle.sets)
