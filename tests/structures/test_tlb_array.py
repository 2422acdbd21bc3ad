"""Differential tests: ``PackedTLB`` mirrors ``SetAssociativeTLB`` (LRU).

The functional backend's TLB state lives in packed-integer mirrors
(:mod:`repro.structures.tlb_array`); the contract is that set indexing,
LRU order, duplicate-refresh, and victim selection are bit-exact against
the reference object model.  These tests drive both through randomized
operation streams and compare full state after every step.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures.tlb import InfiniteTLB, SetAssociativeTLB, TLBEntry
from repro.structures.tlb_array import (
    InfinitePackedTLB,
    PackedTLB,
    pack_key,
    pack_value,
    unpack_key,
    value_budget,
    value_owner,
    value_ppn,
)


class TestPacking:
    def test_key_roundtrip(self):
        for pid, vpn in [(0, 0), (1, 7), (255, (1 << 48) - 1), (12, 123456789)]:
            assert unpack_key(pack_key(pid, vpn)) == (pid, vpn)

    def test_value_fields(self):
        value = pack_value(ppn=0xABCDE, spill_budget=3, owner_gpu=2)
        assert value_ppn(value) == 0xABCDE
        assert value_budget(value) == 3
        assert value_owner(value) == 2

    def test_unowned_entry(self):
        value = pack_value(ppn=5, spill_budget=1, owner_gpu=-1)
        assert value_owner(value) == -1

    def test_keys_do_not_alias_across_pids(self):
        assert pack_key(1, 0) != pack_key(0, 1 << 47)


ops_st = st.lists(
    st.tuples(
        st.sampled_from(["insert", "lookup", "peek", "touch", "remove"]),
        st.integers(1, 2),     # pid
        st.integers(0, 20),    # vpn
    ),
    min_size=1,
    max_size=80,
)


def entry_tuple(entry):
    if entry is None:
        return None
    return (entry.pid, entry.vpn, entry.ppn, entry.spill_budget, entry.owner_gpu)


def packed_tuple(key, value):
    if value is None:
        return None
    pid, vpn = unpack_key(key)
    return (pid, vpn, value_ppn(value), value_budget(value), value_owner(value))


@pytest.mark.parametrize("num_entries,associativity", [(8, 2), (8, 8), (6, 3)])
@given(ops=ops_st)
@settings(max_examples=50, deadline=None)
def test_packed_tlb_matches_reference(num_entries, associativity, ops):
    ref = SetAssociativeTLB(num_entries, associativity)
    packed = PackedTLB(num_entries, associativity)
    for i, (op, pid, vpn) in enumerate(ops):
        key = pack_key(pid, vpn)
        if op == "insert":
            # Vary payload per step so refreshed duplicates are visible.
            ppn = i + 1  # PPN 0 is reserved in the packed encoding
            budget = i % 3
            owner = (i % 4) - 1
            victim_ref = ref.insert(TLBEntry(pid, vpn, ppn, budget, owner))
            victim_packed = packed.insert(
                key, vpn, pack_value(ppn, budget, owner)
            )
            if victim_ref is None:
                assert victim_packed is None
            else:
                assert packed_tuple(*victim_packed) == entry_tuple(victim_ref)
        elif op == "lookup":
            assert packed_tuple(key, packed.lookup(key, vpn)) == entry_tuple(
                ref.lookup(pid, vpn)
            )
        elif op == "peek":
            assert packed_tuple(key, packed.peek(key, vpn)) == entry_tuple(
                ref.peek(pid, vpn)
            )
        elif op == "touch":
            assert packed.touch(key, vpn) == ref.touch(pid, vpn)
        else:
            removed_ref = ref.remove(pid, vpn)
            removed_packed = packed.remove(key, vpn)
            if removed_ref is None:
                assert removed_packed is None
            else:
                assert packed_tuple(key, removed_packed) == entry_tuple(removed_ref)
        assert len(packed) == len(ref)
    # Full-state sweep: same residency over the whole key domain.
    for pid in (1, 2):
        for vpn in range(21):
            key = pack_key(pid, vpn)
            assert packed.has(key, vpn) == (ref.peek(pid, vpn) is not None)
            assert ((key, vpn) in packed) == (ref.peek(pid, vpn) is not None)


@given(ops=ops_st)
@settings(max_examples=25, deadline=None)
def test_infinite_packed_tlb_matches_reference(ops):
    ref = InfiniteTLB()
    packed = InfinitePackedTLB()
    for i, (op, pid, vpn) in enumerate(ops):
        key = pack_key(pid, vpn)
        if op == "insert":
            assert ref.insert(TLBEntry(pid, vpn, i + 1)) is None
            assert packed.insert(key, vpn, pack_value(i + 1, 1, -1)) is None
        elif op == "remove":
            removed_ref = ref.remove(pid, vpn)
            removed_packed = packed.remove(key, vpn)
            assert (removed_packed is None) == (removed_ref is None)
        else:
            assert packed.has(key, vpn) == (ref.peek(pid, vpn) is not None)
        assert len(packed) == len(ref)
