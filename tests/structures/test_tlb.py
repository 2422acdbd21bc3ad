"""Unit tests for the set-associative TLB and its entry format."""

import pytest

from repro.structures.tlb import (
    BUDGET_LIMIT,
    OWNER_LIMIT,
    PID_LIMIT,
    SetAssociativeTLB,
    pack_key,
    pack_payload,
    unpack_key,
    unpack_payload,
)


def insert(tlb, vpn, pid=1, ppn=None):
    """Insert page ``vpn``; the evicted ``(key, payload)`` or None."""
    return tlb.insert(pack_key(pid, vpn), pack_payload(vpn + 1000 if ppn is None else ppn))


def victim_vpn(victim):
    return unpack_key(victim[0])[1]


class TestGeometry:
    def test_invalid_entries(self):
        with pytest.raises(ValueError):
            SetAssociativeTLB(num_entries=0, associativity=1)

    def test_associativity_must_divide(self):
        with pytest.raises(ValueError):
            SetAssociativeTLB(num_entries=10, associativity=4)

    def test_num_sets(self):
        tlb = SetAssociativeTLB(num_entries=512, associativity=16)
        assert tlb.num_sets == 32

    def test_fully_associative(self):
        tlb = SetAssociativeTLB(num_entries=16, associativity=16)
        assert tlb.num_sets == 1


class TestLookupInsert:
    def test_miss_then_hit(self):
        tlb = SetAssociativeTLB(num_entries=16, associativity=4)
        assert tlb.lookup(pack_key(1, 5)) is None
        insert(tlb, 5)
        found = tlb.lookup(pack_key(1, 5))
        assert found is not None
        assert unpack_payload(found)[0] == 1005

    def test_pid_is_part_of_tag(self):
        tlb = SetAssociativeTLB(num_entries=16, associativity=4)
        insert(tlb, 5, pid=1)
        assert tlb.lookup(pack_key(2, 5)) is None
        assert tlb.lookup(pack_key(1, 5)) is not None

    def test_insert_existing_refreshes_without_eviction(self):
        tlb = SetAssociativeTLB(num_entries=4, associativity=4)
        insert(tlb, 1)
        victim = insert(tlb, 1, ppn=777)
        assert victim is None
        assert unpack_payload(tlb.peek(pack_key(1, 1)))[0] == 777
        assert len(tlb) == 1

    def test_eviction_returns_lru_victim(self):
        tlb = SetAssociativeTLB(num_entries=2, associativity=2)
        insert(tlb, 0)
        insert(tlb, 2)  # same set (one set)
        victim = insert(tlb, 4)
        assert victim is not None
        assert victim_vpn(victim) == 0
        assert unpack_payload(victim[1])[0] == 1000

    def test_lookup_promotes_lru(self):
        tlb = SetAssociativeTLB(num_entries=2, associativity=2)
        insert(tlb, 0)
        insert(tlb, 2)
        tlb.lookup(pack_key(1, 0))  # promote vpn 0
        assert victim_vpn(insert(tlb, 4)) == 2

    def test_touch_promotes_without_stats(self):
        tlb = SetAssociativeTLB(num_entries=2, associativity=2)
        insert(tlb, 0)
        insert(tlb, 2)
        assert tlb.touch(pack_key(1, 0)) is True
        assert victim_vpn(insert(tlb, 4)) == 2

    def test_touch_missing_returns_false(self):
        tlb = SetAssociativeTLB(num_entries=4, associativity=4)
        assert tlb.touch(pack_key(1, 9)) is False

    def test_peek_and_contains_no_stats(self):
        tlb = SetAssociativeTLB(num_entries=2, associativity=2)
        insert(tlb, 0)
        insert(tlb, 2)
        assert tlb.peek(pack_key(1, 0)) is not None
        assert pack_key(1, 0) in tlb
        assert pack_key(1, 4) not in tlb
        # Neither promoted vpn 0: it is still the LRU victim.
        assert victim_vpn(insert(tlb, 4)) == 0

    def test_set_indexing_by_vpn(self):
        tlb = SetAssociativeTLB(num_entries=8, associativity=2)  # 4 sets
        # Fill set 0 far beyond a single set's capacity via vpns % 4 == 0.
        for vpn in (0, 4, 8):
            insert(tlb, vpn)
        assert len(tlb) == 2  # conflict evictions in set 0

    def test_modulo_indexing_for_odd_set_counts(self):
        tlb = SetAssociativeTLB(num_entries=6, associativity=2)  # 3 sets
        assert tlb.index_mask == -1
        for vpn in (1, 4, 7):  # all = 1 (mod 3)
            insert(tlb, vpn)
        assert len(tlb.sets[1]) == 2
        assert len(tlb) == 2

    def test_zero_payload_is_an_entry(self):
        tlb = SetAssociativeTLB(num_entries=2, associativity=2)
        key = pack_key(0, 0)
        assert pack_payload(0) == 0
        tlb.insert(key, 0)
        assert tlb.lookup(key) == 0
        assert tlb.remove(key) == 0
        assert tlb.remove(key) is None


class TestRemoveInvalidate:
    def test_remove(self):
        tlb = SetAssociativeTLB(num_entries=4, associativity=4)
        insert(tlb, 1)
        removed = tlb.remove(pack_key(1, 1))
        assert unpack_payload(removed)[0] == 1001
        assert tlb.remove(pack_key(1, 1)) is None
        assert len(tlb) == 0

    def test_invalidate_all(self):
        tlb = SetAssociativeTLB(num_entries=8, associativity=2)
        for vpn in range(4):
            insert(tlb, vpn)
        assert tlb.invalidate_all() == 4
        assert len(tlb) == 0

    def test_invalidate_pid(self):
        tlb = SetAssociativeTLB(num_entries=8, associativity=8)
        insert(tlb, 1, pid=1)
        insert(tlb, 2, pid=2)
        insert(tlb, 3, pid=2)
        assert tlb.invalidate_pid(2) == 2
        assert pack_key(1, 1) in tlb
        assert len(tlb) == 1


class TestOwnerCounts:
    def test_counts_follow_every_update(self):
        tlb = SetAssociativeTLB(num_entries=2, associativity=2, owners=3)
        tlb.insert(pack_key(1, 0), pack_payload(5, owner=0))
        tlb.insert(pack_key(1, 2), pack_payload(6, owner=2))
        tlb.insert(pack_key(1, 2), pack_payload(6, owner=1))  # refresh
        assert tlb.owner_counts == [1, 1, 0]
        tlb.insert(pack_key(1, 4), pack_payload(7))  # evicts owner 0, no owner
        assert tlb.owner_counts == [0, 1, 0]
        tlb.remove(pack_key(1, 2))
        assert tlb.owner_counts == [0, 0, 0]

    def test_uncounted_tlb_has_no_counts(self):
        assert SetAssociativeTLB(num_entries=2, associativity=2).owner_counts == []


class TestIntrospection:
    def test_iter_and_resident_keys(self):
        tlb = SetAssociativeTLB(num_entries=8, associativity=8)
        for vpn in range(3):
            insert(tlb, vpn)
        assert [unpack_key(key)[1] for key, _ in tlb.items()] == [0, 1, 2]
        assert tlb.resident_keys() == {pack_key(1, v) for v in range(3)}

    def test_key_in_operator(self):
        tlb = SetAssociativeTLB(num_entries=8, associativity=8)
        insert(tlb, 5)
        assert pack_key(1, 5) in tlb
        assert pack_key(1, 6) not in tlb


class TestEntry:
    def test_key(self):
        assert unpack_key(pack_key(3, 9)) == (3, 9)
        # VPNs that differ only above bit 48 keep distinct keys.
        assert pack_key(1, (1 << 48) | 9) != pack_key(1, 9)
        assert unpack_key(pack_key(PID_LIMIT - 1, 1 << 60)) == (PID_LIMIT - 1, 1 << 60)

    def test_payload_fields_round_trip_at_their_limits(self):
        for ppn, owner, budget in [
            (0, -1, 0),
            (1 << 40, OWNER_LIMIT - 1, BUDGET_LIMIT - 1),
            (7, 0, 1),
        ]:
            assert unpack_payload(pack_payload(ppn, owner, budget)) == (ppn, owner, budget)


class TestInfiniteTLB:
    """Figure 3's infinite IOMMU TLB: the unbounded geometry."""

    def test_never_evicts(self):
        tlb = SetAssociativeTLB(None)
        for vpn in range(10_000):
            assert insert(tlb, vpn) is None
        assert len(tlb) == 10_000
        assert tlb.lookup(pack_key(1, 9_999)) is not None

    def test_lookups_leave_recency_alone(self):
        tlb = SetAssociativeTLB(None)
        for vpn in range(3):
            insert(tlb, vpn)
        tlb.lookup(pack_key(1, 0))
        tlb.touch(pack_key(1, 1))
        insert(tlb, 0, ppn=5)  # a refresh keeps its place too
        assert [unpack_key(key)[1] for key, _ in tlb.items()] == [0, 1, 2]

    def test_remove_and_invalidate(self):
        tlb = SetAssociativeTLB(None, owners=2)
        tlb.insert(pack_key(1, 1), pack_payload(1, owner=0))
        tlb.insert(pack_key(2, 2), pack_payload(2, owner=1))
        assert unpack_payload(tlb.remove(pack_key(1, 1)))[0] == 1
        assert tlb.invalidate_pid(2) == 1
        assert len(tlb) == 0
        assert tlb.owner_counts == [0, 0]
