"""Unit test of the TLB's replacement: LRU, the paper's policy at every
level (Table 2)."""

from repro.structures.tlb import SetAssociativeTLB, pack_key, unpack_key


def test_lru_victim_is_head_and_access_promotes():
    tlb = SetAssociativeTLB(num_entries=3, associativity=3)
    for vpn in (0, 1, 2):
        tlb.insert(pack_key(1, vpn), 0)
    (only,) = tlb.sets
    assert unpack_key(next(iter(only))) == (1, 0)
    tlb.lookup(pack_key(1, 0))
    assert unpack_key(next(iter(only))) == (1, 1)
    victim = tlb.insert(pack_key(1, 3), 0)
    assert unpack_key(victim[0]) == (1, 1)
