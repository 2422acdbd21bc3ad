"""Property-style tests of the TLB's LRU replacement.

* a peek is a pure read: it never perturbs a set's recency order, so a
  remote probe or an invariant audit cannot change the next victim;
* the victim is always the least recently inserted or looked-up entry
  of its set (a list-based reference model).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures.tlb import SetAssociativeTLB, pack_key, unpack_key

keys_st = st.lists(st.integers(0, 50), min_size=1, max_size=40, unique=True)
accesses_st = st.lists(st.integers(0, 50), max_size=60)


def _filled(vpns) -> SetAssociativeTLB:
    tlb = SetAssociativeTLB(num_entries=len(vpns), associativity=len(vpns))
    for vpn in vpns:
        tlb.insert(pack_key(1, vpn), vpn)
    return tlb


def _order(tlb) -> list[int]:
    return [unpack_key(key)[1] for key, _ in tlb.items()]


class TestPeekIsPure:
    @given(keys=keys_st, accesses=accesses_st)
    @settings(max_examples=60, deadline=None)
    def test_peek_never_mutates_recency_order(self, keys, accesses):
        tlb = _filled(keys)
        for vpn in accesses:
            tlb.lookup(pack_key(1, vpn))
        order_before = _order(tlb)
        for vpn in accesses + keys:
            tlb.peek(pack_key(1, vpn))
            assert pack_key(1, vpn) in tlb or vpn not in keys
        assert _order(tlb) == order_before


class TestColdSetEquivalence:
    @given(keys=keys_st, accesses=accesses_st)
    @settings(max_examples=60, deadline=None)
    def test_lru_victim_matches_reference_model(self, keys, accesses):
        tlb = _filled(keys)
        reference = list(keys)  # least- to most-recently used
        for vpn in accesses:
            if tlb.lookup(pack_key(1, vpn)) is not None:
                reference.remove(vpn)
                reference.append(vpn)
        assert _order(tlb) == reference
        victim = tlb.insert(pack_key(1, 99), 99)
        assert unpack_key(victim[0]) == (1, reference[0])
