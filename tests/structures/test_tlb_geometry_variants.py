"""Parametrized geometry tests across every TLB configuration the paper
uses (L1 16/16, L2 512/16, IOMMU 4096/64 and the 2048-entry variant)."""

import pytest

from repro.structures.tlb import SetAssociativeTLB, pack_key

GEOMETRIES = [
    (16, 16),     # L1 TLB: fully associative
    (512, 16),    # L2 TLB
    (4096, 64),   # IOMMU TLB
    (2048, 64),   # Section 5.3's smaller IOMMU TLB
]


@pytest.mark.parametrize("entries,ways", GEOMETRIES)
class TestGeometryVariants:
    def test_fills_to_exact_capacity(self, entries, ways):
        tlb = SetAssociativeTLB(entries, ways)
        sets = entries // ways
        # One entry per way per set: vpn = set + k*sets lands in `set`.
        for way in range(ways):
            for index in range(sets):
                assert tlb.insert(pack_key(1, index + way * sets), 0) is None
        assert len(tlb) == entries
        assert all(len(s) == ways for s in tlb.sets)

    def test_next_insert_evicts_exactly_one(self, entries, ways):
        tlb = SetAssociativeTLB(entries, ways)
        sets = entries // ways
        for way in range(ways):
            for index in range(sets):
                tlb.insert(pack_key(1, index + way * sets), 0)
        victim = tlb.insert(pack_key(1, entries), 0)
        assert victim is not None
        assert len(tlb) == entries

    def test_reach_equals_entries_for_sequential_sweep(self, entries, ways):
        """A sweep of exactly `entries` sequential pages fits (sequential
        VPNs spread uniformly over the sets)."""
        tlb = SetAssociativeTLB(entries, ways)
        for vpn in range(entries):
            tlb.insert(pack_key(1, vpn), 0)
        assert len(tlb) == entries
        assert all(pack_key(1, vpn) in tlb for vpn in range(entries))

    def test_cyclic_sweep_beyond_capacity_misses_under_lru(self, entries, ways):
        """The LRU pathology the paper's workloads exercise: a cyclic sweep
        of capacity+set-count pages re-misses every time around."""
        tlb = SetAssociativeTLB(entries, ways)
        sets = entries // ways
        sweep = entries + sets  # one extra page per set
        hits = misses = 0
        for _ in range(2):
            for vpn in range(sweep):
                if tlb.lookup(pack_key(1, vpn)) is None:
                    misses += 1
                    tlb.insert(pack_key(1, vpn), 0)
                else:
                    hits += 1
        # Second pass hit nothing: every set cycles ways+1 > ways pages.
        assert hits == 0
        assert misses == 2 * sweep
