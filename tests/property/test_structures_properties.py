"""Property-based tests (hypothesis) for the core data structures."""

import dataclasses
from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.presets import baseline_config
from repro.metrics.reuse_distance import COLD, reuse_distances
from repro.sim.driver import run_trace
from repro.structures.cuckoo_filter import CuckooFilter
from repro.structures.page_table import PageTableManager
from repro.structures.tlb import SetAssociativeTLB, pack_key, pack_payload, unpack_payload
from repro.workloads.ingest import write_k6_trace

keys_st = st.lists(
    st.tuples(st.integers(1, 3), st.integers(0, 63)), min_size=0, max_size=200
)


class TestTLBProperties:
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["insert", "lookup", "remove"]),
                      st.integers(0, 40)),
            max_size=300,
        ),
        ways=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_capacity_never_exceeded(self, ops, ways):
        tlb = SetAssociativeTLB(num_entries=8, associativity=ways)
        for op, vpn in ops:
            key = pack_key(1, vpn)
            if op == "insert":
                tlb.insert(key, pack_payload(vpn))
            elif op == "lookup":
                tlb.lookup(key)
            else:
                tlb.remove(key)
            assert len(tlb) <= 8
            # No set may exceed its associativity.
            assert all(len(s) <= ways for s in tlb.sets)

    @given(ops=st.lists(st.integers(0, 100), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_tlb_matches_reference_lru(self, ops):
        """A fully associative LRU TLB must agree with a reference model."""
        capacity = 8
        tlb = SetAssociativeTLB(num_entries=capacity, associativity=capacity)
        reference: OrderedDict[int, int] = OrderedDict()
        for vpn in ops:
            payload = tlb.lookup(pack_key(1, vpn))
            if vpn in reference:
                assert payload is not None
                reference.move_to_end(vpn)
            else:
                assert payload is None
                tlb.insert(pack_key(1, vpn), pack_payload(vpn))
                reference[vpn] = vpn
                if len(reference) > capacity:
                    reference.popitem(last=False)
            assert tlb.resident_keys() == {pack_key(1, v) for v in reference}

    @given(vpns=st.lists(st.integers(0, 1000), max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_insert_then_peek(self, vpns):
        tlb = SetAssociativeTLB(num_entries=4096, associativity=64)
        for vpn in vpns:
            tlb.insert(pack_key(1, vpn), pack_payload(vpn + 1))
        for vpn in vpns:
            assert unpack_payload(tlb.peek(pack_key(1, vpn)))[0] == vpn + 1


class TestCuckooProperties:
    @given(keys=keys_st)
    @settings(max_examples=60, deadline=None)
    def test_no_false_negatives_below_capacity(self, keys):
        """Every inserted (and not displaced) key must test positive while
        the filter is far from full."""
        filt = CuckooFilter(num_entries=1024, fingerprint_bits=12)
        for pid, vpn in keys:
            filt.insert(pid, vpn)
        if filt.stats.displaced == 0:
            assert all(filt.contains(pid, vpn) for pid, vpn in keys)

    @given(keys=st.lists(st.tuples(st.integers(1, 2), st.integers(0, 31)),
                         max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_insert_delete_conservation(self, keys):
        """Population equals insertions minus deletions minus displaced."""
        filt = CuckooFilter(num_entries=256, fingerprint_bits=12)
        for pid, vpn in keys:
            filt.insert(pid, vpn)
        assert len(filt) == filt.stats.insertions - filt.stats.displaced
        for pid, vpn in keys:
            filt.delete(pid, vpn)
        assert len(filt) == (
            filt.stats.insertions - filt.stats.displaced - filt.stats.deletions
        )


class RadixTable:
    """Reference radix page table: nested dicts, one per node."""

    def __init__(self, levels, bits):
        self.levels = levels
        self.bits = bits
        self.root = {}
        self.mapped = 0

    def _indices(self, vpn):
        mask = (1 << self.bits) - 1
        shifts = range((self.levels - 1) * self.bits, -1, -self.bits)
        return [(vpn >> s) & mask for s in shifts]

    def map(self, vpn, ppn):
        node = self.root
        indices = self._indices(vpn)
        for index in indices[:-1]:
            node = node.setdefault(index, {})
        if indices[-1] not in node:
            self.mapped += 1
        node[indices[-1]] = ppn

    def unmap(self, vpn):
        node = self.root
        indices = self._indices(vpn)
        for index in indices[:-1]:
            node = node.get(index)
            if node is None:
                return False
        if indices[-1] not in node:
            return False
        del node[indices[-1]]
        self.mapped -= 1
        return True

    def walk(self, vpn):
        """``(ppn, levels_touched, faulted)``."""
        node = self.root
        indices = self._indices(vpn)
        for touched, index in enumerate(indices[:-1], start=1):
            node = node.get(index)
            if node is None:
                return None, touched, True
        ppn = node.get(indices[-1])
        return ppn, self.levels, ppn is None


class RadixManager:
    """Reference manager: per-PID radix tables, one frame counter."""

    def __init__(self, levels, bits):
        self.levels = levels
        self.bits = bits
        self.tables = {}
        self.next_ppn = 1

    def table_for(self, pid):
        return self.tables.setdefault(pid, RadixTable(self.levels, self.bits))

    def map_page(self, pid, vpn):
        table = self.table_for(pid)
        ppn = table.walk(vpn)[0]
        if ppn is None:
            ppn = self.next_ppn
            self.next_ppn += 1
            table.map(vpn, ppn)
        return ppn

    def prefault(self, pid, vpns):
        table = self.table_for(pid)
        created = 0
        for vpn in vpns:
            if table.walk(vpn)[0] is None:
                table.map(vpn, self.next_ppn)
                self.next_ppn += 1
                created += 1
        return created

    def walk(self, pid, vpn):
        table = self.tables.get(pid)
        return (None, 1, True) if table is None else table.walk(vpn)


@st.composite
def page_table_streams(draw):
    """A radix geometry and an operation stream over it.

    VPNs are a few random bases with single bits flipped, so walks share
    long prefixes and fault at every depth, not only at the top level.
    Streams are long and walk-heavy, so a fault follows every other kind
    of operation.
    """
    levels = draw(st.integers(1, 4))
    bits = draw(st.integers(1, 9))
    width = levels * bits
    bases = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=3))
    vpn = st.builds(
        lambda base, flip: base ^ (flip and 1 << (flip - 1)),
        st.sampled_from(bases),
        st.integers(0, width),
    )
    names = ["map", "unmap", "unmap", "prefault", "map_page", "map_page"] + ["walk"] * 4
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(names),
                st.integers(1, 3),  # PID 3 is often never mapped: unknown PID
                vpn,
                st.lists(vpn, max_size=6),  # a prefault batch
                st.integers(1, 10_000),  # an explicit frame for map
            ),
            min_size=20,
            max_size=80,
        )
    )
    return levels, bits, ops


class TestPageTableProperties:
    @given(stream=page_table_streams())
    @settings(max_examples=200, deadline=None)
    def test_matches_radix_reference(self, stream):
        levels, bits, ops = stream
        manager = PageTableManager(levels=levels, bits_per_level=bits)
        reference = RadixManager(levels, bits)
        seen: set[int] = set()
        for op, pid, vpn, batch, ppn in ops:
            seen.update(batch if op == "prefault" else (vpn,))
            if op == "map":
                manager.table_for(pid).map(vpn, ppn)
                reference.table_for(pid).map(vpn, ppn)
            elif op == "unmap":
                assert manager.table_for(pid).unmap(vpn) == (
                    reference.table_for(pid).unmap(vpn)
                )
            elif op == "walk":
                result = manager.walk(pid, vpn)
                assert (result.ppn, result.levels_touched, result.faulted) == (
                    reference.walk(pid, vpn)
                )
            elif op == "prefault":
                assert manager.prefault(pid, batch) == reference.prefault(pid, batch)
            else:  # map_page: the frame sequence must match too
                assert manager.map_page(pid, vpn) == reference.map_page(pid, vpn)
            for p, table in reference.tables.items():
                mine = manager.table_for(p)
                assert mine.mapped_pages == table.mapped
                for v in seen:
                    assert mine.translate(v) == manager.translate(p, v) == table.walk(v)[0]
        assert manager.total_mapped_pages == sum(
            t.mapped for t in reference.tables.values()
        )

    def test_fault_after_unmap_keeps_intermediate_nodes(self):
        manager = PageTableManager(levels=4, bits_per_level=9)
        manager.map_page(1, 0)
        assert manager.table_for(1).unmap(0)
        # The leaf is gone but its three intermediate nodes survive: a
        # walk for it, or for a neighbour under the same nodes, faults at
        # the leaf level, while a VPN under a fresh top-level entry faults
        # at level 1.
        for vpn in (0, 1):
            result = manager.walk(1, vpn)
            assert (result.faulted, result.levels_touched) == (True, 4)
        assert manager.walk(1, 1 << 27).levels_touched == 1
        assert manager.walk(1, 1 << 18).levels_touched == 2

    @given(
        levels=st.integers(1, 4),
        bits=st.integers(1, 9),
        vpn=st.integers(0, 2**36 - 1),
        high=st.integers(0, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_vpns_beyond_the_radix_width_do_not_alias(self, levels, bits, vpn, high):
        manager = PageTableManager(levels=levels, bits_per_level=bits)
        low = vpn & ((1 << levels * bits) - 1)
        twin = low | 1 << (levels * bits + high)
        frames = (manager.map_page(1, low), manager.map_page(1, twin))
        assert frames[0] != frames[1]
        assert manager.total_mapped_pages == 2
        assert (manager.walk(1, low).ppn, manager.walk(1, twin).ppn) == frames

    @given(vpns=st.lists(st.integers(0, 2**36 - 1), unique=True, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_distinct_vpns_get_distinct_frames(self, vpns):
        manager = PageTableManager()
        frames = [manager.map_page(1, vpn) for vpn in vpns]
        assert len(set(frames)) == len(frames)
        for vpn, ppn in zip(vpns, frames):
            result = manager.walk(1, vpn)
            assert result.ppn == ppn
            assert result.levels_touched == 4

    @given(
        vpns=st.lists(st.integers(0, 1023), unique=True, min_size=1, max_size=50),
        probe=st.integers(0, 1023),
    )
    @settings(max_examples=40, deadline=None)
    def test_walk_never_hits_unmapped(self, vpns, probe):
        manager = PageTableManager()
        for vpn in vpns:
            manager.map_page(1, vpn)
        result = manager.walk(1, probe)
        assert result.hit == (probe in vpns)


def test_demand_faulted_trace_with_high_vpn_bits_matches_across_backends(tmp_path):
    """Pages 2^40 apart are distinct pages on both backends.

    The VPNs of this k6 trace differ in bit 40, above the 36 bits a
    4-level, 9-bit radix tree indexes.  With nothing prefaulted, every
    page is demand-faulted, so a page table that masked VPNs to the radix
    width would map each twin onto its partner's frame and skip its fault.
    """
    rng = np.random.default_rng(5)
    pages = rng.integers(0, 256, 1500, dtype=np.int64)
    pages = np.where(rng.random(len(pages)) < 0.05, pages | 1 << 40, pages)
    vpns = np.repeat(pages, 4)
    path = write_k6_trace(
        tmp_path / "k6_high_bits.trc",
        (vpns << 12) + (np.arange(len(vpns)) * 64) % 4096,
        np.zeros(len(vpns), dtype=bool),
        np.cumsum(rng.integers(1, 40, len(vpns))),
    )
    config = baseline_config()
    event, functional = (
        run_trace(str(path), config, "least-tlb", scale=1.0, prefault=False,
                  backend=backend)
        for backend in ("event", "functional")
    )
    assert dataclasses.asdict(event) == dataclasses.asdict(functional)
    faults = sum(a.counters.get("page_faults", 0) for a in event.apps.values())
    assert faults == 149


class TestReuseDistanceProperties:
    @given(stream=st.lists(st.integers(0, 15), max_size=150))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_set_count(self, stream):
        keyed = [(1, v) for v in stream]
        fast = reuse_distances(keyed)
        last: dict[int, int] = {}
        for i, v in enumerate(stream):
            if v in last:
                expected = len(set(stream[last[v] + 1 : i]))
                assert fast[i] == expected
            else:
                assert fast[i] == COLD
            last[v] = i

    @given(stream=st.lists(st.integers(0, 15), max_size=150))
    @settings(max_examples=40, deadline=None)
    def test_distances_bounded_by_alphabet(self, stream):
        fast = reuse_distances([(1, v) for v in stream])
        finite = fast[fast >= 0]
        if len(finite):
            assert finite.max() < 16
