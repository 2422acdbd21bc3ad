"""Hardware state structures: TLBs, trackers' filters, and page tables."""

from repro.structures.bloom_filter import CountingBloomFilter
from repro.structures.cuckoo_filter import CuckooFilter
from repro.structures.page_table import PageTable, PageTableManager, WalkResult
from repro.structures.tlb import SetAssociativeTLB, pack_key, pack_payload

__all__ = [
    "CountingBloomFilter",
    "CuckooFilter",
    "PageTable",
    "PageTableManager",
    "WalkResult",
    "SetAssociativeTLB",
    "pack_key",
    "pack_payload",
]
