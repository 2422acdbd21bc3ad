"""Configuration dataclasses describing the simulated multi-GPU system.

The defaults reproduce Table 2 of the paper (per-CU L1 TLB, per-GPU L2 TLB,
shared IOMMU TLB, eight shared page-table walkers) via
:func:`repro.config.presets.baseline_config`.  Every experiment variant in
the evaluation is expressed as a ``dataclasses.replace`` of these frozen
records, so a configuration fully identifies a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.structures.tlb import BUDGET_LIMIT, OWNER_LIMIT

PAGE_4KB = 4 * 1024
PAGE_2MB = 2 * 1024 * 1024


@dataclass(frozen=True)
class TLBLevelConfig:
    """Geometry and access latency of one TLB level (replacement is LRU)."""

    num_entries: int
    associativity: int
    lookup_latency: int

    def __post_init__(self) -> None:
        if self.num_entries <= 0:
            raise ValueError(f"num_entries must be positive: {self.num_entries}")
        if self.associativity <= 0 or self.num_entries % self.associativity:
            raise ValueError(
                f"associativity {self.associativity} must divide "
                f"num_entries {self.num_entries}"
            )
        if self.lookup_latency < 0:
            raise ValueError(f"lookup_latency must be >= 0: {self.lookup_latency}")


@dataclass(frozen=True)
class GPUConfig:
    """One GPU device: compute units and its private TLB levels."""

    num_cus: int = 64
    slots_per_cu: int = 2
    """Outstanding-translation window per CU — the wavefront-level latency
    hiding the issue model grants each compute unit.  Two in-flight
    translations per CU (512 per GPU with Table 2's 64 CUs) reproduces the
    paper's regime where address translation consumes a large fraction of
    runtime for high-MPKI applications."""

    l1_tlb: TLBLevelConfig = field(
        default_factory=lambda: TLBLevelConfig(
            num_entries=16, associativity=16, lookup_latency=1
        )
    )
    l2_tlb: TLBLevelConfig = field(
        default_factory=lambda: TLBLevelConfig(
            num_entries=512, associativity=16, lookup_latency=10
        )
    )

    def __post_init__(self) -> None:
        if self.num_cus <= 0:
            raise ValueError(f"num_cus must be positive: {self.num_cus}")
        if self.slots_per_cu <= 0:
            raise ValueError(f"slots_per_cu must be positive: {self.slots_per_cu}")


@dataclass(frozen=True)
class IOMMUConfig:
    """The CPU-side IOMMU: shared TLB, walker pool, and fault handling."""

    tlb: TLBLevelConfig = field(
        default_factory=lambda: TLBLevelConfig(
            num_entries=4096, associativity=64, lookup_latency=200
        )
    )
    infinite_tlb: bool = False
    """Replace the IOMMU TLB with an unbounded one (Figure 3 study)."""

    num_walkers: int = 8
    walker_threads: int = 3
    """Concurrent walks each walker sustains.  The paper's IOMMU triggers
    "multi-threaded PTWs" (Section 2.2); eight walkers with three threads
    give the pool 24 walks in flight, so its throughput — not a single
    walk's latency — is what saturates under high-MPKI contention."""
    walk_latency: int = 500
    """End-to-end latency of a full page-table walk; partial walks (faults)
    are charged proportionally to the levels they touch."""

    walker_scheduler: str = "fifo"
    """``fifo`` (shared pool, paper baseline) or ``dws`` (per-GPU partitions
    with work stealing, the Section 5.6 PTW optimisation)."""

    pri_batch_size: int = 8
    pri_timeout: int = 10_000
    """Page faults queue at the Page Request Interface and are handled by
    the CPU in batches (whichever of size/timeout is reached first)."""

    fault_handling_latency: int = 20_000
    """CPU-side cost of servicing one PRI batch."""

    def __post_init__(self) -> None:
        if self.num_walkers <= 0:
            raise ValueError(f"num_walkers must be positive: {self.num_walkers}")
        if self.walker_threads <= 0:
            raise ValueError(f"walker_threads must be positive: {self.walker_threads}")
        if self.walker_scheduler not in ("fifo", "dws"):
            raise ValueError(f"unknown walker_scheduler: {self.walker_scheduler!r}")
        if self.pri_batch_size <= 0:
            raise ValueError(f"pri_batch_size must be positive: {self.pri_batch_size}")


@dataclass(frozen=True)
class TrackerConfig:
    """The Local TLB Tracker in the IOMMU (Section 4.1).

    ``total_entries`` fingerprint slots are divided equally among the GPUs,
    one cuckoo-filter partition per GPU (2048 total → 512 per GPU in the
    4-GPU baseline, ≈1.08 KB of state).  A cuckoo partition is rounded
    down to a power-of-two bucket count (2048 over 3 GPUs → 128 buckets of
    4, not 170), the geometry its relocation needs."""

    total_entries: int = 2048
    bucket_size: int = 4
    fingerprint_bits: int = 6
    kind: str = "cuckoo"
    """``cuckoo`` (the paper's design), ``bloom`` (counting Bloom filter
    ablation), or ``perfect`` (oracle membership, upper bound)."""

    def __post_init__(self) -> None:
        if self.kind not in ("cuckoo", "bloom", "perfect"):
            raise ValueError(f"unknown tracker kind: {self.kind!r}")
        if self.total_entries <= 0:
            raise ValueError(f"total_entries must be positive: {self.total_entries}")
        if self.bucket_size < 1:
            raise ValueError(f"bucket_size must be positive: {self.bucket_size}")
        if not 2 <= self.fingerprint_bits <= 32:
            raise ValueError(
                f"fingerprint_bits must be in [2, 32]: {self.fingerprint_bits}"
            )


@dataclass(frozen=True)
class InterconnectConfig:
    """Link latencies, in CU cycles (1 GHz ⇒ 1 cycle = 1 ns).

    ``host_link_latency`` is the PCIe-class GPU↔IOMMU path (~300 ns in the
    paper's discussion); ``peer_link_latency`` is the high-bandwidth
    GPU↔GPU fabric a remote-L2 probe response travels on.  Figure 20 sweeps
    the remote-probe cost through ``remote_latency_scale``.
    """

    host_link_latency: int = 300
    peer_link_latency: int = 100
    remote_latency_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.host_link_latency < 0 or self.peer_link_latency < 0:
            raise ValueError("link latencies must be >= 0")
        if self.remote_latency_scale <= 0:
            raise ValueError(
                f"remote_latency_scale must be positive: {self.remote_latency_scale}"
            )

    @property
    def scaled_peer_latency(self) -> int:
        """Peer-link latency after applying the Figure 20 sweep factor."""
        return max(1, round(self.peer_link_latency * self.remote_latency_scale))


@dataclass(frozen=True)
class SystemConfig:
    """The complete multi-GPU system under simulation."""

    num_gpus: int = 4
    page_size: int = PAGE_4KB
    gpu: GPUConfig = field(default_factory=GPUConfig)
    iommu: IOMMUConfig = field(default_factory=IOMMUConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)

    spill_budget: int = 1
    """The paper's spilling counter ``N`` (Section 4.2); 1 in the baseline
    design, 2 in the Figure 19 sensitivity study."""

    local_page_tables: bool = False
    """Figure 23 variant: each GPU keeps its own page table in device
    memory; only local page faults reach the IOMMU."""

    local_walk_latency: int = 500
    local_num_walkers: int = 8

    seed: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.num_gpus <= OWNER_LIMIT:
            raise ValueError(
                f"num_gpus must be in [1, {OWNER_LIMIT}] (the owner field of a "
                f"TLB entry): {self.num_gpus}"
            )
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError(f"page_size must be a positive power of two: {self.page_size}")
        if not 0 <= self.spill_budget < BUDGET_LIMIT:
            raise ValueError(
                f"spill_budget must be in [0, {BUDGET_LIMIT - 1}] (the spill-budget "
                f"field of a TLB entry): {self.spill_budget}"
            )

    @property
    def page_table_levels(self) -> int:
        """Radix levels for the configured page size (4 for 4 KB pages,
        3 for 2 MB pages, x86-64 style)."""
        return 3 if self.page_size >= PAGE_2MB else 4

    def derive(self, **changes: Any) -> "SystemConfig":
        """A copy with top-level fields replaced (sweep convenience)."""
        return replace(self, **changes)
