"""Multi-level radix page tables.

The baseline system keeps all page tables in CPU memory under IOMMU control
(Section 2.1); the Figure 23 variant additionally gives each GPU a local page
table in device memory.  Both variants are backed by this module.

The table models a 4-level radix tree (x86-64-style, 9 bits per level for
4 KB pages), so a walk reports how many levels it actually touched — the
page-walker latency model consumes that number.  It is stored flat: one
``{vpn: ppn}`` dict of leaf PTEs plus, per intermediate level, the set of
VPN prefixes whose node exists.  A hit always touches every level, so the
prefix sets matter only to faulting walks; they are built on the first
faulting walk or ``unmap`` and kept current by ``map`` from then on, which
makes prefaulting a footprint one dict loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable


@dataclass(slots=True)
class WalkResult:
    """Outcome of one page-table walk."""

    ppn: int | None
    levels_touched: int
    faulted: bool

    @property
    def hit(self) -> bool:
        """True when the walk found a mapping."""
        return self.ppn is not None


class PageTable:
    """A single address space's radix page table.

    ``levels`` and ``bits_per_level`` fix the radix geometry; the defaults
    model 4-level x86-64 paging for 4 KB pages.  Large (2 MB) pages are
    modelled by the workload layer dividing the footprint into larger pages
    (fewer VPNs) and the config shortening the walk by one level.  VPNs are
    not masked to ``levels * bits_per_level`` bits: the top level is as
    wide as the largest VPN needs, so distinct VPNs never share a PTE.
    """

    __slots__ = ("levels", "bits_per_level", "ptes", "_shifts", "_nodes")

    def __init__(self, levels: int = 4, bits_per_level: int = 9) -> None:
        if levels <= 0:
            raise ValueError(f"levels must be positive, got {levels}")
        if bits_per_level <= 0:
            raise ValueError(f"bits_per_level must be positive, got {bits_per_level}")
        self.levels = levels
        self.bits_per_level = bits_per_level
        self.ptes: dict[int, int] = {}
        """Installed leaf PTEs, ``vpn → ppn``."""
        # The level-k node on a VPN's path (k = 1 .. levels-1) is named by
        # the VPN's top k indices, ``vpn >> _shifts[k - 1]``.
        self._shifts = tuple(
            bits_per_level * (levels - k) for k in range(1, levels)
        )
        self._nodes: list[set[int]] | None = None

    def _node_sets(self) -> list[set[int]]:
        """The intermediate nodes, materialised on first use."""
        nodes = self._nodes
        if nodes is None:
            nodes = self._nodes = [set() for _ in self._shifts]
            self._add_nodes(nodes, self.ptes)
        return nodes

    def _add_nodes(self, nodes: list[set[int]], vpns: Collection[int]) -> None:
        for level_nodes, shift in zip(nodes, self._shifts):
            level_nodes.update(vpn >> shift for vpn in vpns)

    def map(self, vpn: int, ppn: int) -> None:
        """Install a ``vpn → ppn`` mapping, creating intermediate levels."""
        self.ptes[vpn] = ppn
        if self._nodes is not None:
            self._add_nodes(self._nodes, (vpn,))

    def map_missing(self, vpns: Iterable[int], next_ppn: int) -> int:
        """Map each unmapped VPN of ``vpns`` to consecutive frames from
        ``next_ppn``, in order; returns the next unused frame."""
        ptes = self.ptes
        for vpn in vpns:
            if vpn not in ptes:
                ptes[vpn] = next_ppn
                next_ppn += 1
        if self._nodes is not None:
            # Set union: adds the new pages' nodes and keeps those whose
            # pages were unmapped.
            self._add_nodes(self._nodes, ptes)
        return next_ppn

    def unmap(self, vpn: int) -> bool:
        """Remove a mapping.  Returns ``False`` if it was not present.

        Intermediate nodes are left in place (as real OS page tables usually
        do between reclaim passes); only the leaf PTE is cleared.
        """
        if vpn not in self.ptes:
            return False
        self._node_sets()  # record the nodes before the last PTE under them goes
        del self.ptes[vpn]
        return True

    def walk(self, vpn: int) -> WalkResult:
        """Walk the radix tree for ``vpn``.

        ``levels_touched`` counts the page-table levels dereferenced,
        including the one where the walk terminated (by finding the PTE or a
        hole) — the walker's latency model multiplies this by its per-level
        memory latency.
        """
        ppn = self.ptes.get(vpn)
        if ppn is not None:
            return WalkResult(ppn, self.levels, False)
        return WalkResult(None, self._fault_depth(vpn), True)

    def _fault_depth(self, vpn: int) -> int:
        """``levels_touched`` of a walk for an unmapped ``vpn``: the level of
        the first missing node on its path, or the leaf level."""
        for level, (nodes, shift) in enumerate(
            zip(self._node_sets(), self._shifts), start=1
        ):
            if vpn >> shift not in nodes:
                return level
        return self.levels

    def translate(self, vpn: int) -> int | None:
        """Convenience wrapper: the PPN or ``None``."""
        return self.ptes.get(vpn)

    @property
    def mapped_pages(self) -> int:
        """Number of leaf PTEs currently installed."""
        return len(self.ptes)


class PageTableManager:
    """Per-process page tables plus a trivial physical frame allocator.

    The manager is the "operating system" of the simulation: workloads ask
    it to map their footprints (pre-faulted before measurement, as the
    paper's steady-state methodology implies) and the PRI path asks it to
    service demand faults.
    """

    __slots__ = ("levels", "bits_per_level", "_tables", "_next_ppn")

    def __init__(self, levels: int = 4, bits_per_level: int = 9) -> None:
        self.levels = levels
        self.bits_per_level = bits_per_level
        self._tables: dict[int, PageTable] = {}
        self._next_ppn = 1  # PPN 0 reserved so a 0 result is never ambiguous

    def table_for(self, pid: int) -> PageTable:
        """The (lazily created) page table of process ``pid``."""
        table = self._tables.get(pid)
        if table is None:
            table = PageTable(self.levels, self.bits_per_level)
            self._tables[pid] = table
        return table

    def map_page(self, pid: int, vpn: int) -> int:
        """Allocate a frame for ``(pid, vpn)`` and install the mapping.

        Idempotent: re-mapping an existing page returns the existing frame.
        """
        table = self.table_for(pid)
        existing = table.ptes.get(vpn)
        if existing is not None:
            return existing
        ppn = self._next_ppn
        self._next_ppn += 1
        table.map(vpn, ppn)
        return ppn

    def prefault(self, pid: int, vpns: Iterable[int]) -> int:
        """Map every VPN in ``vpns``; returns the number of new mappings."""
        first = self._next_ppn
        self._next_ppn = self.table_for(pid).map_missing(vpns, first)
        return self._next_ppn - first

    def walk(self, pid: int, vpn: int) -> WalkResult:
        """Walk ``pid``'s table; an unknown PID faults at the first level."""
        table = self._tables.get(pid)
        if table is None:
            return WalkResult(ppn=None, levels_touched=1, faulted=True)
        return table.walk(vpn)

    def translate(self, pid: int, vpn: int) -> int | None:
        """The frame mapped for ``(pid, vpn)``, or ``None``: a walk's
        outcome without its depth (a hit always touches every level)."""
        table = self._tables.get(pid)
        return None if table is None else table.ptes.get(vpn)

    def remove_process(self, pid: int) -> bool:
        """Tear down a process's address space."""
        return self._tables.pop(pid, None) is not None

    @property
    def total_mapped_pages(self) -> int:
        """Mapped pages across every process."""
        return sum(t.mapped_pages for t in self._tables.values())
