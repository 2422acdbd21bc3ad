"""Address Translation Service (ATS) packets.

When a lookup misses a GPU's L2 TLB, the GPU emits an ATS request to the
CPU-side IOMMU (Section 2.2).  The packet carries the requesting GPU, the
translation key, and a ``measured`` flag implementing the paper's
statistics methodology: applications re-executed to keep GPUs busy after
their first full run contribute load but not statistics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.structures.tlb import PID_BITS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.spans import RequestTrace


class ATSRequest:
    """One translation request travelling from a GPU to the IOMMU."""

    __slots__ = ("gpu_id", "pid", "vpn", "key", "issue_time", "measured", "trace")

    def __init__(
        self,
        gpu_id: int,
        pid: int,
        vpn: int,
        issue_time: int,
        measured: bool = True,
        trace: "RequestTrace | None" = None,
    ) -> None:
        self.gpu_id = gpu_id
        self.pid = pid
        self.vpn = vpn
        self.key = (vpn << PID_BITS) | pid
        """The translation key asked for, packed once as a TLB entry key
        (:func:`~repro.structures.tlb.pack_key`); also the pending
        table's key."""
        self.issue_time = issue_time
        self.measured = measured
        self.trace = trace
        """Span tree of this request when it was telemetry-sampled (the
        default ``None`` is the untraced fast path)."""

