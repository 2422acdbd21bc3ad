"""Address Translation Service (ATS) packets.

When a lookup misses a GPU's L2 TLB, the GPU emits an ATS request to the
CPU-side IOMMU (Section 2.2).  The packet carries the requesting GPU, the
translation key, and a ``measured`` flag implementing the paper's
statistics methodology: applications re-executed to keep GPUs busy after
their first full run contribute load but not statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.structures.tlb import pack_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.spans import RequestTrace


@dataclass(slots=True)
class ATSRequest:
    """One translation request travelling from a GPU to the IOMMU."""

    gpu_id: int
    pid: int
    vpn: int
    issue_time: int
    measured: bool = True
    trace: "RequestTrace | None" = None
    """Span tree of this request when it was telemetry-sampled (the
    default ``None`` is the untraced fast path)."""

    @property
    def tlb_key(self) -> int:
        """The translation key this request asks for, packed as a TLB
        entry key (also the pending table's key)."""
        return pack_key(self.pid, self.vpn)
