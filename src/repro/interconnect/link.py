"""Point-to-point link model.

Links add fixed propagation latency plus a serialization term: a link can
inject at most ``bandwidth`` messages per cycle, and messages that arrive
while the link is busy queue behind it.  The model is intentionally
lightweight — one arithmetic update per message, no extra events — but it
reproduces the congestion behaviour Section 5.3 discusses (a congested
interconnect can make remote-TLB lookups slower than page walks).
"""

from __future__ import annotations


class Link:
    """A unidirectional link with latency and finite injection bandwidth."""

    __slots__ = (
        "name",
        "latency",
        "cycles_per_message",
        "_next_free",
        "traffic",
    )

    def __init__(self, name: str, latency: int, bandwidth: float = 1.0) -> None:
        """``bandwidth`` is messages per cycle (>= 1 message every
        ``1/bandwidth`` cycles)."""
        if latency < 0:
            raise ValueError(f"latency must be >= 0: {latency}")
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive: {bandwidth}")
        self.name = name
        self.latency = latency
        self.cycles_per_message = 1.0 / bandwidth
        self._next_free = 0.0
        self.traffic = 0

    def send(self, now: int) -> int:
        """Account one message entering the link at cycle ``now``.

        Returns the cycle the message arrives at the far end (propagation
        latency plus any serialization queueing).
        """
        # A float compare, not max(): both backends send every message
        # through here.
        depart = float(now)
        next_free = self._next_free
        if next_free > depart:
            depart = next_free
        self._next_free = depart + self.cycles_per_message
        self.traffic += 1
        return int(depart) + self.latency
