"""Lightweight statistics containers shared by every simulated component."""

from __future__ import annotations


class CounterSet(dict[str, int]):
    """A named bag of integer counters: a ``dict`` whose missing keys read
    as zero.

    Components record events by name without declaring each counter up
    front.  Hot paths increment in place (``stats["l2_hit"] += 1``) on a
    set they hold; :meth:`inc` is the same write as a call, for cold
    paths and for a delegate writing another component's set.  Reading a
    missing counter creates no key, while any increment (``+= 0``
    included) does, so key existence records that a site ran.
    """

    __slots__ = ()

    def __missing__(self, name: str) -> int:
        return 0

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount`` (may be negative)."""
        self[name] += amount

    def as_dict(self) -> dict[str, int]:
        """A plain-dict snapshot of all counters."""
        return dict(self)


class LatencyAccumulator:
    """Accumulates a latency distribution without storing every sample.

    For full distributions (percentiles, buckets) use
    :class:`repro.telemetry.histogram.LogHistogram`; this accumulator is
    the always-on, four-integer summary every component can afford.
    """

    __slots__ = ("count", "total", "max", "min")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.max = 0
        self.min = 0

    def record(self, latency: int) -> None:
        """Add one latency sample (cycles)."""
        if latency < 0:
            raise ValueError(f"negative latency: {latency}")
        if self.count == 0 or latency < self.min:
            self.min = latency
        self.count += 1
        self.total += latency
        if latency > self.max:
            self.max = latency

    @property
    def mean(self) -> float:
        """Mean recorded latency, or 0.0 with no samples."""
        return self.total / self.count if self.count else 0.0
