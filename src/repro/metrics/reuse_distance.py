"""Translation reuse-distance analysis (Figures 5 and 8).

Reuse distance is defined in Section 3.1 as the number of *unique*
translations between two accesses to the same translation; in
multi-application workloads the key includes the process ID, so reuses are
per-application even through the shared IOMMU TLB.

The implementation is the classic stack-distance algorithm over a Fenwick
tree: O(n log n) over the recorded IOMMU request stream.
"""

from __future__ import annotations

import numpy as np

COLD = -1
"""Distance assigned to the first access of each translation."""


class _FenwickTree:
    """Binary indexed tree over access positions (1-based internally)."""

    __slots__ = ("_tree", "_size")

    def __init__(self, size: int) -> None:
        self._size = size
        self._tree = [0] * (size + 1)

    def add(self, index: int, delta: int) -> None:
        """Point update: add ``delta`` at ``index``."""
        index += 1
        while index <= self._size:
            self._tree[index] += delta
            index += index & (-index)

    def prefix_sum(self, index: int) -> int:
        """Sum of values at positions ``0..index`` inclusive."""
        index += 1
        total = 0
        while index > 0:
            total += self._tree[index]
            index -= index & (-index)
        return total


def reuse_distances(stream: list[tuple[int, int]]) -> np.ndarray:
    """Per-access reuse distances for a ``(pid, vpn)`` stream.

    Returns an array aligned with ``stream``; first accesses get
    :data:`COLD` (−1).  The distance counts distinct keys seen strictly
    between the two accesses to the same key.
    """
    n = len(stream)
    distances = np.full(n, COLD, dtype=np.int64)
    if n == 0:
        return distances
    tree = _FenwickTree(n)
    last_seen: dict[tuple[int, int], int] = {}
    for position, key in enumerate(stream):
        previous = last_seen.get(key)
        if previous is not None:
            # Distinct keys after `previous`: each contributes its most
            # recent occurrence, which is the position the tree marks.
            distances[position] = tree.prefix_sum(position - 1) - tree.prefix_sum(
                previous
            )
            tree.add(previous, -1)
        tree.add(position, 1)
        last_seen[key] = position
    return distances


def reuse_cdf(
    distances: np.ndarray, points: list[int] | None = None
) -> list[tuple[int, float]]:
    """Cumulative distribution of finite reuse distances.

    Returns ``(distance, fraction of reuses ≤ distance)`` pairs at the
    requested evaluation points (defaults to powers of two up to 64 Ki,
    bracketing the paper's 4096-entry IOMMU TLB marker).
    """
    finite = distances[distances >= 0]
    if points is None:
        points = [2**k for k in range(4, 17)]
    if len(finite) == 0:
        return [(p, 0.0) for p in points]
    finite_sorted = np.sort(finite)
    return [
        (p, float(np.searchsorted(finite_sorted, p, side="right")) / len(finite_sorted))
        for p in points
    ]


def fraction_within(distances: np.ndarray, capacity: int) -> float:
    """Fraction of reuses a ``capacity``-entry fully-associative LRU TLB
    could capture — the paper's "reuses within the IOMMU TLB capacity".

    A reuse at distance ``d`` finds ``d`` other keys used since its last
    access, so it hits a ``capacity``-entry LRU iff ``d < capacity``."""
    finite = distances[distances >= 0]
    if len(finite) == 0:
        return 0.0
    return float(np.count_nonzero(finite < capacity)) / len(finite)


def per_pid_distances(
    stream: list[tuple[int, int]]
) -> dict[int, np.ndarray]:
    """Reuse distances of the shared stream, grouped by PID.

    Distances are computed over the *interleaved* stream (contention from
    other applications stretches them — the Figure 8 effect), then split by
    the application that issued each access.
    """
    distances = reuse_distances(stream)
    by_pid: dict[int, list[int]] = {}
    for (pid, _vpn), distance in zip(stream, distances.tolist()):
        by_pid.setdefault(pid, []).append(distance)
    return {pid: np.array(values, dtype=np.int64) for pid, values in by_pid.items()}
