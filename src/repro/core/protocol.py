"""Pure transition functions of the least-TLB protocol.

The event-driven engine (:mod:`repro.gpu`, :mod:`repro.iommu`,
:mod:`repro.core.least_tlb`) and the functional fast-path backend
(:mod:`repro.sim.backends`) must make *identical* protocol decisions —
which GPU receives a spill, which peer a tracker probe targets, how many
cycles a partial walk costs, whether an evicted entry re-enters the IOMMU
TLB.  Those decisions are factored out here as pure functions of explicit
state so there is exactly one implementation to maintain and the two
backends cannot drift.

Every function is side-effect free: mutable protocol state (rotors,
pointers) is passed in and the successor state is returned.  The one
class, :class:`SpillReceiverSelector`, holds the state of the
spill-receiver rule, which both backends build once per run.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Sequence


class LeastTLBOptions(NamedTuple):
    """least-TLB's resolved options (see
    :class:`repro.core.least_tlb.LeastTLBPolicy`)."""

    mode: str
    race_ptw: bool
    remote_probes: bool
    spilling: bool
    receiver_policy: str


def least_tlb_options(
    workload_kind: str,
    *,
    mode: str | None = None,
    race_ptw: bool = True,
    remote_probes: bool = True,
    spilling: bool | None = None,
    receiver_policy: str = "counter",
) -> LeastTLBOptions:
    """Resolve least-TLB's options for a ``workload_kind`` workload.

    ``mode`` defaults to the workload's paradigm and ``spilling`` to
    ``mode == "multi"``; an unknown option is a :class:`TypeError`, a bad
    value a :class:`ValueError`.
    """
    if mode is None:
        mode = "multi" if workload_kind == "multi" else "single"
    if mode not in ("single", "multi"):
        raise ValueError(f"mode must be 'single' or 'multi': {mode!r}")
    if receiver_policy not in ("counter", "round-robin", "random"):
        raise ValueError(f"unknown receiver_policy: {receiver_policy!r}")
    if spilling is None:
        spilling = mode == "multi"
    return LeastTLBOptions(mode, race_ptw, remote_probes, spilling, receiver_policy)



class SpillReceiverSelector:
    """Which GPU receives a spilled IOMMU TLB victim (Section 4.2), with
    the state the rule keeps between spills.

    ``receiver_policy`` is ``"counter"`` (the paper's rule),
    ``"round-robin"`` or ``"random"``.  The counter rule picks the GPU
    whose ``(count + 1) * weight`` is smallest over the Eviction Counters;
    with the default uniform weights that is the GPU with the smallest
    counter, and ``least-tlb-qos`` passes its QoS weights so a
    latency-critical GPU looks proportionally busier.  Ties break by a
    rotating-priority arbiter: scanning starts just after the previously
    selected GPU, which reproduces the alternating receiver choices in the
    Figure 13 walk-through and avoids always dumping spills on GPU 0.

    Each backend builds one per run from the resolved options, the GPU
    count and the config seed.
    """

    __slots__ = ("receiver_policy", "num_gpus", "weights", "pointer", "rotor", "rng")

    def __init__(
        self,
        receiver_policy: str,
        num_gpus: int,
        seed: int,
        weights: Sequence[float] | None = None,
    ) -> None:
        self.receiver_policy = receiver_policy
        self.num_gpus = num_gpus
        self.weights: Sequence[float] = [1] * num_gpus if weights is None else weights
        self.pointer = 0
        """Where the counter rule's next scan starts."""
        self.rotor = 0
        """The round-robin rule's next receiver."""
        self.rng = random.Random(seed)
        """The random rule's draws."""

    def select(self, eviction_counters: Sequence[int]) -> int:
        """The receiver of the next spill, given the IOMMU TLB's Eviction
        Counters."""
        num_gpus = self.num_gpus
        if self.receiver_policy == "counter":
            weights = self.weights
            best_gpu = -1
            best_value: float = 0
            for offset in range(num_gpus):
                gpu = (self.pointer + offset) % num_gpus
                value = (eviction_counters[gpu] + 1) * weights[gpu]
                if best_gpu < 0 or value < best_value:
                    best_gpu = gpu
                    best_value = value
            self.pointer = (best_gpu + 1) % num_gpus
            return best_gpu
        if self.receiver_policy == "round-robin":
            receiver = self.rotor
            self.rotor = (receiver + 1) % num_gpus
            return receiver
        return self.rng.randrange(num_gpus)


def choose_probe_target(targets: Sequence[int], rotor: int) -> tuple[int, int]:
    """Pick which positive-tracker GPU a remote probe visits.

    The tracker may report several candidate L2s; the protocol probes one
    per miss, rotating over misses so repeated aliasing cannot pin all
    probe traffic on a single peer.  Returns ``(target, next_rotor)``.
    """
    return targets[rotor % len(targets)], rotor + 1


def walk_cycles(walk_latency: int, levels_touched: int, full_levels: int) -> int:
    """Cycles charged for a page-table walk touching ``levels_touched`` of
    ``full_levels`` radix levels (partial walks — faults — are charged
    proportionally; never less than one cycle)."""
    return max(1, walk_latency * levels_touched // full_levels)


def probe_removes_entry(mode: str) -> bool:
    """Whether a remote-probe hit removes the entry from the peer L2.

    Multi-application mode has no inter-application sharing: the spilled
    entry migrates back to its owner (remove).  Single-application GPUs
    genuinely share pages, so the entry stays in both L2s.
    """
    return mode == "multi"


def should_reenter_iommu(spilling: bool, spill_budget: int) -> bool:
    """Whether an L2 victim re-enters the IOMMU TLB (Algorithm 2).

    Under spilling, an entry whose budget is exhausted is abandoned on
    eviction rather than re-entering the IOMMU TLB — re-inserting it would
    ping-pong forever (the Section 4.2 "chain effect" bound).
    """
    return not spilling or spill_budget > 0


def should_spill_victim(spilling: bool, spill_budget: int) -> bool:
    """Whether an IOMMU TLB victim spills into a GPU L2 (Algorithm 2).

    Identical predicate to :func:`should_reenter_iommu` — the budget gates
    both edges of the spill cycle — but named separately because the two
    call sites implement different transitions (drop vs. spill)."""
    return spilling and spill_budget > 0
