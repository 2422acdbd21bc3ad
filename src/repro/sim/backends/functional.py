"""Functional fast-path backend: exact-schedule replay of the translation
protocol.

The event engine (:mod:`repro.engine` + :mod:`repro.sim.system`) executes a
workload as a heap of ``(time, seq, callback, args)`` events whose callbacks
thread through GPU devices, policies, the IOMMU, the walker pool, and link
objects.  For statistics-only runs (hit/miss/eviction/spill counters,
sharing degrees, latency means) none of that object machinery is needed —
only the *decisions* it makes and the *order* it makes them in.

This module replays the **identical event schedule** — same events, at the
same cycles, in the same same-cycle FIFO order — through one flat loop:

* events are plain tuples ``(time, seq, code, args...)`` on one ``heapq``;
  ``code`` is a small int dispatched by an if/elif ladder ordered by
  frequency (no callback indirection, no ATSRequest/TLBEntry allocation);
* TLB state lives in :class:`repro.structures.tlb_array.PackedTLB` mirrors
  (packed integer keys/payloads, per-set insertion-ordered LRU) that are
  bit-exact against ``SetAssociativeTLB`` with LRU replacement;
* link serialization is two floats of per-link state updated inline with
  the exact arithmetic of :class:`repro.interconnect.link.Link.send`;
* protocol decisions (spill receiver, probe target, walk cycles, budget
  gates) come from :mod:`repro.core.protocol` — the same kernel the event
  engine calls — so the two backends cannot drift.

Because the schedule is identical, every observable of
:class:`repro.sim.results.SimulationResult` — ``total_cycles``,
``events_executed``, per-application counters, latency means, IOMMU and
walker counters, tracker statistics, metadata — is **bit-identical** to the
event engine's.  The speedup is a constant factor (no object graph, no
guard branches for faults/hardening/telemetry, no attribute chains), not an
approximation.

Scope: the replay covers the statistics-relevant configuration space —
``baseline``/``mostly-inclusive``/``least-tlb`` policies, LRU replacement,
the fifo walker scheduler, no fault injection / hardening / telemetry /
snapshots / shootdowns.  Anything else raises :class:`BackendUnsupported`
so callers can fall back to the event engine (see
:func:`repro.sim.driver.simulate`).
"""

from __future__ import annotations

import random
from collections import OrderedDict, deque
from heapq import heappop, heappush
from typing import Any

from repro.config.system import SystemConfig
from repro.core.protocol import (
    choose_probe_target,
    probe_removes_entry,
    select_spill_receiver,
    should_reenter_iommu,
    should_spill_victim,
    walk_cycles,
)
from repro.core.tracker import LocalTLBTracker
from repro.engine.watchdog import SimulationStalledError
from repro.sim.backends import BackendUnsupported
from repro.sim.results import AppResult, SimulationResult
from repro.structures.cuckoo_filter import _splitmix64
from repro.structures.tlb_array import VPN_BITS, InfinitePackedTLB, PackedTLB
from repro.workloads.trace import Workload


#: Policies the functional backend replays, mapped to "is least-TLB".
_SUPPORTED_POLICIES = {"baseline": False, "mostly-inclusive": False, "least-tlb": True}

_LEAST_OPTIONS = frozenset(
    {"mode", "race_ptw", "remote_probes", "spilling", "receiver_policy"}
)

# Event codes, ordered by typical frequency (the dispatch ladder tests them
# in this order).  Tuple layouts are documented at each handler.
_ISSUE = 0  # (cu)
_L2_LOOKUP = 1  # (cu, key, vpn, measured)
_FILL = 2  # (gpu_id, key, vpn, pid, ppn, budget)
_IOMMU_RECEIVE = 3  # (req)
_IOMMU_LOOKUP = 4  # (req)
_WALK_DONE = 5  # (ticket, ppn, faulted)
_PROBE = 6  # (req, target, pend)
_VICTIM = 7  # (gpu_id, key, vpn, pid, ppn, budget)
_SPILL = 8  # (gpu_id, key, vpn, pid, ppn, budget)
_PRI_TIMEOUT = 9  # (generation)
_PRI_BATCH = 10  # (batch)

# Link-model constants (Topology builds host links at bandwidth 0.5 and
# peer links at bandwidth 1.0; cycles_per_message = 1 / bandwidth).
_HOST_CPM = 2.0
_PEER_CPM = 1.0

_VPN_MASK = (1 << VPN_BITS) - 1

# Walk-ticket states (mirrors repro.iommu.page_walker).
_QUEUED = 0
_RUNNING = 1
_DONE = 2
_CANCELLED = 3


class _CU:
    """Replay state of one compute unit (mirror of ComputeUnit plus the
    inlined L1 TLB and a reference to its GPU's shared state).

    The ``c_*`` fields accumulate this CU's measured counters as plain
    ints; they are folded into the per-PID counter dicts once, after the
    replay (same totals, same key-existence, ~3 dict operations saved per
    measured event).
    """

    __slots__ = (
        "gid",
        "pid",
        "kbase",
        "vpns",
        "gaps",
        "reps",
        "nruns",
        "warmup",
        "slots",
        "rerun",
        "index",
        "round",
        "outstanding",
        "waiting",
        "ready",
        "measured_remaining",
        "l1_only",
        "l1_sets",
        "l1_mask",
        "l1_nsets",
        "gpu",
        "c_runs",
        "c_acc",
        "c_l1h",
        "c_l1m",
        "c_l2h",
        "c_l2m",
        "c_merge",
        "c_filled",
    )


class _GPU:
    """Per-GPU shared state: the L2 mirror (plus its unwrapped set list
    and geometry, so the hot handlers skip the method layer) and the MSHR
    table."""

    __slots__ = ("gid", "l2", "l2_sets", "l2_mask", "l2_nsets", "l2_assoc", "mshr", "cus")

    def __init__(self, gid: int, l2: PackedTLB) -> None:
        self.gid = gid
        self.l2 = l2
        self.l2_sets = l2._sets
        self.l2_mask = l2._mask
        self.l2_nsets = l2.num_sets
        self.l2_assoc = l2.associativity
        self.mshr: dict[int, list[tuple[_CU, bool]]] = {}
        self.cus: list[_CU] = []


class _Pend:
    """Pending-table entry (mirror of PendingEntry; serials/generations are
    omitted — without hardening an entry cannot be reaped while a response
    is still in flight, so the stale paths they guard never execute)."""

    __slots__ = (
        "key",
        "waiters",
        "walk_pending",
        "remote_pending",
        "fault_pending",
        "served",
        "ppn",
        "ticket",
    )

    def __init__(self, key: int, first_waiter: tuple) -> None:
        self.key = key
        self.waiters = [first_waiter]
        self.walk_pending = False
        self.remote_pending = False
        self.fault_pending = False
        self.served = False
        self.ppn = 0
        self.ticket: list | None = None


class _FlatPageTables:
    """Flat mirror of :class:`repro.structures.page_table.PageTableManager`.

    The event engine walks a real 4-level radix tree per request; with the
    footprint prefaulted, every walk resolves to the same leaf lookup, so
    the mirror keeps one ``{vpn: ppn}`` dict per PID and the shared
    ``next_ppn`` allocator.  Allocation order (and therefore every PPN) is
    identical to the radix manager's.

    Faulted walks bill latency by the level where the walk hit a hole, so
    the mirror must know which *intermediate* nodes exist.  Those are
    exactly the level-``k`` VPN prefixes of the mapped pages (``map``
    creates them, nothing in the replayed scope removes them); they are
    materialised lazily on the first fault per PID since a fully prefaulted
    run never faults at all.
    """

    __slots__ = ("levels", "bits", "maps", "_prefixes", "next_ppn")

    def __init__(self, levels: int, bits_per_level: int = 9) -> None:
        self.levels = levels
        self.bits = bits_per_level
        self.maps: dict[int, dict[int, int]] = {}
        self._prefixes: dict[int, set[int]] = {}
        self.next_ppn = 1  # PPN 0 reserved, like PageTableManager

    def prefault(self, pid: int, vpns: list[int]) -> None:
        mapping = self.maps.setdefault(pid, {})
        nxt = self.next_ppn
        for vpn in vpns:
            if vpn not in mapping:
                mapping[vpn] = nxt
                nxt += 1
        self.next_ppn = nxt
        self._prefixes.pop(pid, None)  # rebuild lazily if a fault follows

    def _prefix_set(self, pid: int) -> set[int]:
        prefixes = self._prefixes.get(pid)
        if prefixes is None:
            prefixes = set()
            bits = self.bits
            for k in range(1, self.levels):
                shift = bits * (self.levels - k)
                tag = k << 60
                for vpn in self.maps[pid]:
                    prefixes.add(tag | (vpn >> shift))
            self._prefixes[pid] = prefixes
        return prefixes

    def fault_levels(self, pid: int, vpn: int) -> int:
        """``levels_touched`` of a walk that faulted on ``(pid, vpn)`` —
        the index of the first radix level with a hole."""
        if pid not in self.maps:
            return 1  # unknown PID faults at the first level
        prefixes = self._prefix_set(pid)
        bits = self.bits
        for k in range(1, self.levels):
            if (k << 60) | (vpn >> (bits * (self.levels - k))) not in prefixes:
                return k
        return self.levels

    def map_page(self, pid: int, vpn: int) -> int:
        mapping = self.maps.setdefault(pid, {})
        existing = mapping.get(vpn)
        if existing is not None:
            return existing
        ppn = self.next_ppn
        self.next_ppn += 1
        mapping[vpn] = ppn
        prefixes = self._prefixes.get(pid)
        if prefixes is not None:
            bits = self.bits
            for k in range(1, self.levels):
                prefixes.add((k << 60) | (vpn >> (bits * (self.levels - k))))
        return ppn


class _FlatCuckooTracker:
    """Flat mirror of :class:`repro.core.tracker.LocalTLBTracker` over
    cuckoo-filter partitions.

    Two observations make this fast without changing a single observable:

    * the hash geometry ``(fingerprint, i1, i2)`` of a key depends only on
      the key and the (shared) bucket count — the per-partition seed feeds
      only the relocation RNG — so one memo dict serves every GPU's filter,
      and each key pays the two ``_splitmix64`` calls once per run instead
      of twice per operation (a tracker *query* costs ``2 × num_gpus``
      mixes in the object model);
    * ``_splitmix64(fp)`` in the alternate-index computation ranges over at
      most ``2**fingerprint_bits`` values, so it is a table lookup.

    Bucket contents, relocation order, RNG draw sequence (``Random(seed +
    gpu)``, consulted only when both candidate buckets are full), and the
    :class:`TrackerStats` counters are bit-identical to the object model.
    """

    __slots__ = (
        "num_buckets",
        "bucket_size",
        "max_kicks",
        "fp_mask",
        "buckets",
        "rngs",
        "sm_fp",
        "memo",
        "registrations",
        "unregistrations",
        "queries",
        "positives",
        "multi_positives",
    )

    def __init__(self, config: Any, num_gpus: int, seed: int) -> None:
        per_gpu = max(config.bucket_size, config.total_entries // num_gpus)
        per_gpu -= per_gpu % config.bucket_size  # bucket-multiple, like tracker
        self.bucket_size = config.bucket_size
        self.num_buckets = per_gpu // self.bucket_size
        self.max_kicks = 64  # CuckooFilter default; tracker does not override
        self.fp_mask = (1 << config.fingerprint_bits) - 1
        self.buckets: list[list[list[int]]] = [
            [[] for _ in range(self.num_buckets)] for _ in range(num_gpus)
        ]
        self.rngs = [random.Random(seed + g) for g in range(num_gpus)]
        self.sm_fp = [_splitmix64(fp) for fp in range(self.fp_mask + 1)]
        self.memo: dict[int, tuple[int, int, int]] = {}
        self.registrations = 0
        self.unregistrations = 0
        self.queries = 0
        self.positives = 0
        self.multi_positives = 0

    @property
    def stats(self) -> "_FlatCuckooTracker":
        """Duck-typed TrackerStats view (the counters live on ``self``)."""
        return self

    def _locate(self, pid: int, vpn: int) -> tuple[int, int, int]:
        key = (pid << 48) ^ vpn
        entry = self.memo.get(key)
        if entry is None:
            key_hash = _splitmix64(key)
            fp = (key_hash >> 40) & self.fp_mask
            if fp == 0:
                fp = 1
            i1 = key_hash % self.num_buckets
            i2 = (i1 ^ self.sm_fp[fp]) % self.num_buckets
            entry = (fp, i1, i2)
            self.memo[key] = entry
        return entry

    def register(self, gpu_id: int, pid: int, vpn: int) -> None:
        self.registrations += 1
        fp, i1, i2 = self._locate(pid, vpn)
        buckets = self.buckets[gpu_id]
        size = self.bucket_size
        for index in (i1, i2):
            bucket = buckets[index]
            if len(bucket) < size:
                bucket.append(fp)
                return
        # Both buckets full: cuckoo relocation, exact RNG call sequence.
        # ``Random.choice(seq)`` and ``Random.randrange(n)`` both reduce to
        # ``_randbelow(n)`` — ``getrandbits(n.bit_length())`` redrawn while
        # >= n — so the draws are replayed against ``getrandbits`` directly
        # (no Python frames per draw).  tests pin this equivalence against
        # the object model, so an interpreter that changed ``_randbelow``
        # would be caught, not silently diverged from.
        grb = self.rngs[gpu_id].getrandbits
        sm_fp = self.sm_fp
        nb = self.num_buckets
        draw = grb(2)  # choice((i1, i2)): _randbelow(2), 2 bits
        while draw >= 2:
            draw = grb(2)
        index = i2 if draw else i1
        kbits = size.bit_length()  # randrange(size): _randbelow(size)
        for _ in range(self.max_kicks):
            slot = grb(kbits)
            while slot >= size:
                slot = grb(kbits)
            bucket = buckets[index]
            fp, bucket[slot] = bucket[slot], fp
            index = (index ^ sm_fp[fp]) % nb
            bucket = buckets[index]
            if len(bucket) < size:
                bucket.append(fp)
                return
        # Chain exhausted: the displaced fingerprint is dropped (a future
        # false negative its key's owner tolerates via the PTW race).

    def unregister(self, gpu_id: int, pid: int, vpn: int) -> None:
        self.unregistrations += 1
        fp, i1, i2 = self._locate(pid, vpn)
        buckets = self.buckets[gpu_id]
        bucket = buckets[i1]
        if fp in bucket:
            bucket.remove(fp)
            return
        bucket = buckets[i2]
        if fp in bucket:
            bucket.remove(fp)

    def query(self, pid: int, vpn: int) -> list[int]:
        self.queries += 1
        fp, i1, i2 = self._locate(pid, vpn)
        found = [
            gpu_id
            for gpu_id, buckets in enumerate(self.buckets)
            if fp in buckets[i1] or fp in buckets[i2]
        ]
        if found:
            self.positives += 1
            if len(found) > 1:
                self.multi_positives += 1
        return found


def _resolve_policy(
    workload: Workload, policy: str, policy_options: dict[str, Any]
) -> tuple[bool, str, bool, bool, bool, str]:
    """Validate the policy selection and resolve least-TLB options exactly
    as :class:`repro.core.least_tlb.LeastTLBPolicy` would."""
    name = policy.lower()
    if name not in _SUPPORTED_POLICIES:
        raise BackendUnsupported(
            f"functional backend does not support policy {policy!r} "
            "(supported: baseline, mostly-inclusive, least-tlb)"
        )
    is_least = _SUPPORTED_POLICIES[name]
    if not is_least:
        if policy_options:
            raise BackendUnsupported(
                f"policy {policy!r} accepts no options, got {sorted(policy_options)}"
            )
        return False, "single", True, True, False, "counter"
    unknown = set(policy_options) - _LEAST_OPTIONS
    if unknown:
        raise BackendUnsupported(
            f"unsupported least-tlb options for the functional backend: "
            f"{sorted(unknown)}"
        )
    mode = policy_options.get("mode")
    if mode is None:
        mode = "multi" if workload.kind == "multi" else "single"
    if mode not in ("single", "multi"):
        raise ValueError(f"mode must be 'single' or 'multi': {mode!r}")
    receiver_policy = policy_options.get("receiver_policy", "counter")
    if receiver_policy not in ("counter", "round-robin", "random"):
        raise ValueError(f"unknown receiver_policy: {receiver_policy!r}")
    race_ptw = bool(policy_options.get("race_ptw", True))
    remote_probes = bool(policy_options.get("remote_probes", True))
    spilling = policy_options.get("spilling")
    spilling = (mode == "multi") if spilling is None else bool(spilling)
    return True, mode, race_ptw, remote_probes, spilling, receiver_policy


def _check_supported(config: SystemConfig, **system_kwargs: Any) -> None:
    """Reject every configuration whose observables depend on machinery the
    functional backend does not replay."""
    if config.local_page_tables:
        raise BackendUnsupported(
            "functional backend does not model local page tables (Figure 23)"
        )
    if config.iommu.walker_scheduler != "fifo":
        raise BackendUnsupported(
            "functional backend supports only the fifo walker scheduler, "
            f"not {config.iommu.walker_scheduler!r}"
        )
    for label, tlb in (
        ("gpu.l1_tlb", config.gpu.l1_tlb),
        ("gpu.l2_tlb", config.gpu.l2_tlb),
        ("iommu.tlb", config.iommu.tlb),
    ):
        if tlb.replacement != "lru":
            raise BackendUnsupported(
                f"functional backend supports only LRU replacement; "
                f"{label} uses {tlb.replacement!r}"
            )
    defaults: dict[str, Any] = {
        "snapshot_interval": 0,
        "shootdown_interval": 0,
        "faults": None,
        "hardening": None,
        "check_invariants": False,
        "watchdog": None,
        "telemetry": None,
    }
    for key, value in system_kwargs.items():
        if key not in defaults:
            raise BackendUnsupported(
                f"functional backend does not accept system option {key!r}"
            )
        default = defaults[key]
        # watchdog=False is equivalent to the default (no injector → off).
        if key == "watchdog" and not value:
            continue
        if value != default:
            raise BackendUnsupported(
                f"functional backend does not support {key}={value!r}; "
                "use the event backend"
            )


def run_functional(
    config: SystemConfig,
    workload: Workload,
    policy: str = "baseline",
    *,
    policy_options: dict[str, Any] | None = None,
    max_cycles: int | None = None,
    max_events: int | None = None,
    record_iommu_stream: bool = False,
    prefault: bool = True,
    **system_kwargs: Any,
) -> SimulationResult:
    """Replay ``workload`` under ``policy`` and return a
    :class:`SimulationResult` bit-identical to the event engine's.

    Raises :class:`BackendUnsupported` for configurations outside the
    replayable scope (non-LRU replacement, faults, telemetry, …).
    """
    is_least, mode, race_ptw, remote_probes, spilling, receiver_policy = (
        _resolve_policy(workload, policy, policy_options or {})
    )
    _check_supported(config, **system_kwargs)

    # -- construction (mirrors MultiGPUSystem.__init__ order) ---------------
    if not workload.placements:
        raise ValueError("workload has no placements")
    num_gpus = config.num_gpus
    for placement in workload.placements:
        if placement.gpu_id >= num_gpus:
            raise ValueError(
                f"placement targets GPU {placement.gpu_id} but the system "
                f"has {num_gpus} GPUs"
            )

    page_tables = _FlatPageTables(config.page_table_levels)
    l1_cfg = config.gpu.l1_tlb
    l2_cfg = config.gpu.l2_tlb
    l1_assoc = l1_cfg.associativity
    l1_nsets = l1_cfg.num_entries // l1_assoc
    l1_mask = l1_nsets - 1 if l1_nsets & (l1_nsets - 1) == 0 else -1

    gpus = [
        _GPU(g, PackedTLB(l2_cfg.num_entries, l2_cfg.associativity))
        for g in range(num_gpus)
    ]
    iommu_tlb: PackedTLB | InfinitePackedTLB
    if config.iommu.infinite_tlb:
        iommu_tlb = InfinitePackedTLB()
    else:
        iommu_tlb = PackedTLB(
            config.iommu.tlb.num_entries, config.iommu.tlb.associativity
        )

    pcs: dict[int, dict[str, int]] = {pid: {} for pid in workload.pids}
    lat_count: dict[int, int] = {pid: 0 for pid in workload.pids}
    lat_total: dict[int, int] = {pid: 0 for pid in workload.pids}
    exec_time: dict[int, int] = {}
    measure_start: dict[int, int] = {}

    rerun = workload.kind == "multi"
    assigned_cus: list[set[int]] = [set() for _ in range(num_gpus)]
    for placement in workload.placements:
        gpu = gpus[placement.gpu_id]
        for cu_id, stream in zip(placement.cu_ids, placement.streams):
            if cu_id in assigned_cus[placement.gpu_id]:
                raise ValueError(
                    f"CU {cu_id} on GPU {placement.gpu_id} assigned twice"
                )
            assigned_cus[placement.gpu_id].add(cu_id)
            cu = _CU()
            cu.gid = placement.gpu_id
            cu.pid = placement.pid
            cu.kbase = placement.pid << VPN_BITS
            cu.vpns = stream.vpns.tolist()
            cu.gaps = stream.gaps.tolist()
            cu.reps = stream.repeats.tolist()
            cu.nruns = stream.num_runs
            cu.warmup = stream.warmup_runs
            cu.slots = config.gpu.slots_per_cu
            cu.rerun = rerun
            cu.index = 0
            cu.round = 0
            cu.outstanding = 0
            cu.waiting = False
            cu.ready = 0
            cu.measured_remaining = stream.measured_runs
            cu.c_runs = cu.c_acc = cu.c_l1h = cu.c_l1m = 0
            cu.c_l2h = cu.c_l2m = cu.c_merge = cu.c_filled = 0
            if l1_nsets == 1:
                cu.l1_only = OrderedDict()
                cu.l1_sets = None
            else:
                cu.l1_only = None
                cu.l1_sets = [OrderedDict() for _ in range(l1_nsets)]
            cu.l1_mask = l1_mask
            cu.l1_nsets = l1_nsets
            cu.gpu = gpu
            gpu.cus.append(cu)

    remaining: dict[int, int] = {}
    for gpu in gpus:
        for cu in gpu.cus:
            if cu.measured_remaining:
                remaining[cu.pid] = remaining.get(cu.pid, 0) + 1
    pids_pending = set(remaining)
    if not pids_pending:
        raise ValueError("workload contains no runnable CU streams")

    if prefault:
        for pid, vpns in workload.footprints.items():
            page_tables.prefault(pid, vpns.tolist())

    tracker: _FlatCuckooTracker | LocalTLBTracker | None = None
    if is_least:
        if config.tracker.kind == "cuckoo":
            tracker = _FlatCuckooTracker(config.tracker, num_gpus, config.seed)
        else:
            # bloom / perfect ablations: the object model is cheap enough.
            tracker = LocalTLBTracker(config.tracker, num_gpus, seed=config.seed)
    receiver_rng = random.Random(config.seed) if is_least else None
    multi_probe_removes = probe_removes_entry(mode)

    stream_rec: list[tuple[int, int]] | None = [] if record_iommu_stream else None

    # -- protocol-global scalars -------------------------------------------
    host_lat = config.interconnect.host_link_latency
    peer_lat = config.interconnect.scaled_peer_latency
    l1l2_lat = l1_cfg.lookup_latency + l2_cfg.lookup_latency
    l2_lookup_lat = l2_cfg.lookup_latency
    iommu_lookup_lat = config.iommu.tlb.lookup_latency
    cfg_budget = config.spill_budget
    walk_latency_cfg = config.iommu.walk_latency
    pt_levels = page_tables.levels
    # A non-faulted walk always touches every level → constant latency.
    walk_full_lat = walk_cycles(walk_latency_cfg, pt_levels, pt_levels)
    pt_maps = page_tables.maps
    w_capacity = config.iommu.num_walkers * config.iommu.walker_threads
    pri_batch_size = config.iommu.pri_batch_size
    pri_timeout_cfg = config.iommu.pri_timeout
    fault_latency = config.iommu.fault_handling_latency

    # Link serialization state: _next_free per link, exact Link.send math.
    up_free = [0.0] * num_gpus  # gpu -> iommu (host, bw 0.5)
    down_free = [0.0] * num_gpus  # iommu -> gpu (host, bw 0.5)
    probe_free = [0.0] * num_gpus  # iommu ~> gpu (peer, bw 1.0)
    peer_free = [[0.0] * num_gpus for _ in range(num_gpus)]

    # IOMMU TLB geometry, unwrapped for the lookup handler's hot path.
    io_inf = config.iommu.infinite_tlb
    if io_inf:
        io_store = iommu_tlb._store
        io_sets = None
        io_mask = -1
        io_nsets = 1
        io_assoc = 0
    else:
        io_store = None
        io_sets = iommu_tlb._sets
        io_mask = iommu_tlb._mask
        io_nsets = iommu_tlb.num_sets
        io_assoc = iommu_tlb.associativity

    ist: dict[str, int] = {}  # IOMMU CounterSet mirror
    ws: dict[str, int] = {}  # walker CounterSet mirror
    # The three hottest IOMMU counters run as plain ints and fold into
    # ``ist`` after the loop (they are +1 increments, so key-existence ⇔
    # a positive count, exactly like the engine's defaultdict).
    ist_requests = 0
    ist_hit = 0
    ist_miss = 0
    ec = [0] * num_gpus  # eviction counters
    spill_ptr = 0
    probe_rotor = 0
    recv_rotor = 0
    qw_count = 0  # walker queue-wait accumulator
    qw_total = 0
    w_busy = 0
    w_fifo: deque[list] = deque()
    pend: dict[int, _Pend] = {}
    pri_pending: list[tuple[tuple, _Pend]] = []
    pri_gen = 0

    heap: list[tuple] = []
    seq = 0
    now = 0
    executed = 0
    halted = False

    # -- closures shared by several handlers --------------------------------
    # (the hottest paths — run completion, L1 fill, translation completion —
    # are inlined directly in the dispatch ladder; these cover colder edges)

    # The closures below take ``now``/``seq`` as parameters and return the
    # advanced ``seq``; every enclosing name they only read is re-bound as
    # a default argument.  Both moves keep the replay loop's hottest names
    # (``heap``, ``now``, ``seq``, the counter dicts) plain fast locals of
    # ``run_functional`` instead of cell variables shared with closures.

    def insert_iommu_tlb(
        key,
        vpn,
        value,
        _inf=io_inf,
        _store=io_store,
        _sets=io_sets,
        _mask=io_mask,
        _nsets=io_nsets,
        _assoc=io_assoc,
        _ec=ec,
    ):
        """IOMMU.insert_tlb: insert with Eviction-Counter bookkeeping."""
        victim = None
        if _inf:
            existing = _store.get(key)
            _store[key] = value
        else:
            s = _sets[vpn & _mask if _mask >= 0 else vpn % _nsets]
            existing = s.get(key)
            if existing is not None:
                s[key] = value
                s.move_to_end(key)
            else:
                if len(s) >= _assoc:
                    victim = s.popitem(last=False)
                s[key] = value
        if existing is not None:
            owner = ((existing >> 8) & 0xFF) - 1
            if owner >= 0:
                _ec[owner] -= 1
        owner = ((value >> 8) & 0xFF) - 1
        if owner >= 0:
            _ec[owner] += 1
        if victim is not None:
            owner = ((victim[1] >> 8) & 0xFF) - 1
            if owner >= 0:
                _ec[owner] -= 1
        return victim

    def spill_iommu_victim(
        vkey,
        vval,
        now,
        seq,
        _heap=heap,
        _push=heappush,
        _ist=ist,
        _ec=ec,
        _probe_free=probe_free,
        _spilling=spilling,
        _rpolicy=receiver_policy,
        _rng=receiver_rng,
        _n=num_gpus,
        _plat=peer_lat,
    ):
        """LeastTLBPolicy.on_iommu_tlb_evicted."""
        nonlocal spill_ptr, recv_rotor
        budget = vval & 0xFF
        if not should_spill_victim(_spilling, budget):
            return seq
        if _rpolicy == "counter":
            receiver, spill_ptr = select_spill_receiver(_ec, spill_ptr)
        elif _rpolicy == "round-robin":
            receiver = recv_rotor
            recv_rotor = (receiver + 1) % _n
        else:
            receiver = _rng.randrange(_n)
        _ist["spills"] = _ist.get("spills", 0) + 1
        skey = f"spills_to_gpu{receiver}"
        _ist[skey] = _ist.get(skey, 0) + 1
        nf = _probe_free[receiver]
        f = float(now)
        depart = f if f > nf else nf
        _probe_free[receiver] = depart + _PEER_CPM
        _push(
            _heap,
            (
                int(depart) + _plat,
                seq,
                _SPILL,
                receiver,
                vkey,
                vkey & _VPN_MASK,
                vkey >> VPN_BITS,
                vval >> 16,
                budget - 1,
            ),
        )
        return seq + 1

    def insert_l2(
        gpu,
        key,
        vpn,
        value,
        now,
        seq,
        _heap=heap,
        _push=heappush,
        _ist=ist,
        _least=is_least,
        _tracker=tracker,
        _spilling=spilling,
        _up_free=up_free,
        _hlat=host_lat,
    ):
        """GPUDevice._insert_l2 with the policy's fill/eviction hooks."""
        mask = gpu.l2_mask
        s = gpu.l2_sets[vpn & mask if mask >= 0 else vpn % gpu.l2_nsets]
        if key in s:
            # Duplicate fill: refresh the payload in place, no tracker churn.
            s[key] = value
            s.move_to_end(key)
            return seq
        victim = s.popitem(last=False) if len(s) >= gpu.l2_assoc else None
        s[key] = value
        if _least:
            _tracker.register(gpu.gid, key >> VPN_BITS, vpn)
            if victim is not None:
                vkey, vval = victim
                _tracker.unregister(gpu.gid, vkey >> VPN_BITS, vkey & _VPN_MASK)
                budget = vval & 0xFF
                if not should_reenter_iommu(_spilling, budget):
                    _ist["spilled_discarded"] = _ist.get("spilled_discarded", 0) + 1
                else:
                    g = gpu.gid
                    nf = _up_free[g]
                    f = float(now)
                    depart = f if f > nf else nf
                    _up_free[g] = depart + _HOST_CPM
                    _push(
                        _heap,
                        (
                            int(depart) + _hlat,
                            seq,
                            _VICTIM,
                            g,
                            vkey,
                            vkey & _VPN_MASK,
                            vkey >> VPN_BITS,
                            vval >> 16,
                            budget,
                        ),
                    )
                    seq += 1
        # Baseline: victims drop silently (mostly-inclusive semantics).
        return seq

    def respond(
        waiters,
        ppn,
        skey,
        rkey,
        now,
        seq,
        _heap=heap,
        _push=heappush,
        _pcs=pcs,
        _ist=ist,
        _down=down_free,
        _lat_c=lat_count,
        _lat_t=lat_total,
        _hlat=host_lat,
        _budget=cfg_budget,
    ):
        """IOMMU.respond over the host down-links, budget = config's."""
        f = float(now)
        for w in waiters:
            wg = w[0]
            nf = _down[wg]
            depart = f if f > nf else nf
            _down[wg] = depart + _HOST_CPM
            arrival = int(depart) + _hlat
            _push(_heap, (arrival, seq, _FILL, wg, w[3], w[2], w[1], ppn, _budget))
            seq += 1
            if w[5]:
                pid = w[1]
                pc = _pcs[pid]
                pc[skey] = pc.get(skey, 0) + 1
                _lat_c[pid] += 1
                _lat_t[pid] += arrival - w[4]
        _ist[rkey] = _ist.get(rkey, 0) + len(waiters)
        return seq

    def maybe_remove(p, _pend=pend):
        if p.served and not (p.walk_pending or p.remote_pending or p.fault_pending):
            _pend.pop(p.key, None)

    def dispatch_walk(
        ticket,
        now,
        seq,
        _heap=heap,
        _push=heappush,
        _ws=ws,
        _pt_maps=pt_maps,
        _pt=page_tables,
        _wlat=walk_latency_cfg,
        _levels=pt_levels,
        _full=walk_full_lat,
    ):
        nonlocal w_busy, qw_count, qw_total
        ticket[0] = _RUNNING
        qw_count += 1
        qw_total += now - ticket[2]
        w_busy += 1
        _ws["walks_dispatched"] = _ws.get("walks_dispatched", 0) + 1
        req = ticket[1]
        mapping = _pt_maps.get(req[1])
        ppn = None if mapping is None else mapping.get(req[2])
        if ppn is not None:
            _push(_heap, (now + _full, seq, _WALK_DONE, ticket, ppn, False))
        else:
            _ws["walks_faulted"] = _ws.get("walks_faulted", 0) + 1
            touched = _pt.fault_levels(req[1], req[2])
            lat = walk_cycles(_wlat, touched, _levels)
            _push(_heap, (now + lat, seq, _WALK_DONE, ticket, 0, True))
        return seq + 1

    def start_walk(
        req,
        p,
        now,
        seq,
        _pcs=pcs,
        _ws=ws,
        _fifo=w_fifo,
        _cap=w_capacity,
        _dispatch=dispatch_walk,
    ):
        """policy._start_walk + IOMMU.start_walk + WalkerPool.request."""
        p.walk_pending = True
        if req[5]:
            pc = _pcs[req[1]]
            pc["walks"] = pc.get("walks", 0) + 1
        _ws["walks_requested"] = _ws.get("walks_requested", 0) + 1
        ticket = [_QUEUED, req, now, p]
        p.ticket = ticket
        if w_busy < _cap:
            return _dispatch(ticket, now, seq)
        _fifo.append(ticket)
        return seq

    def deliver(
        req,
        p,
        ppn,
        now,
        seq,
        _ist=ist,
        _least=is_least,
        _ins=insert_iommu_tlb,
        _resp=respond,
        _rm=maybe_remove,
    ):
        """policy._deliver_walk_result (walk success or serviced fault)."""
        if p.served:
            _ist["walks_wasted"] = _ist.get("walks_wasted", 0) + 1
        else:
            p.served = True
            p.ppn = ppn
            if not _least:
                # Mostly-inclusive: the walk result also fills the IOMMU
                # TLB (TLBEntry defaults: spill_budget=1, owner=requester).
                value = (ppn << 16) | ((req[0] + 1) << 8) | 1
                _ins(req[3], req[2], value)
                # Baseline on_iommu_tlb_evicted is a no-op for the victim.
            seq = _resp(p.waiters, ppn, "served_walk", "responses_walk", now, seq)
            p.waiters = []
        _rm(p)
        return seq

    def report_fault(
        req,
        p,
        now,
        seq,
        _heap=heap,
        _push=heappush,
        _pcs=pcs,
        _ist=ist,
        _bsize=pri_batch_size,
        _flat=fault_latency,
        _timeout=pri_timeout_cfg,
    ):
        """IOMMU.report_fault + PRIQueue.report."""
        nonlocal pri_pending, pri_gen
        if req[5]:
            pc = _pcs[req[1]]
            pc["page_faults"] = pc.get("page_faults", 0) + 1
        _ist["page_faults"] = _ist.get("page_faults", 0) + 1
        pri_pending.append((req, p))
        if len(pri_pending) >= _bsize:
            batch = pri_pending
            pri_pending = []
            pri_gen += 1
            _push(_heap, (now + _flat, seq, _PRI_BATCH, batch))
            return seq + 1
        if len(pri_pending) == 1:
            _push(_heap, (now + _timeout, seq, _PRI_TIMEOUT, pri_gen))
            return seq + 1
        return seq

    # -- start events (GPUDevice.start, in gpu/cu order) ---------------------
    for gpu in gpus:
        for cu in gpu.cus:
            if cu.nruns:
                heappush(heap, (cu.gaps[0], seq, _ISSUE, cu))
                seq += 1

    # -- the replay loop -----------------------------------------------------
    until = float("inf") if max_cycles is None else max_cycles
    cap = float("inf") if max_events is None else max_events
    pop = heappop
    push = heappush

    while heap:
        head = heap[0]
        if head[0] > until:
            if until > now:
                now = int(until)
            break
        if executed >= cap:
            break
        ev = pop(heap)
        now = ev[0]
        executed += 1
        code = ev[2]

        if code == 0:  # _ISSUE: (cu)
            if halted:
                continue
            cu = ev[3]
            # An issue whose successor lands strictly before every queued
            # event is executed inline instead of round-tripping the heap:
            # nothing can touch this CU's state in between, ``executed``
            # still counts it, and skipping its (push, pop) pair leaves the
            # relative push order — hence every seq tie-break — unchanged.
            pid = cu.pid
            vpns = cu.vpns
            gaps = cu.gaps
            reps = cu.reps
            nruns = cu.nruns
            warmup = cu.warmup
            slots = cu.slots
            kbase = cu.kbase
            m_runs = m_acc = m_hit = m_miss = 0
            while True:
                i = cu.index
                vpn = vpns[i]
                measured = cu.round == 0 and i >= warmup
                key = kbase | vpn
                s = cu.l1_only
                if s is None:
                    m = cu.l1_mask
                    s = cu.l1_sets[vpn & m if m >= 0 else vpn % cu.l1_nsets]
                hit = key in s
                if hit:
                    s.move_to_end(key)
                if measured:
                    if pid not in measure_start:
                        measure_start[pid] = now
                    rep = reps[i]
                    m_runs += 1
                    m_acc += rep
                    if hit:
                        m_hit += rep
                    else:
                        m_miss += 1
                        m_hit += rep - 1
                if hit:
                    if measured:
                        cu.measured_remaining -= 1
                        if cu.measured_remaining == 0:
                            left = remaining[pid] - 1
                            remaining[pid] = left
                            if left == 0:
                                exec_time[pid] = now - measure_start.get(pid, 0)
                                pids_pending.discard(pid)
                                if not pids_pending:
                                    halted = True
                else:
                    cu.outstanding += 1
                    push(
                        heap, (now + l1l2_lat, seq, _L2_LOOKUP, cu, key, vpn, measured)
                    )
                    seq += 1
                # ComputeUnit.advance + issue-window bookkeeping.
                i += 1
                if i < nruns:
                    cu.index = i
                elif cu.rerun and nruns > 0:
                    cu.index = 0
                    cu.round += 1
                else:
                    break
                rt = now + gaps[cu.index]
                cu.ready = rt
                if cu.outstanding >= slots:
                    cu.waiting = True
                    break
                if (
                    not halted
                    and rt <= until
                    and executed < cap
                    and (not heap or rt < heap[0][0])
                ):
                    now = rt
                    executed += 1
                    continue
                push(heap, (rt, seq, _ISSUE, cu))
                seq += 1
                break
            # Fold the chain's counters into the CU accumulators; they land
            # in the per-app counter dicts once, after the loop.
            if m_runs:
                cu.c_runs += m_runs
                cu.c_acc += m_acc
                cu.c_l1h += m_hit
            if m_miss:
                cu.c_l1m += m_miss

        elif code == 1:  # _L2_LOOKUP: (cu, key, vpn, measured)
            cu = ev[3]
            key = ev[4]
            vpn = ev[5]
            measured = ev[6]
            gpu = cu.gpu
            m2 = gpu.l2_mask
            s2 = gpu.l2_sets[vpn & m2 if m2 >= 0 else vpn % gpu.l2_nsets]
            value = s2.get(key)
            if value is not None:
                s2.move_to_end(key)
                if measured:
                    cu.c_l2h += 1
                # inlined fill_l1 + translation_done
                s = cu.l1_only
                if s is None:
                    m = cu.l1_mask
                    s = cu.l1_sets[vpn & m if m >= 0 else vpn % cu.l1_nsets]
                if key in s:
                    s[key] = value >> 16
                    s.move_to_end(key)
                else:
                    if len(s) >= l1_assoc:
                        s.popitem(last=False)
                    s[key] = value >> 16
                cu.outstanding -= 1
                if measured:
                    cu.measured_remaining -= 1
                    if cu.measured_remaining == 0:
                        pid = cu.pid
                        left = remaining[pid] - 1
                        remaining[pid] = left
                        if left == 0:
                            exec_time[pid] = now - measure_start.get(pid, 0)
                            pids_pending.discard(pid)
                            if not pids_pending:
                                halted = True
                if cu.waiting and cu.outstanding < cu.slots:
                    cu.waiting = False
                    if not halted:
                        rt = cu.ready
                        push(heap, (rt if rt > now else now, seq, _ISSUE, cu))
                        seq += 1
                continue
            if measured:
                cu.c_l2m += 1
            mshr = gpu.mshr
            waiters = mshr.get(key)
            if waiters is not None:
                waiters.append((cu, measured))
                if measured:
                    cu.c_merge += 1
                continue
            mshr[key] = [(cu, measured)]
            g = gpu.gid
            req = (g, cu.pid, vpn, key, now, measured)
            # policy.on_l2_miss: host up-link to the IOMMU.
            nf = up_free[g]
            f = float(now)
            depart = f if f > nf else nf
            up_free[g] = depart + _HOST_CPM
            push(heap, (int(depart) + host_lat, seq, _IOMMU_RECEIVE, req))
            seq += 1

        elif code == 2:  # _FILL: (gpu_id, key, vpn, pid, ppn, budget)
            g = ev[3]
            key = ev[4]
            vpn = ev[5]
            ppn = ev[7]
            gpu = gpus[g]
            seq = insert_l2(gpu, key, vpn, (ppn << 16) | ((g + 1) << 8) | ev[8], now, seq)
            waiters = gpu.mshr.pop(key, None)
            if waiters:
                pid = ev[6]
                for cu, measured in waiters:
                    # inlined fill_l1 + translation_done
                    s = cu.l1_only
                    if s is None:
                        m = cu.l1_mask
                        s = cu.l1_sets[vpn & m if m >= 0 else vpn % cu.l1_nsets]
                    if key in s:
                        s[key] = ppn
                        s.move_to_end(key)
                    else:
                        if len(s) >= l1_assoc:
                            s.popitem(last=False)
                        s[key] = ppn
                    cu.outstanding -= 1
                    if measured:
                        cu.c_filled += 1
                        cu.measured_remaining -= 1
                        if cu.measured_remaining == 0:
                            left = remaining[pid] - 1
                            remaining[pid] = left
                            if left == 0:
                                exec_time[pid] = now - measure_start.get(pid, 0)
                                pids_pending.discard(pid)
                                if not pids_pending:
                                    halted = True
                    if cu.waiting and cu.outstanding < cu.slots:
                        cu.waiting = False
                        if not halted:
                            rt = cu.ready
                            push(heap, (rt if rt > now else now, seq, _ISSUE, cu))
                            seq += 1

        elif code == 3:  # _IOMMU_RECEIVE: (req)
            req = ev[3]
            ist_requests += 1
            if stream_rec is not None and req[5]:
                stream_rec.append((req[1], req[2]))
            push(heap, (now + iommu_lookup_lat, seq, _IOMMU_LOOKUP, req))
            seq += 1

        elif code == 4:  # _IOMMU_LOOKUP: (req) — policy.on_iommu_request
            req = ev[3]
            key = req[3]
            vpn = req[2]
            if io_inf:
                io_s = io_store
                value = io_s.get(key)
            else:
                io_s = io_sets[vpn & io_mask if io_mask >= 0 else vpn % io_nsets]
                value = io_s.get(key)
                if value is not None:
                    io_s.move_to_end(key)
            if req[5]:
                pc = pcs[req[1]]
                pc["iommu_lookup"] = pc.get("iommu_lookup", 0) + 1
                if value is not None:
                    pc["iommu_hit"] = pc.get("iommu_hit", 0) + 1
                else:
                    pc["iommu_miss"] = pc.get("iommu_miss", 0) + 1
            if value is not None:
                ist_hit += 1
                if is_least:
                    # Victim-TLB move: the entry migrates to the requester.
                    removed = io_s.pop(key, None)
                    if removed is not None:
                        owner = ((removed >> 8) & 0xFF) - 1
                        if owner >= 0:
                            ec[owner] -= 1
                seq = respond(
                    [req], value >> 16, "served_iommu", "responses_iommu", now, seq
                )
                continue
            ist_miss += 1
            p = pend.get(key)
            if p is not None:
                if p.served:
                    seq = respond(
                        [req], p.ppn, "served_pending", "responses_pending", now, seq
                    )
                else:
                    p.waiters.append(req)
                continue
            p = _Pend(key, req)
            pend[key] = p
            if not is_least:
                seq = start_walk(req, p, now, seq)
                continue
            rg = req[0]
            targets = [t for t in tracker.query(req[1], vpn) if t != rg]
            probing = bool(targets) and remote_probes
            if probing:
                p.remote_pending = True
                target, probe_rotor = choose_probe_target(targets, probe_rotor)
                if req[5]:
                    pc = pcs[req[1]]
                    pc["tracker_positive"] = pc.get("tracker_positive", 0) + 1
                nf = probe_free[target]
                f = float(now)
                depart = f if f > nf else nf
                probe_free[target] = depart + _PEER_CPM
                arrival = int(depart) + peer_lat
                push(heap, (arrival + l2_lookup_lat, seq, _PROBE, req, target, p))
                seq += 1
            if race_ptw or not probing:
                seq = start_walk(req, p, now, seq)

        elif code == 5:  # _WALK_DONE: (ticket, ppn, faulted)
            ticket = ev[3]
            ticket[0] = _DONE
            w_busy -= 1
            # WalkerPool._dequeue_fifo: dispatch the next live queued walk.
            while w_fifo:
                t2 = w_fifo.popleft()
                if t2[0] == _QUEUED:
                    seq = dispatch_walk(t2, now, seq)
                    break
            req = ticket[1]
            p = ticket[3]
            p.walk_pending = False
            if ev[5]:  # faulted
                if p.served:
                    maybe_remove(p)
                elif not p.fault_pending:
                    p.fault_pending = True
                    seq = report_fault(req, p, now, seq)
            else:
                seq = deliver(req, p, ev[4], now, seq)

        elif code == 6:  # _PROBE: (req, target, pend) — policy._remote_probe
            req = ev[3]
            target = ev[4]
            p = ev[5]
            p.remote_pending = False
            key = req[3]
            vpn = req[2]
            tgpu = gpus[target]
            m2 = tgpu.l2_mask
            s2 = tgpu.l2_sets[vpn & m2 if m2 >= 0 else vpn % tgpu.l2_nsets]
            value = s2.get(key)
            if value is not None:
                if multi_probe_removes:
                    del s2[key]
                else:
                    s2.move_to_end(key)
                if mode == "multi":
                    tracker.unregister(target, req[1], vpn)
                ist["remote_hits"] = ist.get("remote_hits", 0) + 1
                if p.served:
                    ist["remote_wasted"] = ist.get("remote_wasted", 0) + 1
                else:
                    p.served = True
                    ppn = value >> 16
                    p.ppn = ppn
                    # policy._respond_from_remote over the peer fabric.
                    f = float(now)
                    waiters = p.waiters
                    for w in waiters:
                        wg = w[0]
                        if wg == target:
                            arrival = now
                        else:
                            row = peer_free[target]
                            nf = row[wg]
                            depart = f if f > nf else nf
                            row[wg] = depart + _PEER_CPM
                            arrival = int(depart) + peer_lat
                        push(
                            heap,
                            (arrival, seq, _FILL, wg, key, vpn, w[1], ppn, cfg_budget),
                        )
                        seq += 1
                        if w[5]:
                            pid = w[1]
                            pc = pcs[pid]
                            pc["remote_hit"] = pc.get("remote_hit", 0) + 1
                            pc["served_remote"] = pc.get("served_remote", 0) + 1
                            lat_count[pid] += 1
                            lat_total[pid] += arrival - w[4]
                    ist["responses_remote"] = ist.get("responses_remote", 0) + len(
                        waiters
                    )
                    p.waiters = []
                    ticket = p.ticket
                    if p.walk_pending and ticket is not None:
                        if ticket[0] == _QUEUED:
                            ticket[0] = _CANCELLED
                            ws["walks_cancelled"] = ws.get("walks_cancelled", 0) + 1
                            p.walk_pending = False
                            p.ticket = None
            else:
                ist["tracker_false_positives"] = (
                    ist.get("tracker_false_positives", 0) + 1
                )
                if not p.served and not (
                    p.walk_pending or p.remote_pending or p.fault_pending
                ):
                    seq = start_walk(req, p, now, seq)
            maybe_remove(p)

        elif code == 7:  # _VICTIM: (gpu_id, key, vpn, pid, ppn, budget)
            # policy._victim_arrived: the L2 victim re-enters the IOMMU TLB
            # with the sender recorded as its owner.
            g = ev[3]
            key = ev[4]
            victim = insert_iommu_tlb(
                key, ev[5], (ev[7] << 16) | ((g + 1) << 8) | ev[8]
            )
            if victim is not None:
                seq = spill_iommu_victim(victim[0], victim[1], now, seq)

        elif code == 8:  # _SPILL: (gpu_id, key, vpn, pid, ppn, budget)
            # GPUDevice.receive_spill: insert only, no MSHR waiters.
            g = ev[3]
            seq = insert_l2(
                gpus[g], ev[4], ev[5], (ev[7] << 16) | ((g + 1) << 8) | ev[8], now, seq
            )

        elif code == 9:  # _PRI_TIMEOUT: (generation)
            if ev[3] == pri_gen and pri_pending:
                batch = pri_pending
                pri_pending = []
                pri_gen += 1
                push(heap, (now + fault_latency, seq, _PRI_BATCH, batch))
                seq += 1

        else:  # _PRI_BATCH: (batch)
            for req, p in ev[3]:
                ppn = page_tables.map_page(req[1], req[2])
                p.fault_pending = False
                seq = deliver(req, p, ppn, now, seq)

    # -- stall checks (mirror MultiGPUSystem.run) ----------------------------
    if pids_pending and max_cycles is None:
        diagnostics = {
            "cycle": now,
            "events_executed": executed,
            "queue_length": len(heap),
            "pids_pending": sorted(pids_pending),
            "backend": "functional",
        }
        if max_events is not None and heap:
            diagnostics["reason"] = f"max_events={max_events} exhausted"
            raise SimulationStalledError(
                f"event cap of {max_events} events exhausted with "
                "applications still outstanding",
                diagnostics,
            )
        if not heap:
            diagnostics["reason"] = "event queue drained"
            raise SimulationStalledError(
                "event queue drained with applications still outstanding "
                "(a response was lost and nothing re-drives the request)",
                diagnostics,
            )

    # -- fold the scalar accumulators into the counter dicts -----------------
    # Key existence matches the event engine (its CounterSet creates keys
    # even for +0 increments): runs/accesses/l1_hit appear with the first
    # measured issue, every other key with its first non-zero increment.
    for gpu in gpus:
        for cu in gpu.cus:
            pc = pcs[cu.pid]
            if cu.c_runs:
                pc["runs"] = pc.get("runs", 0) + cu.c_runs
                pc["accesses"] = pc.get("accesses", 0) + cu.c_acc
                pc["l1_hit"] = pc.get("l1_hit", 0) + cu.c_l1h
            if cu.c_l1m:
                pc["l1_miss"] = pc.get("l1_miss", 0) + cu.c_l1m
            if cu.c_l2h:
                pc["l2_hit"] = pc.get("l2_hit", 0) + cu.c_l2h
            if cu.c_l2m:
                pc["l2_miss"] = pc.get("l2_miss", 0) + cu.c_l2m
            if cu.c_merge:
                pc["l2_mshr_merge"] = pc.get("l2_mshr_merge", 0) + cu.c_merge
            if cu.c_filled:
                pc["translations_filled"] = (
                    pc.get("translations_filled", 0) + cu.c_filled
                )
    if ist_requests:
        ist["requests"] = ist.get("requests", 0) + ist_requests
    if ist_hit:
        ist["tlb_hit"] = ist.get("tlb_hit", 0) + ist_hit
    if ist_miss:
        ist["tlb_miss"] = ist.get("tlb_miss", 0) + ist_miss

    # -- result assembly (mirror MultiGPUSystem._collect_results) ------------
    apps: dict[int, AppResult] = {}
    for pid in workload.pids:
        count = lat_count[pid]
        apps[pid] = AppResult(
            pid=pid,
            app_name=workload.app_names[pid],
            gpu_ids=tuple(workload.gpus_for(pid)),
            instructions=workload.measured_instructions_for(pid),
            runs=workload.measured_runs_for(pid),
            accesses=workload.measured_accesses_for(pid),
            exec_cycles=exec_time.get(pid, now),
            counters=pcs[pid],
            mean_translation_latency=lat_total[pid] / count if count else 0.0,
        )
    tracker_stats = None
    if tracker is not None:
        tstats = tracker.stats
        tracker_stats = {
            "registrations": tstats.registrations,
            "unregistrations": tstats.unregistrations,
            "queries": tstats.queries,
            "positives": tstats.positives,
            "multi_positives": tstats.multi_positives,
            "false_positives": ist.get("tracker_false_positives", 0),
            "remote_hits": ist.get("remote_hits", 0),
        }
    return SimulationResult(
        workload_name=workload.name,
        workload_kind=workload.kind,
        policy_name="least-tlb" if is_least else "baseline",
        total_cycles=now,
        apps=apps,
        iommu_counters=ist,
        walker_counters=ws,
        walker_queue_wait_mean=qw_total / qw_count if qw_count else 0.0,
        tracker_stats=tracker_stats,
        snapshots=[],
        iommu_stream=stream_rec,
        events_executed=executed,
        metadata={
            "shootdowns": 0,
            "num_gpus": num_gpus,
            "page_size": config.page_size,
            "spill_budget": cfg_budget,
            "local_page_tables": config.local_page_tables,
            "seed": config.seed,
        },
        telemetry=None,
    )
