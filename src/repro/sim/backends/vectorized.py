"""Vectorized fast-path backend: chunked, numpy-assisted exact replay.

This backend replays the **identical event schedule** as the event engine
(see :mod:`repro.sim.backends.functional` for the replay argument) while
restructuring the replay loop itself around batch-friendly machinery:

* **Calendar queue.**  The heap of ``(time, seq, ...)`` tuples becomes a
  dictionary of per-cycle FIFO buckets plus one small heap of *distinct*
  cycle numbers.  Within a cycle, the engine's ``seq`` tie-break is simply
  global push order — which a FIFO bucket reproduces by construction — so
  events shrink to ``(code, args...)`` tuples with no time and no sequence
  number, and ~40% of heap traffic (same-cycle events) degrades to list
  appends.  The pop order is provably identical to the engine's.
* **Chunked issue resolution.**  A compute unit's L1 TLB contents are
  frozen for the length of an inline issue chain (fills arrive later, as
  events), so a whole chunk of upcoming accesses can be resolved against a
  numpy snapshot of the L1 tags with one array compare
  (:func:`repro.structures.tlb_array.probe_tags` — the same primitive
  :class:`~repro.structures.tlb_array.ArrayTLB` uses).  Hits update
  recency; misses and every walk/eviction consequence fall out to the
  scalar tail, so every observable stays bit-identical.  Chunking is
  *adaptive*: traces that miss L1 on nearly every run (the multi-GPU
  benchmarks: each run opens a new page) break chains after
  ``slots_per_cu`` misses, where an array compare would cost more than it
  saves, so a per-CU cooldown keeps the chunk path disengaged until a CU
  demonstrates hit-dense chains (large-page traces, high-locality
  sweeps).  ``chunk_size`` bounds the lookahead (see
  ``docs/performance.md`` for tuning notes).
* **Shared seeded structures.**  The page tables, the Local TLB Tracker
  and the policy RNG are the ones every backend builds
  (:class:`~repro.structures.page_table.PageTableManager`,
  :class:`~repro.core.tracker.LocalTLBTracker`,
  ``random.Random(config.seed)``), so every draw sequence — and
  therefore every bucket state and tracker counter — is bit-identical by
  construction rather than by re-implementation.

Scope and fallback behaviour match the functional backend: unsupported
configurations raise :class:`BackendUnsupported`.  Sharded execution
(``--shards N``) lives in :mod:`repro.sim.sharding` and works with any
backend; this module is single-process.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from heapq import heappop, heappush
from typing import Any

import numpy as np

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
from repro.sim.backends.functional import (
    _FILL,
    _HOST_CPM,
    _IOMMU_LOOKUP,
    _IOMMU_RECEIVE,
    _ISSUE,
    _L2_LOOKUP,
    _PEER_CPM,
    _PRI_BATCH,
    _PRI_TIMEOUT,
    _PROBE,
    _SPILL,
    _VICTIM,
    _VPN_MASK,
    _WALK_DONE,
    _CANCELLED,
    _DONE,
    _QUEUED,
    _RUNNING,
    BackendUnsupported,
    _check_supported,
    _Pend,
    _resolve_policy,
)
from repro.sim.results import AppResult, SimulationResult
from repro.structures.page_table import PageTableManager
from repro.structures.tlb_array import VPN_BITS, InfinitePackedTLB, PackedTLB, probe_tags
from repro.workloads.trace import Workload
import random

#: Default lookahead of the chunked issue resolver (runs per array compare).
DEFAULT_CHUNK_SIZE = 256

#: Chains shorter than this make an array compare a net loss; a chunk that
#: breaks earlier puts its CU on cooldown for this many chains.
_CHUNK_MIN_CHAIN = 16
_CHUNK_COOLDOWN = 256

class _VCU:
    """Replay state of one compute unit (the functional backend's ``_CU``
    plus the chunk resolver's numpy mirrors and adaptive gate)."""

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
        # chunk machinery
        "keys_np",
        "cg",
        "reps_np",
        "chunk_cool",
        "snap",
        "snap_epoch",
        "l1_epoch",
    )


class _VGPU:
    """Per-GPU shared state (mirror of the functional backend's ``_GPU``)."""

    __slots__ = ("gid", "l2", "l2_sets", "l2_mask", "l2_nsets", "l2_assoc", "mshr", "cus")

    def __init__(self, gid: int, l2: PackedTLB) -> None:
        self.gid = gid
        self.l2 = l2
        self.l2_sets = l2._sets
        self.l2_mask = l2._mask
        self.l2_nsets = l2.num_sets
        self.l2_assoc = l2.associativity
        self.mshr: dict[int, list[tuple[_VCU, bool]]] = {}
        self.cus: list[_VCU] = []


def run_vectorized(
    config: SystemConfig,
    workload: Workload,
    policy: str = "baseline",
    *,
    policy_options: dict[str, Any] | None = None,
    max_cycles: int | None = None,
    max_events: int | None = None,
    record_iommu_stream: bool = False,
    prefault: bool = True,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    **system_kwargs: Any,
) -> SimulationResult:
    """Replay ``workload`` under ``policy`` with the vectorized backend.

    Bit-identical to the event engine (and the functional backend) on
    every field of :class:`SimulationResult`; raises
    :class:`BackendUnsupported` outside the replayable scope.
    """
    is_least, mode, race_ptw, remote_probes, spilling, receiver_policy = (
        _resolve_policy(workload, policy, policy_options or {})
    )
    _check_supported(config, **system_kwargs)
    if chunk_size < _CHUNK_MIN_CHAIN:
        raise ValueError(
            f"chunk_size must be >= {_CHUNK_MIN_CHAIN}, got {chunk_size}"
        )
    if max_events is not None:
        # Event-capped runs (debug/watchdog scenarios) cannot use the
        # count-free bucket drain; the functional backend replays them
        # bit-identically, so delegate instead of carrying a second,
        # per-event-counted copy of the dispatch ladder.
        from repro.sim.backends.functional import run_functional

        try:
            return run_functional(
                config,
                workload,
                policy,
                policy_options=policy_options,
                max_cycles=max_cycles,
                max_events=max_events,
                record_iommu_stream=record_iommu_stream,
                prefault=prefault,
                **system_kwargs,
            )
        except SimulationStalledError as exc:
            diagnostics = dict(exc.diagnostics)
            diagnostics["backend"] = "vectorized"
            raise SimulationStalledError(str(exc.args[0]), diagnostics) from None

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

    page_tables = PageTableManager(levels=config.page_table_levels)
    l1_cfg = config.gpu.l1_tlb
    l2_cfg = config.gpu.l2_tlb
    l1_assoc = l1_cfg.associativity
    l1_nsets = l1_cfg.num_entries // l1_assoc
    l1_mask = l1_nsets - 1 if l1_nsets & (l1_nsets - 1) == 0 else -1

    gpus = [
        _VGPU(g, PackedTLB(l2_cfg.num_entries, l2_cfg.associativity))
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
            cu = _VCU()
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
            # Chunk mirrors: packed keys, gap prefix sums, repeat counts.
            vp = stream.vpns.astype(np.int64, copy=False)
            cu.keys_np = np.int64(cu.kbase) | vp
            cu.cg = np.cumsum(stream.gaps.astype(np.int64, copy=False))
            cu.reps_np = stream.repeats.astype(np.int64, copy=False)
            cu.chunk_cool = 0
            cu.snap = None
            cu.snap_epoch = -1
            cu.l1_epoch = 0
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

    tracker = (
        LocalTLBTracker(config.tracker, num_gpus, seed=config.seed)
        if is_least
        else None
    )
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
    walk_full_lat = walk_cycles(walk_latency_cfg, pt_levels, pt_levels)
    w_capacity = config.iommu.num_walkers * config.iommu.walker_threads
    pri_batch_size = config.iommu.pri_batch_size
    pri_timeout_cfg = config.iommu.pri_timeout
    fault_latency = config.iommu.fault_handling_latency

    up_free = [0.0] * num_gpus
    down_free = [0.0] * num_gpus
    probe_free = [0.0] * num_gpus
    peer_free = [[0.0] * num_gpus for _ in range(num_gpus)]

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

    ist: dict[str, int] = {}
    ws: dict[str, int] = {}
    ist_requests = 0
    ist_hit = 0
    ist_miss = 0
    ec = [0] * num_gpus
    spill_ptr = 0
    probe_rotor = 0
    recv_rotor = 0
    qw_count = 0
    qw_total = 0
    w_busy = 0
    w_fifo: deque[list] = deque()
    pend: dict[int, _Pend] = {}
    pri_pending: list[tuple[tuple, _Pend]] = []
    pri_gen = 0

    # -- the calendar queue --------------------------------------------------
    # ``buckets[t]`` is the FIFO of events scheduled for cycle ``t``;
    # ``times`` is a heap of the distinct cycles with a non-drained bucket.
    # Same-cycle FIFO order *is* the engine's seq order (both are global
    # push order), so events carry neither a timestamp nor a sequence
    # number: ``(code, args...)``.
    buckets: dict[int, list[tuple]] = {}
    times: list[int] = []

    now = 0
    executed = 0
    halted = False

    def push_at(t: int, ev: tuple, _b=buckets, _times=times, _hp=heappush) -> None:
        """Schedule ``ev`` for cycle ``t`` (cold-path helper; the hot
        handlers inline this)."""
        b = _b.get(t)
        if b is None:
            _b[t] = [ev]
            _hp(_times, t)
        else:
            b.append(ev)

    # -- closures shared by several handlers --------------------------------

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
        _b=buckets,
        _times=times,
        _hp=heappush,
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
            return
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
        ta = int(depart) + _plat
        ev = (
            _SPILL,
            receiver,
            vkey,
            vkey & _VPN_MASK,
            vkey >> VPN_BITS,
            vval >> 16,
            budget - 1,
        )
        b = _b.get(ta)
        if b is None:
            _b[ta] = [ev]
            _hp(_times, ta)
        else:
            b.append(ev)

    def insert_l2(
        gpu,
        key,
        vpn,
        value,
        now,
        _b=buckets,
        _times=times,
        _hp=heappush,
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
            s[key] = value
            s.move_to_end(key)
            return
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
                    ta = int(depart) + _hlat
                    ev = (
                        _VICTIM,
                        g,
                        vkey,
                        vkey & _VPN_MASK,
                        vkey >> VPN_BITS,
                        vval >> 16,
                        budget,
                    )
                    b = _b.get(ta)
                    if b is None:
                        _b[ta] = [ev]
                        _hp(_times, ta)
                    else:
                        b.append(ev)
        # Baseline: victims drop silently (mostly-inclusive semantics).

    def respond(
        waiters,
        ppn,
        skey,
        rkey,
        now,
        _b=buckets,
        _times=times,
        _hp=heappush,
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
            ev = (_FILL, wg, w[3], w[2], w[1], ppn, _budget)
            b = _b.get(arrival)
            if b is None:
                _b[arrival] = [ev]
                _hp(_times, arrival)
            else:
                b.append(ev)
            if w[5]:
                pid = w[1]
                pc = _pcs[pid]
                pc[skey] = pc.get(skey, 0) + 1
                _lat_c[pid] += 1
                _lat_t[pid] += arrival - w[4]
        _ist[rkey] = _ist.get(rkey, 0) + len(waiters)

    def maybe_remove(p, _pend=pend):
        if p.served and not (p.walk_pending or p.remote_pending or p.fault_pending):
            _pend.pop(p.key, None)

    def dispatch_walk(
        ticket,
        now,
        _b=buckets,
        _times=times,
        _hp=heappush,
        _ws=ws,
        _translate=page_tables.translate,
        _walk=page_tables.walk,
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
        ppn = _translate(req[1], req[2])
        if ppn is not None:
            ta = now + _full
            ev = (_WALK_DONE, ticket, ppn, False)
        else:
            _ws["walks_faulted"] = _ws.get("walks_faulted", 0) + 1
            touched = _walk(req[1], req[2]).levels_touched
            ta = now + walk_cycles(_wlat, touched, _levels)
            ev = (_WALK_DONE, ticket, 0, True)
        b = _b.get(ta)
        if b is None:
            _b[ta] = [ev]
            _hp(_times, ta)
        else:
            b.append(ev)

    def start_walk(
        req,
        p,
        now,
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
            _dispatch(ticket, now)
        else:
            _fifo.append(ticket)

    def deliver(
        req,
        p,
        ppn,
        now,
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
                value = (ppn << 16) | ((req[0] + 1) << 8) | 1
                _ins(req[3], req[2], value)
            _resp(p.waiters, ppn, "served_walk", "responses_walk", now)
            p.waiters = []
        _rm(p)

    def report_fault(
        req,
        p,
        now,
        _push=push_at,
        _pcs=pcs,
        _ist=ist,
        _bsize=pri_batch_size,
        _flat=fault_latency,
        _timeout=pri_timeout_cfg,
    ):
        """IOMMU.report_fault + PRIQueue.report (cold with prefaulting)."""
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
            _push(now + _flat, (_PRI_BATCH, batch))
            return
        if len(pri_pending) == 1:
            _push(now + _timeout, (_PRI_TIMEOUT, pri_gen))

    # -- start events (GPUDevice.start, in gpu/cu order) ---------------------
    for gpu in gpus:
        for cu in gpu.cus:
            if cu.nruns:
                push_at(cu.gaps[0], (_ISSUE, cu))

    # -- the replay loop -----------------------------------------------------
    until = float("inf") if max_cycles is None else max_cycles
    chunkable = l1_nsets == 1

    while times:
        t = times[0]
        if t > until:
            if until > now:
                now = int(until)
            break
        heappop(times)
        bucket = buckets[t]
        now = t
        # A bare list iterator drains the bucket: same-cycle pushes append
        # to it and are picked up in FIFO order (CPython list iterators
        # follow growth), with no per-event length or index bookkeeping.
        # ``now`` can only move past ``t`` inside an inline issue chain,
        # and a chain only advances when this bucket is exhausted (an
        # undrained same-cycle event blocks the strictly-earliest test),
        # so no per-event ``now`` reset is needed either.
        for ev in bucket:
            executed += 1
            code = ev[0]

            if code == 0:  # _ISSUE: (cu)
                if halted:
                    continue
                cu = ev[1]
                # Inline issue chains, exactly like the functional backend:
                # successors that land strictly before every queued event
                # execute without a heap round-trip.  ``nt`` below is the
                # earliest queued event — the current bucket's cycle while
                # it still holds undrained events, else the next distinct
                # cycle (pushes during the chain update ``times[0]``).
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
                    # -- chunked resolution (adaptive) ----------------------
                    if chunkable and cu.chunk_cool == 0 and not halted:
                        if cu.round == 0:
                            c_end = warmup if i < warmup else nruns - 1
                        else:
                            c_end = nruns - 1
                        c_len = c_end - i
                        if c_len > chunk_size:
                            c_len = chunk_size
                        c_meas = cu.round == 0 and i >= warmup
                        if c_len >= _CHUNK_MIN_CHAIN and (
                            not c_meas or cu.measured_remaining > c_len
                        ):
                            nt = (
                                (times[0] if times else -1)
                                if ev is bucket[-1]
                                else t
                            )
                            n = _resolve_chunk(
                                cu, i, c_len, c_meas, now, nt, times,
                                buckets, l1l2_lat, until, measure_start,
                                remaining, pcs,
                            )
                            if n >= 0:
                                # Chunk executed ``n`` runs and ended the
                                # chain (waiting or a pushed issue).
                                executed += n - 1
                                break
                            # n == -1: chunk executed nothing (immediate
                            # break) or declined; fall through to scalar.
                        if cu.chunk_cool:
                            cu.chunk_cool -= 1
                    elif cu.chunk_cool:
                        cu.chunk_cool -= 1
                    # -- scalar tail (exact functional replica) -------------
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
                        ta = now + l1l2_lat
                        ev2 = (_L2_LOOKUP, cu, key, vpn, measured)
                        b = buckets.get(ta)
                        if b is None:
                            buckets[ta] = [ev2]
                            heappush(times, ta)
                        else:
                            b.append(ev2)
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
                    nt = (times[0] if times else -1) if ev is bucket[-1] else t
                    if not halted and rt <= until and (nt < 0 or rt < nt):
                        now = rt
                        executed += 1
                        continue
                    ev2 = (_ISSUE, cu)
                    b = buckets.get(rt)
                    if b is None:
                        buckets[rt] = [ev2]
                        heappush(times, rt)
                    else:
                        b.append(ev2)
                    break
                if m_runs:
                    cu.c_runs += m_runs
                    cu.c_acc += m_acc
                    cu.c_l1h += m_hit
                if m_miss:
                    cu.c_l1m += m_miss

            elif code == 1:  # _L2_LOOKUP: (cu, key, vpn, measured)
                cu = ev[1]
                key = ev[2]
                vpn = ev[3]
                measured = ev[4]
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
                    cu.l1_epoch += 1
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
                            if rt < now:
                                rt = now
                            ev2 = (_ISSUE, cu)
                            b = buckets.get(rt)
                            if b is None:
                                buckets[rt] = [ev2]
                                heappush(times, rt)
                            else:
                                b.append(ev2)
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
                ta = int(depart) + host_lat
                ev2 = (_IOMMU_RECEIVE, req)
                b = buckets.get(ta)
                if b is None:
                    buckets[ta] = [ev2]
                    heappush(times, ta)
                else:
                    b.append(ev2)

            elif code == 2:  # _FILL: (gpu_id, key, vpn, pid, ppn, budget)
                g = ev[1]
                key = ev[2]
                vpn = ev[3]
                ppn = ev[5]
                gpu = gpus[g]
                insert_l2(gpu, key, vpn, (ppn << 16) | ((g + 1) << 8) | ev[6], now)
                waiters = gpu.mshr.pop(key, None)
                if waiters:
                    pid = ev[4]
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
                        cu.l1_epoch += 1
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
                                if rt < now:
                                    rt = now
                                ev2 = (_ISSUE, cu)
                                b = buckets.get(rt)
                                if b is None:
                                    buckets[rt] = [ev2]
                                    heappush(times, rt)
                                else:
                                    b.append(ev2)

            elif code == 3:  # _IOMMU_RECEIVE: (req)
                req = ev[1]
                ist_requests += 1
                if stream_rec is not None and req[5]:
                    stream_rec.append((req[1], req[2]))
                ta = now + iommu_lookup_lat
                ev2 = (_IOMMU_LOOKUP, req)
                b = buckets.get(ta)
                if b is None:
                    buckets[ta] = [ev2]
                    heappush(times, ta)
                else:
                    b.append(ev2)

            elif code == 4:  # _IOMMU_LOOKUP: (req) — policy.on_iommu_request
                req = ev[1]
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
                        removed = io_s.pop(key, None)
                        if removed is not None:
                            owner = ((removed >> 8) & 0xFF) - 1
                            if owner >= 0:
                                ec[owner] -= 1
                    respond(
                        [req], value >> 16, "served_iommu", "responses_iommu", now
                    )
                    continue
                ist_miss += 1
                p = pend.get(key)
                if p is not None:
                    if p.served:
                        respond(
                            [req], p.ppn, "served_pending", "responses_pending", now
                        )
                    else:
                        p.waiters.append(req)
                    continue
                p = _Pend(key, req)
                pend[key] = p
                if not is_least:
                    start_walk(req, p, now)
                    continue
                rg = req[0]
                targets = [x for x in tracker.query(req[1], vpn) if x != rg]
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
                    ta = int(depart) + peer_lat + l2_lookup_lat
                    ev2 = (_PROBE, req, target, p)
                    b = buckets.get(ta)
                    if b is None:
                        buckets[ta] = [ev2]
                        heappush(times, ta)
                    else:
                        b.append(ev2)
                if race_ptw or not probing:
                    start_walk(req, p, now)

            elif code == 5:  # _WALK_DONE: (ticket, ppn, faulted)
                ticket = ev[1]
                ticket[0] = _DONE
                w_busy -= 1
                while w_fifo:
                    t2 = w_fifo.popleft()
                    if t2[0] == _QUEUED:
                        dispatch_walk(t2, now)
                        break
                req = ticket[1]
                p = ticket[3]
                p.walk_pending = False
                if ev[3]:  # faulted
                    if p.served:
                        maybe_remove(p)
                    elif not p.fault_pending:
                        p.fault_pending = True
                        report_fault(req, p, now)
                else:
                    deliver(req, p, ev[2], now)

            elif code == 6:  # _PROBE: (req, target, pend)
                req = ev[1]
                target = ev[2]
                p = ev[3]
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
                            ev2 = (_FILL, wg, key, vpn, w[1], ppn, cfg_budget)
                            b = buckets.get(arrival)
                            if b is None:
                                buckets[arrival] = [ev2]
                                heappush(times, arrival)
                            else:
                                b.append(ev2)
                            if w[5]:
                                pid = w[1]
                                pc = pcs[pid]
                                pc["remote_hit"] = pc.get("remote_hit", 0) + 1
                                pc["served_remote"] = pc.get("served_remote", 0) + 1
                                lat_count[pid] += 1
                                lat_total[pid] += arrival - w[4]
                        ist["responses_remote"] = ist.get(
                            "responses_remote", 0
                        ) + len(waiters)
                        p.waiters = []
                        ticket = p.ticket
                        if p.walk_pending and ticket is not None:
                            if ticket[0] == _QUEUED:
                                ticket[0] = _CANCELLED
                                ws["walks_cancelled"] = (
                                    ws.get("walks_cancelled", 0) + 1
                                )
                                p.walk_pending = False
                                p.ticket = None
                else:
                    ist["tracker_false_positives"] = (
                        ist.get("tracker_false_positives", 0) + 1
                    )
                    if not p.served and not (
                        p.walk_pending or p.remote_pending or p.fault_pending
                    ):
                        start_walk(req, p, now)
                maybe_remove(p)

            elif code == 7:  # _VICTIM: (gpu_id, key, vpn, pid, ppn, budget)
                g = ev[1]
                key = ev[2]
                victim = insert_iommu_tlb(
                    key, ev[3], (ev[5] << 16) | ((g + 1) << 8) | ev[6]
                )
                if victim is not None:
                    spill_iommu_victim(victim[0], victim[1], now)

            elif code == 8:  # _SPILL: (gpu_id, key, vpn, pid, ppn, budget)
                g = ev[1]
                insert_l2(
                    gpus[g], ev[2], ev[3], (ev[5] << 16) | ((g + 1) << 8) | ev[6], now
                )

            elif code == 9:  # _PRI_TIMEOUT: (generation)
                if ev[1] == pri_gen and pri_pending:
                    batch = pri_pending
                    pri_pending = []
                    pri_gen += 1
                    push_at(now + fault_latency, (_PRI_BATCH, batch))

            else:  # _PRI_BATCH: (batch)
                for req, p in ev[1]:
                    ppn = page_tables.map_page(req[1], req[2])
                    p.fault_pending = False
                    deliver(req, p, ppn, now)

        del buckets[t]

    # -- stall checks (mirror MultiGPUSystem.run; max_events runs were
    # delegated to the functional backend above) ----------------------------
    if pids_pending and max_cycles is None:
        queue_length = sum(len(b) for b in buckets.values())
        diagnostics = {
            "cycle": now,
            "events_executed": executed,
            "queue_length": queue_length,
            "pids_pending": sorted(pids_pending),
            "backend": "vectorized",
        }
        if not queue_length:
            diagnostics["reason"] = "event queue drained"
            raise SimulationStalledError(
                "event queue drained with applications still outstanding "
                "(a response was lost and nothing re-drives the request)",
                diagnostics,
            )

    # -- fold the scalar accumulators into the counter dicts -----------------
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


def _resolve_chunk(
    cu,
    i0: int,
    c_len: int,
    measured: bool,
    now: int,
    nt: int,
    times: list[int],
    buckets: dict,
    l1l2_lat: int,
    until: float,
    measure_start: dict,
    remaining: dict,
    pcs: dict,
) -> int:
    """Resolve up to ``c_len`` runs of ``cu`` against a frozen L1 snapshot.

    Returns the number of runs executed when the chunk also *ended* the
    chain (the CU is left waiting, or its next issue is pushed), or ``-1``
    when the chunk declined and the scalar path must execute from
    ``cu.index`` (no state was touched in that case).

    The arithmetic replays the scalar chain exactly: element ``j`` issues
    at ``t_j = now + cg[i0+j] - cg[i0]``; the chain breaks when
    ``outstanding`` reaches the CU's slots (→ waiting) or when the next
    issue time is no longer strictly before every queued event — the
    earliest of the pre-chunk queue head and the chunk's own first miss
    lookup at ``t_m + l1_l2_latency``.
    """
    s = cu.l1_only
    if cu.snap_epoch != cu.l1_epoch:
        cu.snap = np.fromiter(s.keys(), dtype=np.int64, count=len(s))
        cu.snap_epoch = cu.l1_epoch
    hi = i0 + c_len
    keys_c = cu.keys_np[i0:hi]
    hits = probe_tags(cu.snap, keys_c)
    miss = ~hits
    cmiss = np.cumsum(miss)
    cg = cu.cg
    times_c = cg[i0 : hi + 1]
    base = int(cg[i0])
    # ``nt`` is the next-queued-event bound before the chunk's own pushes.
    # First miss (if any) pushes an L2 lookup at t_m + l1l2_lat, which can
    # tighten the bound for every later element.
    nmiss = int(cmiss[-1])
    if nmiss:
        m1 = int(miss.argmax())
        t_m1 = now + int(times_c[m1]) - base
        push_bound = t_m1 + l1l2_lat
        if nt < 0 or push_bound < nt:
            nt_after = push_bound
        else:
            nt_after = nt
    else:
        m1 = c_len
        nt_after = nt
    # Chain length from the three break causes (slots, time, chunk end).
    # times_rel[j] = issue time of element j relative to ``now``.
    times_abs = times_c[:c_len].astype(np.int64) - base + now
    # Time violations: element j (>=1) only executes if t_j < bound_j,
    # where bound_j = nt for j <= m1, nt_after beyond the first miss.
    n = c_len
    if nt >= 0 or nmiss:
        viol = np.zeros(c_len, dtype=bool)
        if nt >= 0:
            viol |= times_abs >= nt
        if nmiss and nt_after != nt:
            beyond = np.zeros(c_len, dtype=bool)
            beyond[m1 + 1 :] = True
            viol |= beyond & (times_abs >= nt_after)
        viol[0] = False
        j_time = int(viol.argmax()) if viol.any() else c_len
        if j_time < n:
            n = j_time
    if until != float("inf"):
        over = times_abs > until
        over[0] = False
        if over.any():
            j_until = int(over.argmax())
            if j_until < n:
                n = j_until
    waiting = False
    free = cu.slots - cu.outstanding
    if nmiss >= free:
        j_slot = int(np.searchsorted(cmiss, free)) + 1  # executes the miss
        if j_slot <= n:
            n = j_slot
            waiting = True
    if n < _CHUNK_MIN_CHAIN:
        cu.chunk_cool = _CHUNK_COOLDOWN
        if n <= 0:
            return -1
    # -- apply the chunk's effects ------------------------------------------
    sl = slice(0, n)
    hits_n = hits[sl]
    n_miss = int(cmiss[n - 1])
    n_hit = n - n_miss
    pid = cu.pid
    if measured:
        if pid not in measure_start:
            measure_start[pid] = now
        acc = int(cu.reps_np[i0 : i0 + n].sum())
        cu.c_runs += n
        cu.c_acc += acc
        cu.c_l1h += acc - n_miss
        cu.c_l1m += n_miss
        cu.measured_remaining -= n_hit
    if n_hit:
        mt = s.move_to_end
        for k in keys_c[sl][hits_n].tolist():
            mt(k)
    if n_miss:
        cu.outstanding += n_miss
        midx = np.flatnonzero(~hits_n)
        mkeys = keys_c[midx].tolist()
        mvpns = [k & _VPN_MASK for k in mkeys]
        mtimes = (times_abs[midx] + l1l2_lat).tolist()
        for k, v, ta in zip(mkeys, mvpns, mtimes):
            ev2 = (_L2_LOOKUP, cu, k, v, measured)
            b = buckets.get(ta)
            if b is None:
                buckets[ta] = [ev2]
                heappush(times, ta)
            else:
                b.append(ev2)
    cu.index = i0 + n
    rt = now + int(times_c[n]) - base
    cu.ready = rt
    if waiting:
        cu.waiting = True
        return n
    # The chain did not fill the issue slots: requeue the next issue at
    # ``rt``.  When ``rt`` is strictly earlier than every queued event the
    # scalar loop would have continued inline; pushing instead is
    # observably identical — the issue pops next with nothing in between,
    # and the extra push/pop pair changes no same-cycle ordering (any
    # event already queued at ``rt`` would equally have blocked the inline
    # continuation and forced this same append-after push).  ``executed``
    # is not double-counted: the caller charges this chunk ``n`` events
    # and the pushed issue is charged at its own pop.
    ev2 = (_ISSUE, cu)
    b = buckets.get(rt)
    if b is None:
        buckets[rt] = [ev2]
        heappush(times, rt)
    else:
        b.append(ev2)
    return n
