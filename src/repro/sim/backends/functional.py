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
  frequency (no callback indirection, no ATSRequest allocation);
* every TLB is the event engine's own
  :class:`~repro.structures.tlb.SetAssociativeTLB` over the same packed
  keys and payloads; the per-access reads (the L1 probe, the L2 probe)
  and the L1 fills run inline on its set lists, every other update calls
  its methods, and the IOMMU TLB keeps the Eviction Counters itself;
* every message crosses the event engine's own
  :class:`~repro.interconnect.topology.Topology` links through
  :meth:`~repro.interconnect.link.Link.send`;
* the page tables and the Local TLB Tracker are the event engine's own
  :class:`~repro.structures.page_table.PageTableManager` and
  :class:`~repro.core.tracker.LocalTLBTracker` (flat PTE dicts; cuckoo
  partitions sharing one memoised key geometry), built in the same order
  from the same seed, so every frame number, walk depth, bucket and RNG
  draw is the engine's by construction;
* the IOMMU's pending table, walker pool (FIFO or DWS) and PRI fault
  batcher are the engine's own
  :class:`~repro.iommu.pending_table.PendingTable`,
  :class:`~repro.iommu.page_walker.WalkerPool` and
  :class:`~repro.iommu.pri.PRIQueue`: they decide and count, and the
  replay schedules what they return on its heap;
* protocol decisions (spill receiver, probe target, budget gates) come
  from :mod:`repro.core.protocol` — the same kernel the event engine
  calls — so the two backends cannot drift.

Because the schedule is identical, every observable of
:class:`repro.sim.results.SimulationResult` — ``total_cycles``,
``events_executed``, per-application counters, latency means, IOMMU and
walker counters, tracker statistics, metadata — is **bit-identical** to the
event engine's.  The speedup is a constant factor (no object graph, no
guard branches for telemetry, no attribute chains), not an
approximation.

Scope: the replay covers the statistics-relevant configuration space —
``baseline``/``mostly-inclusive``/``least-tlb`` policies under either
walker scheduler, no telemetry / snapshots / shootdowns / invariant checks /
watchdog / local page tables.  Anything else raises
:class:`BackendUnsupported`; run such a configuration on the event engine
(``backend="event"``).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any

from repro.config.system import SystemConfig
from repro.core.protocol import (
    SpillReceiverSelector,
    choose_probe_target,
    least_tlb_options,
    probe_removes_entry,
    should_reenter_iommu,
    should_spill_victim,
)
from repro.core.tracker import LocalTLBTracker
from repro.engine.watchdog import SimulationStalledError
from repro.interconnect.topology import Topology
from repro.iommu.page_walker import WalkerPool, WalkTicket
from repro.iommu.pending_table import PendingTable
from repro.iommu.pri import PRIQueue
from repro.policies.base import check_no_options
from repro.sim.backends import BackendUnsupported
from repro.sim.results import AppResult, SimulationResult
from repro.structures.page_table import PageTableManager
from repro.structures.tlb import (
    BUDGET_MASK,
    FRAME_SHIFT,
    PID_BITS,
    PID_MASK,
    SetAssociativeTLB,
    pack_payload,
)
from repro.workloads.trace import Workload


#: Policies the functional backend replays, mapped to the name the event
#: engine's policy class reports.
_SUPPORTED_POLICIES = {
    "baseline": "baseline",
    "mostly-inclusive": "baseline",
    "least-tlb": "least-tlb",
}

# Event codes, ordered by typical frequency (the dispatch ladder tests them
# in this order).  Tuple layouts are documented at each handler; ``key``
# and payloads follow repro.structures.tlb.
_ISSUE = 0  # (cu)
_L2_LOOKUP = 1  # (cu, key, vpn, measured)
_FILL = 2  # (gpu_id, key, vpn, pid, ppn, budget)
_IOMMU_RECEIVE = 3  # (req)
_IOMMU_LOOKUP = 4  # (req)
_WALK_DONE = 5  # (ticket)
_PROBE = 6  # (req, target, pend)
_VICTIM = 7  # (gpu_id, key, payload)
_SPILL = 8  # (gpu_id, key, vpn, payload)
_PRI_TIMEOUT = 9  # (generation)
_PRI_BATCH = 10  # (batch)

# A request is the tuple (gpu_id, pid, vpn, key, issue_time, measured):
# the pending table's waiter, a walk ticket's owner and a PRI fault.


class _CU:
    """Replay state of one compute unit (mirror of ComputeUnit plus its L1
    TLB's set lists and a reference to its GPU's shared state).

    The ``c_*`` fields accumulate this CU's measured counters as plain
    ints; they are folded into the per-PID counter dicts once, after the
    replay (same totals, same key-existence, ~3 dict operations saved per
    measured event).
    """

    __slots__ = (
        "gid",
        "pid",
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
    """Per-GPU shared state: the L2 TLB (and its set lists, for the inline
    probe) and the MSHR table."""

    __slots__ = ("gid", "l2", "l2_sets", "l2_mask", "l2_nsets", "mshr", "cus")

    def __init__(self, gid: int, l2: SetAssociativeTLB) -> None:
        self.gid = gid
        self.l2 = l2
        self.l2_sets = l2.sets
        self.l2_mask = l2.index_mask
        self.l2_nsets = l2.num_sets
        self.mshr: dict[int, list[tuple[_CU, bool]]] = {}
        self.cus: list[_CU] = []


def _check_supported(config: SystemConfig, **system_kwargs: Any) -> None:
    """Reject every configuration whose observables depend on machinery the
    functional backend does not replay."""
    if config.local_page_tables:
        raise BackendUnsupported(
            "functional backend does not model local page tables (Figure 23)"
        )
    defaults: dict[str, Any] = {
        "snapshot_interval": 0,
        "shootdown_interval": 0,
        "check_invariants": False,
        "watchdog": False,
        "telemetry": None,
    }
    for key, value in system_kwargs.items():
        if key not in defaults:
            raise BackendUnsupported(
                f"functional backend does not accept system option {key!r}"
            )
        if value != defaults[key]:
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
    replayable scope (telemetry, snapshots, …), and the event engine's own
    errors for a bad policy option or placement.
    """
    policy_name = _SUPPORTED_POLICIES.get(policy.lower())
    if policy_name is None:
        raise BackendUnsupported(
            f"functional backend does not support policy {policy!r} "
            "(supported: baseline, mostly-inclusive, least-tlb)"
        )
    policy_options = policy_options or {}
    is_least = policy_name == "least-tlb"
    if is_least:
        mode, race_ptw, remote_probes, spilling, receiver_policy = (
            least_tlb_options(workload.kind, **policy_options)
        )
    else:
        check_no_options(policy_name, policy_options)
        mode, race_ptw, remote_probes, spilling, receiver_policy = (
            "single", True, True, False, "counter"
        )
    _check_supported(config, **system_kwargs)
    workload.check_placements(config.num_gpus)

    # -- construction (mirrors MultiGPUSystem.__init__ order) ---------------
    num_gpus = config.num_gpus
    page_tables = PageTableManager(levels=config.page_table_levels)
    l1_cfg = config.gpu.l1_tlb
    l2_cfg = config.gpu.l2_tlb
    l1_assoc = l1_cfg.associativity

    gpus = [
        _GPU(g, SetAssociativeTLB(l2_cfg.num_entries, l2_cfg.associativity))
        for g in range(num_gpus)
    ]

    pcs: dict[int, dict[str, int]] = {pid: {} for pid in workload.pids}
    lat_count: dict[int, int] = {pid: 0 for pid in workload.pids}
    lat_total: dict[int, int] = {pid: 0 for pid in workload.pids}
    exec_time: dict[int, int] = {}
    measure_start: dict[int, int] = {}

    rerun = workload.kind == "multi"
    for placement in workload.placements:
        gpu = gpus[placement.gpu_id]
        for stream in placement.streams:
            cu = _CU()
            cu.gid = placement.gpu_id
            cu.pid = placement.pid
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
            l1 = SetAssociativeTLB(l1_cfg.num_entries, l1_assoc)
            cu.l1_only = l1.only_set
            cu.l1_sets = l1.sets
            cu.l1_mask = l1.index_mask
            cu.l1_nsets = l1.num_sets
            cu.gpu = gpu
            gpu.cus.append(cu)

    remaining: dict[int, int] = {}
    for gpu in gpus:
        for cu in gpu.cus:
            if cu.measured_remaining:
                remaining[cu.pid] = remaining.get(cu.pid, 0) + 1
    pids_pending = set(remaining)

    if prefault:
        for pid, vpns in workload.footprints.items():
            page_tables.prefault(pid, vpns.tolist())

    tracker = (
        LocalTLBTracker(config.tracker, num_gpus, seed=config.seed)
        if is_least
        else None
    )
    receivers = (
        SpillReceiverSelector(receiver_policy, num_gpus, config.seed)
        if is_least
        else None
    )
    multi_probe_removes = probe_removes_entry(mode)

    stream_rec: list[tuple[int, int]] | None = [] if record_iommu_stream else None

    # -- protocol-global scalars -------------------------------------------
    l1l2_lat = l1_cfg.lookup_latency + l2_cfg.lookup_latency
    l2_lookup_lat = l2_cfg.lookup_latency
    iommu_lookup_lat = config.iommu.tlb.lookup_latency
    cfg_budget = config.spill_budget
    fault_latency = config.iommu.fault_handling_latency

    # The event engine's links, walker pool, PRI batcher and pending table
    # (IOMMU.__init__); the topology binds each link's sender once.
    topology = Topology(num_gpus, config.interconnect)
    up_send = topology.send_to_iommu
    down_send = topology.send_from_iommu
    probe_send = topology.send_probe
    gpu_to_gpu = topology.gpu_to_gpu
    walkers = WalkerPool(page_tables, config.iommu, num_gpus)
    walk_finish = walkers.finish
    walk_cancel = walkers.cancel
    pri = PRIQueue(config.iommu)
    pri_expire = pri.expire
    pending = PendingTable()
    pend_get = pending.get
    pend_create = pending.create
    maybe_remove = pending.maybe_remove

    # The IOMMU TLB, built as IOMMU.__init__ builds it; it keeps the
    # Eviction Counters (``ec``) through every insert and remove.
    io_cfg = config.iommu.tlb
    io_tlb = SetAssociativeTLB(
        None if config.iommu.infinite_tlb else io_cfg.num_entries,
        io_cfg.associativity,
        owners=num_gpus,
    )
    ec = io_tlb.owner_counts

    ist: dict[str, int] = {}  # IOMMU CounterSet mirror
    # The three hottest IOMMU counters run as plain ints and fold into
    # ``ist`` after the loop (they are +1 increments, so key-existence ⇔
    # a positive count, exactly like the engine's defaultdict).
    ist_requests = 0
    ist_hit = 0
    ist_miss = 0
    probe_rotor = 0

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

    def spill_iommu_victim(
        vkey,
        vval,
        now,
        seq,
        _heap=heap,
        _push=heappush,
        _ist=ist,
        _ec=ec,
        _probe=probe_send,
        _spilling=spilling,
        _select=receivers.select if receivers is not None else None,
    ):
        """LeastTLBPolicy.on_iommu_tlb_evicted."""
        budget = vval & BUDGET_MASK
        if not should_spill_victim(_spilling, budget):
            return seq
        receiver = _select(_ec)
        _ist["spills"] = _ist.get("spills", 0) + 1
        skey = f"spills_to_gpu{receiver}"
        _ist[skey] = _ist.get(skey, 0) + 1
        _push(
            _heap,
            (
                _probe[receiver](now),
                seq,
                _SPILL,
                receiver,
                vkey,
                vkey >> PID_BITS,
                pack_payload(vval >> FRAME_SHIFT, receiver, budget - 1),
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
        _up=up_send,
    ):
        """GPUDevice._insert_l2 with the policy's fill/eviction hooks."""
        mask = gpu.l2_mask
        refresh = key in gpu.l2_sets[vpn & mask if mask >= 0 else vpn % gpu.l2_nsets]
        victim = gpu.l2.insert(key, value)
        if refresh:
            # Duplicate fill: the payload was refreshed, no tracker churn.
            return seq
        if _least:
            _tracker.register(gpu.gid, key & PID_MASK, vpn)
            if victim is not None:
                vkey, vval = victim
                _tracker.unregister(gpu.gid, vkey & PID_MASK, vkey >> PID_BITS)
                if not should_reenter_iommu(_spilling, vval & BUDGET_MASK):
                    _ist["spilled_discarded"] = _ist.get("spilled_discarded", 0) + 1
                else:
                    g = gpu.gid
                    _push(_heap, (_up[g](now), seq, _VICTIM, g, vkey, vval))
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
        _down=down_send,
        _lat_c=lat_count,
        _lat_t=lat_total,
        _budget=cfg_budget,
    ):
        """IOMMU.respond over the host down-links, budget = config's."""
        for w in waiters:
            wg = w[0]
            arrival = _down[wg](now)
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

    def start_walk(
        req,
        p,
        now,
        seq,
        _heap=heap,
        _push=heappush,
        _pcs=pcs,
        _request=walkers.request,
    ):
        """policy._start_walk + IOMMU.start_walk."""
        p.walk_pending = True
        if req[5]:
            pc = _pcs[req[1]]
            pc["walks"] = pc.get("walks", 0) + 1
        ticket = WalkTicket(req[1], req[2], req[0], req, now)
        p.walk_ticket = ticket
        if _request(ticket) is None:
            return seq
        _push(_heap, (now + ticket.cycles, seq, _WALK_DONE, ticket))
        return seq + 1

    def deliver(
        req,
        p,
        ppn,
        now,
        seq,
        _ist=ist,
        _least=is_least,
        _ins=io_tlb.insert,
        _resp=respond,
        _rm=maybe_remove,
    ):
        """policy._deliver_walk_result (walk success or serviced fault)."""
        if p.served:
            _ist["walks_wasted"] = _ist.get("walks_wasted", 0) + 1
        else:
            p.served = True
            p.result_ppn = ppn
            if not _least:
                # Mostly-inclusive: the walk result also fills the IOMMU
                # TLB, owned by the requester with a spill budget of 1.
                _ins(req[3], pack_payload(ppn, req[0], 1))
                # Baseline on_iommu_tlb_evicted is a no-op for the victim.
            seq = _resp(p.waiters, ppn, "served_walk", "responses_walk", now, seq)
            p.waiters = []
        _rm(p)
        return seq

    def report_fault(
        req,
        now,
        seq,
        _heap=heap,
        _push=heappush,
        _pcs=pcs,
        _ist=ist,
        _report=pri.report,
        _flat=fault_latency,
        _timeout=pri.timeout,
    ):
        """IOMMU.report_fault."""
        if req[5]:
            pc = _pcs[req[1]]
            pc["page_faults"] = pc.get("page_faults", 0) + 1
        _ist["page_faults"] = _ist.get("page_faults", 0) + 1
        action = _report(req)
        if action is None:
            return seq
        if isinstance(action, list):
            _push(_heap, (now + _flat, seq, _PRI_BATCH, action))
        else:
            _push(_heap, (now + _timeout, seq, _PRI_TIMEOUT, action))
        return seq + 1

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
    pid_bits = PID_BITS
    frame_shift = FRAME_SHIFT

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
            m_runs = m_acc = m_hit = m_miss = 0
            while True:
                i = cu.index
                vpn = vpns[i]
                measured = cu.round == 0 and i >= warmup
                key = (vpn << pid_bits) | pid
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
                # Next run (as GPUDevice._issue moves on) + issue-window
                # bookkeeping.
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
                    s[key] = value
                    s.move_to_end(key)
                else:
                    if len(s) >= l1_assoc:
                        s.popitem(last=False)
                    s[key] = value
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
            push(heap, (up_send[g](now), seq, _IOMMU_RECEIVE, req))
            seq += 1

        elif code == 2:  # _FILL: (gpu_id, key, vpn, pid, ppn, budget)
            g = ev[3]
            key = ev[4]
            vpn = ev[5]
            gpu = gpus[g]
            value = pack_payload(ev[7], g, ev[8])
            seq = insert_l2(gpu, key, vpn, value, now, seq)
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
                        s[key] = value
                        s.move_to_end(key)
                    else:
                        if len(s) >= l1_assoc:
                            s.popitem(last=False)
                        s[key] = value
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
            value = io_tlb.lookup(key)
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
                    io_tlb.remove(key)
                seq = respond(
                    [req], value >> frame_shift, "served_iommu", "responses_iommu",
                    now, seq,
                )
                continue
            ist_miss += 1
            p = pend_get(key)
            if p is not None:
                if p.served:
                    seq = respond(
                        [req], p.result_ppn, "served_pending", "responses_pending",
                        now, seq,
                    )
                else:
                    p.waiters.append(req)
                continue
            p = pend_create(key, req, req[4])
            if not is_least:
                seq = start_walk(req, p, now, seq)
                continue
            rg = req[0]
            vpn = req[2]
            targets = [t for t in tracker.query(req[1], vpn) if t != rg]
            probing = bool(targets) and remote_probes
            if probing:
                p.remote_pending = True
                target, probe_rotor = choose_probe_target(targets, probe_rotor)
                if req[5]:
                    pc = pcs[req[1]]
                    pc["tracker_positive"] = pc.get("tracker_positive", 0) + 1
                arrival = probe_send[target](now)
                push(heap, (arrival + l2_lookup_lat, seq, _PROBE, req, target, p))
                seq += 1
            if race_ptw or not probing:
                seq = start_walk(req, p, now, seq)

        elif code == 5:  # _WALK_DONE: (ticket) — IOMMU._walk_done
            ticket = ev[3]
            started = walk_finish(ticket, now)
            if started is not None:
                push(heap, (now + started.cycles, seq, _WALK_DONE, started))
                seq += 1
            # policy.on_walk_complete: a running walk keeps its entry.
            req = ticket.owner
            p = pend_get(req[3])
            p.walk_pending = False
            ppn = ticket.ppn
            if ppn is None:  # faulted
                if p.served:
                    maybe_remove(p)
                elif not p.fault_pending:
                    p.fault_pending = True
                    seq = report_fault(req, now, seq)
            else:
                seq = deliver(req, p, ppn, now, seq)

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
                    ppn = value >> frame_shift
                    p.result_ppn = ppn
                    # policy._respond_from_remote over the peer fabric.
                    waiters = p.waiters
                    for w in waiters:
                        wg = w[0]
                        arrival = gpu_to_gpu(target, wg, now)
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
                    # Squash the racing walk if it is still queued.
                    ticket = p.walk_ticket
                    if p.walk_pending and ticket is not None:
                        if walk_cancel(ticket):
                            p.walk_pending = False
                            p.walk_ticket = None
            else:
                ist["tracker_false_positives"] = (
                    ist.get("tracker_false_positives", 0) + 1
                )
                if not p.served and not (
                    p.walk_pending or p.remote_pending or p.fault_pending
                ):
                    seq = start_walk(req, p, now, seq)
            maybe_remove(p)

        elif code == 7:  # _VICTIM: (gpu_id, key, payload)
            # policy._victim_arrived: the L2 victim re-enters the IOMMU TLB
            # with the sender recorded as its owner — already the owner of
            # every payload in that sender's L2.
            victim = io_tlb.insert(ev[4], ev[5])
            if victim is not None:
                seq = spill_iommu_victim(victim[0], victim[1], now, seq)

        elif code == 8:  # _SPILL: (gpu_id, key, vpn, payload)
            # GPUDevice.receive_spill: insert only, no MSHR waiters.
            seq = insert_l2(gpus[ev[3]], ev[4], ev[5], ev[6], now, seq)

        elif code == 9:  # _PRI_TIMEOUT: (generation) — IOMMU._pri_timeout
            batch = pri_expire(ev[3])
            if batch is not None:
                push(heap, (now + fault_latency, seq, _PRI_BATCH, batch))
                seq += 1

        else:  # _PRI_BATCH: (batch) — IOMMU._pri_batch_done
            for req in ev[3]:
                ppn = page_tables.map_page(req[1], req[2])
                # policy.on_fault_serviced: a pending fault keeps its entry.
                p = pend_get(req[3])
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
        policy_name=policy_name,
        total_cycles=now,
        apps=apps,
        iommu_counters=ist,
        walker_counters=walkers.stats.as_dict(),
        walker_queue_wait_mean=walkers.queue_wait.mean,
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
