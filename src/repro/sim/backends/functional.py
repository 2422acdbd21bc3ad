"""Functional fast-path backend: exact-schedule replay of the translation
protocol.

The event engine (:mod:`repro.engine` + :mod:`repro.sim.system`) executes a
workload as a heap of ``(time, seq, callback, args)`` events whose callbacks
thread through GPU devices, policies, the IOMMU, the walker pool, and link
objects.  For statistics-only runs (hit/miss/eviction/spill counters,
sharing degrees, latency means) the callback indirection is not needed —
only the *decisions* it makes and the *order* it makes them in.

:func:`run_functional` is a second run loop over the engine's own
:class:`~repro.sim.system.MultiGPUSystem`.  It replays the **identical
event schedule** — same events, at the same cycles, in the same
same-cycle FIFO order — through one flat loop:

* events are plain tuples ``(time, seq, code, args...)`` on one ``heapq``;
  ``code`` is a small int dispatched by an if/elif ladder ordered by
  frequency (no callback indirection, no ATSRequest allocation);
* the state is the system's: its ``ComputeUnit``\\ s, L1/L2 TLBs and MSHRs,
  the per-application counter sets and latency accumulators, the IOMMU's
  TLB (which keeps the Eviction Counters), pending table, walker pool and
  PRI batcher, the ``Topology`` links, the page tables, and the policy's
  tracker and spill-receiver selector.  The per-access reads (the L1
  probe, the L2 probe) and the L1 fills run inline on the TLBs' set
  lists; every other update calls the structures' methods;
* protocol decisions (spill receiver, probe target, budget gates) come
  from :mod:`repro.core.protocol` — the same kernel the event engine
  calls — so the two backends cannot drift;
* the measurement rule (:meth:`MultiGPUSystem.note_cu_first_run_done`),
  the stall check and the result assembly are the system's, shared with
  :meth:`MultiGPUSystem.run`.

Because the schedule is identical, every observable of
:class:`repro.sim.results.SimulationResult` — ``total_cycles``,
``events_executed``, per-application counters, latency means, IOMMU and
walker counters, tracker statistics, metadata — is **bit-identical** to the
event engine's.  The speedup is a constant factor (no callback per event,
no guard branches for telemetry, no request objects), not an
approximation.

Scope: the replay covers the statistics-relevant configuration space —
``baseline``/``mostly-inclusive``/``least-tlb`` policies under either
walker scheduler, no telemetry / snapshots / shootdowns / invariant checks /
watchdog / local page tables.  :func:`_check_supported` reads the built
system and raises :class:`BackendUnsupported` for anything else; run such
a configuration on the event engine (``backend="event"``).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any

from repro.core.least_tlb import LeastTLBPolicy
from repro.core.protocol import (
    choose_probe_target,
    should_reenter_iommu,
    should_spill_victim,
)
from repro.iommu.page_walker import WalkTicket
from repro.policies.mostly_inclusive import MostlyInclusivePolicy
from repro.sim.backends import BackendUnsupported
from repro.sim.results import SimulationResult
from repro.sim.system import MultiGPUSystem
from repro.structures.tlb import (
    BUDGET_MASK,
    FRAME_SHIFT,
    PID_BITS,
    PID_MASK,
    pack_payload,
)


#: The policy classes the replay runs.  Subclasses override hooks the
#: replay restates inline, so each must be exactly one of these.
_REPLAYED_POLICIES = (MostlyInclusivePolicy, LeastTLBPolicy)

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


def _check_supported(system: MultiGPUSystem) -> None:
    """Reject every built system whose observables depend on machinery
    the functional backend does not replay."""
    policy = system.policy
    if type(policy) not in _REPLAYED_POLICIES:
        raise BackendUnsupported(
            f"functional backend does not support policy {policy.name!r} "
            "(supported: baseline, mostly-inclusive, least-tlb)"
        )
    if system.config.local_page_tables:
        raise BackendUnsupported(
            "functional backend does not model local page tables (Figure 23)"
        )
    options: dict[str, Any] = {
        "snapshot_interval": system.snapshot_interval,
        "shootdown_interval": system.shootdown_interval,
        "check_invariants": system.invariants is not None,
        "watchdog": system.watchdog is not None,
        "telemetry": None if system.telemetry is None else system.telemetry.config,
    }
    for name, value in options.items():
        if value:
            raise BackendUnsupported(
                f"functional backend does not support {name}={value!r}; "
                "use the event backend"
            )


def run_functional(
    system: MultiGPUSystem,
    max_cycles: int | None = None,
    max_events: int | None = None,
) -> SimulationResult:
    """Run ``system`` on the replay loop and return a
    :class:`SimulationResult` bit-identical to ``system.run(...)``'s.

    Raises :class:`BackendUnsupported` for a system outside the replayable
    scope (telemetry, snapshots, …).  The system must be freshly built:
    the replay schedules every CU's first issue itself.
    """
    _check_supported(system)
    config = system.config
    policy = system.policy
    iommu = system.iommu
    gpus = system.gpus
    page_tables = system.page_tables

    # The policy's resolved options and its least-TLB state.
    is_least = type(policy) is LeastTLBPolicy
    if is_least:
        mode = policy.mode
        race_ptw = policy.race_ptw
        remote_probes = policy.remote_probes
        spilling = policy.spilling
        tracker = policy.tracker
        select_receiver = policy.receivers.select
        probe_removes = policy.probe_removes
        spills_to = policy.spills_to
    else:
        # Never read: the baseline neither probes a peer nor spills.
        mode = race_ptw = remote_probes = spilling = probe_removes = None
        tracker = select_receiver = spills_to = None

    # Per GPU, its L2's set lists and index geometry (for the inline
    # probe), its L2 and its MSHR table.
    l2_tlbs = [gpu.l2_tlb for gpu in gpus]
    l2_sets = [tlb.sets for tlb in l2_tlbs]
    l2_masks = [tlb.index_mask for tlb in l2_tlbs]
    l2_nsets = [tlb.num_sets for tlb in l2_tlbs]
    mshrs = [gpu.mshr for gpu in gpus]

    stats_for = system.stats_for
    latency_for = system.latency_for
    measure_start = system.measure_start
    note_measure_start = system.note_measure_start
    note_done = system.note_cu_first_run_done
    stream_rec = system.iommu_stream

    # -- protocol-global scalars -------------------------------------------
    l1_cfg = config.gpu.l1_tlb
    l2_cfg = config.gpu.l2_tlb
    l1_assoc = l1_cfg.associativity
    l1l2_lat = l1_cfg.lookup_latency + l2_cfg.lookup_latency
    l2_lookup_lat = l2_cfg.lookup_latency
    iommu_lookup_lat = config.iommu.tlb.lookup_latency
    cfg_budget = config.spill_budget
    fault_latency = config.iommu.fault_handling_latency

    # The system's links, walker pool, PRI batcher, pending table and IOMMU
    # TLB; the topology binds each link's sender once.
    topology = system.topology
    up_send = topology.send_to_iommu
    down_send = topology.send_from_iommu
    probe_send = topology.send_probe
    gpu_to_gpu = topology.gpu_to_gpu
    walkers = iommu.walkers
    walk_finish = walkers.finish
    walk_cancel = walkers.cancel
    pri = iommu.pri
    pri_expire = pri.expire
    pending = iommu.pending
    pend_get = pending.get
    pend_create = pending.create
    maybe_remove = pending.maybe_remove
    io_tlb = iommu.tlb
    ec = io_tlb.owner_counts

    ist = iommu.stats
    probe_rotor = 0

    heap: list[tuple] = []
    seq = 0
    now = 0
    halted = system.halted

    # -- closures shared by several handlers --------------------------------
    # (the hottest paths — run completion, L1 fill, translation completion —
    # are inlined directly in the dispatch ladder; these cover colder edges)

    # The closures below take ``now``/``seq`` as parameters and return the
    # advanced ``seq``; every enclosing name they read is bound as a
    # default argument, never captured.  Both moves keep the replay loop's
    # hottest names (``heap``, ``now``, ``seq``, the per-GPU lists) plain
    # fast locals of ``run_functional`` instead of cell variables shared
    # with closures.

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
        _select=select_receiver,
        _spills_to=spills_to,
    ):
        """LeastTLBPolicy.on_iommu_tlb_evicted."""
        budget = vval & BUDGET_MASK
        if not should_spill_victim(_spilling, budget):
            return seq
        receiver = _select(_ec)
        _ist["spills"] += 1
        _ist[_spills_to[receiver]] += 1
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
        g,
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
        _tlbs=l2_tlbs,
        _sets=l2_sets,
        _masks=l2_masks,
        _nsets=l2_nsets,
    ):
        """GPUDevice._insert_l2 with the policy's fill/eviction hooks."""
        mask = _masks[g]
        refresh = key in _sets[g][vpn & mask if mask >= 0 else vpn % _nsets[g]]
        victim = _tlbs[g].insert(key, value)
        if refresh:
            # Duplicate fill: the payload was refreshed, no tracker churn.
            return seq
        if _least:
            _tracker.register(g, key & PID_MASK, vpn)
            if victim is not None:
                vkey, vval = victim
                _tracker.unregister(g, vkey & PID_MASK, vkey >> PID_BITS)
                if not should_reenter_iommu(_spilling, vval & BUDGET_MASK):
                    _ist["spilled_discarded"] += 1
                else:
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
        _stats_for=stats_for,
        _latency_for=latency_for,
        _ist=ist,
        _down=down_send,
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
                stats = _stats_for(pid)
                stats[skey] += 1
                _latency_for(pid).record(arrival - w[4])
        _ist[rkey] += len(waiters)
        return seq

    def start_walk(
        req,
        p,
        now,
        seq,
        _heap=heap,
        _push=heappush,
        _stats_for=stats_for,
        _request=walkers.request,
    ):
        """policy._start_walk + IOMMU.start_walk."""
        p.walk_pending = True
        if req[5]:
            stats = _stats_for(req[1])
            stats["walks"] += 1
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
            _ist["walks_wasted"] += 1
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
        _stats_for=stats_for,
        _ist=ist,
        _report=pri.report,
        _flat=fault_latency,
        _timeout=pri.timeout,
    ):
        """IOMMU.report_fault."""
        if req[5]:
            stats = _stats_for(req[1])
            stats["page_faults"] += 1
        _ist["page_faults"] += 1
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
            if cu.num_runs:
                heappush(heap, (cu.gaps[0], seq, _ISSUE, cu))
                seq += 1

    # -- the replay loop -----------------------------------------------------
    # Every event popped is executed, so the count is ``seq - len(heap)``,
    # as for EventQueue.events_executed; a run with no cycle or event
    # bound (the common case) tests none per event.
    bounded = max_cycles is not None or max_events is not None
    until = float("inf") if max_cycles is None else max_cycles
    cap = float("inf") if max_events is None else max_events
    pop = heappop
    push = heappush
    pid_bits = PID_BITS
    frame_shift = FRAME_SHIFT

    while heap:
        if bounded:
            if heap[0][0] > until:
                if until > now:
                    now = int(until)
                break
            if seq - len(heap) >= cap:
                break
        ev = pop(heap)
        now = ev[0]
        code = ev[2]

        if code == 0:  # _ISSUE: (cu) — GPUDevice._issue
            if halted:
                continue
            cu = ev[3]
            pid = cu.pid
            i = cu.index
            vpn = cu.vpns[i]
            measured = cu.execution_round == 0 and i >= cu.warmup
            key = (vpn << pid_bits) | pid
            l1 = cu.l1_tlb
            s = l1.only_set
            if s is None:
                m = l1.index_mask
                s = l1.sets[vpn & m if m >= 0 else vpn % l1.num_sets]
            hit = key in s
            if hit:
                s.move_to_end(key)
            if measured:
                if pid not in measure_start:
                    note_measure_start(pid, now)
                rep = cu.repeats[i]
                stats = cu.stats
                stats["runs"] += 1
                stats["accesses"] += rep
                if hit:
                    stats["l1_hit"] += rep
                else:
                    stats["l1_miss"] += 1
                    stats["l1_hit"] += rep - 1
            if hit:
                if measured:
                    cu.measured_remaining -= 1
                    if cu.measured_remaining == 0:
                        note_done(cu, now)
                        halted = system.halted
            else:
                cu.outstanding += 1
                push(heap, (now + l1l2_lat, seq, _L2_LOOKUP, cu, key, vpn, measured))
                seq += 1
            # Next run, wrapping to a re-execution round if the CU reruns
            # its stream.
            i += 1
            if i >= cu.num_runs:
                if not cu.rerun:
                    cu.index = i
                    continue
                i = 0
                cu.execution_round += 1
            cu.index = i
            rt = now + cu.gaps[i]
            cu.ready_time = rt
            if cu.outstanding < cu.slots:
                push(heap, (rt, seq, _ISSUE, cu))
                seq += 1
            else:
                cu.waiting_for_slot = True

        elif code == 1:  # _L2_LOOKUP: (cu, key, vpn, measured)
            cu = ev[3]
            key = ev[4]
            vpn = ev[5]
            measured = ev[6]
            g = cu.gpu_id
            m2 = l2_masks[g]
            s2 = l2_sets[g][vpn & m2 if m2 >= 0 else vpn % l2_nsets[g]]
            value = s2.get(key)
            if value is not None:
                s2.move_to_end(key)
                if measured:
                    stats = cu.stats
                    stats["l2_hit"] += 1
                # inlined fill_l1 + translation_done
                l1 = cu.l1_tlb
                s = l1.only_set
                if s is None:
                    m = l1.index_mask
                    s = l1.sets[vpn & m if m >= 0 else vpn % l1.num_sets]
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
                        note_done(cu, now)
                        halted = system.halted
                if cu.waiting_for_slot and cu.outstanding < cu.slots:
                    cu.waiting_for_slot = False
                    if not halted:
                        rt = cu.ready_time
                        push(heap, (rt if rt > now else now, seq, _ISSUE, cu))
                        seq += 1
                continue
            if measured:
                stats = cu.stats
                stats["l2_miss"] += 1
            mshr = mshrs[g]
            waiters = mshr.get(key)
            if waiters is not None:
                waiters.append((cu, measured, None))
                if measured:
                    stats["l2_mshr_merge"] += 1
                continue
            mshr[key] = [(cu, measured, None)]
            req = (g, cu.pid, vpn, key, now, measured)
            # policy.on_l2_miss: host up-link to the IOMMU.
            push(heap, (up_send[g](now), seq, _IOMMU_RECEIVE, req))
            seq += 1

        elif code == 2:  # _FILL: (gpu_id, key, vpn, pid, ppn, budget)
            g = ev[3]
            key = ev[4]
            vpn = ev[5]
            value = pack_payload(ev[7], g, ev[8])
            seq = insert_l2(g, key, vpn, value, now, seq)
            waiters = mshrs[g].pop(key, None)
            if waiters:
                for cu, measured, _ in waiters:
                    # inlined fill_l1 + translation_done
                    l1 = cu.l1_tlb
                    s = l1.only_set
                    if s is None:
                        m = l1.index_mask
                        s = l1.sets[vpn & m if m >= 0 else vpn % l1.num_sets]
                    if key in s:
                        s[key] = value
                        s.move_to_end(key)
                    else:
                        if len(s) >= l1_assoc:
                            s.popitem(last=False)
                        s[key] = value
                    cu.outstanding -= 1
                    if measured:
                        stats = cu.stats
                        stats["translations_filled"] += 1
                        cu.measured_remaining -= 1
                        if cu.measured_remaining == 0:
                            note_done(cu, now)
                            halted = system.halted
                    if cu.waiting_for_slot and cu.outstanding < cu.slots:
                        cu.waiting_for_slot = False
                        if not halted:
                            rt = cu.ready_time
                            push(heap, (rt if rt > now else now, seq, _ISSUE, cu))
                            seq += 1

        elif code == 3:  # _IOMMU_RECEIVE: (req)
            req = ev[3]
            ist["requests"] += 1
            if stream_rec is not None and req[5]:
                stream_rec.append((req[1], req[2]))
            push(heap, (now + iommu_lookup_lat, seq, _IOMMU_LOOKUP, req))
            seq += 1

        elif code == 4:  # _IOMMU_LOOKUP: (req) — policy.on_iommu_request
            req = ev[3]
            key = req[3]
            value = io_tlb.lookup(key)
            if req[5]:
                stats = stats_for(req[1])
                stats["iommu_lookup"] += 1
                stats["iommu_hit" if value is not None else "iommu_miss"] += 1
            if value is not None:
                ist["tlb_hit"] += 1
                if is_least:
                    # Victim-TLB move: the entry migrates to the requester.
                    io_tlb.remove(key)
                seq = respond(
                    [req], value >> frame_shift, "served_iommu", "responses_iommu",
                    now, seq,
                )
                continue
            ist["tlb_miss"] += 1
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
                    stats = stats_for(req[1])
                    stats["tracker_positive"] += 1
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
            m2 = l2_masks[target]
            s2 = l2_sets[target][vpn & m2 if m2 >= 0 else vpn % l2_nsets[target]]
            value = s2.get(key)
            if value is not None:
                if probe_removes:
                    del s2[key]
                else:
                    s2.move_to_end(key)
                if mode == "multi":
                    tracker.unregister(target, req[1], vpn)
                ist["remote_hits"] += 1
                if p.served:
                    ist["remote_wasted"] += 1
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
                            stats = stats_for(pid)
                            stats["remote_hit"] += 1
                            stats["served_remote"] += 1
                            latency_for(pid).record(arrival - w[4])
                    ist["responses_remote"] += len(waiters)
                    p.waiters = []
                    # Squash the racing walk if it is still queued.
                    ticket = p.walk_ticket
                    if p.walk_pending and ticket is not None:
                        if walk_cancel(ticket):
                            p.walk_pending = False
                            p.walk_ticket = None
            else:
                ist["tracker_false_positives"] += 1
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
            seq = insert_l2(ev[3], ev[4], ev[5], ev[6], now, seq)

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

    executed = seq - len(heap)
    if max_cycles is None:
        system.check_stalled(max_events, {
            "backend": "functional",
            "cycle": now,
            "events_executed": executed,
            "queue_length": len(heap),
            "queue_head": heap[0][0] if heap else None,
        })
    return system.collect_results(now, executed)
