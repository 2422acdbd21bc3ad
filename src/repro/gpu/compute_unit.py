"""Compute-unit replay state.

Each CU replays one :class:`~repro.workloads.trace.CUStream` with a bounded
window of outstanding translations (``slots``) modelling wavefront-level
latency hiding: while fewer than ``slots`` translations are in flight the
CU keeps issuing at its trace-defined pace; once the window fills, issue
stalls until a translation completes.  Translation latency therefore
lengthens execution exactly when it exceeds what multithreading can hide —
the regime in which the paper reports translation consuming up to half of
runtime.
"""

from __future__ import annotations

from repro.engine.stats import CounterSet
from repro.structures.tlb import SetAssociativeTLB
from repro.workloads.trace import CUStream


class ComputeUnit:
    """Replay state of one CU.  Behaviour lives in
    :class:`repro.gpu.gpu_device.GPUDevice`, which reads these fields
    directly on every issue; this object is the bookkeeping.

    Run ``index`` of execution round ``execution_round`` issues next; a
    run is measured when it lies in the first round, past the ``warmup``
    prefix.  ``stats`` is the application's counter set, fetched once.
    """

    __slots__ = (
        "gpu_id",
        "cu_id",
        "pid",
        "stream",
        "slots",
        "index",
        "outstanding",
        "waiting_for_slot",
        "ready_time",
        "execution_round",
        "measured_remaining",
        "rerun",
        "vpns",
        "gaps",
        "repeats",
        "num_runs",
        "warmup",
        "l1_tlb",
        "stats",
    )

    def __init__(
        self,
        gpu_id: int,
        cu_id: int,
        pid: int,
        stream: CUStream,
        slots: int,
        rerun: bool,
        l1_tlb: SetAssociativeTLB,
        stats: CounterSet,
    ) -> None:
        self.gpu_id = gpu_id
        self.cu_id = cu_id
        self.pid = pid
        self.stream = stream
        self.slots = slots
        self.index = 0
        self.outstanding = 0
        self.waiting_for_slot = False
        self.ready_time = 0
        self.execution_round = 0
        self.measured_remaining = stream.measured_runs
        self.rerun = rerun
        # The issue path reads one (vpn, gap, repeats) triple per run;
        # indexing numpy arrays allocates a numpy scalar each time, so
        # materialise plain-int lists once up front (``tolist`` yields
        # Python ints, bit-identical to ``int(arr[i])``).
        self.vpns: list[int] = stream.vpns.tolist()
        self.gaps: list[int] = stream.gaps.tolist()
        self.repeats: list[int] = stream.repeats.tolist()
        self.num_runs = stream.num_runs
        self.warmup = stream.warmup_runs
        self.l1_tlb = l1_tlb
        """This CU's private L1 TLB."""
        self.stats = stats
