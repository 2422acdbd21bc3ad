"""A deterministic budget on Python-level calls per simulated event.

Wall-clock gates drown a per-event regression in machine noise; the
number of Python function calls a run makes per executed event does not
move with the machine.  Each budget is the count measured when it was
set, plus 10%, so a property chain, a counter method call or another
per-event method layer that comes back fails here with no timing noise.

The count covers the simulation only: the workload (numpy-heavy) is
built, and the system constructed, before counting starts, so both
backends count the same work: one run loop over one built system.  A
warm-up run first imports everything lazily imported.

The budgets were measured on CPython 3.11 only.  Python 3.12 and later
inline comprehensions (PEP 709), which removes calls, so there the
budgets are looser than they read.
"""

from __future__ import annotations

import sys
from functools import partial

import pytest

from repro.config.presets import baseline_config
from repro.sim.backends import run_functional
from repro.sim.system import MultiGPUSystem
from repro.workloads.multi_app import build_multi_app_workload, build_single_app_workload

SCALE = 0.05

#: (backend, kind, workload, policy) -> Python calls per event when set.
MEASURED = {
    ("event", "single", "MM", "least-tlb"): 7.74,
    ("event", "multi", "W8", "baseline"): 6.22,
    ("functional", "single", "MM", "least-tlb"): 3.36,
    ("functional", "multi", "W8", "baseline"): 1.96,
}

HEADROOM = 1.10

_MAKE_WORKLOAD = {"single": build_single_app_workload, "multi": build_multi_app_workload}


def calls_per_event(backend: str, kind: str, workload: str, policy: str,
                    scale: float = SCALE) -> float:
    """Python ``call`` events (``sys.setprofile``) per executed event of
    one simulation, its workload built beforehand."""
    config = baseline_config()
    built = _MAKE_WORKLOAD[kind](workload, config, scale=scale)
    system = MultiGPUSystem(config, built, policy)
    run = system.run if backend == "event" else partial(run_functional, system)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return calls / result.events_executed


@pytest.mark.parametrize(
    "backend, kind, workload, policy", list(MEASURED), ids=str
)
def test_calls_per_event_within_budget(backend, kind, workload, policy):
    calls_per_event(backend, kind, workload, policy, scale=0.01)
    budget = MEASURED[backend, kind, workload, policy] * HEADROOM
    measured = calls_per_event(backend, kind, workload, policy)
    assert measured <= budget, (
        f"{backend} {workload}/{policy}: {measured:.2f} Python calls per event, "
        f"budget {budget:.2f}"
    )
