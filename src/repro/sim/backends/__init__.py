"""Simulation backends.

Both backends run one built :class:`repro.sim.system.MultiGPUSystem`;
they differ only in the run loop:

* ``event`` — :meth:`MultiGPUSystem.run`, the full discrete-event engine,
  modelling latency and contention explicitly.  Always available; always
  correct.
* ``functional`` — :func:`run_functional`, an exact-schedule replay over
  the same system's state that produces **bit-identical** results for
  statistics-only runs at a fraction of the cost.  Raises
  :class:`BackendUnsupported` for a system outside its replayable scope
  (other policies, telemetry, snapshots, …); such a run needs the event
  engine.

``docs/backends.md`` documents the scope and the cross-validation gates
(`scripts/check_fidelity.py`, the nightly CI fidelity job) that keep the
two in lock-step.
"""

from __future__ import annotations

from repro._lazy import lazy_exports


class BackendUnsupported(ValueError):
    """The requested configuration needs timing machinery the functional
    backend deliberately does not model; run the event engine instead."""


#: The valid values of every ``--backend`` flag / ``backend=`` parameter.
BACKENDS = ("event", "functional")

DEFAULT_BACKEND = "event"


def validate_backend(backend: str) -> str:
    """Validate a backend name; it must match a :data:`BACKENDS` entry
    exactly, so one backend has one spelling in labels and cache keys."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r} (expected one of {', '.join(BACKENDS)})"
        )
    return backend


#: The backends themselves load on first use (see :mod:`repro._lazy`), so
#: validating a backend name or catching :class:`BackendUnsupported`
#: imports neither numpy nor the replay code.
_EXPORTS = {
    "repro.sim.backends.functional": ("run_functional",),
}

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "BackendUnsupported",
    "run_functional",
    "validate_backend",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
