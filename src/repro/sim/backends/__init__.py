"""Simulation backends.

Two backends execute a workload:

* ``event`` — the full discrete-event engine
  (:class:`repro.sim.system.MultiGPUSystem`), modelling latency and
  contention explicitly.  Always available; always correct.
* ``functional`` — :func:`run_functional`, an exact-schedule replay that
  produces **bit-identical** counters, sharing degrees, and latency means
  for statistics-only runs at a fraction of the cost.  Raises
  :class:`BackendUnsupported` outside its replayable scope (non-LRU
  replacement, fault injection, telemetry, snapshots, …).
* ``vectorized`` — :func:`run_vectorized`, the same exact-schedule replay
  on a calendar event queue with numpy-chunked L1 resolution for long hit
  bursts.  Identical scope and bit-identical results to ``functional``;
  fastest on hit-heavy configurations.  ``--shards N``
  (:mod:`repro.sim.sharding`) composes with any backend.

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
BACKENDS = ("event", "functional", "vectorized")

DEFAULT_BACKEND = "event"


def validate_backend(backend: str) -> str:
    """Normalise and validate a backend name."""
    name = backend.lower()
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r} (expected one of {', '.join(BACKENDS)})"
        )
    return name


#: The backends themselves load on first use (see :mod:`repro._lazy`), so
#: validating a backend name or catching :class:`BackendUnsupported`
#: imports neither numpy nor the replay code.
_EXPORTS = {
    "repro.sim.backends.functional": ("run_functional",),
    "repro.sim.backends.vectorized": ("run_vectorized",),
}

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "BackendUnsupported",
    "run_functional",
    "run_vectorized",
    "validate_backend",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
