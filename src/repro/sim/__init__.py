"""Simulation assembly, drivers, result caching, and the parallel runner.

Public names load on first use (see :mod:`repro._lazy`): reading a
cached result imports neither numpy nor the simulator.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.sim.cache": ("ResultCache", "code_version_hash", "run_fingerprint"),
    "repro.sim.driver": (
        "run_alone",
        "run_mix",
        "run_multi_app",
        "run_single_app",
        "simulate",
    ),
    "repro.sim.results": ("AppResult", "SimulationResult", "Snapshot"),
    "repro.sim.system": ("MultiGPUSystem",),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
