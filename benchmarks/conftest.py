"""Benchmark-suite fixtures: the session's runs of the experiment matrix."""

import sys
from pathlib import Path

import pytest

from repro.sim.cache import ResultCache, fingerprint_digest
from repro.sim.parallel import BENCH_MATRIX, run_matrix
from repro.sim.results import SimulationResult

sys.path.insert(0, str(Path(__file__).parent))

from common import SCALE  # noqa: E402


@pytest.fixture(scope="session")
def runs():
    """``runs(family)`` → ``{label: SimulationResult}`` for one
    ``BENCH_MATRIX`` family at ``REPRO_SCALE``.

    Families run through :func:`~repro.sim.parallel.run_matrix` on the
    event engine (cache, dedup, workers and retries included), like
    ``repro bench``.  Results are kept by digest for the session, so a run
    two benches share simulates once even with ``REPRO_NO_CACHE=1``.
    """
    cache = ResultCache.from_env()
    done: dict[str, SimulationResult] = {}

    def run(family: str) -> dict:
        specs = BENCH_MATRIX[family](SCALE, None)
        digests = {label: fingerprint_digest(spec.fingerprint())
                   for label, spec in specs.items()}
        todo = [(family, spec) for label, spec in specs.items()
                if digests[label] not in done]
        failed = {}
        for outcome in run_matrix(todo, cache=cache):
            if outcome.result is None:
                failed[outcome.digest] = f"{outcome.status}: {outcome.error}"
            else:
                done[outcome.digest] = outcome.result
        if failed:
            pytest.fail(f"{family}: no result for " + "; ".join(
                f"{label} ({failed[d]})" for label, d in digests.items() if d in failed
            ))
        return {label: done[d] for label, d in digests.items()}

    return run
