"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one table or figure of the paper: it runs the
required simulations (cached across benches in a session-scoped
:class:`ResultLab`), prints the same rows/series the paper reports, writes
them to ``benchmarks/results/<name>.txt``, and asserts the qualitative
shape (who wins, roughly by how much, where crossovers fall).

Trace scale comes from ``REPRO_SCALE`` (default 0.5).  Absolute cycle
numbers are simulator-relative; the shapes are what reproduce.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Callable

from repro.config.presets import baseline_config
from repro.config.system import SystemConfig
from repro.sim.backends import BACKENDS, BackendUnsupported
from repro.sim.cache import ResultCache, run_fingerprint
from repro.sim.driver import run_alone, run_mix, run_multi_app, run_single_app
from repro.sim.results import AppResult, SimulationResult
from repro.workloads.multi_app import MULTI_APP_WORKLOADS, SINGLE_APP_NAMES

RESULTS_DIR = Path(__file__).parent / "results"

DEFAULT_SCALE = float(os.environ.get("REPRO_SCALE", "0.5"))

#: Lab-wide backend selection: ``auto`` routes statistics-only calls
#: (``fast=True``) to the functional fast path and everything else to the
#: event engine; ``event``/``functional`` force one backend for all calls.
DEFAULT_BACKEND = os.environ.get("REPRO_BACKEND", "auto")


class ResultLab:
    """Caching simulation runner shared by every benchmark.

    Two cache layers: a per-session dictionary (keyed explicitly on the
    resolved scale and seed, so changing ``REPRO_SCALE`` between labs can
    never alias results) and the persistent on-disk
    :class:`~repro.sim.cache.ResultCache`, whose fingerprint covers the
    full config/workload/policy/scale/seed/code-version identity.  Set
    ``REPRO_NO_CACHE=1`` to disable the persistent layer.
    """

    def __init__(
        self,
        scale: float = DEFAULT_SCALE,
        seed: int | None = None,
        cache: ResultCache | None = None,
        backend: str = DEFAULT_BACKEND,
    ) -> None:
        if backend != "auto" and backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r} (expected auto or one of "
                f"{', '.join(BACKENDS)})"
            )
        self.scale = scale
        self.seed = seed
        self.backend = backend
        self.cache = ResultCache.from_env() if cache is None else cache
        self._session: dict[tuple, SimulationResult] = {}

    def _run(
        self,
        kind: str,
        workload: str,
        policy: str,
        config: SystemConfig | None,
        tag: str,
        kwargs: dict[str, Any],
        factory: Callable[[str], SimulationResult],
        fast: bool = False,
    ) -> SimulationResult:
        resolved = config if config is not None else baseline_config()
        seed = self.seed if self.seed is not None else resolved.seed
        backend = self.backend
        if backend == "auto":
            backend = "functional" if fast else "event"
        # Backends are cross-validated bit-identical, so a result already
        # simulated this session on any backend serves them all.
        base_key = (kind, workload, policy, tag, self.scale, seed)
        for b in BACKENDS:
            result = self._session.get((*base_key, b))
            if result is not None:
                return result

        def attempt(b: str) -> SimulationResult:
            fingerprint = run_fingerprint(
                kind=kind, workload=workload, policy=policy, config=resolved,
                scale=self.scale, seed=self.seed, options=kwargs, backend=b,
            )
            result = self.cache.get(fingerprint)
            if result is None:
                result = factory(b)
                self.cache.put(fingerprint, result)
            self._session[(*base_key, b)] = result
            return result

        if backend == "functional":
            try:
                return attempt(backend)
            except BackendUnsupported:
                if self.backend == backend:
                    raise  # explicitly requested: surface the limitation
                # ``auto``: run outside the fast path's scope on the engine.
        return attempt("event")

    def single(
        self,
        app: str,
        policy: str = "baseline",
        config: SystemConfig | None = None,
        tag: str = "base",
        fast: bool = False,
        **kwargs: Any,
    ) -> SimulationResult:
        return self._run(
            "single", app, policy, config, tag, kwargs,
            lambda backend: run_single_app(
                app, config, policy, scale=self.scale, seed=self.seed,
                backend=backend, **kwargs
            ),
            fast=fast,
        )

    def multi(
        self,
        workload: str,
        policy: str = "baseline",
        config: SystemConfig | None = None,
        tag: str = "base",
        fast: bool = False,
        **kwargs: Any,
    ) -> SimulationResult:
        return self._run(
            "multi", workload, policy, config, tag, kwargs,
            lambda backend: run_multi_app(
                workload, config, policy, scale=self.scale, seed=self.seed,
                backend=backend, **kwargs
            ),
            fast=fast,
        )

    def mix(
        self,
        workload: str,
        policy: str = "baseline",
        config: SystemConfig | None = None,
        tag: str = "base",
        fast: bool = False,
        **kwargs: Any,
    ) -> SimulationResult:
        return self._run(
            "mix", workload, policy, config, tag, kwargs,
            lambda backend: run_mix(
                workload, config, policy, scale=self.scale, seed=self.seed,
                backend=backend, **kwargs
            ),
            fast=fast,
        )

    def alone(
        self,
        app: str,
        tag: str = "base",
        config: SystemConfig | None = None,
        fast: bool = False,
    ) -> SimulationResult:
        return self._run(
            "alone", app, "baseline", config, tag, {},
            lambda backend: run_alone(
                app, config, "baseline", scale=self.scale, seed=self.seed,
                backend=backend,
            ),
            fast=fast,
        )

    def alone_refs(self, apps) -> dict[str, AppResult]:
        """Alone-run references for weighted speedup (fast-path eligible)."""
        return {app: self.alone(app, fast=True).apps[1] for app in set(apps)}

    def multi_app_names(self, workload: str) -> tuple[str, ...]:
        return MULTI_APP_WORKLOADS[workload][0]


def geometric_mean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def save_table(name: str, title: str, header: list[str], rows: list[list]) -> str:
    """Format, print, and persist one experiment's table."""
    RESULTS_DIR.mkdir(exist_ok=True)
    widths = [
        max(len(str(header[i])), *(len(_fmt(r[i])) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = [title, ""]
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(_fmt(v).ljust(widths[i]) for i, v in enumerate(row)))
    text = "\n".join(lines)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)
    return text


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


__all__ = [
    "ResultLab",
    "SINGLE_APP_NAMES",
    "MULTI_APP_WORKLOADS",
    "baseline_config",
    "geometric_mean",
    "save_table",
    "DEFAULT_SCALE",
    "DEFAULT_BACKEND",
]
