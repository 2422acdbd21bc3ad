"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  A bench
that simulates names the ``BENCH_MATRIX`` families
(:mod:`repro.sim.parallel`) whose runs it reads, and gets each from the
session's ``runs`` fixture (``conftest.py``) as ``{label: result}``.  It
prints the same rows/series the paper reports, writes them to
``benchmarks/results/<name>.txt``, and asserts the qualitative shape (who
wins, roughly by how much, where crossovers fall).

Families run through :func:`repro.sim.parallel.run_matrix` on the event
engine, exactly as ``repro bench`` runs them, so both share cache
entries: ``repro bench --only <family> --scale 0.5`` precomputes a
figure's runs in parallel and resumably.  Trace scale comes from
``REPRO_SCALE`` (default 0.5).  Absolute cycle numbers are
simulator-relative; the shapes are what reproduce.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.config.presets import baseline_config
from repro.sim.jobs import check_scale
from repro.sim.results import AppResult
from repro.workloads.multi_app import MULTI_APP_WORKLOADS, SINGLE_APP_NAMES

RESULTS_DIR = Path(__file__).parent / "results"

SCALE = check_scale(float(os.environ.get("REPRO_SCALE", "0.5")), "REPRO_SCALE")


def alone_refs(runs: dict, workloads) -> dict[str, AppResult]:
    """Alone-run references (weighted-speedup denominators) of every app
    in ``workloads``, from a family's ``(app, "alone")`` runs."""
    return {
        app: runs[app, "alone"].apps[1]
        for wl in workloads
        for app in MULTI_APP_WORKLOADS[wl][0]
    }


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
    "SCALE",
    "SINGLE_APP_NAMES",
    "MULTI_APP_WORKLOADS",
    "alone_refs",
    "baseline_config",
    "save_table",
]
