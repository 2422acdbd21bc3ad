#!/usr/bin/env python3
"""Compare benchmark results of a parent and a change.

::

    python3 bench/compare.py PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]

Arguments alternate parent and change; each is a results JSON written
by ``bench/run.py`` (one or all workloads).  For every (workload,
metric) it prints each side's median and quartiles, and for the
end-to-end metrics of ``BENCHMARK.json`` a verdict:

* ``worse``: the change's median is worse than the parent's by more
  than the metric's bound (exit status 1);
* ``unresolved``: the run-to-run spread (quartile distance over median)
  of either side is wider than the bound, and not every change run
  beats every parent run;
* ``better``: with at least ten pairs, the change wins at least nine
  tenths of them (ties count for neither) and the medians are further
  apart than the parent's quartile distance;
* ``unchanged``: otherwise.

Any difference in a ``model.*`` value or the model digest is flagged:
a change meant only to speed up the simulator must leave them identical.
With one file per side there is no run-to-run spread: the printed
quartiles are that run's own samples, and no metric is unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def collect(paths: list[str]) -> tuple[dict, dict]:
    """``(values, digests)``: per (workload, metric) one value per file,
    plus the within-run samples when there is a single file."""
    values: dict[tuple[str, str], dict] = {}
    digests: dict[str, set[str]] = {}
    for path in paths:
        data = json.loads(Path(path).read_text())
        for workload, body in data["workloads"].items():
            digests.setdefault(workload, set()).add(body["model_digest"])
            for metric, entry in body["metrics"].items():
                slot = values.setdefault((workload, metric),
                                         {"runs": [], "samples": [], "unit": entry["unit"]})
                slot["runs"].append(entry["value"])
                slot["samples"] = entry.get("samples", [entry["value"]])
    return values, digests


def spread_values(slot: dict) -> list[float]:
    return slot["runs"] if len(slot["runs"]) > 1 else slot["samples"]


def verdict(a: dict, b: dict, bound: float, lower_is_better: bool) -> str:
    def better(x: float, y: float) -> bool:
        return x < y if lower_is_better else x > y

    ma, mb = statistics.median(a["runs"]), statistics.median(b["runs"])
    several = len(a["runs"]) > 1 and len(b["runs"]) > 1
    qa, qb = quartiles(a["runs"]), quartiles(b["runs"])
    spread = max((qa[2] - qa[0]) / abs(qa[1]) if qa[1] else 0.0,
                 (qb[2] - qb[0]) / abs(qb[1]) if qb[1] else 0.0)
    if several and spread > bound:
        all_better = all(better(y, x) for x in a["runs"] for y in b["runs"])
        return "better" if all_better else "unresolved"
    change = (mb - ma) / abs(ma) if ma else 0.0
    if (change if lower_is_better else -change) > bound:
        return "worse"
    pairs = list(zip(a["runs"], b["runs"]))
    wins = sum(better(y, x) for x, y in pairs)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(mb - ma) > qa[2] - qa[0]:
        return "better"
    return "unchanged"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="+", help="results JSON files, parent first, alternating")
    args = parser.parse_args(argv)
    if len(args.results) < 2 or len(args.results) % 2:
        parser.error("give results files in parent/change pairs")
    declared = json.loads(BENCHMARK.read_text())
    e2e = {m["name"]: m for m in declared["end_to_end"]}
    directions = {m["name"]: m["better"] for m in declared["per_layer"]}

    a_vals, a_digests = collect(args.results[0::2])
    b_vals, b_digests = collect(args.results[1::2])
    breaches = 0
    print(f"{'workload':20s} {'metric':30s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'change':>8s}  verdict")
    for key in sorted(set(a_vals) & set(b_vals)):
        workload, metric = key
        a, b = a_vals[key], b_vals[key]
        qa, qb = quartiles(spread_values(a)), quartiles(spread_values(b))
        ma, mb = statistics.median(a["runs"]), statistics.median(b["runs"])
        change = f"{(mb - ma) / abs(ma):+.1%}" if ma else "-"
        if metric in e2e:
            spec = e2e[metric]
            result = verdict(a, b, spec["bound"], spec["better"] == "lower")
            breaches += result == "worse"
        elif metric.startswith("model."):
            result = "identical" if a["runs"] == b["runs"] else "MODEL DIFFERS"
        else:
            result = f"({directions.get(metric, 'no bound')})"
        print(f"{workload:20s} {metric:30s} "
              f"{ma:12.6g} [{qa[0]:10.6g}, {qa[2]:10.6g}] "
              f"{mb:12.6g} [{qb[0]:10.6g}, {qb[2]:10.6g}] {change:>8s}  {result}")
    for workload in sorted(set(a_digests) & set(b_digests)):
        same = a_digests[workload] == b_digests[workload]
        print(f"{workload:20s} model.digest {'identical' if same else 'MODEL DIFFERS'}")
    if breaches:
        print(f"{breaches} end-to-end metric(s) worse than their bound", file=sys.stderr)
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
