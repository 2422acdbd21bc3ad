#!/usr/bin/env python3
"""Run the repository benchmark (see bench/README.md).

::

    python3 bench/run.py --seed 1                          # all workloads
    python3 bench/run.py --workload sharing-event --seed 1
    python3 bench/run.py --workload trace-ingest --seed 1 --trace 1

Untraced runs print the end-to-end metrics of ``BENCHMARK.json``; a run
with ``--trace 1`` re-runs the jobs in-process with spans and prints the
per-layer metrics instead.  Every metric measured is printed as
``workload metric value unit n=<samples>`` and stored in a results JSON
under ``bench/out/``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--seconds`` is the length of each workload's timed phase, part of the
benchmark's calling convention with ``--workload``, ``--seed`` and
``--trace``; it defaults to ``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="one workload name (default: every workload)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the generated inputs (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-phase length per workload (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 (or bare --trace): traced pass, per-layer metrics")
    return parser.parse_args(argv)


def machine_stamp(code_hash: str) -> dict:
    """What host times are relative to."""
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "code_hash": code_hash,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def print_report(report) -> None:
    for name in sorted(report.metrics):
        entry = report.metrics[name]
        print(f"{report.workload} {name} {entry['value']:.6g} {entry['unit']} n={entry['n']}")
    print(f"{report.workload} model.digest {report.model_digest}")
    print(f"{report.workload} check_s {report.check_s:.3f} s n=1")
    print(f"{report.workload} failed_frac {report.failed / max(1, report.attempted):.6g} "
          f"fraction n={report.attempted}")
    for failure in report.failures:
        print(f"{report.workload} FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    sys.path.insert(0, str(ROOT / "src"))
    import suite
    from repro.sim.cache import code_version_hash

    if args.workload is not None and args.workload not in suite.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(suite.WORKLOADS)

    reports = []
    for name in names:
        work = OUT_DIR / f"work-{name}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        ctx = suite.Context(ROOT, work, args.seed, seconds, bool(args.trace))
        try:
            report = suite.WORKLOADS[name](ctx)
        except suite.BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if args.trace and report.tracer is not None:
            report.tracer.dump(OUT_DIR / f"trace-{name}.json")
        print_report(report)
        reports.append(report)

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    metrics: dict[str, dict] = {}
    missing = []
    for report in reports:
        for metric in wanted:
            entry = report.metrics.get(metric["name"])
            if entry is None or entry["unit"] != metric["unit"]:
                missing.append(f"{report.workload}: {metric['name']} [{metric['unit']}]")
                continue
            key = metric["name"] if len(reports) == 1 else f"{report.workload}/{metric['name']}"
            metrics[key] = {"value": entry["value"], "unit": entry["unit"]}
    for item in missing:
        print(f"error: metric not emitted: {item}", file=sys.stderr)

    tag = args.workload or "all"
    results = OUT_DIR / f"results-{tag}-s{args.seed}-t{args.trace}.json"
    results.write_text(json.dumps({
        "machine": machine_stamp(code_version_hash()),
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "workloads": {
            r.workload: {
                "metrics": r.metrics, "attempted": r.attempted, "failed": r.failed,
                "failures": r.failures, "model_digest": r.model_digest,
                "check_s": r.check_s,
            }
            for r in reports
        },
    }, indent=1) + "\n")
    print(f"wrote {results.relative_to(ROOT)}")

    failed = sum(r.failed for r in reports) + len(missing)
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in reports) + len(missing),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
