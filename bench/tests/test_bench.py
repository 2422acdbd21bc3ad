"""Tests of the benchmark itself: ``pytest bench/tests``.

Every workload runs at a tiny size, passed as function arguments, so
the whole file takes a couple of minutes on two cores.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402
from repro.sim.cache import ResultCache  # noqa: E402
from repro.sim.parallel import JobSpec  # noqa: E402
from repro.workloads.ingest import synthesize_k6_trace  # noqa: E402
from spans import Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY = {
    "sharing-event": {"scale": 0.01, "warm_per_cold": 1, "min_cold": 1, "setups": 1,
                      "sample": 1},
    "spilling-functional": {"scale": 0.01, "warm_per_cold": 1, "min_cold": 1,
                            "setups": 1, "sample": 1},
    "serve-closed-loop": {"scale": 0.01, "min_cold": 2, "boots": 1, "sample": 1},
    "trace-ingest": {"accesses": 20_000, "footprint_pages": 1024, "setups": 1,
                     "min_runs": 1},
}


def run_tiny(tmp: Path, name: str, *, trace: bool, seed: int = 3) -> suite.Report:
    tmp.mkdir(parents=True, exist_ok=True)
    ctx = suite.Context(ROOT, tmp, seed, 0.0, trace)
    return suite.WORKLOADS[name](ctx, **TINY[name])


@pytest.fixture(scope="module")
def reports(tmp_path_factory) -> dict:
    out = {}
    for name in suite.WORKLOADS:
        for trace in (False, True):
            out[name, trace] = run_tiny(tmp_path_factory.mktemp("w"), name, trace=trace)
    return out


def test_declaration_is_within_the_limits():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert DECLARED["command"][:2] == ["python3", "bench/run.py"]
    assert DECLARED["paths"] == ["bench"]
    assert 1 <= DECLARED["run_seconds"] <= 60
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    assert [w["name"] for w in DECLARED["workloads"]] == list(suite.WORKLOADS)
    for workload in DECLARED["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names))
    for metric in DECLARED["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DECLARED["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")


@pytest.mark.parametrize("name", list(suite.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted_with_its_unit(reports, name, trace):
    report = reports[name, trace]
    assert report.failed == 0, report.failures
    assert report.attempted >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    for metric in declared:
        assert report.metrics[metric["name"]]["unit"] == metric["unit"], metric["name"]
    for metric_name, entry in report.metrics.items():
        assert NAME.match(metric_name) and UNIT.match(entry["unit"])
    assert re.fullmatch(r"[0-9a-f]{64}", report.model_digest)


@pytest.mark.parametrize("name", list(suite.WORKLOADS))
def test_traced_self_times_are_nonnegative_and_fit_the_wall(reports, name):
    tracer = reports[name, True].tracer
    own = tracer.self_times()
    assert own and all(seconds >= -1e-9 for seconds in own.values())
    # Self times telescope to the root spans; each thread's fit the wall.
    per_thread: dict[int, float] = {}
    for span in tracer.spans:
        if span["parent"] is None:
            per_thread[span["thread"]] = (per_thread.get(span["thread"], 0.0)
                                          + span["end"] - span["start"])
    assert sum(own.values()) == pytest.approx(sum(per_thread.values()))
    assert all(total <= tracer.wall() for total in per_thread.values())


@pytest.mark.parametrize("name", list(suite.WORKLOADS))
def test_same_seed_gives_identical_model(reports, tmp_path, name):
    again = run_tiny(tmp_path, name, trace=False)
    first = reports[name, False]
    model = {k: v["value"] for k, v in first.metrics.items() if k.startswith("model.")}
    assert model == {k: v["value"] for k, v in again.metrics.items() if k.startswith("model.")}
    assert first.model_digest == again.model_digest


def test_result_mismatch_counts_as_failed(monkeypatch, tmp_path):
    real = suite.simulate

    def off_by_one(*args, **kwargs):
        result = real(*args, **kwargs)
        result.total_cycles += 1
        return result

    monkeypatch.setattr(suite, "simulate", off_by_one)
    report = run_tiny(tmp_path, "trace-ingest", trace=False)
    assert report.failed >= 1
    assert any("event-engine run" in failure for failure in report.failures)


def test_run_traced_equals_execute(tmp_path):
    trace = synthesize_k6_trace(tmp_path / "t.k6.gz", accesses=5000,
                                footprint_pages=256, seed=2)
    specs = [
        JobSpec("single", "MM", "least-tlb", None, 0.01, 4),
        JobSpec("multi", "W3", "least-tlb", None, 0.01, 4, backend="functional"),
        JobSpec("alone", "ST", "baseline", None, 0.01, 4),
        JobSpec("trace", str(trace), "least-tlb", None, 0.5, None,
                options=(("split", "address-hash"),)),
    ]
    tracer = Tracer()
    cache = ResultCache(tmp_path / "cache")
    for spec in specs:
        assert suite.plain(suite.run_traced(tracer, spec, cache)) == suite.plain(spec.execute())
        other = replace(spec, backend="event" if spec.backend == "functional" else "functional")
        assert suite.plain(suite.run_traced(tracer, other, cache)) == suite.plain(spec.execute())
    names = {span["name"] for span in tracer.spans}
    assert {"cache.key", "workloads.build", "sim.event", "sim.functional",
            "reporting.to_dict", "reporting.json", "cache.put", "cache.get"} <= names


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_is_the_result_object(monkeypatch, trace):
    monkeypatch.setitem(suite.WORKLOADS, "trace-ingest",
                        partial(suite.WORKLOADS["trace-ingest"], **TINY["trace-ingest"]))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", "trace-ingest", "--seed", "5",
                         "--seconds", "0", "--trace", str(trace)])
    last = json.loads(stdout.getvalue().strip().splitlines()[-1])
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "trace-ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _results(tmp: Path, name: str, values: dict, digest: str = "d") -> str:
    metrics = {k: {"value": v, "unit": "s", "n": 1} for k, v in values.items()}
    path = tmp / name
    path.write_text(json.dumps({"workloads": {"w": {"metrics": metrics,
                                                    "model_digest": digest}}}))
    return str(path)


def test_compare_flags_a_bound_breach(tmp_path, capsys):
    parent = _results(tmp_path, "a.json", {"cold_s": 1.0, "model.events": 5})
    change = _results(tmp_path, "b.json", {"cold_s": 1.5, "model.events": 6}, digest="e")
    assert compare.main([parent, change]) == 1
    out = capsys.readouterr().out
    assert "worse" in out and "MODEL DIFFERS" in out


def test_compare_needs_nine_of_ten_pairs_to_call_a_win(tmp_path, capsys):
    files = []
    for i in range(10):
        files.append(_results(tmp_path, f"a{i}.json", {"cold_s": 1.0 + 0.001 * i}))
        files.append(_results(tmp_path, f"b{i}.json", {"cold_s": 0.95 + 0.001 * i}))
    assert compare.main(files) == 0
    assert " better" in capsys.readouterr().out
    same = [_results(tmp_path, "s.json", {"cold_s": 1.0})] * 2
    assert compare.main(same) == 0
    assert "unchanged" in capsys.readouterr().out
