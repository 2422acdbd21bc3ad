"""The perf gate in ``scripts/bench_perf.py``: a gated baseline row the
run did not measure must fail the gate, never pass silently, the gated
sections must run at all, and a run may never overwrite the baseline it
is gated against."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_perf.py"


def _load_bench_perf():
    spec = importlib.util.spec_from_file_location("bench_perf", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(*names, eps=100.0):
    return [{"name": name, "events_per_sec": eps} for name in names]


BASELINE = {
    "kernel": _rows("MM-least-tlb", "W8-baseline"),
    "fastpath": _rows("MM-least-tlb", "W8-baseline"),
    "ingest": _rows("ingest-cold-parse"),
}


def _check(report):
    return _load_bench_perf().check_regression(report, BASELINE, 0.30)


def test_complete_report_passes():
    assert _check(BASELINE) == 0


def test_unmeasured_baseline_row_fails_and_is_named(capsys):
    report = {**BASELINE, "fastpath": _rows("MM-least-tlb")}
    assert _check(report) == 1
    out = capsys.readouterr().out
    assert "fastpath W8-baseline" in out
    assert "MISSING" in out


def test_regressed_row_fails():
    report = {**BASELINE, "kernel": _rows("MM-least-tlb", "W8-baseline", eps=50.0)}
    assert _check(report) == 1


def test_slow_rows_log_three_significant_digits(capsys):
    # A serve row runs a few jobs per second: the log must show how near
    # it came to its floor, not round 1.9 vs 1.87 (floor 1.31) to 2/2/1.
    baseline = {"serve": _rows("serve-e2e", eps=1.87)}
    report = {"serve": _rows("serve-e2e", eps=1.9)}
    assert _load_bench_perf().check_regression(report, baseline, 0.30) == 0
    line = capsys.readouterr().out.strip()
    assert line.split() == [
        "regression-check", "serve", "serve-e2e",
        "1.90", "vs", "baseline", "1.87", "(floor", "1.31)", "ok",
    ]


def test_ingest_section_measures_its_gated_rows():
    bench_perf = _load_bench_perf()
    rows = bench_perf.measure_ingest(accesses=20_000)
    assert [row["name"] for row in rows] == [
        "ingest-cold-parse", "ingest-digest-cold", "ingest-digest-cached",
    ]
    # Each row is a median over enough samples to carry an IQR.
    assert all(row["samples"] == bench_perf.SAMPLES for row in rows)
    assert all(row["wall_iqr"] >= 0 for row in rows)


def test_simulation_sections_measure_their_gated_rows():
    bench_perf = _load_bench_perf()
    kernel = bench_perf.measure_kernel(scale=0.01)
    fastpath = bench_perf.measure_fastpath(kernel, scale=0.01)
    names = ["MM-least-tlb", "W8-baseline"]
    assert [row["name"] for row in kernel] == [row["name"] for row in fastpath] == names
    for event, fast in zip(kernel, fastpath):
        # Both backends run the same schedule.
        assert (event["events"], event["total_cycles"]) == (
            fast["events"], fast["total_cycles"]
        )
        for row in (event, fast):
            assert row["samples"] == bench_perf.SAMPLES
            assert row["wall_iqr"] >= 0


def _fake_measurements(monkeypatch, bench_perf, eps):
    """Make every gated section report ``eps`` events/s without running."""
    monkeypatch.setattr(bench_perf, "measure_kernel",
                        lambda: _rows("MM-least-tlb", "W8-baseline", eps=eps))
    monkeypatch.setattr(bench_perf, "measure_fastpath",
                        lambda kernel: _rows("MM-least-tlb", "W8-baseline", eps=eps))
    monkeypatch.setattr(bench_perf, "measure_serve", lambda: [])
    monkeypatch.setattr(bench_perf, "measure_ingest",
                        lambda: _rows("ingest-cold-parse", eps=eps))


def test_slow_run_fails_against_a_separate_baseline(tmp_path, monkeypatch):
    bench_perf = _load_bench_perf()
    _fake_measurements(monkeypatch, bench_perf, eps=1.0)
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(BASELINE))
    output = tmp_path / "smoke.json"
    argv = ["--output", str(output), "--baseline", str(baseline)]
    assert bench_perf.main(argv) == 1
    assert json.loads(baseline.read_text()) == BASELINE
    assert json.loads(output.read_text())["kernel"][0]["events_per_sec"] == 1.0


def test_output_onto_the_baseline_is_refused(tmp_path, monkeypatch, capsys):
    """The run would overwrite the baseline and compare with itself: a 1
    event/s run then passes.  The gate exits 2 before measuring anything,
    whichever way the same file is spelled."""
    bench_perf = _load_bench_perf()
    _fake_measurements(monkeypatch, bench_perf, eps=1.0)
    monkeypatch.chdir(tmp_path)
    baseline = tmp_path / "BENCH_kernel.json"
    baseline.write_text(json.dumps(BASELINE))
    for output in ("BENCH_kernel.json", str(baseline), "./BENCH_kernel.json"):
        argv = ["--output", output, "--baseline", "BENCH_kernel.json"]
        assert bench_perf.main(argv) == 2
        assert json.loads(baseline.read_text()) == BASELINE
    assert "is the --baseline file" in capsys.readouterr().err


def test_unreadable_baseline_exits_2(tmp_path, monkeypatch):
    bench_perf = _load_bench_perf()
    _fake_measurements(monkeypatch, bench_perf, eps=100.0)
    output = tmp_path / "smoke.json"
    argv = ["--output", str(output), "--baseline", str(tmp_path / "absent.json")]
    assert bench_perf.main(argv) == 2
    assert not output.exists()
