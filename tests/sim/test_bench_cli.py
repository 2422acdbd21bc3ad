"""CLI tests for ``repro bench`` and the ``--profile`` flag."""

import json

import pytest

from repro.cli import main


def test_bench_list_exits_zero(capsys):
    assert main(["bench", "--list"]) == 0
    out = capsys.readouterr().out
    assert "fig14_single_app_perf" in out
    assert "jobs" in out


def test_bench_list_honours_only(capsys):
    assert main(["bench", "--list", "--only", "fig2*"]) == 0
    out = capsys.readouterr().out
    assert "fig21_gpu_scaling" in out
    assert "fig14_single_app_perf" not in out


def test_bench_unknown_only_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--only", "no-such-bench"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "no-such-bench" in err


def test_bench_cold_then_warm(tmp_path, capsys):
    argv = [
        "bench", "--only", "fig02_baseline_hit_rates", "--scale", "0.05",
        "--jobs", "1", "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "simulated, 0 failed)" in cold

    json_path = tmp_path / "summary.json"
    assert main(argv + ["--json", str(json_path)]) == 0
    warm = capsys.readouterr().out
    assert "hit" in warm
    summary = json.loads(json_path.read_text())
    assert summary["cache_hits"] == summary["unique_jobs"]
    assert summary["simulated"] == 0
    assert len(summary["outcomes"]) == summary["unique_jobs"]


def test_bench_no_cache_skips_store(tmp_path, capsys):
    argv = [
        "bench", "--only", "fig02_baseline_hit_rates", "--scale", "0.05",
        "--jobs", "1", "--cache-dir", str(tmp_path), "--no-cache",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert not list(tmp_path.glob("*.json"))


def test_bench_clear_cache(tmp_path, capsys):
    argv = [
        "bench", "--only", "fig02_baseline_hit_rates", "--scale", "0.05",
        "--jobs", "1", "--cache-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert list(tmp_path.glob("*.json"))
    assert main(argv + ["--clear-cache"]) == 0
    out = capsys.readouterr().out
    assert "cleared" in out


def _usage_error(argv, capsys, fragment):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and fragment in err


def test_bench_zero_jobs_is_usage_error(capsys):
    _usage_error(["bench", "--jobs", "0"], capsys, "--jobs")
    _usage_error(["bench", "--jobs", "-2"], capsys, "--jobs")


def test_bench_negative_retries_is_usage_error(capsys):
    _usage_error(["bench", "--retries", "-1"], capsys, "--retries")


def test_bench_nonpositive_timeout_is_usage_error(capsys):
    _usage_error(["bench", "--job-timeout", "0"], capsys, "--job-timeout")


def test_bench_resume_without_cache_is_usage_error(capsys):
    _usage_error(["bench", "--resume", "--no-cache"], capsys, "--resume")


def test_bench_bad_chaos_plan_is_usage_error(capsys):
    _usage_error(["bench", "--chaos", "no-such-site:1"], capsys, "--chaos")
    # A former protocol fault site is not a chaos site either.
    _usage_error(["bench", "--chaos", "drop-remote:0.5"], capsys, "--chaos")


def test_bench_profile_rejects_subprocess_chaos(capsys):
    _usage_error(["bench", "--profile", "--chaos", "kill-worker:1"], capsys,
                 "--profile")


def test_run_rejects_runner_chaos_sites(capsys):
    # Runner chaos is a sweep option: `repro run` has no --chaos.
    _usage_error(["run", "MM", "--chaos", "kill-worker:1"], capsys, "--chaos")


def test_bench_degraded_family_exits_three(tmp_path, capsys):
    code = main([
        "bench", "--only", "fig02_baseline_hit_rates", "--scale", "0.05",
        "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
        "--chaos", "fail-job:9", "--retries", "0",
    ])
    assert code == 3
    captured = capsys.readouterr()
    assert "no usable results" in captured.err
    assert "failed: " in captured.err  # the failed-jobs manifest lines


def test_bench_chaos_retry_recovers_and_reports(tmp_path, capsys):
    json_path = tmp_path / "summary.json"
    code = main([
        "bench", "--only", "fig02_baseline_hit_rates", "--scale", "0.05",
        "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
        "--chaos", "fail-job:1", "--retries", "1", "--json", str(json_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "resilience:" in out
    summary = json.loads(json_path.read_text())
    assert summary["failed"] == 0
    assert summary["retries"] == 1
    assert summary["failed_jobs"] == []
    assert summary["chaos"]["plan"] == "fail-job:1"
    assert summary["chaos"]["injected"] == {"fail-job": 1}
    assert {o["status"] for o in summary["outcomes"]} == {"ok"}
    assert max(o["attempts"] for o in summary["outcomes"]) == 2


def test_bench_resume_skips_finished_work(tmp_path, capsys):
    argv = [
        "bench", "--only", "fig02_baseline_hit_rates", "--scale", "0.05",
        "--jobs", "1", "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert (tmp_path / "cache" / "sweep-journal.jsonl").exists()
    json_path = tmp_path / "resumed.json"
    assert main(argv + ["--resume", "--json", str(json_path)]) == 0
    capsys.readouterr()
    summary = json.loads(json_path.read_text())
    assert summary["simulated"] == 0
    assert summary["cache_hits"] == summary["unique_jobs"]


def test_run_profile_smoke(tmp_path, capsys):
    dump = tmp_path / "run.prof"
    assert main([
        "run", "MM", "--scale", "0.05",
        "--profile", "--profile-dump", str(dump),
    ]) == 0
    err = capsys.readouterr().err  # pstats table goes to stderr
    assert "cumulative" in err
    assert dump.exists()


def test_bench_profile_forces_in_process(tmp_path, capsys):
    assert main([
        "bench", "--only", "fig02_baseline_hit_rates", "--scale", "0.05",
        "--cache-dir", str(tmp_path), "--profile",
    ]) == 0
    err = capsys.readouterr().err
    assert "cumulative" in err
