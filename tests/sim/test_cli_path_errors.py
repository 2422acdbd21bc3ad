"""Path failures must follow the CLI error convention (docs/robustness.md):
exit code 2 and a one-line ``error:`` diagnostic — never a traceback.
"""

import pytest

from repro.cli import main


class TestUnwritableOutput:
    def test_trace_out_in_missing_directory(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "trace", "FIR", "--scale", "0.02",
                "--out", "/nonexistent-dir/trace.json",
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_bench_json_in_missing_directory(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "bench", "--only", "fig02_baseline_hit_rates",
                "--scale", "0.02", "--jobs", "1", "--no-cache",
                "--json", "/nonexistent-dir/report.json",
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: cannot write" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["run", "FIR", "--json", "/nonexistent-dir/report.json"],
        ["compare", "FIR", "--json", "/nonexistent-dir/report.json"],
        ["characterize", "FIR", "--json", "/nonexistent-dir/report.json"],
        ["run", "FIR", "--trace", "0.05", "--trace-out", "/nonexistent-dir/t.json"],
    ], ids=["run-json", "compare-json", "characterize-json", "run-trace-out"])
    def test_output_in_missing_directory(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--scale", "0.02"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: cannot write" in err
        assert "Traceback" not in err


class TestMissingInput:
    def test_run_missing_npz_workload(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "/nonexistent-dir/workload.npz", "--scale", "0.02"])
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_missing_npz_workload(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "/nonexistent-dir/workload.npz", "--scale", "0.02"])
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestFunctionalBackendCli:
    def test_run_functional_backend(self):
        assert main([
            "run", "FIR", "--scale", "0.02", "--backend", "functional",
        ]) == 0

    def test_run_functional_backend_out_of_scope(self, capsys):
        # The invariant checker is outside the fast path's scope: refuse
        # with the CLI convention instead of silently running unchecked.
        with pytest.raises(SystemExit) as excinfo:
            main([
                "run", "FIR", "--scale", "0.02", "--backend", "functional",
                "--check-invariants",
            ])
        assert excinfo.value.code == 2
        assert "error: --backend functional" in capsys.readouterr().err


class TestRemovedOptions:
    """``--backend vectorized``, ``--shards`` and the retired fault-plan
    flag of ``run`` are not options: naming one is an argparse usage
    error, never a silently different run."""

    @pytest.mark.parametrize(
        ("argv", "token"),
        [
            (["run", "FIR", "--backend", "vectorized"], "vectorized"),
            (["run", "FIR", "--shards", "2"], "--shards"),
            (["bench", "--only", "fig02*", "--shards", "2"], "--shards"),
            (["run", "FIR", "--faults", "drop-remote:0.01"], "--faults"),
        ],
        ids=["run-backend-vectorized", "run-shards", "bench-shards", "run-faults"],
    )
    def test_removed_option_is_usage_error(self, capsys, argv, token):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert token in err
        assert "Traceback" not in err
