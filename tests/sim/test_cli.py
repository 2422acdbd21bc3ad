"""Unit tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import CONFIG_PRESETS, main, resolve_config, resolve_workload
from repro.config.presets import baseline_config


class TestResolvers:
    def test_resolve_config_presets(self):
        for name in CONFIG_PRESETS:
            assert resolve_config(name) is not None

    def test_resolve_config_unknown(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            resolve_config("quantum")
        assert excinfo.value.code == 2
        assert "error: unknown config preset" in capsys.readouterr().err

    def test_resolve_application(self):
        workload = resolve_workload("mm", baseline_config(), 0.05)
        assert workload.kind == "single"

    def test_resolve_multi_workload(self):
        workload = resolve_workload("W1", baseline_config(), 0.05)
        assert workload.kind == "multi"
        assert len(workload.pids) == 4

    def test_resolve_mix_workload(self):
        workload = resolve_workload("W17", baseline_config(), 0.05)
        assert len(workload.pids) == 6

    def test_resolve_npz_file(self, tmp_path):
        from repro.workloads.multi_app import build_single_app_workload
        from repro.workloads.trace_io import save_workload

        path = save_workload(
            build_single_app_workload("FIR", baseline_config(), scale=0.05),
            tmp_path / "w.npz",
        )
        workload = resolve_workload(str(path), baseline_config(), 0.05)
        assert workload.name == "FIR"

    def test_resolve_unknown(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            resolve_workload("nope", baseline_config(), 0.05)
        assert excinfo.value.code == 2
        assert "error: unknown workload" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "MT" in out
        assert "W10" in out
        assert "least-tlb" in out

    def test_run_prints_table(self, capsys):
        assert main(["run", "FIR", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "policy baseline" in out
        assert "IOMMU hit" in out

    def test_run_writes_json(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert main(["run", "FIR", "--scale", "0.05", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["workload"] == "FIR"
        assert data["apps"]["1"]["app_name"] == "FIR"

    def test_run_with_preset_and_policy(self, capsys):
        assert main([
            "run", "FIR", "--scale", "0.05",
            "--policy", "least-tlb", "--config", "small-iommu",
        ]) == 0
        assert "least-tlb" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main([
            "compare", "FIR", "--scale", "0.05",
            "--policies", "baseline,least-tlb",
        ]) == 0
        out = capsys.readouterr().out
        assert "normalized to baseline" in out
        assert "least-tlb" in out

    def test_compare_empty_policies(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "FIR", "--policies", " "])
        assert excinfo.value.code == 2
        assert "error: no policies" in capsys.readouterr().err

    def test_run_unknown_policy(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "FIR", "--scale", "0.05", "--policy", "psychic"])
        assert excinfo.value.code == 2
        assert "error: unknown policy" in capsys.readouterr().err

    def test_run_seed_recorded_in_json(self, tmp_path):
        path = tmp_path / "out.json"
        assert main([
            "run", "FIR", "--scale", "0.05", "--seed", "7", "--json", str(path),
        ]) == 0
        data = json.loads(path.read_text())
        assert data["metadata"]["seed"] == 7

    def test_run_seed_changes_results(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for seed, path in zip(("3", "4"), paths):
            assert main([
                "run", "FIR", "--scale", "0.05", "--seed", seed,
                "--json", str(path),
            ]) == 0
        a, b = (json.loads(p.read_text()) for p in paths)
        assert a["metadata"]["seed"] != b["metadata"]["seed"]
        assert a["events_executed"] != b["events_executed"]

    def test_run_max_events_cap_reports_stall(self, capsys):
        assert main(["run", "FIR", "--scale", "0.05", "--max-events", "50"]) == 3
        err = capsys.readouterr().err
        assert "simulation stalled" in err
        assert "max_events=50 exhausted" in err

    def test_run_max_cycles_truncates(self, capsys):
        assert main(["run", "FIR", "--scale", "0.05", "--max-cycles", "2000"]) == 0
        assert "total cycles 2,000" in capsys.readouterr().out

    def test_run_fault_smoke_with_invariants(self, capsys):
        assert main([
            "run", "FIR", "--scale", "0.05", "--policy", "least-tlb",
            "--check-invariants",
        ]) == 0
        assert "invariants OK" in capsys.readouterr().out

    def test_characterize(self, capsys):
        assert main(["characterize", "FIR", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "reuse distances" in out
        assert "IOMMU TLB capacity" in out


class TestTelemetryCommands:
    def test_run_trace_writes_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main([
            "run", "FIR", "--scale", "0.05", "--policy", "least-tlb",
            "--trace", "--trace-out", str(out),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "latency sites (cycles):" in stdout
        assert "wrote Chrome trace" in stdout
        payload = json.loads(out.read_text())
        assert payload["otherData"]["workload"] == "FIR"
        assert any(e["ph"] == "X" for e in payload["traceEvents"])

    def test_run_trace_json_carries_percentiles(self, tmp_path):
        result_path = tmp_path / "result.json"
        assert main([
            "run", "MM", "--scale", "0.05", "--policy", "least-tlb",
            "--trace=0.2", "--trace-out", str(tmp_path / "t.json"),
            "--json", str(result_path),
        ]) == 0
        telemetry = json.loads(result_path.read_text())["telemetry"]
        for site in ("l2_miss", "iommu", "walk", "remote_probe"):
            hist = telemetry["histograms"][site]
            assert hist["count"] > 0
            assert hist["p50"] <= hist["p90"] <= hist["p99"] <= hist["max"]

    def test_run_without_trace_has_no_telemetry_key(self, tmp_path):
        path = tmp_path / "out.json"
        assert main(["run", "FIR", "--scale", "0.05", "--json", str(path)]) == 0
        assert "telemetry" not in json.loads(path.read_text())

    def test_run_rejects_bad_trace_rate(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "FIR", "--scale", "0.05", "--trace=1.5"])
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_subcommand(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main([
            "trace", "FIR", "--scale", "0.05", "--rate", "0.2",
            "--out", str(out),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "traced requests" in stdout
        assert "perfetto" in stdout
        payload = json.loads(out.read_text())
        assert payload["otherData"]["policy"] == "least-tlb"

    def test_trace_rejects_zero_rate(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "FIR", "--rate", "0"])
        assert excinfo.value.code == 2

    def test_compare_json_export(self, tmp_path, capsys):
        path = tmp_path / "cmp.json"
        assert main([
            "compare", "FIR", "--scale", "0.05",
            "--policies", "baseline,least-tlb", "--json", str(path),
        ]) == 0
        data = json.loads(path.read_text())
        assert data["reference"] == "baseline"
        assert set(data["policies"]) == {"baseline", "least-tlb"}
        assert data["policies"]["baseline"]["speedup"] == 1.0
        assert data["policies"]["least-tlb"]["exec_cycles"] > 0

    def test_characterize_json_export(self, tmp_path):
        path = tmp_path / "char.json"
        assert main([
            "characterize", "FIR", "--scale", "0.05", "--json", str(path),
        ]) == 0
        data = json.loads(path.read_text())
        assert data["iommu_requests"] > 0
        assert 0.0 <= data["capturable_fraction"] <= 1.0
        assert data["apps"]["1"]["app_name"] == "FIR"


class TestLint:
    """The `repro lint` subcommand: exit codes, formats, filters."""

    BAD = "import time\nt = time.time()\n"

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("x = 1\n")
        assert main(["lint", str(path)]) == 0
        assert "1 file(s) checked: clean" in capsys.readouterr().out

    def test_violations_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(self.BAD)
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "D2" in out
        assert f"{path}:2:" in out

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(tmp_path / "nope.py")])
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_no_paths_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint"])
        assert excinfo.value.code == 2
        assert "error: no paths given" in capsys.readouterr().err

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("x = 1\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--rules", "D99", str(path)])
        assert excinfo.value.code == 2
        assert "error: unknown rule 'D99'" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("D1", "D5", "D8", "G1", "G2"):
            assert rule_id in out

    def test_rules_filter_restricts_reporting(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text("import time\nt = time.time()\ntry:\n    t()\nexcept:\n    pass\n")
        assert main(["lint", "--rules", "G1", str(path)]) == 1
        out = capsys.readouterr().out
        assert "G1" in out
        assert "D2" not in out

    def test_json_format(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(self.BAD)
        assert main(["lint", "--format", "json", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == 2
        assert report["total_violations"] == 1
        assert report["by_rule"]["D2"] == 1
        assert report["violations"][0]["rule"] == "D2"

    def test_output_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(self.BAD)
        out = tmp_path / "report.json"
        assert main(["lint", "--format", "json", "--output", str(out), str(bad)]) == 1
        captured = capsys.readouterr()
        assert f"wrote {out}" in captured.err
        assert json.loads(out.read_text())["total_violations"] == 1

    def test_lint_src_tree_clean(self, capsys):
        import repro

        src = Path(repro.__file__).resolve().parents[1]
        assert main(["lint", str(src)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_update_baseline_then_gate(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(self.BAD)
        base = tmp_path / "base.json"
        args = ["lint", str(bad), "--baseline", str(base)]
        assert main(args + ["--update-baseline"]) == 0
        assert main(args) == 0  # the finding is grandfathered
        assert "1 baselined" in capsys.readouterr().out
        bad.write_text(self.BAD + "u = time.time()\n")
        assert main(args) == 1  # ...but a *new* finding still fails

    def test_sarif_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(self.BAD)
        assert main(["lint", "--format", "sarif", str(bad)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"][0]["ruleId"] == "D2"

    def test_changed_skips_fixture_dirs(self, tmp_path, capsys, monkeypatch):
        import subprocess

        monkeypatch.chdir(tmp_path)
        subprocess.run(["git", "init", "-q"], check=True)
        subprocess.run(
            ["git", "-c", "user.email=t@t", "-c", "user.name=t",
             "commit", "-q", "--allow-empty", "-m", "seed"], check=True,
        )
        (tmp_path / "bad.py").write_text(self.BAD)
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (fixtures / "worse.py").write_text(self.BAD)
        assert main(["lint", "--changed"]) == 1
        out = capsys.readouterr().out
        assert "bad.py" in out
        assert "worse.py" not in out  # fixture dirs stay excluded
