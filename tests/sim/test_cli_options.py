"""One definition per ``repro`` flag, and one job path for ``repro run``.

* every option string two subcommands share has one default, one type
  and one help text, apart from an allowlist of flags whose meaning
  differs on purpose;
* ``--scale`` and ``--seed`` are validated by the checks ``repro serve``
  applies to submissions, on every subcommand, before any work starts;
* a local ``repro run`` executes the :class:`JobSpec` that ``--server``
  submits, so both modes exit, print and export alike;
* ``repro run PATH`` and ``repro run --trace PATH`` are the same run.
"""

import argparse
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro.sim.parallel
from repro.cli import build_parser, main
from repro.serve.api import ServerThread
from repro.serve.app import ServeApp, ServeSettings
from repro.serve.client import ServeClient
from repro.serve.requests import parse_job
from repro.sim.cache import ResultCache
from repro.workloads.ingest import synthesize_k6_trace

SRC = Path(__file__).resolve().parents[2] / "src"

#: ``(option, subcommand)`` pairs whose meaning differs from the other
#: subcommands' definition of the same option string, with the reason.
DIFFERENT_ON_PURPOSE = {
    ("--json", "cache stats"): "a stdout switch, not an output file",
    ("--json", "cache prune"): "a stdout switch, not an output file",
    ("--scale", "ingest"): "truncates the trace's CU streams; 1.0 keeps all of it",
    ("--trace", "run"): "RATE|PATH: a span-sampling rate or a trace file to replay",
    ("--out", "trace"): "the Chrome trace, where ingest's --out is a .npz archive",
    ("--format", "ingest"): "the trace file's format, where lint's is the report's",
    ("--policy", "trace"): "defaults to least-tlb, the policy worth tracing",
}


def subcommands(parser, prefix=()):
    """``(name, parser)`` of every (nested) subcommand of ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                path = (*prefix, name)
                yield " ".join(path), child
                yield from subcommands(child, path)


class TestOneDefinitionPerFlag:
    def test_shared_options_agree(self):
        definitions: dict[str, dict[str, tuple]] = {}
        for command, parser in subcommands(build_parser()):
            for action in parser._actions:
                for option in action.option_strings:
                    if option in ("-h", "--help"):
                        continue
                    if (option, command) in DIFFERENT_ON_PURPOSE:
                        continue
                    definitions.setdefault(option, {})[command] = (
                        action.default, action.type, action.help,
                    )
        shared = {o: by_cmd for o, by_cmd in definitions.items() if len(by_cmd) > 1}
        assert {"--scale", "--seed", "--json", "--cache-dir", "--split"} <= set(shared)
        for option, by_command in shared.items():
            first = next(iter(by_command.values()))
            assert all(d == first for d in by_command.values()), (option, by_command)

    def test_allowlist_names_real_differences(self):
        commands = dict(subcommands(build_parser()))
        for option, command in DIFFERENT_ON_PURPOSE:
            assert option in commands[command]._option_string_actions


BAD_VALUES = [
    ("--scale", "0"), ("--scale", "-1"), ("--scale", "nan"), ("--scale", "inf"),
    ("--seed", "-1"),
]
COMMANDS = {
    "run": ["run", "FIR"],
    "trace": ["trace", "FIR"],
    "compare": ["compare", "FIR"],
    "characterize": ["characterize", "FIR"],
    "bench": ["bench", "--only", "fig02_baseline_hit_rates", "--jobs", "1"],
    "ingest": ["ingest", "missing.k6"],
}


class TestScaleAndSeed:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize(("flag", "value"), BAD_VALUES)
    def test_out_of_range_is_usage_error(self, command, flag, value, capsys,
                                         monkeypatch):
        def no_jobs(*_args, **_kwargs):
            raise AssertionError("a job started")

        monkeypatch.setattr(repro.sim.parallel, "run_matrix", no_jobs)
        with pytest.raises(SystemExit) as excinfo:
            main([*COMMANDS[command], f"{flag}={value}"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("served") / "cache")
    thread = ServerThread(ServeApp(ServeSettings(workers=1), cache=cache))
    url = thread.start()
    yield url
    thread.stop()


def run_both(argv, server, tmp_path, monkeypatch, capsys):
    """``repro run`` locally and via ``--server``, each from its own
    directory with ``--json out.json``: ``{mode: (status, stdout, json)}``."""
    outcomes = {}
    for mode, extra in (("local", []), ("served", ["--server", server])):
        where = tmp_path / mode
        where.mkdir()
        monkeypatch.chdir(where)
        code = main(["run", *argv, *extra, "--json", "out.json"])
        out = capsys.readouterr().out
        data = json.loads((where / "out.json").read_text()) if code == 0 else None
        outcomes[mode] = (code, out, data)
    return outcomes


def without_served_by(stdout):
    return [line for line in stdout.splitlines() if not line.startswith("served by ")]


class TestServedEqualsLocal:
    @pytest.mark.parametrize("flag", ["--max-events", "--max-cycles"])
    def test_zero_cap_means_no_cap(self, flag, server, tmp_path, monkeypatch, capsys):
        both = run_both(["FIR", "--scale", "0.02", flag, "0"],
                        server, tmp_path, monkeypatch, capsys)
        assert both["local"][0] == both["served"][0] == 0
        assert both["local"][2] == both["served"][2]

    @pytest.mark.parametrize("flags", [["--check-invariants"], ["--timeline", "500"]],
                             ids=["check-invariants", "timeline"])
    def test_same_report(self, flags, server, tmp_path, monkeypatch, capsys):
        both = run_both(["FIR", "--scale", "0.02", "--policy", "least-tlb", *flags],
                        server, tmp_path, monkeypatch, capsys)
        assert both["local"][0] == both["served"][0] == 0
        assert both["local"][2] == both["served"][2]
        local, served = (both[m][1] for m in ("local", "served"))
        assert "served by " in served
        assert without_served_by(local) == without_served_by(served)
        if "--check-invariants" in flags:
            assert "invariants OK" in local
        else:
            assert "latency sites (cycles):" in local

    def test_negative_cap_is_usage_error_in_both_modes(self, server, capsys):
        for extra in ([], ["--server", server]):
            with pytest.raises(SystemExit) as excinfo:
                main(["run", "FIR", "--max-events", "-1", *extra])
            assert excinfo.value.code == 2
            assert capsys.readouterr().err.startswith("error:")


@pytest.fixture(scope="module")
def k6_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("k6") / "cli.k6.gz"
    return synthesize_k6_trace(path, accesses=6_000, footprint_pages=256, seed=5)


class TestOneJobPath:
    def test_positional_trace_equals_trace_flag(self, k6_trace, tmp_path, capsys):
        flags = ["--scale", "0.5", "--split", "address-hash", "--backend", "functional"]
        positional, flagged = tmp_path / "positional.json", tmp_path / "flag.json"
        assert main(["run", str(k6_trace), *flags, "--json", str(positional)]) == 0
        assert main(["run", "--trace", str(k6_trace), *flags, "--json", str(flagged)]) == 0
        a, b = (json.loads(p.read_text()) for p in (positional, flagged))
        assert a == b
        assert a["metadata"]["trace"]["path"] == str(k6_trace)
        assert a["metadata"]["trace"]["split"] == "address-hash"

    @pytest.mark.parametrize("workload", ["mm", "trace"])
    def test_local_run_executes_the_submitted_job(self, workload, k6_trace, monkeypatch,
                                                  tmp_path, capsys):
        executed, submitted = [], []

        def fake_execute(spec):
            executed.append(spec)
            raise SystemExit(0)

        def fake_submit(_client, payload):
            submitted.append(payload)
            raise SystemExit(0)

        monkeypatch.setattr(repro.sim.parallel.JobSpec, "execute", fake_execute)
        monkeypatch.setattr(ServeClient, "submit", fake_submit)
        monkeypatch.chdir(k6_trace.parent)
        target = ["--trace", k6_trace.name] if workload == "trace" else ["mm"]
        argv = ["run", *target, "--seed", "4", "--config", "small-iommu",
                "--policy", "least-tlb", "--timeline", "300", "--max-events", "0",
                "--check-invariants"]
        for extra in ([], ["--server", "http://127.0.0.1:9"]):
            with pytest.raises(SystemExit):
                main([*argv, *extra])
        (local,), (payload,) = executed, submitted
        assert len(payload["jobs"]) == 1
        served = parse_job(payload["jobs"][0])
        if workload == "trace":
            # Kept as typed locally; resolved for the daemon's filesystem.
            assert local.workload == k6_trace.name
            assert served.workload == str(k6_trace.resolve())
            served = replace(served, workload=local.workload)
        assert served == local


def loaded_modules(statement):
    """Modules under ``repro.serve`` and ``repro.sim.jobs`` loaded by ``statement``."""
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\n"
         f"{statement}\n"
         "print(json.dumps(sorted(m for m in sys.modules if m.startswith("
         "('repro.serve', 'repro.sim.jobs')))))\n"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_front_end_imports():
    assert loaded_modules("import repro.cli") == []
    local = loaded_modules(
        "import repro.cli\n"
        "assert repro.cli.main(['run', 'FIR', '--scale', '0.02']) == 0"
    )
    assert local == ["repro.sim.jobs"]
