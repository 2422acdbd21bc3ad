"""Tests for the parallel experiment runner (bench matrix, dedup, cache)."""

import ast
import importlib.util
import json
import re
from pathlib import Path

import pytest

from repro.config.presets import baseline_config
from repro.reporting.export import result_to_dict
from repro.sim.cache import ResultCache
from repro.sim.parallel import (
    BENCH_MATRIX,
    JobSpec,
    bench_names,
    dedupe_jobs,
    expand_matrix,
    matrix_summary,
    run_matrix,
    select_benches,
)

SCALE = 0.05
REPO_ROOT = Path(__file__).resolve().parents[2]

#: How a bench names a family it reads: ``runs("fig02_baseline_hit_rates")``.
FAMILY_CALL = re.compile(r'\bruns\(\s*"([^"]*)"\s*\)')
#: What benches must not import: they simulate only through their families.
DIRECT_SIMULATION = {"ResultLab", "repro.sim.driver", "simulate", "MultiGPUSystem"}


def _imports(source: str) -> set[str]:
    """Every module and name a source file imports, also as ``module.name``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            for alias in node.names:
                names.update((alias.name, f"{node.module}.{alias.name}"))
    return names


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestMatrixDeclaration:
    def test_every_bench_expands(self):
        for name, builder in BENCH_MATRIX.items():
            jobs = builder(0.1, None)
            assert jobs, name
            for label, spec in jobs.items():
                assert isinstance(spec, JobSpec), (name, label)

    def test_benches_read_exactly_the_matrix_families(self):
        named = set()
        for path in sorted((REPO_ROOT / "benchmarks").glob("bench_*.py")):
            source = path.read_text()
            named.update(FAMILY_CALL.findall(source))
            assert not _imports(source) & DIRECT_SIMULATION, path.name
        assert sorted(named - set(BENCH_MATRIX)) == [], "named families that do not exist"
        assert sorted(set(BENCH_MATRIX) - named) == [], "families no bench reads"

    def test_pinned_families_expand_to_the_golden_cases(self):
        fidelity = _load_script("check_fidelity")
        goldens = json.loads((REPO_ROOT / "scripts" / "fidelity_goldens.json").read_text())
        assert goldens["benches"] == list(fidelity.DEFAULT_BENCHES)
        specs = fidelity.collect_specs(
            list(fidelity.DEFAULT_BENCHES), goldens["scale"], goldens["seeds"]
        )
        assert sorted(fidelity.case_id(spec) for spec in specs) == sorted(goldens["cases"])

    def test_select_all(self):
        assert select_benches(None) == bench_names()

    def test_select_glob_and_substring(self):
        assert select_benches("fig1*") == [
            n for n in bench_names() if n.startswith("fig1")
        ]
        assert select_benches("mix") == ["fig22_mix_workload"]

    def test_select_unknown_raises_keyerror(self):
        with pytest.raises(KeyError):
            select_benches("no-such-bench")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            JobSpec("bogus", "MM")


class TestDedup:
    def test_fig14_and_fig15_share_all_runs(self):
        pairs = expand_matrix(
            ["fig14_single_app_perf", "fig15_single_app_hit_rates"], scale=SCALE
        )
        unique = dedupe_jobs(pairs)
        assert len(unique) == len(pairs) // 2
        for _spec, _fp, _digest, benches in unique:
            assert benches == (
                "fig14_single_app_perf",
                "fig15_single_app_hit_rates",
            )

    def test_distinct_configs_do_not_collapse(self):
        a = JobSpec("single", "MM", scale=SCALE)
        b = JobSpec("single", "MM", scale=SCALE, config=baseline_config().derive(num_gpus=8))
        unique = dedupe_jobs([("x", a), ("x", b)])
        assert len(unique) == 2

    def test_none_config_equals_explicit_baseline(self):
        a = JobSpec("single", "MM", scale=SCALE, config=None)
        b = JobSpec("single", "MM", scale=SCALE, config=baseline_config())
        assert len(dedupe_jobs([("x", a), ("y", b)])) == 1


class TestRunMatrix:
    @pytest.fixture()
    def cache(self, tmp_path):
        return ResultCache(tmp_path / "cache")

    def _pairs(self):
        return [
            ("t", JobSpec("single", "MM", scale=SCALE)),
            ("t", JobSpec("single", "MM", "least-tlb", scale=SCALE)),
            ("u", JobSpec("single", "MM", scale=SCALE)),  # duplicate of #1
        ]

    def test_in_process_run_and_warm_rerun(self, cache):
        outcomes = run_matrix(self._pairs(), workers=1, cache=cache)
        assert len(outcomes) == 2  # dedup collapsed the duplicate
        assert all(not o.cached for o in outcomes)
        assert cache.entry_count() == 2

        warm = run_matrix(self._pairs(), workers=1, cache=cache)
        assert all(o.cached for o in warm)
        summary = matrix_summary(warm)
        assert summary["cache_hits"] == 2 and summary["simulated"] == 0
        # Cached results are bit-identical to the simulated ones.
        cold = {o.digest: o for o in outcomes}
        for o in warm:
            assert result_to_dict(o.result, include_stream=True) == result_to_dict(
                cold[o.digest].result, include_stream=True
            )

    def test_pool_path_matches_in_process(self, tmp_path):
        pairs = self._pairs()
        serial_cache = ResultCache(tmp_path / "serial")
        pool_cache = ResultCache(tmp_path / "pool")
        serial = run_matrix(pairs, workers=1, cache=serial_cache)
        # workers=2 with >=2 misses exercises the supervised-worker path.
        pooled = run_matrix(pairs, workers=2, cache=pool_cache)
        assert {o.digest for o in pooled} == {o.digest for o in serial}
        by_digest = {o.digest: o for o in serial}
        for o in pooled:
            assert result_to_dict(o.result, include_stream=True) == result_to_dict(
                by_digest[o.digest].result, include_stream=True
            )
        assert pool_cache.entry_count() == 2

    def test_progress_callback_sees_hits_and_simulations(self, cache):
        messages = []
        run_matrix(self._pairs(), workers=1, cache=cache, progress=messages.append)
        assert any(m.startswith("simulate") for m in messages)
        messages.clear()
        run_matrix(self._pairs(), workers=1, cache=cache, progress=messages.append)
        assert all(m.startswith("cache hit") for m in messages)

    def test_disabled_cache_always_simulates(self, tmp_path):
        cache = ResultCache(tmp_path / "off", enabled=False)
        pairs = self._pairs()[:1]
        first = run_matrix(pairs, workers=1, cache=cache)
        second = run_matrix(pairs, workers=1, cache=cache)
        assert not first[0].cached and not second[0].cached
        assert cache.entry_count() == 0
