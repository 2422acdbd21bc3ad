"""Correctness tests for the persistent result cache.

The acceptance contract: mutating *any* fingerprinted input (config field,
seed, scale, policy, fault plan, options) changes the digest and forces a
re-simulation; mutating nothing yields a hit whose
:class:`~repro.sim.results.SimulationResult` is identical to the original.
"""

import dataclasses
import json
import sys
import types

import numpy as np
import pytest

from repro.config.presets import baseline_config
from repro.faults.plan import FaultPlan
from repro.reporting.export import result_from_dict, result_to_dict
from repro.sim.cache import (
    CacheCorruptionWarning,
    ResultCache,
    canonicalize,
    code_version_hash,
    fingerprint_digest,
    run_fingerprint,
)
from repro.sim.driver import run_single_app

SCALE = 0.05


def _fingerprint(**overrides):
    base = dict(
        kind="single",
        workload="MM",
        policy="baseline",
        config=baseline_config(),
        scale=SCALE,
        seed=None,
        options={},
    )
    base.update(overrides)
    return run_fingerprint(**base)


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


@pytest.fixture(scope="module")
def mm_result():
    return run_single_app("MM", scale=SCALE)


class TestFingerprint:
    def test_identical_inputs_identical_digest(self):
        assert fingerprint_digest(_fingerprint()) == fingerprint_digest(_fingerprint())

    def test_every_fingerprinted_input_changes_digest(self):
        base = fingerprint_digest(_fingerprint())
        config = baseline_config()
        mutations = {
            "policy": _fingerprint(policy="least-tlb"),
            "scale": _fingerprint(scale=SCALE * 2),
            "seed": _fingerprint(seed=config.seed + 1),
            "workload": _fingerprint(workload="BFS"),
            "kind": _fingerprint(kind="alone"),
            "config.num_gpus": _fingerprint(config=config.derive(num_gpus=8)),
            "config.spill_budget": _fingerprint(config=config.derive(spill_budget=2)),
            "config.l1_tlb": _fingerprint(
                config=dataclasses.replace(
                    config,
                    gpu=dataclasses.replace(
                        config.gpu,
                        l1_tlb=dataclasses.replace(config.gpu.l1_tlb, num_entries=32),
                    ),
                )
            ),
            "fault_plan": _fingerprint(
                options={"fault_plan": FaultPlan.parse("flip-tlb:0.01")}
            ),
            "options": _fingerprint(options={"max_cycles": 1000}),
        }
        digests = {name: fingerprint_digest(fp) for name, fp in mutations.items()}
        for name, digest in digests.items():
            assert digest != base, f"mutating {name} did not change the digest"
        # All mutations are also distinct from each other.
        assert len(set(digests.values())) == len(digests)

    def test_seed_none_resolves_to_config_seed(self):
        config = baseline_config()
        assert fingerprint_digest(_fingerprint(seed=None)) == fingerprint_digest(
            _fingerprint(seed=config.seed)
        )

    def test_code_version_in_key(self):
        assert _fingerprint()["code"] == code_version_hash()
        assert len(code_version_hash()) == 64

    def test_canonicalize_is_deterministic_for_config(self):
        a = canonicalize(baseline_config())
        b = canonicalize(baseline_config())
        assert a == b
        json.dumps(a)  # must be JSON-serialisable

    def test_canonicalize_numpy_values(self):
        assert canonicalize(np.int64(3)) == 3
        assert canonicalize({"k": np.float32(1.5)}) == {"k": 1.5}
        one = canonicalize(np.array([7]))
        assert one == {"__ndarray__": {"dtype": "int64", "shape": [1]}, "data": [7]}
        assert one != canonicalize(np.int64(7))

    def test_keying_ignores_a_numpy_still_being_imported(self, monkeypatch):
        # The serve pool imports numpy in a supervising thread while the
        # event loop keys requests; a half-initialised numpy module in
        # sys.modules must not break (or change) keying.
        expected = fingerprint_digest(_fingerprint(options={"max_events": 9}))
        monkeypatch.setitem(sys.modules, "numpy", types.ModuleType("numpy"))
        assert fingerprint_digest(_fingerprint(options={"max_events": 9})) == expected


class TestResultCache:
    def test_unchanged_inputs_hit_with_identical_result(self, cache, mm_result):
        fingerprint = _fingerprint()
        cache.put(fingerprint, mm_result)
        restored = cache.get(_fingerprint())  # freshly built, same inputs
        assert restored is not None
        assert cache.hits == 1
        assert result_to_dict(restored, include_stream=True) == result_to_dict(
            mm_result, include_stream=True
        )

    def test_mutated_inputs_miss(self, cache, mm_result):
        cache.put(_fingerprint(), mm_result)
        assert cache.get(_fingerprint(policy="least-tlb")) is None
        assert cache.get(_fingerprint(scale=SCALE * 2)) is None
        assert cache.get(_fingerprint(seed=999)) is None
        assert cache.get(
            _fingerprint(config=baseline_config().derive(num_gpus=8))
        ) is None
        assert cache.misses == 4

    def test_end_to_end_rerun_hits(self, cache):
        """A second identical run is served from the cache and matches the
        simulated result bit-for-bit."""
        fingerprint = _fingerprint()
        assert cache.get(fingerprint) is None
        result = run_single_app("MM", scale=SCALE)
        cache.put(fingerprint, result)
        cached = cache.get(_fingerprint())
        assert result_to_dict(cached) == result_to_dict(result)
        assert (
            cached.apps[1].accesses == result.apps[1].accesses
            and cached.events_executed == result.events_executed
        )

    def test_corrupt_entry_is_quarantined_and_missed(self, cache, mm_result):
        fingerprint = _fingerprint()
        path = cache.put(fingerprint, mm_result)
        path.write_text("{ truncated")
        with pytest.warns(CacheCorruptionWarning, match="quarantined"):
            assert cache.get(fingerprint) is None
        assert not path.exists()  # never served again...
        quarantined = path.with_name(path.name + ".corrupt")
        assert quarantined.exists()  # ...but the evidence survives
        assert quarantined.read_text() == "{ truncated"
        assert cache.corruptions == 1
        assert cache.describe()["corruptions"] == 1
        # Quarantined entries are invisible to entry_count/clear globs.
        assert cache.entry_count() == 0
        # Re-storing repairs the cache.
        cache.put(fingerprint, mm_result)
        assert cache.get(fingerprint) is not None

    def test_fingerprint_mismatch_is_collision_not_hit(self, cache, mm_result):
        fingerprint = _fingerprint()
        path = cache.put(fingerprint, mm_result)
        payload = json.loads(path.read_text())
        payload["fingerprint"]["seed"] = 4242  # forge a colliding entry
        path.write_text(json.dumps(payload))
        with pytest.warns(CacheCorruptionWarning, match="collision"):
            assert cache.get(fingerprint) is None

    def test_disabled_cache_never_stores_or_hits(self, tmp_path, mm_result):
        cache = ResultCache(tmp_path / "off", enabled=False)
        fingerprint = _fingerprint()
        assert cache.put(fingerprint, mm_result) is None
        assert cache.get(fingerprint) is None
        assert cache.entry_count() == 0

    def test_from_env_honours_no_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert ResultCache.from_env().enabled is False
        monkeypatch.setenv("REPRO_NO_CACHE", "0")
        cache = ResultCache.from_env()
        assert cache.enabled is True
        assert cache.cache_dir == tmp_path / "env"

    def test_clear_and_entry_count(self, cache, mm_result):
        cache.put(_fingerprint(), mm_result)
        cache.put(_fingerprint(policy="least-tlb"), mm_result)
        assert cache.entry_count() == 2
        assert cache.clear() == 2
        assert cache.entry_count() == 0


class TestResultRoundTrip:
    def test_result_dict_round_trip(self, mm_result):
        data = result_to_dict(mm_result, include_stream=True)
        assert result_to_dict(result_from_dict(data), include_stream=True) == data
