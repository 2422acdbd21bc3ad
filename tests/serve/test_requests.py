"""Request canonicalization: service JSON must fingerprint exactly like
the CLI's own :class:`JobSpec` construction — the daemon's dedup
guarantees rest on this property."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.presets import resolve_preset
from repro.sim.cache import fingerprint_digest
from repro.sim.parallel import JobSpec, expand_matrix, select_benches
from repro.serve.requests import (
    MAX_JOBS_PER_REQUEST,
    RequestError,
    infer_kind,
    parse_job,
    parse_request,
    spec_request,
)

WORKLOADS = st.sampled_from(["MM", "FFT", "ST", "W1", "W5", "W17"])
POLICIES = st.sampled_from(["baseline", "least-tlb", "tlb-probing"])
BACKENDS = st.sampled_from(["event", "functional"])

JOB_PAYLOADS = st.fixed_dictionaries(
    {"workload": WORKLOADS},
    optional={
        "policy": POLICIES,
        "scale": st.floats(min_value=0.01, max_value=2.0,
                           allow_nan=False, allow_infinity=False),
        "seed": st.integers(min_value=0, max_value=2**31),
        "backend": BACKENDS,
        "options": st.fixed_dictionaries({}, optional={
            "record_stream": st.booleans(),
            "timeline": st.integers(min_value=0, max_value=10_000),
            "max_events": st.integers(min_value=0, max_value=10**6),
            "check_invariants": st.booleans(),
        }),
    },
)


class TestParseJob:
    @settings(max_examples=60, deadline=None)
    @given(payload=JOB_PAYLOADS)
    def test_round_trip_preserves_fingerprint(self, payload):
        """parse → journal form → parse again must hit the same digest
        (what makes a drained-and-resubmitted job a cache hit)."""
        spec = parse_job(payload)
        journalled = spec_request(spec)
        assert journalled is not None  # baseline-config jobs round-trip
        again = parse_job(journalled)
        assert fingerprint_digest(again.fingerprint()) == \
            fingerprint_digest(spec.fingerprint())
        assert again == spec

    @settings(max_examples=30, deadline=None)
    @given(payload=JOB_PAYLOADS)
    def test_parse_is_deterministic(self, payload):
        assert parse_job(payload) == parse_job(dict(payload))

    def test_bench_request_matches_local_bench_fingerprints(self):
        """A ``benches`` submission must produce exactly the fingerprints
        a local ``repro bench`` of the same flags computes, so the daemon
        and the CLI share persistent cache entries."""
        local = expand_matrix(select_benches("fig02"), scale=0.2, seed=7,
                              backend="functional")
        served = parse_request({"benches": ["fig02"], "scale": 0.2,
                                "seed": 7, "backend": "functional"})
        assert [
            fingerprint_digest(s.fingerprint()) for _b, s in served.pairs
        ] == [fingerprint_digest(s.fingerprint()) for _b, s in local]

    def test_explicit_job_matches_bench_matrix_without_seed(self):
        """With no seed and the baseline config, an explicit job shares
        its cache entry with the identical bench-matrix spec."""
        matrix_spec = JobSpec(kind="single", workload="MM",
                              policy="baseline", config=None, scale=0.2,
                              seed=None, options=(), backend="functional")
        served = parse_job({"workload": "MM", "scale": 0.2,
                            "backend": "functional"})
        assert fingerprint_digest(served.fingerprint()) == \
            fingerprint_digest(matrix_spec.fingerprint())

    def test_seed_derives_config_like_repro_run(self):
        """``repro run --seed N`` derives the config seed; a served job
        must fingerprint the same way to stay bit-compatible."""
        spec = parse_job({"workload": "MM", "seed": 11, "config": "dws"})
        expected = JobSpec(
            kind="single", workload="MM", policy="baseline",
            config=resolve_preset("dws").derive(seed=11),
            scale=0.3, seed=11, options=(), backend="event",
        )
        assert fingerprint_digest(spec.fingerprint()) == \
            fingerprint_digest(expected.fingerprint())

    def test_kind_inference(self):
        assert infer_kind("MM") == "single"
        assert infer_kind("W3") == "multi"
        assert infer_kind("W17") == "mix"
        with pytest.raises(RequestError):
            infer_kind("NOPE")

    @pytest.mark.parametrize("payload", [
        {"workload": "MM", "bogus": 1},
        {"workload": "NOPE"},
        {"workload": "MM", "policy": "nope"},
        {"workload": "MM", "config": "nope"},
        {"workload": "MM", "scale": 0.0},
        {"workload": "MM", "scale": 99.0},
        {"workload": "MM", "seed": -1},
        {"workload": "MM", "backend": "quantum"},
        {"workload": "MM", "backend": "vectorized"},
        {"workload": "MM", "shards": 0},
        {"workload": "MM", "shards": 1},
        {"workload": "MM", "options": {"unknown": 1}},
        {"workload": "MM", "options": {"record_stream": "yes"}},
        {"workload": "MM", "kind": "mix"},  # MM is not a mix workload
        {"policy": "baseline"},  # workload missing
    ])
    def test_malformed_jobs_rejected(self, payload):
        with pytest.raises(RequestError):
            parse_job(payload)


class TestParseRequest:
    def test_jobs_and_benches_combine(self):
        parsed = parse_request({
            "jobs": [{"workload": "MM", "scale": 0.1}],
            "benches": ["fig02"],
            "scale": 0.1, "seed": 0, "backend": "functional",
        })
        assert len(parsed.pairs) == 1 + len(
            expand_matrix(select_benches("fig02"), scale=0.1, seed=0,
                          backend="functional"))

    def test_client_field(self):
        parsed = parse_request({"client": "alice",
                                "jobs": [{"workload": "MM"}]})
        assert parsed.client == "alice"

    @pytest.mark.parametrize("payload", [
        None,
        [],
        {},
        {"jobs": []},
        {"benches": []},
        {"benches": ["no-such-family"]},
        {"jobs": [{"workload": "MM"}], "bogus": True},
        {"client": "", "jobs": [{"workload": "MM"}]},
        {"client": "x" * 65, "jobs": [{"workload": "MM"}]},
        {"benches": ["*"], "scale": -1.0},
        {"benches": ["fig02*"], "shards": 1},
    ])
    def test_malformed_requests_rejected(self, payload):
        with pytest.raises(RequestError):
            parse_request(payload)

    def test_job_count_limit(self):
        with pytest.raises(RequestError, match="limit"):
            parse_request({
                "jobs": [{"workload": "MM", "seed": i}
                         for i in range(MAX_JOBS_PER_REQUEST + 1)],
            })
