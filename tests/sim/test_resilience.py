"""Tests for the resilient matrix runner (``repro.sim.resilience``).

Covers the policy maths (deadlines, seeded backoff), the chaos-state
victim selection, the sweep journal's checkpoint/resume contract, and —
through small real matrices — the supervised execution path: worker
kills retried to bit-identical results, hung jobs killed at the hard
deadline, failures degraded into manifests instead of aborts.
"""

import json
import time

import pytest

from repro.faults.plan import FaultPlan, FaultPlanError
from repro.reporting.export import result_to_dict
from repro.sim.cache import ResultCache
from repro.sim.parallel import (
    JobSpec,
    failed_jobs_manifest,
    families_without_results,
    matrix_summary,
    run_matrix,
)
from repro.sim.resilience import (
    JOURNAL_NAME,
    ChaosState,
    ResiliencePolicy,
    SweepJournal,
    default_hard_timeout,
    preload_job_closure,
)

SCALE = 0.05


def _pairs():
    return [
        ("t", JobSpec("single", "MM", scale=SCALE)),
        ("t", JobSpec("single", "MM", "least-tlb", scale=SCALE)),
    ]


def _result_dicts(outcomes):
    return {
        o.digest: result_to_dict(o.result, include_stream=True)
        for o in outcomes
        if o.result is not None
    }


class TestPolicy:
    def test_default_hard_timeout_scales(self):
        assert default_hard_timeout(0.3, "event") == 270.0
        assert default_hard_timeout(0.3, "functional") == 135.0
        # Small scales keep a floor so startup cost never trips it.
        assert default_hard_timeout(0.01, "event") == 60.0

    def test_deadlines_soft_defaults_to_half(self):
        policy = ResiliencePolicy(hard_timeout=10.0)
        assert policy.deadlines_for(JobSpec("single", "MM", scale=SCALE)) == (5.0, 10.0)

    def test_deadlines_derive_from_spec(self):
        soft, hard = ResiliencePolicy().deadlines_for(
            JobSpec("single", "MM", scale=0.3, backend="functional")
        )
        assert hard == default_hard_timeout(0.3, "functional")
        assert soft == hard / 2

    def test_soft_never_exceeds_hard(self):
        policy = ResiliencePolicy(soft_timeout=50.0, hard_timeout=10.0)
        soft, hard = policy.deadlines_for(JobSpec("single", "MM", scale=SCALE))
        assert soft <= hard

    def test_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(retries=-1)
        with pytest.raises(ValueError):
            ResiliencePolicy(hard_timeout=0)
        with pytest.raises(ValueError):
            ResiliencePolicy(soft_timeout=-1)

    def test_backoff_is_pure_and_grows(self):
        a = ResiliencePolicy(backoff_seed=3)
        b = ResiliencePolicy(backoff_seed=3)
        delays_a = [a.backoff_delay("digest", n) for n in (1, 2, 3)]
        delays_b = [b.backoff_delay("digest", n) for n in (1, 2, 3)]
        assert delays_a == delays_b  # no wall-clock, no global RNG
        assert delays_a[0] < delays_a[1] < delays_a[2]  # exponential base
        # Different seed or digest shifts the jitter stream.
        assert ResiliencePolicy(backoff_seed=4).backoff_delay("digest", 1) != delays_a[0]
        assert a.backoff_delay("other", 1) != delays_a[0]

    def test_backoff_zero_base_disables_delay(self):
        assert ResiliencePolicy(backoff_base=0).backoff_delay("d", 1) == 0.0


class TestChaosState:
    def test_from_plan_normalises(self):
        assert ChaosState.from_plan(None) is None
        assert ChaosState.from_plan(FaultPlan()) is None
        state = ChaosState.from_plan("kill-worker:2")
        assert state is not None and state.kills == 2
        assert ChaosState.from_plan(state) is state

    def test_rejects_protocol_sites(self):
        with pytest.raises(FaultPlanError, match="runner-level"):
            ChaosState.from_plan("drop-remote:0.5")

    def test_kill_and_fail_are_transient(self):
        state = ChaosState.from_plan("kill-worker:1,fail-job:1")
        assert state.marks(0, 1) == (True, True, 0)   # first attempt: both fire
        assert state.marks(0, 2) == (False, False, 0)  # retry is clean
        assert state.marks(1, 1) == (False, False, 0)  # budget spent on job 0

    def test_slow_worker_is_persistent(self):
        state = ChaosState.from_plan("slow-worker:1:500")
        assert state.marks(0, 1) == (False, False, 500)
        assert state.marks(0, 2) == (False, False, 500)  # a hung job stays hung
        assert state.marks(1, 1) == (False, False, 0)

    def test_needs_subprocess(self):
        assert ChaosState.from_plan("kill-worker:1").needs_subprocess()
        assert ChaosState.from_plan("slow-worker:1:10").needs_subprocess()
        assert not ChaosState.from_plan("fail-job:1").needs_subprocess()
        assert not ChaosState.from_plan("corrupt-cache:1").needs_subprocess()


class TestSweepJournal:
    def test_lives_next_to_cache_but_outside_entry_count(self, tmp_path):
        cache = ResultCache(tmp_path)
        journal = SweepJournal.for_cache(cache)
        assert journal.path == tmp_path / JOURNAL_NAME
        journal.open(resume=False)
        journal.record(digest="d1", label="a", benches=("t",), status="ok", attempts=1)
        journal.close()
        assert cache.entry_count() == 0  # .jsonl never counted as an entry

    def test_round_trip_keeps_last_record_per_digest(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.open(resume=False)
        journal.record(digest="d1", label="a", benches=("t",), status="failed",
                       attempts=2, error={"class": "X", "message": "boom"})
        journal.record(digest="d1", label="a", benches=("t",), status="ok", attempts=3)
        journal.close()
        records = journal.load()
        assert records["d1"]["status"] == "ok"
        assert records["d1"]["attempts"] == 3

    def test_load_tolerates_truncated_tail(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.open(resume=False)
        journal.record(digest="d1", label="a", benches=("t",), status="ok", attempts=1)
        journal.close()
        with journal.path.open("a") as handle:
            handle.write('{"event": "job", "digest": "d2", "stat')  # killed mid-append
        records = journal.load()
        assert set(records) == {"d1"}

    def test_resume_appends_instead_of_truncating(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.open(resume=False)
        journal.record(digest="d1", label="a", benches=("t",), status="ok", attempts=1)
        journal.close()
        journal.open(resume=True)
        journal.record(digest="d2", label="b", benches=("t",), status="ok", attempts=1)
        journal.close()
        assert set(journal.load()) == {"d1", "d2"}

    def test_missing_file_loads_empty(self, tmp_path):
        assert SweepJournal(tmp_path / "absent.jsonl").load() == {}


class TestSupervisedChaos:
    """Real (small) matrices through the per-job worker supervisor."""

    def test_worker_kill_retried_to_identical_results(self, tmp_path):
        clean = run_matrix(_pairs(), workers=2, cache=ResultCache(tmp_path / "a"))
        chaotic = run_matrix(
            _pairs(), workers=2, cache=ResultCache(tmp_path / "b"),
            chaos="kill-worker:1",
            policy=ResiliencePolicy(retries=1, backoff_base=0.01),
        )
        assert _result_dicts(chaotic) == _result_dicts(clean)
        summary = matrix_summary(chaotic)
        assert summary["worker_crashes"] == 1
        assert summary["retries"] == 1
        assert summary["failed"] == 0

    def test_hung_worker_killed_at_hard_deadline(self, tmp_path):
        outcomes = run_matrix(
            _pairs(), workers=2, cache=ResultCache(tmp_path / "c"),
            chaos="slow-worker:1:30000",
            policy=ResiliencePolicy(retries=0, hard_timeout=2.0),
        )
        by_status = {o.status for o in outcomes}
        assert by_status == {"ok", "timed_out"}
        (failure,) = failed_jobs_manifest(outcomes)
        assert failure["status"] == "timed_out"
        assert failure["error_class"] == "JobTimeout"
        assert "hard deadline" in failure["error"]
        summary = matrix_summary(outcomes)
        assert summary["timed_out"] == 1

    def test_transient_failure_burns_retry_then_succeeds(self, tmp_path):
        outcomes = run_matrix(
            _pairs(), workers=2, cache=ResultCache(tmp_path / "d"),
            chaos="fail-job:1",
            policy=ResiliencePolicy(retries=1, backoff_base=0.01),
        )
        assert all(o.status == "ok" for o in outcomes)
        assert {o.attempts for o in outcomes} == {1, 2}
        assert "ChaosFault" in [e for o in outcomes for e in o.attempt_errors]

    def test_exhausted_retries_degrade_not_abort(self, tmp_path):
        outcomes = run_matrix(
            _pairs(), workers=2, cache=ResultCache(tmp_path / "e"),
            chaos="fail-job:1",
            policy=ResiliencePolicy(retries=0),
        )
        assert len(outcomes) == 2  # partial results, no exception
        (failure,) = [o for o in outcomes if o.result is None]
        assert failure.status == "failed"
        assert failure.error == {
            "class": "ChaosFault", "message": "injected transient worker failure",
        }
        # The healthy job keeps the family alive.
        assert families_without_results(_pairs(), outcomes) == []

    def test_family_with_zero_results_is_reported(self, tmp_path):
        pairs = _pairs()
        outcomes = run_matrix(
            pairs, workers=2, cache=ResultCache(tmp_path / "f"),
            chaos="fail-job:2",
            policy=ResiliencePolicy(retries=0),
        )
        assert all(o.result is None for o in outcomes)
        assert families_without_results(pairs, outcomes) == ["t"]

    def test_chaos_is_deterministic(self, tmp_path):
        def one(tag):
            return run_matrix(
                _pairs(), workers=2, cache=ResultCache(tmp_path / tag),
                chaos="kill-worker:1,fail-job:1",
                policy=ResiliencePolicy(retries=2, backoff_base=0.01, backoff_seed=7),
            )

        first, second = one("g1"), one("g2")
        assert _result_dicts(first) == _result_dicts(second)
        assert [(o.digest, o.status, o.attempts, o.attempt_errors) for o in first] \
            == [(o.digest, o.status, o.attempts, o.attempt_errors) for o in second]

    def test_supervisor_blocks_while_every_worker_is_busy(self, tmp_path):
        # Two slow jobs hold both workers for 2 s while a third, due at
        # once, waits for a slot: the supervisor must sleep on the
        # workers' pipes, not poll, or it takes a core from them.
        pairs = _pairs() + [("t", JobSpec("single", "FIR", scale=SCALE))]
        preload_job_closure()
        start = time.process_time()
        outcomes = run_matrix(pairs, workers=2, cache=ResultCache(tmp_path / "s"),
                              chaos="slow-worker:2:2000")
        assert [o.status for o in outcomes] == ["ok"] * 3
        assert time.process_time() - start < 1.0


class TestJournalResume:
    def test_failed_job_rerun_on_resume(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        journal = SweepJournal.for_cache(cache)
        first = run_matrix(
            _pairs(), workers=2, cache=cache, journal=journal,
            chaos="fail-job:1", policy=ResiliencePolicy(retries=0),
        )
        assert sum(1 for o in first if o.result is None) == 1
        records = journal.load()
        assert {r["status"] for r in records.values()} == {"ok", "failed"}

        resumed = run_matrix(
            _pairs(), workers=2, cache=cache, journal=journal, resume=True,
        )
        assert all(o.result is not None for o in resumed)
        # The healthy job came from the cache; only the failure re-ran.
        assert sum(1 for o in resumed if o.cached) == 1
        assert {r["status"] for r in journal.load().values()} == {"ok"}

    def test_journal_lines_are_sorted_json(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        journal = SweepJournal.for_cache(cache)
        run_matrix(_pairs()[:1], workers=1, cache=cache, journal=journal)
        lines = journal.path.read_text().splitlines()
        for line in lines:
            event = json.loads(line)
            assert line == json.dumps(event, sort_keys=True)


class TestCrossBackendRetryEquivalence:
    """A transient fail-then-succeed must be bit-identical to first-try
    success on *both* backends — retries never perturb results."""

    @pytest.mark.parametrize("backend", ["event", "functional"])
    def test_retry_equivalence(self, tmp_path, backend):
        pairs = [("t", JobSpec("single", "MM", scale=SCALE, backend=backend))]
        clean = run_matrix(pairs, workers=1, cache=ResultCache(tmp_path / "clean"))
        retried = run_matrix(
            pairs, workers=1, cache=ResultCache(tmp_path / "retried"),
            chaos="fail-job:1",
            policy=ResiliencePolicy(retries=1, backoff_base=0.01),
        )
        (outcome,) = retried
        assert outcome.attempts == 2
        assert outcome.attempt_errors[0] == "ChaosFault"
        assert _result_dicts(retried) == _result_dicts(clean)


class TestChaosCacheCorruption:
    def test_corrupted_entry_quarantined_and_resimulated(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = run_matrix(_pairs(), workers=1, cache=cache)
        with pytest.warns(Warning, match="quarantined"):
            second = run_matrix(
                _pairs(), workers=1, cache=cache, chaos="corrupt-cache:1",
            )
        assert cache.corruptions == 1
        assert len(list(cache.cache_dir.glob("*.corrupt"))) == 1
        # The re-simulated job reproduces the original result bit-for-bit.
        assert _result_dicts(second) == _result_dicts(first)
        assert sum(1 for o in second if not o.cached) == 1
