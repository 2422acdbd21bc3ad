"""Every staticcheck rule against its known-bad/known-good fixture.

Each fixture file marks the lines that must be reported with a trailing
``# fires`` comment; every unmarked line must stay silent.  The checks
run with the *full* rule set, so a fixture that accidentally trips a
second rule fails loudly instead of hiding cross-fire.
"""

import re
from pathlib import Path

import pytest

from repro.staticcheck import all_rules, check_source, get_rule

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> the fixture exercising it.
RULE_FIXTURES = {
    "C1": "c1_blocking_in_async.py",
    "C2": "c2_await_under_sync_lock.py",
    "C3": "c3_unguarded_acquire.py",
    "C4": "c4_unlocked_shared_state.py",
    "D10": "d10_order_taint.py",
    "D1": "d1_unordered_iteration.py",
    "D2": "d2_wall_clock.py",
    "D3": "d3_schedule_in_past.py",
    "D5": "d5_float_cycle.py",
    "D6": "d6_config_mutation.py",
    "D7": "d7_stats_ownership.py",
    "D8": "d8_telemetry_guard.py",
    "D9": "d9_unseeded_rng.py",
    "G1": "g1_bare_except.py",
    "G2": "g2_mutable_default.py",
}


_MARKER = re.compile(r"#\s*fires\s*$")


def marked_lines(source: str) -> list[int]:
    return [
        lineno
        for lineno, line in enumerate(source.splitlines(), start=1)
        if _MARKER.search(line)
    ]


@pytest.mark.parametrize("rule_id,filename", sorted(RULE_FIXTURES.items()))
def test_rule_fires_exactly_on_marked_lines(rule_id, filename):
    source = (FIXTURES / filename).read_text()
    expected = marked_lines(source)
    assert expected, f"fixture {filename} has no `# fires` markers"

    violations = check_source(source, filename)
    assert sorted(v.line for v in violations) == expected
    # No cross-fire: the fixture trips its own rule and nothing else.
    assert {v.rule_id for v in violations} == {rule_id}
    for violation in violations:
        assert violation.path == filename
        assert violation.rule_name == get_rule(rule_id).name
        assert violation.message


@pytest.mark.parametrize("rule_id,filename", sorted(RULE_FIXTURES.items()))
def test_rule_fires_when_run_alone(rule_id, filename):
    source = (FIXTURES / filename).read_text()
    violations = check_source(source, filename, rules=[get_rule(rule_id)])
    assert sorted(v.line for v in violations) == marked_lines(source)


def test_every_registered_rule_has_a_fixture():
    assert {rule.id for rule in all_rules()} == set(RULE_FIXTURES)


def test_registry_is_sorted_and_described():
    rules = all_rules()
    assert [r.id for r in rules] == sorted(r.id for r in rules)
    assert len({r.id for r in rules}) == len(rules)
    for rule in rules:
        assert rule.name and rule.description
        assert get_rule(rule.id) is rule
        assert get_rule(rule.id.lower()) is rule


def test_get_rule_unknown_raises():
    with pytest.raises(KeyError):
        get_rule("D99")


class TestD9BackendScope:
    """D9's stricter backend clause: inside ``repro/sim/backends/`` even
    a *seeded* numpy generator is flagged — replay fidelity requires
    drawing through the engine's own seeded structures, and an
    identically-seeded numpy generator still yields a different draw
    sequence than CPython's Mersenne Twister."""

    SEEDED_NUMPY = "import numpy as np\nrng = np.random.default_rng(7)\n"
    SEEDED_STDLIB = "import random\nrng = random.Random(7)\n"

    def _check(self, source, path):
        return check_source(source, path, rules=[get_rule("D9")])

    def test_seeded_numpy_generator_fires_in_backend_code(self):
        violations = self._check(
            self.SEEDED_NUMPY, "src/repro/sim/backends/functional.py"
        )
        assert [v.line for v in violations] == [2]
        assert "backend" in violations[0].message

    def test_seeded_numpy_generator_is_fine_elsewhere(self):
        assert self._check(self.SEEDED_NUMPY, "src/repro/workloads/gen.py") == []

    def test_seeded_stdlib_rng_is_fine_in_backend_code(self):
        # The engine's own idiom (random.Random(config.seed)) stays legal.
        assert (
            self._check(self.SEEDED_STDLIB, "src/repro/sim/backends/functional.py")
            == []
        )

    def test_unseeded_stdlib_rng_fires_in_backend_code(self):
        source = "import random\nrng = random.Random()\n"
        violations = self._check(source, "src/repro/sim/backends/functional.py")
        assert [v.line for v in violations] == [2]
