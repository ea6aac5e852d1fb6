"""Property tests: the compliance checker against a reference oracle.

Random policy sets and action histories are generated; the G6 verdict must
agree with a brute-force oracle, and the checker must be deterministic and
total (never crash, always produce a verdict per invariant).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import Action, ActionHistory, ActionHistoryTuple, ActionType
from repro.core.dataunit import Database, DataUnit
from repro.core.entities import Entity, Role
from repro.core.invariants import (
    World,
    check_invariants,
    g17_erasure_deadline,
    g6_policy_consistency,
)
from repro.core.policy import Policy, PolicySet, Purpose

ENTITIES = [
    Entity("controller-a", frozenset({Role.CONTROLLER})),
    Entity("processor-b", frozenset({Role.PROCESSOR})),
]
PURPOSES = [Purpose.BILLING, Purpose.ANALYTICS, Purpose.COMPLIANCE_ERASE]
ACTIONS = [ActionType.CREATE, ActionType.READ, ActionType.UPDATE, ActionType.ERASE]


def check(database, history, now, invariants=None):
    """Evaluate ``invariants`` (default G6 and G17) over one model world."""
    if invariants is None:
        invariants = [g6_policy_consistency(), g17_erasure_deadline()]
    world = World(database=database, history=history, now=now)
    return check_invariants(world, invariants)


@st.composite
def worlds(draw):
    """(database, history) with 1–3 units, random policies and actions."""
    n_units = draw(st.integers(min_value=1, max_value=3))
    database = Database()
    history = ActionHistory()
    for i in range(n_units):
        policies = PolicySet()
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            begin = draw(st.integers(min_value=0, max_value=500))
            policies.add(
                Policy(
                    draw(st.sampled_from(PURPOSES)),
                    draw(st.sampled_from(ENTITIES)),
                    begin,
                    begin + draw(st.integers(min_value=0, max_value=500)),
                )
            )
        unit = DataUnit(f"u{i}", ENTITIES[0], "origin", policies=policies)
        database.add(unit)
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            history.record(
                ActionHistoryTuple(
                    f"u{i}",
                    draw(st.sampled_from(PURPOSES)),
                    draw(st.sampled_from(ENTITIES)),
                    Action(draw(st.sampled_from(ACTIONS))),
                    draw(st.integers(min_value=0, max_value=1_000)),
                )
            )
    return database, history


def g6_oracle(database, history):
    """Brute force: an entry is consistent iff some policy covers it."""
    violations = 0
    for unit in database:
        for entry in history.of(unit.unit_id):
            covered = any(
                p.purpose == entry.purpose
                and p.entity == entry.entity
                and p.t_begin <= entry.timestamp <= p.t_final
                for p in unit.policies
            )
            if not covered:
                violations += 1
    return violations


@given(world=worlds(), now=st.integers(min_value=0, max_value=2_000))
@settings(max_examples=60, deadline=None)
def test_g6_matches_oracle(world, now):
    database, history = world
    verdict = check(database, history, now, [g6_policy_consistency()]).verdicts[0]
    assert len(verdict.violations) == g6_oracle(database, history)
    assert verdict.holds == (g6_oracle(database, history) == 0)


@given(world=worlds(), now=st.integers(min_value=0, max_value=2_000))
@settings(max_examples=60, deadline=None)
def test_checker_is_total_and_deterministic(world, now):
    database, history = world
    first = check(database, history, now)
    second = check(database, history, now)
    assert first.summary() == second.summary()
    assert len(first.verdicts) == 2
    assert first.compliant == (not first.violations)


@given(world=worlds(), now=st.integers(min_value=0, max_value=2_000))
@settings(max_examples=60, deadline=None)
def test_g17_never_passes_policyless_units(world, now):
    database, history = world
    verdict = check(database, history, now, [g17_erasure_deadline()]).verdicts[0]
    for unit in database:
        if unit.policies.erasure_deadline() is None:
            assert any(
                v.unit_id == unit.unit_id for v in verdict.violations
            ), "a unit without an erase deadline must be flagged"


@given(world=worlds())
@settings(max_examples=30, deadline=None)
def test_render_never_crashes(world):
    database, history = world
    report = check(database, history, now=100)
    text = report.render()
    assert "Compliance report" in text
