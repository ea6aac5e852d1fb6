"""Unit tests for the compliance report check_invariants builds."""

import pytest

from repro.core.actions import Action, ActionHistory, ActionHistoryTuple, ActionType
from repro.core.consistency import regulation_requires_any_of
from repro.core.dataunit import Database, DataUnit
from repro.core.entities import controller, data_subject
from repro.core.invariants import (
    World,
    check_invariants,
    figure1_invariants,
    g17_erasure_deadline,
    g6_policy_consistency,
)
from repro.core.policy import Policy, PolicySet, Purpose
from repro.systems.database import CompliantDatabase

USER = data_subject("1234")
NETFLIX = controller("Netflix")


def compliant_unit(uid="x", deadline=1_000):
    u = DataUnit(
        uid,
        USER,
        "form",
        policies=PolicySet(
            [
                Policy(Purpose.BILLING, NETFLIX, 0, deadline),
                Policy(Purpose.COMPLIANCE_ERASE, NETFLIX, 0, deadline),
            ]
        ),
    )
    return u


def read(uid="x", t=10):
    return ActionHistoryTuple(uid, Purpose.BILLING, NETFLIX, Action(ActionType.READ), t)


def check(database, history, now):
    """G6 and G17 over one model world — ``check_compliance``'s default."""
    world = World(database=database, history=history, now=now)
    return check_invariants(world, [g6_policy_consistency(), g17_erasure_deadline()])


class TestComplianceReport:
    def test_default_invariants_are_g6_and_g17(self):
        names = set(CompliantDatabase(NETFLIX).check_compliance().summary())
        assert names == {"G6-policy-consistency", "G17-erasure-deadline"}

    def test_compliant_deployment(self):
        db = Database([compliant_unit()])
        h = ActionHistory([read()])
        report = check(db, h, now=100)
        assert report.compliant
        assert report.summary() == {
            "G6-policy-consistency": True,
            "G17-erasure-deadline": True,
        }

    def test_violations_surface_in_report(self):
        u = compliant_unit()
        db = Database([u])
        h = ActionHistory([read(t=5_000)])  # after every policy expired
        report = check(db, h, now=5_001)
        assert not report.compliant
        assert len(report.violations) >= 2  # G6 breach + G17 deadline passed
        assert not report.verdict("G6-policy-consistency").holds

    def test_verdict_lookup_unknown_raises(self):
        report = check(Database(), ActionHistory(), 0)
        with pytest.raises(KeyError):
            report.verdict("no-such-invariant")
        assert "G6-policy-consistency" in report

    def test_render_includes_status_lines(self):
        db = Database([DataUnit("bad", USER, "form")])
        report = check(db, ActionHistory(), now=10)
        text = report.render()
        assert "NON-COMPLIANT" in text
        assert "[FAIL]" in text and "[PASS]" in text

    def test_render_truncates_violations(self):
        db = Database(
            [DataUnit(f"bad{i}", USER, "form") for i in range(10)]
        )
        report = check(db, ActionHistory(), now=10)
        text = report.render(max_violations=3)
        assert "… and 7 more" in text

    def test_report_evaluated_at(self):
        report = check(Database(), ActionHistory(), now=77)
        assert report.evaluated_at == 77


def test_check_compliance_is_check_invariants_over_the_model():
    db = CompliantDatabase(NETFLIX)
    db.collect(
        "x",
        USER,
        "form",
        {"v": 1},
        policies=[Policy(Purpose.BILLING, NETFLIX, 0, 10**12)],
        erase_deadline=10**12,
    )
    db.read("x", NETFLIX, Purpose.BILLING)
    # An unnotified breach the gate did not see, and no impact assessment
    # on record: VIII and III fail with witnesses, VI on its declaration.
    db.log.record("x", Purpose.ANALYTICS, NETFLIX, ActionType.READ, db.clock.now)
    registry = figure1_invariants(
        regulation_requires_any_of(Purpose.COMPLIANCE_ERASE), lambda: False
    )
    world = World(database=db.model, history=db.history, now=db.clock.now)
    direct = check_invariants(world, registry)
    via_facade = db.check_compliance(registry)
    assert direct.summary() == via_facade.summary()
    assert direct.violations == via_facade.violations
    failed = {name for name, holds in direct.summary().items() if not holds}
    assert failed == {"III-pre-processing", "VI-design-security", "VIII-obligations"}
