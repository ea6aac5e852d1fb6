"""Unit tests for the regulation invariants (§2.2, Figure 1)."""


from repro.core.actions import Action, ActionHistory, ActionHistoryTuple, ActionType
from repro.core.consistency import regulation_requires_any_of
from repro.core.dataunit import Database, DataCategory, DataUnit
from repro.core.entities import controller, data_subject
from repro.core.invariants import (
    NOTIFY_PURPOSE,
    PIA_UNIT,
    World,
    check_invariants,
    demonstrability,
    design_security,
    disclosure,
    figure1_invariants,
    g17_erasure_deadline,
    g6_policy_consistency,
    obligations,
    pre_processing,
    record_keeping,
    sharing_processing,
    storage_rights,
)
from repro.core.policy import Policy, PolicySet, Purpose

USER = data_subject("1234")
NETFLIX = controller("Netflix")


def unit_with(uid="x", policies=(), category=DataCategory.BASE):
    u = DataUnit(uid, USER, "form", category=category, policies=PolicySet(policies))
    return u


def tup(uid, action_type, t, purpose=Purpose.BILLING, detail=None):
    return ActionHistoryTuple(uid, purpose, NETFLIX, Action(action_type, detail), t)


def evaluate(invariant, database, history, now):
    world = World(database=database, history=history, now=now)
    return check_invariants(world, [invariant]).verdicts[0]


class TestG6:
    def test_holds_when_every_action_authorized(self):
        u = unit_with(policies=[Policy(Purpose.BILLING, NETFLIX, 0, 100)])
        u.write("v", 5)
        db = Database([u])
        h = ActionHistory([tup("x", ActionType.READ, 10)])
        verdict = evaluate(g6_policy_consistency(), db, h, now=50)
        assert verdict.holds and verdict.checked_units == 1

    def test_reports_unauthorized_action_with_witness(self):
        u = unit_with()
        db = Database([u])
        h = ActionHistory([tup("x", ActionType.READ, 10)])
        verdict = evaluate(g6_policy_consistency(), db, h, now=50)
        assert not verdict.holds
        assert verdict.violations[0].witness.timestamp == 10
        assert "no authorizing policy" in verdict.violations[0].message

    def test_regulation_escape_hatch(self):
        u = unit_with()
        db = Database([u])
        h = ActionHistory(
            [tup("x", ActionType.ERASE, 10, purpose=Purpose.COMPLIANCE_ERASE)]
        )
        checker = g6_policy_consistency(
            regulation_requires_any_of(Purpose.COMPLIANCE_ERASE)
        )
        assert evaluate(checker, db, h, now=50).holds


class TestG17:
    def _unit(self, deadline=100):
        return unit_with(
            policies=[Policy(Purpose.COMPLIANCE_ERASE, NETFLIX, 0, deadline)]
        )

    def test_no_erase_policy_is_immediate_violation(self):
        db = Database([unit_with()])
        verdict = evaluate(g17_erasure_deadline(), db, ActionHistory(), now=0)
        assert not verdict.holds
        assert "eternally" in verdict.violations[0].message

    def test_future_deadline_not_yet_violated(self):
        db = Database([self._unit(deadline=100)])
        assert evaluate(g17_erasure_deadline(), db, ActionHistory(), now=50).holds

    def test_passed_deadline_without_erase_violates(self):
        db = Database([self._unit(deadline=100)])
        verdict = evaluate(g17_erasure_deadline(), db, ActionHistory(), now=101)
        assert not verdict.holds
        assert "passed" in verdict.violations[0].message

    def test_timely_erase_satisfies(self):
        db = Database([self._unit(deadline=100)])
        h = ActionHistory([tup("x", ActionType.ERASE, 90)])
        assert evaluate(g17_erasure_deadline(), db, h, now=200).holds

    def test_late_erase_violates(self):
        db = Database([self._unit(deadline=100)])
        h = ActionHistory([tup("x", ActionType.ERASE, 150)])
        verdict = evaluate(g17_erasure_deadline(), db, h, now=200)
        assert not verdict.holds
        assert "after the deadline" in verdict.violations[0].message

    def test_action_after_erase_violates_last_action_clause(self):
        """'the last access tuple on X is … erase' — later reads break it."""
        db = Database([self._unit(deadline=100)])
        h = ActionHistory(
            [tup("x", ActionType.ERASE, 90), tup("x", ActionType.READ, 95)]
        )
        verdict = evaluate(g17_erasure_deadline(), db, h, now=200)
        assert not verdict.holds
        assert "post-dates the erase" in verdict.violations[0].message

    def test_metadata_units_exempt(self):
        db = Database([unit_with(category=DataCategory.METADATA)])
        assert evaluate(g17_erasure_deadline(), db, ActionHistory(), now=999).holds


class TestDisclosure:
    def test_contract_before_create_holds(self):
        u = unit_with()
        db = Database([u])
        h = ActionHistory(
            [tup("x", ActionType.CONTRACT, 5), tup("x", ActionType.CREATE, 10)]
        )
        assert evaluate(disclosure(), db, h, 50).holds

    def test_create_without_contract_violates(self):
        db = Database([unit_with()])
        h = ActionHistory([tup("x", ActionType.CREATE, 10)])
        verdict = evaluate(disclosure(), db, h, 50)
        assert not verdict.holds

    def test_contract_after_create_violates(self):
        db = Database([unit_with()])
        h = ActionHistory(
            [tup("x", ActionType.CREATE, 10), tup("x", ActionType.CONTRACT, 20)]
        )
        assert not evaluate(disclosure(), db, h, 50).holds

    def test_never_created_is_fine(self):
        db = Database([unit_with()])
        assert evaluate(disclosure(), db, ActionHistory(), 50).holds


class TestStorageRights:
    def test_unit_with_policies_holds(self):
        u = unit_with(policies=[Policy(Purpose.BILLING, NETFLIX, 0, 10)])
        assert evaluate(storage_rights(), Database([u]), ActionHistory(), 5).holds

    def test_policyless_unit_violates(self):
        verdict = evaluate(
            storage_rights(), Database([unit_with()]), ActionHistory(), 5
        )
        assert not verdict.holds
        assert "rights cannot be exercised" in verdict.violations[0].message

    def test_erased_unit_exempt(self):
        u = unit_with()
        u.mark_erased(1)
        assert evaluate(storage_rights(), Database([u]), ActionHistory(), 5).holds


class TestPreProcessing:
    def test_pia_before_first_processing_holds(self):
        db = Database([unit_with()])
        h = ActionHistory(
            [
                tup(PIA_UNIT, ActionType.CONTRACT, 1),
                tup("x", ActionType.CREATE, 10),
            ]
        )
        assert evaluate(pre_processing(), db, h, 50).holds

    def test_missing_pia_violates(self):
        db = Database([unit_with()])
        h = ActionHistory([tup("x", ActionType.CREATE, 10)])
        verdict = evaluate(pre_processing(), db, h, 50)
        assert not verdict.holds
        assert "impact assessment" in verdict.violations[0].message

    def test_no_processing_at_all_holds(self):
        assert evaluate(pre_processing(), Database(), ActionHistory(), 50).holds


class TestSharingProcessing:
    def test_authorized_share_holds(self):
        u = unit_with(policies=[Policy(Purpose.ANALYTICS, NETFLIX, 0, 100)])
        h = ActionHistory([tup("x", ActionType.SHARE, 10, purpose=Purpose.ANALYTICS)])
        assert evaluate(sharing_processing(), Database([u]), h, 50).holds

    def test_unauthorized_share_violates(self):
        u = unit_with()
        h = ActionHistory([tup("x", ActionType.SHARE, 10)])
        assert not evaluate(sharing_processing(), Database([u]), h, 50).holds

    def test_reads_not_this_invariants_business(self):
        u = unit_with()
        h = ActionHistory([tup("x", ActionType.READ, 10)])
        assert evaluate(sharing_processing(), Database([u]), h, 50).holds


class TestDesignSecurity:
    def test_encrypted_deployment_holds(self):
        inv = design_security(lambda: True)
        assert evaluate(inv, Database(), ActionHistory(), 0).holds

    def test_unencrypted_deployment_violates(self):
        inv = design_security(lambda: False)
        assert not evaluate(inv, Database(), ActionHistory(), 0).holds


class TestRecordKeeping:
    def test_unrecorded_unit_violates(self):
        db = Database([unit_with()])
        verdict = evaluate(record_keeping(), db, ActionHistory(), 0)
        assert not verdict.holds

    def test_recorded_unit_holds(self):
        db = Database([unit_with()])
        h = ActionHistory([tup("x", ActionType.CREATE, 1)])
        assert evaluate(record_keeping(), db, h, 0).holds


class TestObligations:
    def test_breach_without_notification_violates(self):
        u = unit_with()  # no policies -> any read is a breach
        h = ActionHistory([tup("x", ActionType.READ, 10)])
        verdict = evaluate(obligations(), Database([u]), h, 50)
        assert not verdict.holds
        assert "never notified" in verdict.violations[0].message

    def test_breach_followed_by_notification_holds(self):
        u = unit_with()
        h = ActionHistory(
            [
                tup("x", ActionType.READ, 10),
                tup(
                    "x",
                    ActionType.SHARE,
                    20,
                    purpose=NOTIFY_PURPOSE,
                ),
            ]
        )
        assert evaluate(obligations(), Database([u]), h, 50).holds

    def test_no_breach_no_duty(self):
        u = unit_with(policies=[Policy(Purpose.BILLING, NETFLIX, 0, 100)])
        h = ActionHistory([tup("x", ActionType.READ, 10)])
        assert evaluate(obligations(), Database([u]), h, 50).holds


class TestDemonstrability:
    def test_history_covering_all_mutations_holds(self):
        u = unit_with()
        u.write("v1", 5)
        u.write("v2", 10)
        h = ActionHistory(
            [tup("x", ActionType.CREATE, 5), tup("x", ActionType.UPDATE, 10)]
        )
        assert evaluate(demonstrability(), Database([u]), h, 50).holds

    def test_missing_history_tuples_violate(self):
        u = unit_with()
        u.write("v1", 5)
        u.write("v2", 10)
        h = ActionHistory([tup("x", ActionType.CREATE, 5)])
        verdict = evaluate(demonstrability(), Database([u]), h, 50)
        assert not verdict.holds
        assert "only 1 in the action history" in verdict.violations[0].message


def test_figure1_returns_nine_invariants_in_order():
    invariants = figure1_invariants()
    names = [inv.name for inv in invariants]
    assert names == [
        "I-disclosure",
        "II-storage-rights",
        "III-pre-processing",
        "IV-sharing-processing",
        "V-erasure",
        "VI-design-security",
        "VII-record-keeping",
        "VIII-obligations",
        "IX-demonstrability",
    ]
