"""Integration: end-to-end compliance life cycles on CompliantDatabase.

These are the paper's §4 usage stories executed against the full stack:
model + engine + grounding + checker + all nine Figure-1 invariants.
"""

import pytest

from repro.access.errors import AccessDenied
from repro.core.actions import ActionType
from repro.core.consistency import regulation_requires_any_of
from repro.core.entities import controller, data_subject, processor
from repro.core.erasure import ErasureInterpretation
from repro.core.invariants import PIA_UNIT, figure1_invariants
from repro.core.policy import Policy, Purpose
from repro.core.provenance import DependencyKind
from repro.systems.database import CompliantDatabase

METASPACE = controller("MetaSpace")
USER = data_subject("user-1234")
ANALYTICS_CO = processor("AnalyticsCo")
WINDOW = (0, 10**12)


@pytest.fixture
def db():
    return CompliantDatabase(METASPACE)


def consented_collect(db, uid="u1", subject=USER):
    return db.collect(
        uid,
        subject,
        "mobile-app",
        {"location": "atrium"},
        policies=[
            Policy(Purpose.SERVICE, METASPACE, *WINDOW),
            Policy(Purpose.SERVICE, subject, *WINDOW),
            Policy(Purpose.ANALYTICS, ANALYTICS_CO, *WINDOW),
        ],
        erase_deadline=10**12,
    )


class TestFullLifecycle:
    def test_collect_process_erase_is_compliant(self, db):
        consented_collect(db)
        db.read("u1", METASPACE, Purpose.SERVICE)
        db.read("u1", ANALYTICS_CO, Purpose.ANALYTICS)
        db.update("u1", METASPACE, Purpose.SERVICE, {"location": "food-court"})
        db.erase("u1")
        report = db.check_compliance()
        assert report.compliant, report.render()

    def test_figure1_invariants_on_healthy_deployment(self, db):
        consented_collect(db)
        db.read("u1", METASPACE, Purpose.SERVICE)
        # PIA on record before processing (category III).
        db.log.record(
            PIA_UNIT,
            Purpose.AUDIT,
            METASPACE,
            ActionType.CONTRACT,
            0,
        )
        invariants = figure1_invariants(
            required_by_regulation=regulation_requires_any_of(
                Purpose.COMPLIANCE_ERASE, Purpose.CONTRACT
            ),
            encrypted_at_rest=lambda: True,
        )
        report = db.check_compliance(invariants)
        # Erasure (V) legitimately fails-open: deadline far in the future,
        # no erase yet -> V holds because the deadline has not passed.
        assert report.compliant, report.render()

    def test_unauthorized_processor_is_blocked_and_history_is_clean(self, db):
        consented_collect(db)
        snooper = processor("snooper")
        with pytest.raises(AccessDenied):
            db.read("u1", snooper, Purpose.ANALYTICS)
        # The denied access never entered the action history: G6 still holds.
        assert db.check_compliance().compliant

    def test_consent_withdrawal_then_access_violates_g6(self, db):
        unit = consented_collect(db)
        analytics_policy = next(
            p for p in unit.policies if p.entity == ANALYTICS_CO
        )
        unit.policies.withdraw(analytics_policy, at=db.clock.now)
        # A buggy caller bypassing the gate and logging the access directly:
        db.log.record(
            "u1", Purpose.ANALYTICS, ANALYTICS_CO, ActionType.READ, db.clock.now
        )
        report = db.check_compliance()
        assert not report.verdict("G6-policy-consistency").holds

    def test_erase_after_deadline_detected(self, db):
        db.collect(
            "u1",
            USER,
            "app",
            {"v": 1},
            policies=[Policy(Purpose.SERVICE, METASPACE, *WINDOW)],
            erase_deadline=db.clock.now + 1,
        )
        # Burn simulated time past the deadline with engine work.
        for i in range(30):
            db.engine.insert("data_units", f"filler-{i}", i)
        db.erase("u1")
        report = db.check_compliance()
        assert not report.verdict("G17-erasure-deadline").holds


class TestStrongDeleteAcrossDerivations:
    def test_derived_chain_cascade(self, db):
        consented_collect(db)
        db.derive_unit(
            "d1", ["u1"], {"copy": True}, METASPACE, Purpose.SERVICE,
            kind=DependencyKind.COPY, invertible=True,
        )
        db.derive_unit(
            "d2", ["d1"], {"copy2": True}, METASPACE, Purpose.SERVICE,
            kind=DependencyKind.COPY, invertible=True,
        )
        outcome = db.erase(
            "u1", interpretation=ErasureInterpretation.STRONGLY_DELETED
        )
        assert set(outcome.cascaded_units) == {"d1", "d2"}
        for uid in ("u1", "d1", "d2"):
            assert db.model.get(uid).is_erased
            assert not db.physically_present(uid)

    def test_multi_subject_derivation_survives_other_subjects(self, db):
        consented_collect(db, "u1", USER)
        other = data_subject("user-5678")
        consented_collect(db, "u2", other)
        db.derive_unit(
            "agg", ["u1", "u2"], 2, METASPACE, Purpose.SERVICE,
            kind=DependencyKind.AGGREGATE, invertible=False, identifying=False,
        )
        db.erase("u1", interpretation=ErasureInterpretation.STRONGLY_DELETED)
        # The anonymized aggregate survives; the other subject's data too.
        assert not db.model.get("agg").is_erased
        assert not db.model.get("u2").is_erased


class TestRegulatorView:
    def test_grounding_satisfaction_question(self, db):
        """§4.4: a regulator requires at least 'delete'; a deployment that
        selected 'strong delete' satisfies it, one with only the flag does
        not."""
        strict = CompliantDatabase(
            METASPACE, default_erasure=ErasureInterpretation.STRONGLY_DELETED
        )
        weak = CompliantDatabase(
            METASPACE,
            default_erasure=ErasureInterpretation.REVERSIBLY_INACCESSIBLE,
        )
        required = strict.groundings.interpretation("erasure", "delete")
        assert strict.groundings.satisfies("erasure", "psql", required)
        assert not weak.groundings.satisfies("erasure", "psql", required)
