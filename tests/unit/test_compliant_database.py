"""Unit tests for the CompliantDatabase facade — the grounded public API."""

import pytest

from repro.access.errors import AccessDenied
from repro.core.entities import controller, data_subject, processor
from repro.core.erasure import ErasureInterpretation
from repro.core.policy import Policy, Purpose
from repro.core.provenance import DependencyKind
from repro.systems.database import (
    CompliantDatabase,
    UnsupportedGroundingError,
)

METASPACE = controller("MetaSpace")
USER = data_subject("user-1")
AWS = processor("AWS")
WINDOW = (0, 10**12)


def make_db(**kwargs):
    return CompliantDatabase(METASPACE, **kwargs)


def collect_unit(db, uid="u1", subject=USER, deadline=10**12):
    return db.collect(
        uid,
        subject,
        "app",
        {"v": 1},
        policies=[
            Policy(Purpose.SERVICE, METASPACE, *WINDOW),
            Policy(Purpose.SERVICE, subject, *WINDOW),
        ],
        erase_deadline=deadline,
    )


class TestConstruction:
    def test_requires_controller(self):
        with pytest.raises(ValueError, match="controller"):
            CompliantDatabase(USER)

    def test_permanent_delete_cannot_be_default(self):
        with pytest.raises(UnsupportedGroundingError):
            make_db(default_erasure=ErasureInterpretation.PERMANENTLY_DELETED)

    def test_selected_grounding_registered(self):
        db = make_db(default_erasure=ErasureInterpretation.STRONGLY_DELETED)
        assert db.selected_erasure is ErasureInterpretation.STRONGLY_DELETED
        chosen = db.groundings.selected("erasure", "psql")
        assert chosen is not None
        assert chosen.interpretation.name == "strong delete"


class TestCollectAndAccess:
    def test_collect_records_contract_then_create(self):
        db = make_db()
        collect_unit(db)
        types = [e.action.type.value for e in db.history.of("u1")]
        assert types[:2] == ["contract", "create"]

    def test_read_with_policy(self):
        db = make_db()
        collect_unit(db)
        assert db.read("u1", METASPACE, Purpose.SERVICE) == {"v": 1}

    def test_read_without_policy_denied(self):
        db = make_db()
        collect_unit(db)
        with pytest.raises(AccessDenied):
            db.read("u1", AWS, Purpose.SERVICE)
        with pytest.raises(AccessDenied):
            db.read("u1", METASPACE, Purpose.ADVERTISING)

    def test_update_versions_model(self):
        db = make_db()
        unit = collect_unit(db)
        db.update("u1", METASPACE, Purpose.SERVICE, {"v": 2})
        assert unit.current_value == {"v": 2}
        assert len(unit.versions) == 2

    def test_derive_requires_authorization(self):
        db = make_db()
        collect_unit(db)
        with pytest.raises(AccessDenied):
            db.derive_unit("d1", ["u1"], 42, AWS, Purpose.ANALYTICS)

    def test_derive_builds_provenance(self):
        db = make_db()
        collect_unit(db)
        db.derive_unit(
            "d1", ["u1"], 42, METASPACE, Purpose.SERVICE,
            kind=DependencyKind.AGGREGATE, invertible=False,
        )
        assert db.provenance.descendants("u1") == {"d1"}
        assert USER in db.model.get("d1").subjects


class TestErasureInterpretations:
    def test_reversible_hides_from_subject_not_controller(self):
        db = make_db()
        collect_unit(db)
        outcome = db.erase(
            "u1", interpretation=ErasureInterpretation.REVERSIBLY_INACCESSIBLE
        )
        assert outcome.system_actions == ("Add new attribute",)
        # controller still reads; the data subject is locked out
        assert db.read("u1", METASPACE, Purpose.SERVICE) is not None
        with pytest.raises(AccessDenied):
            db.read("u1", USER, Purpose.SERVICE)

    def test_reversible_is_restorable(self):
        db = make_db()
        collect_unit(db)
        db.erase("u1", interpretation=ErasureInterpretation.REVERSIBLY_INACCESSIBLE)
        db.restore("u1")
        assert db.read("u1", USER, Purpose.SERVICE) == {"v": 1}

    def test_restore_unflagged_rejected(self):
        db = make_db()
        collect_unit(db)
        with pytest.raises(ValueError, match="not flagged"):
            db.restore("u1")

    def test_delete_erases_value_and_vacuums(self):
        db = make_db()
        unit = collect_unit(db)
        outcome = db.erase("u1", interpretation=ErasureInterpretation.DELETED)
        assert outcome.system_actions == ("DELETE", "VACUUM")
        assert unit.is_erased
        assert not db.physically_present("u1")  # vacuum pruned the dead tuple

    def test_strong_delete_cascades_identifying_descendants(self):
        db = make_db()
        collect_unit(db)
        db.derive_unit(
            "cache", ["u1"], {"v": 1}, METASPACE, Purpose.SERVICE,
            kind=DependencyKind.COPY, invertible=True, identifying=True,
        )
        db.derive_unit(
            "stats", ["u1"], 3, METASPACE, Purpose.SERVICE,
            kind=DependencyKind.AGGREGATE, invertible=False, identifying=False,
        )
        outcome = db.erase("u1", interpretation=ErasureInterpretation.STRONGLY_DELETED)
        assert outcome.cascaded_units == ("cache",)
        assert db.model.get("cache").is_erased
        assert not db.model.get("stats").is_erased  # anonymized: retained

    def test_permanent_delete_unsupported(self):
        db = make_db()
        collect_unit(db)
        with pytest.raises(UnsupportedGroundingError):
            db.erase("u1", interpretation=ErasureInterpretation.PERMANENTLY_DELETED)


class TestComplianceAndTimeline:
    def test_compliant_lifecycle(self):
        db = make_db()
        collect_unit(db)
        db.read("u1", METASPACE, Purpose.SERVICE)
        db.erase("u1")
        report = db.check_compliance()
        assert report.compliant, report.render()

    def test_g17_violation_when_deadline_passes(self):
        db = make_db()
        collect_unit(db, deadline=100)
        report = db.check_compliance(now=10**11)
        assert not report.compliant
        assert not report.verdict("G17-erasure-deadline").holds

    def test_timeline_delete(self):
        db = make_db()
        collect_unit(db)
        db.erase("u1", interpretation=ErasureInterpretation.DELETED)
        timeline = db.timeline("u1")
        assert timeline.reached(ErasureInterpretation.DELETED)
        assert not timeline.reached(ErasureInterpretation.STRONGLY_DELETED)
        assert timeline.time_to_delete > 0

    def test_timeline_strong_delete(self):
        db = make_db()
        collect_unit(db)
        db.erase("u1", interpretation=ErasureInterpretation.STRONGLY_DELETED)
        timeline = db.timeline("u1")
        assert timeline.reached(ErasureInterpretation.STRONGLY_DELETED)
        assert not timeline.reached(ErasureInterpretation.PERMANENTLY_DELETED)

    def test_timeline_reversible_only_inaccessible(self):
        db = make_db()
        collect_unit(db)
        db.erase("u1", interpretation=ErasureInterpretation.REVERSIBLY_INACCESSIBLE)
        timeline = db.timeline("u1")
        assert timeline.time_to_live is not None
        assert not timeline.reached(ErasureInterpretation.DELETED)

    def test_delete_without_vacuum_would_retain(self):
        """Contrast: plain engine DELETE leaves the value forensically
        recoverable; the facade's delete grounding vacuums it away."""
        db = make_db()
        collect_unit(db)
        db.engine.delete("data_units", "u1")
        assert db.physically_present("u1")


class TestEraseDispatch:
    @pytest.mark.parametrize("interpretation", list(ErasureInterpretation))
    def test_erase_is_a_one_unit_erase_many(self, interpretation):
        """``erase`` and a one-unit ``erase_many`` take the same path: the
        same outcome, history and physical state under every
        interpretation."""
        backend = (
            "crypto-shred"
            if interpretation is ErasureInterpretation.PERMANENTLY_DELETED
            else "psql"
        )
        single, batch = make_db(backend=backend), make_db(backend=backend)
        for db in (single, batch):
            collect_unit(db)
        outcome = single.erase("u1", interpretation=interpretation)
        (batched,) = batch.erase_many(["u1"], interpretation=interpretation)
        assert outcome == batched
        assert outcome.interpretation is interpretation
        assert [e.action.type for e in single.history.of("u1")] == [
            e.action.type for e in batch.history.of("u1")
        ]
        assert single.physically_present("u1") == batch.physically_present("u1")
