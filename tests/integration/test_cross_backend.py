"""Integration: grounding portability across storage backends.

The paper's central claim (§3–§4, Figure 2) is that a concept like erasure
is grounded per-deployment into engine-specific system-actions.  These
tests drive the same scenarios through the PSQL and LSM backends and
assert the *property profile* (Table 1's IR/II/Inv) and the compliance
behaviour are identical — only the system-actions differ.
"""

import pytest

from repro.access.errors import AccessDenied
from repro.bench.experiments import table1
from repro.core.entities import controller, data_subject
from repro.core.erasure import PAPER_TABLE1, ErasureInterpretation
from repro.core.policy import Policy, Purpose
from repro.core.provenance import DependencyKind
from repro.storage.errors import TupleNotFoundError
from repro.systems.database import CompliantDatabase, UnsupportedGroundingError

#: The native engines, whose Table-1 matrix matches the paper verbatim.
BACKENDS = ["psql", "lsm"]
#: Every backend, including the sanitize-capable crypto-shred retrofit.
ALL_BACKENDS = ["psql", "lsm", "crypto-shred"]

METASPACE = controller("MetaSpace")
USER = data_subject("user-1")
WINDOW = (0, 10**12)


def make_db(backend, **kwargs):
    return CompliantDatabase(METASPACE, backend=backend, **kwargs)


def collect_unit(db, uid="u1"):
    return db.collect(
        uid,
        USER,
        "app",
        {"v": 1},
        policies=[
            Policy(Purpose.SERVICE, METASPACE, *WINDOW),
            Policy(Purpose.SERVICE, USER, *WINDOW),
        ],
        erase_deadline=10**12,
    )


@pytest.mark.parametrize("backend", BACKENDS)
class TestTable1Profile:
    """Both backends must reproduce the paper's Table-1 property matrix."""

    def test_characterization_matches_paper(self, backend):
        for row in table1(backend=backend):
            expected = PAPER_TABLE1[row.interpretation]
            assert row.illegal_read == expected.illegal_read, row.interpretation
            assert (
                row.illegal_inference == expected.illegal_inference
            ), row.interpretation
            assert row.invertible == expected.invertible, row.interpretation
            assert row.supported == expected.supported, row.interpretation

    def test_only_reversible_is_invertible(self, backend):
        rows = table1(backend=backend)
        invertible = [r.interpretation for r in rows if r.invertible]
        assert invertible == [ErasureInterpretation.REVERSIBLY_INACCESSIBLE]

    def test_permanent_delete_unsupported(self, backend):
        db = make_db(backend)
        collect_unit(db)
        with pytest.raises(UnsupportedGroundingError):
            db.erase(
                "u1", interpretation=ErasureInterpretation.PERMANENTLY_DELETED
            )
        with pytest.raises(UnsupportedGroundingError):
            CompliantDatabase(
                METASPACE,
                backend=backend,
                default_erasure=ErasureInterpretation.PERMANENTLY_DELETED,
            )


def test_system_actions_differ_per_backend():
    """Same interpretations, engine-specific groundings (Figure 2 step 3)."""
    psql = {r.interpretation: r.system_actions for r in table1(backend="psql")}
    lsm = {r.interpretation: r.system_actions for r in table1(backend="lsm")}
    assert psql[ErasureInterpretation.DELETED] == ("DELETE", "VACUUM")
    assert lsm[ErasureInterpretation.DELETED] == ("tombstone", "victim compaction")
    assert psql[ErasureInterpretation.STRONGLY_DELETED] == (
        "DELETE",
        "VACUUM FULL",
    )
    assert lsm[ErasureInterpretation.STRONGLY_DELETED] == (
        "tombstone cascade",
        "full compaction",
    )


@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestStrongDeleteCascade:
    """Strong delete must cascade identically through the provenance graph
    regardless of the storage backend — provenance is model-level."""

    def _build(self, backend):
        db = make_db(backend)
        collect_unit(db)
        db.derive_unit(
            "cache", ["u1"], {"v": 1}, METASPACE, Purpose.SERVICE,
            kind=DependencyKind.COPY, invertible=True, identifying=True,
        )
        db.derive_unit(
            "profile", ["cache"], {"p": 1}, METASPACE, Purpose.SERVICE,
            kind=DependencyKind.TRANSFORM, invertible=False, identifying=True,
        )
        db.derive_unit(
            "stats", ["u1"], 3, METASPACE, Purpose.SERVICE,
            kind=DependencyKind.AGGREGATE, invertible=False, identifying=False,
        )
        return db

    def test_cascade_set_is_backend_independent(self, backend):
        db = self._build(backend)
        outcome = db.erase(
            "u1", interpretation=ErasureInterpretation.STRONGLY_DELETED
        )
        assert outcome.cascaded_units == ("cache", "profile")
        assert db.model.get("cache").is_erased
        assert db.model.get("profile").is_erased
        assert not db.model.get("stats").is_erased  # anonymized: retained

    def test_cascade_physically_erases_on_both(self, backend):
        db = self._build(backend)
        db.erase("u1", interpretation=ErasureInterpretation.STRONGLY_DELETED)
        for uid in ("u1", "cache", "profile"):
            assert not db.physically_present(uid), (backend, uid)
        assert db.physically_present("stats")

    def test_compliance_holds_after_cascade(self, backend):
        db = self._build(backend)
        db.erase("u1", interpretation=ErasureInterpretation.STRONGLY_DELETED)
        report = db.check_compliance()
        assert report.compliant, report.render()


@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestLifecycleParity:
    """The facade's guarantees hold identically over either backend."""

    def test_reversible_hides_restores_and_stays_physical(self, backend):
        db = make_db(backend)
        collect_unit(db)
        db.erase(
            "u1", interpretation=ErasureInterpretation.REVERSIBLY_INACCESSIBLE
        )
        assert db.read("u1", METASPACE, Purpose.SERVICE) == {"v": 1}
        with pytest.raises(AccessDenied):
            db.read("u1", USER, Purpose.SERVICE)
        assert db.physically_present("u1")  # invertible ⇒ value retained
        db.restore("u1")
        assert db.read("u1", USER, Purpose.SERVICE) == {"v": 1}

    def test_delete_is_physically_gone(self, backend):
        db = make_db(backend)
        collect_unit(db)
        db.erase("u1", interpretation=ErasureInterpretation.DELETED)
        assert not db.physically_present("u1")

    def test_timeline_milestones_match(self, backend):
        db = make_db(backend)
        collect_unit(db)
        db.erase("u1", interpretation=ErasureInterpretation.STRONGLY_DELETED)
        timeline = db.timeline("u1")
        assert timeline.reached(ErasureInterpretation.DELETED)
        assert timeline.reached(ErasureInterpretation.STRONGLY_DELETED)
        assert not timeline.reached(ErasureInterpretation.PERMANENTLY_DELETED)

    def test_subject_access_withholds_inaccessible_value(self, backend):
        db = make_db(backend)
        collect_unit(db)
        db.erase(
            "u1", interpretation=ErasureInterpretation.REVERSIBLY_INACCESSIBLE
        )
        result = db.subject_access_request(USER)
        unit = next(u for u in result.units if u.unit_id == "u1")
        assert unit.inaccessible and unit.value is None

    def test_duplicate_collect_rejected_without_engine_mutation(self, backend):
        """Regression: LSM inserts are upserts, so a duplicate collect used
        to overwrite the stored value before the model rejected the id."""
        db = make_db(backend)
        collect_unit(db)
        with pytest.raises(ValueError, match="already collected"):
            db.collect(
                "u1", USER, "app", {"v": 99},
                policies=[Policy(Purpose.SERVICE, METASPACE, *WINDOW)],
            )
        assert db.read("u1", METASPACE, Purpose.SERVICE) == {"v": 1}

    def test_duplicate_derive_rejected_without_engine_mutation(self, backend):
        db = make_db(backend)
        collect_unit(db)
        collect_unit(db, uid="u2")
        with pytest.raises(ValueError, match="already collected"):
            db.derive_unit("u2", ["u1"], {"v": 99}, METASPACE, Purpose.SERVICE)
        assert db.read("u2", METASPACE, Purpose.SERVICE) == {"v": 1}

    def test_double_erase_rejected(self, backend):
        """A retry of an already-completed erase must not fabricate an
        EraseOutcome for system-actions that never ran."""
        db = make_db(backend)
        collect_unit(db)
        db.erase("u1")
        with pytest.raises(ValueError, match="already erased"):
            db.erase("u1")
        with pytest.raises(ValueError, match="already erased"):
            db.erase_many(["u1"])

    def test_rejected_batch_leaves_no_audit_residue(self, backend):
        """A collect_many aborted by a duplicate must not have logged
        CONTRACT actions for data that was never collected."""
        db = make_db(backend)
        pols = [Policy(Purpose.SERVICE, METASPACE, *WINDOW)]
        with pytest.raises(ValueError, match="already collected"):
            db.collect_many(
                [
                    ("a", USER, "app", 1, pols),
                    ("b", USER, "app", 2, pols),
                    ("b", USER, "app", 3, pols),
                ]
            )
        assert not db.history.of("a")
        assert not db.history.of("b")

    def test_in_batch_duplicate_rejected_before_storage(self, backend):
        """Regression: collect_many only checked ids against the model, so
        an in-batch duplicate left untracked physical copies behind."""
        db = make_db(backend)
        pols = [Policy(Purpose.SERVICE, METASPACE, *WINDOW)]
        with pytest.raises(ValueError, match="already collected"):
            db.collect_many(
                [
                    ("y", USER, "app", {"v": 1}, pols),
                    ("y", USER, "app", {"v": 2}, pols),
                ]
            )
        assert not db.physically_present("y")  # nothing reached the engine

    def test_batch_lifecycle(self, backend):
        db = make_db(backend)
        db.collect_many(
            (
                (f"k{i}", USER, "app", i,
                 [Policy(Purpose.SERVICE, METASPACE, *WINDOW)])
                for i in range(20)
            ),
            erase_deadline=10**12,
        )
        assert db.read_many(["k3", "k9"], METASPACE, Purpose.SERVICE) == [3, 9]
        outcomes = db.erase_many([f"k{i}" for i in range(10)])
        assert len(outcomes) == 10
        for i in range(10):
            assert db.model.get(f"k{i}").is_erased
            assert not db.physically_present(f"k{i}")
        for i in range(10, 20):
            assert db.read(f"k{i}", METASPACE, Purpose.SERVICE) == i
        assert db.check_compliance().compliant


class TestCryptoShredTable1Parity:
    """The crypto-shredding retrofit must match the paper's property matrix
    on every row — and, uniquely, make the fourth row executable."""

    def test_property_profile_matches_paper_on_all_rows(self):
        for row in table1(backend="crypto-shred"):
            expected = PAPER_TABLE1[row.interpretation]
            assert row.illegal_read == expected.illegal_read, row.interpretation
            assert (
                row.illegal_inference == expected.illegal_inference
            ), row.interpretation
            assert row.invertible == expected.invertible, row.interpretation

    def test_every_row_supported_including_permanent(self):
        rows = {r.interpretation: r for r in table1(backend="crypto-shred")}
        assert all(r.supported for r in rows.values())
        permanent = rows[ErasureInterpretation.PERMANENTLY_DELETED]
        assert permanent.system_actions == ("key shred", "sector sanitize")
        assert "Not supported" not in permanent.row()[-1]

    def test_permanent_delete_executes_end_to_end(self):
        db = make_db("crypto-shred")
        collect_unit(db)
        outcome = db.erase(
            "u1", interpretation=ErasureInterpretation.PERMANENTLY_DELETED
        )
        assert outcome.system_actions == ("key shred", "sector sanitize")
        assert db.model.get("u1").is_erased
        assert not db.physically_present("u1")

    def test_permanent_delete_cascades_like_strong_delete(self):
        """Permanent = strong delete + sanitization (paper §3.1): the
        identifying cascade must be identical."""
        db = make_db("crypto-shred")
        collect_unit(db)
        db.derive_unit(
            "cache", ["u1"], {"v": 1}, METASPACE, Purpose.SERVICE,
            kind=DependencyKind.COPY, invertible=True, identifying=True,
        )
        db.derive_unit(
            "stats", ["u1"], 3, METASPACE, Purpose.SERVICE,
            kind=DependencyKind.AGGREGATE, invertible=False, identifying=False,
        )
        outcome = db.erase(
            "u1", interpretation=ErasureInterpretation.PERMANENTLY_DELETED
        )
        assert outcome.cascaded_units == ("cache",)
        assert not db.physically_present("cache")
        assert db.physically_present("stats")  # anonymized: retained

    def test_shredded_value_is_unreadable(self):
        db = make_db("crypto-shred")
        collect_unit(db)
        db.erase("u1", interpretation=ErasureInterpretation.PERMANENTLY_DELETED)
        with pytest.raises(TupleNotFoundError):
            db.read("u1", METASPACE, Purpose.SERVICE)

    def test_sar_reports_permanently_deleted_unit_gone(self):
        """Art. 15 must report the unit erased and disclose no value."""
        db = make_db("crypto-shred")
        collect_unit(db)
        db.erase("u1", interpretation=ErasureInterpretation.PERMANENTLY_DELETED)
        result = db.subject_access_request(USER)
        unit = next(u for u in result.units if u.unit_id == "u1")
        assert unit.erased
        assert unit.value is None

    def test_double_permanent_erase_guarded(self):
        db = make_db("crypto-shred")
        collect_unit(db)
        db.erase("u1", interpretation=ErasureInterpretation.PERMANENTLY_DELETED)
        with pytest.raises(ValueError, match="already erased"):
            db.erase(
                "u1",
                interpretation=ErasureInterpretation.PERMANENTLY_DELETED,
            )
        with pytest.raises(ValueError, match="already erased"):
            db.erase_many(
                ["u1"],
                interpretation=ErasureInterpretation.PERMANENTLY_DELETED,
            )

    def test_timeline_reaches_the_permanent_milestone(self):
        db = make_db("crypto-shred")
        collect_unit(db)
        db.erase("u1", interpretation=ErasureInterpretation.PERMANENTLY_DELETED)
        timeline = db.timeline("u1")
        assert timeline.reached(ErasureInterpretation.DELETED)
        assert timeline.reached(ErasureInterpretation.STRONGLY_DELETED)
        assert timeline.reached(ErasureInterpretation.PERMANENTLY_DELETED)
        assert timeline.time_to_permanent_delete is not None

    def test_permanent_default_erasure_constructible(self):
        """The strictest default is only constructible on the retrofit."""
        db = CompliantDatabase(
            METASPACE,
            backend="crypto-shred",
            default_erasure=ErasureInterpretation.PERMANENTLY_DELETED,
        )
        collect_unit(db)
        db.erase("u1")  # default interpretation: permanently delete
        assert not db.physically_present("u1")
        assert db.timeline("u1").reached(
            ErasureInterpretation.PERMANENTLY_DELETED
        )

    def test_batch_permanent_erase(self):
        db = make_db("crypto-shred")
        for i in range(10):
            collect_unit(db, uid=f"k{i}")
        outcomes = db.erase_many(
            [f"k{i}" for i in range(5)],
            interpretation=ErasureInterpretation.PERMANENTLY_DELETED,
        )
        assert len(outcomes) == 5
        for i in range(5):
            assert not db.physically_present(f"k{i}")
        for i in range(5, 10):
            assert db.read(f"k{i}", METASPACE, Purpose.SERVICE) == {"v": 1}
        assert db.check_compliance().compliant

    def test_compliance_holds_after_permanent_erase(self):
        db = make_db("crypto-shred")
        collect_unit(db)
        db.erase("u1", interpretation=ErasureInterpretation.PERMANENTLY_DELETED)
        report = db.check_compliance()
        assert report.compliant, report.render()
