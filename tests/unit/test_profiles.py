"""Unit tests for the three compliance profiles (§4.2 mechanics).

The profile runners are backend-generic: the grid below drives them over
every storage backend (psql / lsm / crypto-shred) through the
:class:`StorageBackend` seam, with the erase grounding resolved from the
:class:`GroundingRegistry` per backend.
"""

import pytest

from repro.core.erasure import ErasureInterpretation
from repro.systems import PROFILES, make_profile
from repro.systems.profiles import (
    DATA_TABLE,
    META_TABLE,
    PLAIN_TABLE,
    ProfileConfig,
)
from repro.workloads.base import Operation, OpKind
from repro.workloads.gdprbench import customer_workload
from repro.workloads.ycsb import ycsb_c_workload

BACKENDS = ("psql", "lsm", "crypto-shred")


def loaded_profile(name, n=200, backend="psql", **config_overrides):
    config = ProfileConfig(**config_overrides) if config_overrides else None
    profile = make_profile(name, config=config, backend=backend)
    profile.load(n)
    return profile


class TestFactory:
    def test_known_profiles(self):
        assert set(PROFILES) == {"P_Base", "P_GBench", "P_SYS"}
        for name in PROFILES:
            assert make_profile(name).name == name

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            make_profile("P_Unknown")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_selectable_per_profile(self, backend):
        for name in PROFILES:
            profile = make_profile(name, backend=backend)
            assert profile.backend_name == backend
            assert profile.data.name == backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError, match="unknown backend"):
            make_profile("P_Base", backend="mongodb")


class TestGroundingResolution:
    """Erase groundings come from the registry, per (profile, backend)."""

    @pytest.mark.parametrize("backend,expected", [
        ("psql", ("DELETE", "VACUUM")),
        ("lsm", ("tombstone", "victim compaction")),
        ("crypto-shred", ("logical delete", "key shred")),
    ])
    def test_pbase_resolves_the_delete_grounding(self, backend, expected):
        profile = make_profile("P_Base", backend=backend)
        actions = tuple(a.name for a in profile.erase_grounding.system_actions)
        assert actions == expected
        assert (
            profile.erase_grounding.interpretation.name
            == ErasureInterpretation.DELETED.label
        )

    @pytest.mark.parametrize("backend,expected", [
        ("psql", ("DELETE", "VACUUM FULL")),
        ("lsm", ("tombstone cascade", "full compaction")),
        ("crypto-shred", ("logical delete cascade", "key shred")),
    ])
    def test_psys_resolves_the_strong_delete_grounding(self, backend, expected):
        profile = make_profile("P_SYS", backend=backend)
        actions = tuple(a.name for a in profile.erase_grounding.system_actions)
        assert actions == expected

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_selection_is_recorded_in_the_registry(self, backend):
        profile = make_profile("P_GBench", backend=backend)
        selected = profile.groundings.selected("erasure", backend)
        assert selected is profile.erase_grounding


class TestLoadPhase:
    @pytest.mark.parametrize("name", sorted(PROFILES))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_load_populates_data_store(self, name, backend):
        profile = loaded_profile(name, backend=backend)
        assert profile.data.stats().live_entries == 200
        assert profile.space.report().personal_bytes == 200 * 70

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pbase_inlines_metadata(self, backend):
        profile = loaded_profile("P_Base", backend=backend)
        assert profile.meta is None
        assert META_TABLE not in profile.storage

    @pytest.mark.parametrize("name", ["P_GBench", "P_SYS"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_separate_metadata_table(self, name, backend):
        profile = loaded_profile(name, backend=backend)
        assert profile.meta.stats().live_entries == 200

    def test_pbase_logs_loads_rowlevel(self):
        profile = loaded_profile("P_Base")
        assert profile.csvlog.row_count == 200

    def test_pgbench_loads_statement_level(self):
        profile = loaded_profile("P_GBench")
        assert profile.querylog.record_count == 0

    def test_psys_logs_decisions_on_load(self):
        profile = loaded_profile("P_SYS")
        assert profile.decisions.record_count == 200
        assert profile.querylog.record_count == 0

    def test_psql_shares_one_engine_across_tables(self):
        profile = loaded_profile("P_SYS")
        assert profile.engine is not None
        assert profile.data.engine is profile.meta.engine is profile.engine

    @pytest.mark.parametrize("backend", ["lsm", "crypto-shred"])
    def test_single_keyspace_backends_expose_no_shared_engine(self, backend):
        profile = loaded_profile("P_SYS", backend=backend)
        assert profile.engine is None


class TestExecutePaths:
    @pytest.mark.parametrize("name", sorted(PROFILES))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crud_cycle(self, name, backend):
        profile = loaded_profile(
            name, backend=backend, vacuum_interval=10, vacuum_full_interval=10
        )
        profile.execute(Operation(OpKind.READ, 5))
        profile.execute(Operation(OpKind.UPDATE, 5))
        profile.execute(Operation(OpKind.READ_META, 5))
        profile.execute(Operation(OpKind.UPDATE_META, 5))
        profile.execute(Operation(OpKind.DELETE, 5))
        profile.execute(Operation(OpKind.CREATE, 900))
        profile.execute(Operation(OpKind.READ_BY_META, 900))
        assert profile.denials == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pbase_erase_reclaims_at_interval(self, backend):
        profile = loaded_profile("P_Base", backend=backend, vacuum_interval=3)
        for key in (1, 2, 3):
            profile.execute(Operation(OpKind.DELETE, key))
        assert profile.storage.reclaim_count == 1
        assert profile.data.stats().dead_entries == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pgbench_erase_leaves_dead_data(self, backend):
        """The P_GBench incompleteness on every engine: logical deletes
        accumulate physically retained dead data (dead tuples, shadowed
        values/tombstones, unshredded volumes)."""
        profile = loaded_profile("P_GBench", backend=backend)
        for key in range(10):
            profile.execute(Operation(OpKind.DELETE, key))
        assert profile.storage.reclaim_count == 0
        # Dead tuples (psql), tombstones (lsm), or unshredded dead volumes
        # (crypto-shred) — retained until a reclamation that never comes.
        assert profile.data.stats().dead_entries >= 10

    def test_psys_erase_purges_prior_traces(self):
        """Every pre-erase trace is purged; the erase's own record survives
        (written after the purge) — the evidence that the erase happened."""
        profile = loaded_profile("P_SYS")
        profile.execute(Operation(OpKind.READ, 7))
        profile.execute(Operation(OpKind.UPDATE, 7))
        profile.execute(Operation(OpKind.DELETE, 7))
        qlog = profile.querylog.records_for_key(DATA_TABLE, 7)
        assert [r.query.split()[0] for r in qlog] == ["DELETE"]
        decisions = profile.decisions.decisions_for_unit("7")
        assert len(decisions) == 1
        assert profile.engine.wal.records_for_key(DATA_TABLE, 7) == []

    def test_psys_erase_purges_metadata_traces_too(self):
        """Regression: the metadata row image (subject id, timestamp) used
        to survive in the shared WAL after a P_SYS erase."""
        profile = loaded_profile("P_SYS")
        profile.execute(Operation(OpKind.DELETE, 7))
        assert profile.engine.wal.records_for_key(META_TABLE, 7) == []
        assert not profile.engine.wal.holds_payload_for(META_TABLE, 7)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_psys_full_reclaim_at_interval(self, backend):
        profile = loaded_profile(
            "P_SYS", backend=backend, vacuum_full_interval=4
        )
        for key in range(4):
            profile.execute(Operation(OpKind.DELETE, key))
        assert profile.storage.reclaim_full_count == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_erased_data_physically_gone_after_reclaim(self, backend):
        profile = loaded_profile("P_Base", backend=backend, vacuum_interval=1)
        profile.execute(Operation(OpKind.DELETE, 5))
        assert not profile.data.physically_present(5)

    def test_nonpersonal_ops_skip_machinery(self):
        profile = make_profile("P_SYS")
        result = profile.run(ycsb_c_workload(100, 50), personal=False)
        assert PLAIN_TABLE in profile.storage
        assert profile.decisions.record_count == 0
        assert profile.querylog.record_count == 0
        assert result.denials == 0


class TestRunResults:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_result_fields(self, backend):
        profile = make_profile("P_Base", backend=backend)
        result = profile.run(customer_workload(500, 100))
        assert result.profile == "P_Base"
        assert result.workload == "WCus"
        assert result.backend == backend
        assert result.record_count == 500
        assert result.transaction_count == 100
        assert result.total_seconds == pytest.approx(
            result.load_seconds + result.txn_seconds
        )
        assert result.total_minutes == pytest.approx(result.total_seconds / 60)
        # The ledger also counts sub-µs setup charges outside the run's
        # stopwatches, hence the loose relative tolerance.
        assert sum(result.breakdown.values()) == pytest.approx(
            result.total_seconds, rel=1e-3
        )

    def test_space_report_attached(self):
        profile = make_profile("P_GBench")
        result = profile.run(customer_workload(500, 100))
        assert result.space.system == "P_GBench"
        assert result.space.personal_bytes == 500 * 70
