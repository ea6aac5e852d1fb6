"""The typed construction surface (repro.config).

BackendConfig/StoreConfig/ServiceConfig are the one way to describe a
deployment.  The load-bearing claims: a misspelled option fails at
construction (untyped option mappings used to ignore it silently),
wrong-family options raise, and the families stay in sync with the actual
backend registry.
"""

from dataclasses import fields

import pytest

from repro.config import (
    _FIELD_FAMILIES,
    BACKEND_FAMILIES,
    BackendConfig,
    ServiceConfig,
    StoreConfig,
)
from repro.core.entities import controller
from repro.distributed.store import ReplicatedStore
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.systems import make_profile
from repro.systems.backends import BACKENDS, BackendGroup
from repro.systems.database import CompliantDatabase
from repro.systems.profiles import ProfileConfig


def _cost():
    return CostModel(SimClock(), CostBook())


class TestBackendConfig:
    def test_families_mirror_backend_registry(self):
        # The config layer keeps its own literal family list to stay
        # import-light; it must not drift from the registry.
        assert tuple(sorted(BACKENDS)) == BACKEND_FAMILIES

    def test_unknown_backend_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown backend"):
            BackendConfig(backend="mongodb")

    def test_wrong_family_field_raises(self):
        with pytest.raises(ValueError, match="do not apply to"):
            BackendConfig(backend="psql", memtable_capacity=8)
        with pytest.raises(ValueError, match="do not apply to"):
            BackendConfig(backend="lsm", bloat_factor=2.0)
        with pytest.raises(ValueError, match="do not apply to"):
            BackendConfig(backend="crypto-shred", compaction="leveled")

    def test_backend_kwargs_excludes_pool_fields(self):
        config = BackendConfig(
            backend="lsm", shared_block_cache=128, memtable_capacity=4
        )
        assert "shared_block_cache" not in config.backend_kwargs()
        assert config.shared_block_cache_capacity == 128

    def test_shared_block_cache_true_normalizes_to_default(self):
        assert (
            BackendConfig(
                backend="lsm", shared_block_cache=True
            ).shared_block_cache_capacity
            == 1024
        )
        assert BackendConfig(backend="lsm").shared_block_cache_capacity is None

    def test_merged_layers_set_fields(self):
        base = BackendConfig(
            backend="psql", bloat_factor=8.0, wal_checkpoint_every=5_000
        )
        override = BackendConfig(backend="psql", bloat_factor=2.0)
        merged = base.merged(override)
        assert merged.bloat_factor == 2.0
        assert merged.wal_checkpoint_every == 5_000

    def test_merged_rejects_cross_backend(self):
        with pytest.raises(ValueError, match="different backends"):
            BackendConfig(backend="psql").merged(BackendConfig(backend="lsm"))


class TestFacadeValidation:
    """The misspelling regression: facades used to silently ignore a
    misspelled key in an untyped option mapping."""

    def test_misspelled_field_fails_at_construction(self):
        with pytest.raises(TypeError, match="shared_block_cach"):
            BackendConfig(backend="lsm", shared_block_cach=256)

    def test_replicated_store_rejects_option_mappings(self):
        # The removed mapping parameter is now an unknown keyword (its name
        # is assembled so a repo-wide grep for it stays empty).
        legacy = {"backend" + "_opts": {"memtable_capacity": 16}}
        with pytest.raises(TypeError, match="unexpected keyword"):
            ReplicatedStore(_cost(), **legacy)

    def test_compliant_database_rejects_option_mappings(self):
        legacy = {"backend" + "_opts": {"memtable_capacit": 16}}
        with pytest.raises(TypeError, match="unexpected keyword"):
            CompliantDatabase(controller("C"), backend="lsm", **legacy)

    def test_backend_group_rejects_option_mappings(self):
        with pytest.raises(TypeError, match="must be a BackendConfig"):
            BackendGroup("lsm", _cost(), engine_opts={"memtable_capacity": 16})

    def test_profile_rejects_option_mappings(self):
        with pytest.raises(TypeError, match="must be a BackendConfig"):
            make_profile(
                "P_Base", backend="lsm", engine_opts={"memtable_capacity": 16}
            )

    def test_compliant_database_rejects_pool_fields(self):
        # Pooling one cache across many nodes is a ReplicatedStore /
        # BackendGroup concern; a single-backend facade has no pool.
        with pytest.raises(ValueError, match="pools one cache"):
            CompliantDatabase(
                controller("C"),
                backend=BackendConfig(backend="lsm", shared_block_cache=64),
            )

    def test_backend_group_rejects_per_namespace_fields(self):
        with pytest.raises(ValueError, match="per-namespace"):
            BackendGroup(
                "psql",
                _cost(),
                engine_opts=BackendConfig(backend="psql", table="t"),
            )

    def test_backend_group_rejects_mismatched_config(self):
        with pytest.raises(ValueError):
            BackendGroup(
                "psql", _cost(), engine_opts=BackendConfig(backend="lsm")
            )


class TestStoreConfig:
    def test_from_config_builds_topology(self):
        config = StoreConfig(
            backend=BackendConfig(backend="lsm", memtable_capacity=4),
            shards=3,
            n_replicas=1,
        )
        store = ReplicatedStore.from_config(_cost(), config)
        assert len(store.shard_ids) == 3
        assert store.backend_config.backend == "lsm"
        store.put("k", "v")
        assert store.read("k") == "v"

    def test_config_is_the_only_constructor_argument(self):
        default = ReplicatedStore(_cost())
        assert default.shard_ids == (0,)
        assert default.replica_count == StoreConfig().n_replicas
        assert default.backend_config == BackendConfig()
        config = StoreConfig(shards=2, n_replicas=0, shard_weights={1: 3.0})
        store = ReplicatedStore(_cost(), config)
        assert store.shard_weights == {0: 1.0, 1: 3.0}
        assert store.replica_count == 0
        with pytest.raises(TypeError):
            ReplicatedStore(_cost(), config, 2)

    def test_shard_weights_normalize(self):
        config = StoreConfig(shard_weights={1: 2.0, 0: 1.0})
        assert config.shard_weights == ((0, 1.0), (1, 2.0))
        assert config.weights_mapping == {0: 1.0, 1: 2.0}

    def test_shard_weights_canonical_for_any_input(self):
        """Equal topologies compare and hash equal whether the weights
        came as a mapping or as pairs in any order."""
        from_pairs = StoreConfig(shards=2, shard_weights=((1, 2.0), (0, 1.0)))
        from_mapping = StoreConfig(shards=2, shard_weights={0: 1.0, 1: 2.0})
        assert from_pairs == from_mapping
        assert hash(from_pairs) == hash(from_mapping)
        assert from_pairs.shard_weights == ((0, 1.0), (1, 2.0))

    def test_topology_validation(self):
        with pytest.raises(ValueError):
            StoreConfig(shards=0)
        with pytest.raises(ValueError):
            StoreConfig(n_replicas=-1)
        with pytest.raises(ValueError):
            StoreConfig(vnodes=0)


class TestServiceConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers_per_shard": 0},
            {"queue_depth": 0},
            {"erase_batch": 0},
            {"maintenance_interval": 0},
            {"invariant_check_every": -1},
        ],
    )
    def test_bounds_enforced(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)

    def test_defaults_valid(self):
        config = ServiceConfig()
        assert config.queue_depth == 64
        assert config.erase_batch == 16


class TestConfigSurface:
    """Every settable value is one some caller sets: a new knob has to be
    added here on purpose, with the caller that needs it."""

    def test_backend_config_fields(self):
        assert {f.name for f in fields(BackendConfig)} == {
            "backend", "table", "flag_column", "bloat_factor",
            "wal_checkpoint_every", "memtable_capacity", "tier_threshold",
            "block_cache_capacity", "compaction", "compaction_mode",
            "namespace", "shared_block_cache",
        }

    def test_every_backend_field_has_a_family(self):
        names = {f.name for f in fields(BackendConfig)} - {"backend"}
        assert names == set(_FIELD_FAMILIES)

    def test_service_config_fields(self):
        assert {f.name for f in fields(ServiceConfig)} == {
            "workers_per_shard", "queue_depth", "erase_batch",
            "maintenance_interval", "invariant_check_every",
        }

    def test_profile_config_fields(self):
        assert {f.name for f in fields(ProfileConfig)} == {
            "record_bytes", "vacuum_interval", "vacuum_full_interval",
            "cost_book",
        }
