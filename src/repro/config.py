"""Typed construction surface — the one way to describe a deployment.

:class:`~repro.systems.database.CompliantDatabase`,
:class:`~repro.systems.backends.BackendGroup`,
:class:`~repro.distributed.store.ReplicatedStore` (and its ``_Node``s) and
the §4.2 profiles all take their storage tuning as a frozen dataclass, so a
misspelled option (``shared_block_cach=256``) fails at construction with a
``TypeError`` instead of leaving the deployment silently un-tuned:

* :class:`BackendConfig` — one storage deployment's knobs.  Every field
  belongs to a declared engine family ("psql" / "lsm" / "crypto-shred");
  setting a field on the wrong family raises ``ValueError``.
* :class:`StoreConfig` — a full :class:`ReplicatedStore` topology
  (shards, replicas, lag, ring geometry) around a nested
  :class:`BackendConfig` — the store's only constructor argument besides
  its cost model.
* :class:`ServiceConfig` — the :class:`~repro.service.ComplianceService`
  concurrency knobs (worker pools, admission-queue depth, erase batching,
  maintenance cadence).

Injected *objects* (a live :class:`SharedBlockCache`, a shared
:class:`KeyVault`, an existing engine) are deliberately **not** config
fields: configs describe deployments declaratively and stay picklable /
comparable; object injection remains an internal constructor concern of the
pool owner (``BackendGroup`` / ``ReplicatedStore``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Optional, Tuple, Union

#: Engine families a config can target — mirrors
#: ``repro.systems.backends.BACKENDS`` (kept as literals here so the config
#: layer stays import-light and cycle-free; ``test_config`` asserts the two
#: registries agree).
BACKEND_FAMILIES: Tuple[str, ...] = ("crypto-shred", "lsm", "psql")

#: Config field → the engine families it is meaningful on.  ``backend``
#: itself is the selector and applies everywhere.
_FIELD_FAMILIES: Dict[str, Tuple[str, ...]] = {
    # psql (RelationalEngine + PsqlBackend)
    "table": ("psql",),
    "flag_column": ("psql",),
    "bloat_factor": ("psql",),
    "wal_checkpoint_every": ("psql",),
    # lsm (LSMEngine)
    "memtable_capacity": ("lsm",),
    "tier_threshold": ("lsm",),
    "block_cache_capacity": ("lsm",),
    "compaction": ("lsm",),
    "compaction_mode": ("lsm",),
    "namespace": ("lsm",),
    "shared_block_cache": ("lsm",),
}

#: Fields consumed by the *pool owner* (ReplicatedStore / BackendGroup),
#: never forwarded to a backend constructor.
_POOL_FIELDS: Tuple[str, ...] = ("shared_block_cache",)

#: psql fields that configure the shared :class:`RelationalEngine` itself
#: (as opposed to one table's backend view of it).
_PSQL_ENGINE_FIELDS: Tuple[str, ...] = ("bloat_factor", "wal_checkpoint_every")


def _allowed_keys(backend: str) -> Tuple[str, ...]:
    return tuple(
        sorted(
            name
            for name, families in _FIELD_FAMILIES.items()
            if backend in families
        )
    )


@dataclass(frozen=True)
class BackendConfig:
    """One storage deployment, declaratively.

    ``None`` means *unset* — the engine's own default applies and the key
    is not emitted by :meth:`backend_kwargs`.  Setting a field that the
    selected ``backend`` family does not understand raises ``ValueError``
    at construction, which is the whole point: a config object cannot
    describe a deployment the engines cannot build.
    """

    backend: str = "psql"
    # --- psql -----------------------------------------------------------
    table: Optional[str] = None
    flag_column: Optional[bool] = None
    bloat_factor: Optional[float] = None
    wal_checkpoint_every: Optional[int] = None
    # --- lsm ------------------------------------------------------------
    memtable_capacity: Optional[int] = None
    tier_threshold: Optional[int] = None
    block_cache_capacity: Optional[int] = None
    compaction: Optional[Any] = None
    compaction_mode: Optional[str] = None
    namespace: Optional[str] = None
    #: Pool one block-cache budget across every node/namespace (capacity,
    #: or ``True`` for the 1024-entry default) — consumed by the pool
    #: owner, not forwarded to ``make_backend``.
    shared_block_cache: Optional[Union[int, bool]] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_FAMILIES:
            # KeyError to match the BACKENDS registry contract
            # (make_backend / BackendGroup raise it for unknown names).
            raise KeyError(
                f"unknown backend {self.backend!r}; "
                f"choose from {sorted(BACKEND_FAMILIES)}"
            )
        wrong = [
            name
            for name, value in self._set_fields().items()
            if self.backend not in _FIELD_FAMILIES[name]
        ]
        if wrong:
            raise ValueError(
                f"option(s) {sorted(wrong)} do not apply to "
                f"backend {self.backend!r}; valid keys: "
                f"{list(_allowed_keys(self.backend))}"
            )

    # --------------------------------------------------------------- emission
    def _set_fields(self) -> Dict[str, Any]:
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "backend" and getattr(self, f.name) is not None
        }

    def backend_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for ``make_backend(self.backend, cost, ...)``
        — every explicitly-set field except the pool-owner ones."""
        return {
            name: value
            for name, value in self._set_fields().items()
            if name not in _POOL_FIELDS
        }

    def engine_kwargs(self) -> Dict[str, Any]:
        """The psql subset that configures a shared
        :class:`RelationalEngine` (BackendGroup's single-WAL deployment)."""
        return {
            name: value
            for name, value in self._set_fields().items()
            if name in _PSQL_ENGINE_FIELDS
        }

    def merged(self, other: "BackendConfig") -> "BackendConfig":
        """This config with ``other``'s explicitly-set fields layered on
        top — how profile defaults compose with caller overrides."""
        if other.backend != self.backend:
            raise ValueError(
                f"cannot merge configs for different backends "
                f"({self.backend!r} vs {other.backend!r})"
            )
        return replace(self, **other._set_fields())

    @property
    def shared_block_cache_capacity(self) -> Optional[int]:
        """The pooled-cache capacity this config asks for (``None`` when
        pooling is off; ``True`` normalizes to the 1024-entry default)."""
        if not self.shared_block_cache:
            return None
        if self.shared_block_cache is True:
            return 1024
        return int(self.shared_block_cache)


@dataclass(frozen=True)
class StoreConfig:
    """A whole :class:`~repro.distributed.store.ReplicatedStore` topology.

    The store's one construction argument: ``ReplicatedStore(cost,
    config)`` builds every shard, node, and the ring from it.  The
    ``serve`` CLI and :class:`~repro.service.ComplianceService` treat it as
    the single declarative description of the deployment under service.
    """

    backend: BackendConfig = field(default_factory=BackendConfig)
    shards: int = 1
    n_replicas: int = 2
    replication_lag: int = 50_000
    cache_ttl: int = 500_000
    row_bytes: int = 70
    vnodes: int = 64
    shard_weights: Optional[Tuple[Tuple[int, float], ...]] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.n_replicas < 0:
            raise ValueError("n_replicas must be non-negative")
        if self.replication_lag < 0 or self.cache_ttl < 0:
            raise ValueError("lag and TTL must be non-negative")
        if self.vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        if self.shard_weights is not None:
            # Accept any mapping/sequence-of-pairs at construction but
            # store the canonical hashable form, so equal topologies
            # compare (and hash) equal whatever order they were given in.
            object.__setattr__(
                self,
                "shard_weights",
                tuple(sorted(dict(self.shard_weights).items())),
            )

    @property
    def weights_mapping(self) -> Optional[Dict[int, float]]:
        if self.shard_weights is None:
            return None
        return dict(self.shard_weights)


@dataclass(frozen=True)
class ServiceConfig:
    """Concurrency knobs for the compliance-as-a-service front door."""

    #: Worker threads per shard pool (requests for one shard serialize
    #: through its pool and its shard lock either way; >1 overlaps policy
    #: work with storage work).
    workers_per_shard: int = 1
    #: Bounded admission queue depth per shard pool; a full queue rejects
    #: the request immediately (429-style) instead of growing latency.
    queue_depth: int = 64
    #: Max erases amortized into one ``erase_many`` call (one reclamation
    #: pass per node per batch instead of per key).
    erase_batch: int = 16
    #: Seconds the maintenance thread sleeps between ticks (each tick
    #: takes the topology write lock, steps the rebalance driver, and
    #: flushes read repairs).
    maintenance_interval: float = 0.002
    #: Run the invariant registry every N maintenance ticks (0 = only on
    #: demand / at close).
    invariant_check_every: int = 0

    def __post_init__(self) -> None:
        if self.workers_per_shard < 1:
            raise ValueError("workers_per_shard must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.erase_batch < 1:
            raise ValueError("erase_batch must be >= 1")
        if self.maintenance_interval <= 0:
            raise ValueError("maintenance_interval must be positive")
        if self.invariant_check_every < 0:
            raise ValueError("invariant_check_every must be non-negative")
