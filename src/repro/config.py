"""Typed construction surface — the validated successor to ``backend_opts``.

Five PRs of growth threaded untyped ``backend_opts`` / ``engine_opts``
mappings through :class:`~repro.systems.database.CompliantDatabase`,
:class:`~repro.systems.backends.BackendGroup`,
:class:`~repro.distributed.store.ReplicatedStore` (and its ``_Node``s), and
the §4.2 profiles.  Mappings validate nothing: a misspelled key
(``{"shared_block_cach": 256}``) was silently ignored and the deployment
ran un-tuned.  This module replaces them with three frozen dataclasses:

* :class:`BackendConfig` — one storage deployment's knobs.  Every field
  belongs to a declared engine family ("psql" / "lsm" / "crypto-shred");
  setting a field on the wrong family raises, and
  :meth:`BackendConfig.from_mapping` rejects unknown keys outright (with a
  did-you-mean suggestion).  The old mapping parameters remain accepted
  everywhere via :func:`warn_backend_opts` deprecation shims that route
  through ``from_mapping`` — so the misspelling bug is closed even for
  legacy callers.
* :class:`StoreConfig` — a full :class:`ReplicatedStore` topology
  (shards, replicas, lag, ring geometry) around a nested
  :class:`BackendConfig`; ``ReplicatedStore.from_config`` and the
  ``repro.cli serve`` front door consume it.
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

import difflib
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple, Union

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
    "autovacuum_threshold": ("psql",),
    "wal_group_size": ("psql",),
    "wal_checkpoint_every": ("psql",),
    # lsm (LSMEngine)
    "memtable_capacity": ("lsm",),
    "tier_threshold": ("lsm",),
    "block_cache_capacity": ("lsm",),
    "compaction": ("lsm",),
    "compaction_mode": ("lsm",),
    "namespace": ("lsm",),
    "shared_block_cache": ("lsm",),
    # crypto-shred
    "group_capacity": ("crypto-shred",),
    "shared_vault": ("crypto-shred",),
}

#: Fields consumed by the *pool owner* (ReplicatedStore / BackendGroup),
#: never forwarded to a backend constructor.
_POOL_FIELDS: Tuple[str, ...] = ("shared_block_cache", "shared_vault")

#: psql fields that configure the shared :class:`RelationalEngine` itself
#: (as opposed to one table's backend view of it).
_PSQL_ENGINE_FIELDS: Tuple[str, ...] = (
    "bloat_factor",
    "autovacuum_threshold",
    "wal_group_size",
    "wal_checkpoint_every",
)


def _allowed_keys(backend: str) -> Tuple[str, ...]:
    return tuple(
        sorted(
            name
            for name, families in _FIELD_FAMILIES.items()
            if backend in families
        )
    )


def warn_backend_opts(param: str, owner: str) -> None:
    """One shared deprecation message for every legacy mapping parameter."""
    warnings.warn(
        f"{owner}({param}=...) mappings are deprecated; pass a typed "
        "repro.config.BackendConfig instead (unknown keys now raise either "
        "way)",
        DeprecationWarning,
        stacklevel=3,
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
    autovacuum_threshold: Optional[int] = None
    wal_group_size: Optional[int] = None
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
    # --- crypto-shred ---------------------------------------------------
    group_capacity: Optional[int] = None
    #: Co-locate every node/namespace's per-unit keys in one shared
    #: :class:`KeyVault` (batched shreds) — pool-owner field.
    shared_vault: Optional[bool] = None

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

    # ------------------------------------------------------------ construction
    @classmethod
    def from_mapping(
        cls,
        backend: str,
        mapping: Optional[Mapping[str, Any]] = None,
    ) -> "BackendConfig":
        """Build from a legacy ``backend_opts`` mapping — unknown keys
        raise (closing the silently-ignored-misspelling bug), wrong-family
        keys raise via ``__post_init__``."""
        mapping = dict(mapping or {})
        unknown = sorted(set(mapping) - set(_FIELD_FAMILIES))
        if unknown:
            hints = []
            for key in unknown:
                close = difflib.get_close_matches(
                    key, _FIELD_FAMILIES, n=1, cutoff=0.6
                )
                hints.append(
                    f"{key!r}" + (f" (did you mean {close[0]!r}?)" if close else "")
                )
            raise ValueError(
                f"unknown backend option(s) {', '.join(hints)} for "
                f"backend {backend!r}; valid keys: "
                f"{list(_allowed_keys(backend))}"
            )
        return cls(backend=backend, **mapping)

    @classmethod
    def coerce(
        cls,
        backend: Union[str, "BackendConfig"],
        opts: Optional[Mapping[str, Any]],
        *,
        owner: str,
        param: str = "backend_opts",
    ) -> "BackendConfig":
        """The constructor-shim entry point every facade shares: a
        :class:`BackendConfig` passes through (extra ``opts`` then being a
        contradiction), a backend name + optional legacy mapping converts
        with a :class:`DeprecationWarning`."""
        if isinstance(backend, BackendConfig):
            if opts:
                raise ValueError(
                    f"{owner}: pass options on the BackendConfig, "
                    f"not via {param}"
                )
            return backend
        if opts is not None:
            warn_backend_opts(param, owner)
        return cls.from_mapping(backend, opts)

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

    ``ReplicatedStore.from_config`` expands this into the constructor;
    the ``serve`` CLI and :class:`~repro.service.ComplianceService` treat
    it as the single declarative description of the deployment under
    service.
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
        if self.shard_weights is not None and not isinstance(
            self.shard_weights, tuple
        ):
            # Accept any mapping/sequence-of-pairs at construction but
            # store the canonical hashable form.
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
    #: Keys migrated per maintenance tick while a rebalance is active.
    maintenance_budget_keys: int = 32
    #: Per-node merge-input byte budget for the bounded compaction slice a
    #: quiet maintenance tick runs (deferred LSM backends); 0 disables the
    #: slice entirely.
    maintenance_compaction_bytes: int = 1 << 20
    #: Run the invariant registry every N maintenance ticks (0 = only on
    #: demand / at close).
    invariant_check_every: int = 0
    #: Run an anti-entropy digest sweep every N *quiet* maintenance ticks
    #: (no rebalance in flight); 0 disables proactive sweeps — divergence
    #: then heals only via quorum-read repair.
    antientropy_every: int = 0
    #: Hash ranges per shard the anti-entropy sweep digests over.
    antientropy_ranges: int = 16
    #: Default ``call()`` timeout in seconds.
    request_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.workers_per_shard < 1:
            raise ValueError("workers_per_shard must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.erase_batch < 1:
            raise ValueError("erase_batch must be >= 1")
        if self.maintenance_interval <= 0:
            raise ValueError("maintenance_interval must be positive")
        if self.maintenance_budget_keys < 1:
            raise ValueError("maintenance_budget_keys must be >= 1")
        if self.maintenance_compaction_bytes < 0:
            raise ValueError("maintenance_compaction_bytes must be non-negative")
        if self.invariant_check_every < 0:
            raise ValueError("invariant_check_every must be non-negative")
        if self.antientropy_every < 0:
            raise ValueError("antientropy_every must be non-negative")
        if self.antientropy_ranges < 1:
            raise ValueError("antientropy_ranges must be >= 1")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
