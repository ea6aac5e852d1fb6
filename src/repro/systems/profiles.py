"""Compliance profiles — the execution framework of §4.2.

:class:`ComplianceProfile` owns the shared skeleton: a simulated clock, a
pluggable **storage backend** (psql / lsm / crypto-shred), the load and
transaction phases, and the space accounting.  Subclasses (P_Base,
P_GBench, P_SYS) override the four hook groups the paper's descriptions
differ on:

=====================  ==================  =====================  =====================
hook                   P_Base              P_GBench               P_SYS
=====================  ==================  =====================  =====================
access control         RBAC (roles)        policy-table joins     FGAC via Sieve
history grounding      CSV logs            query+response logs    query logs + policy-
                                                                  decision logs
encryption at rest     AES-256 (data)      LUKS/SHA-256 (disk)    AES-128 (data + logs)
erase grounding        delete (grounded,   delete (reclamation    strong delete
                       interval reclaim)   never runs)            + purge logs
=====================  ==================  =====================  =====================

Erase groundings are **resolved from the** :class:`GroundingRegistry`: each
profile declares the interpretation it claims (Figure 2 step 2) and the
registry supplies the system-actions registered for the active backend —
DELETE+VACUUM on psql, tombstone+victim compaction on lsm, logical delete+key
shred on crypto-shred.  The profile executes them through the
backend-neutral :class:`StorageBackend` verbs (``delete`` / ``reclaim`` /
``reclaim_full``), so the full Figure-4 profile × workload grid runs on
every backend.  P_GBench's incompleteness is preserved deliberately: it
*claims* "delete" but never schedules the reclamation half, which is the §1
hazard the paper measures (dead tuples / shadowed values accumulate).

The paper's YCSB-C observation is modelled through ``personal=False``
workloads: operations on non-personal tables skip per-unit policy checks
and per-operation response logging (the machinery attaches to personal-data
tables), so the residual compliance overhead on ordinary traffic is small.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

from repro.config import BackendConfig
from repro.core.entities import controller, processor
from repro.core.erasure import ErasureInterpretation, register_erasure
from repro.core.grounding import Grounding, GroundingRegistry
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.systems.backends import BackendGroup, StorageBackend
from repro.systems.space import SpaceAccountant, SpaceReport
from repro.workloads.base import Operation, OpKind, Workload
from repro.workloads.mall import RECORD_BYTES, MallDataset

DATA_TABLE = "personal_data"
META_TABLE = "gdpr_metadata"
PLAIN_TABLE = "plain_data"

#: Operation kinds that commit a write transaction.
_MUTATING_KINDS = frozenset(
    {OpKind.CREATE, OpKind.UPDATE, OpKind.DELETE, OpKind.UPDATE_META}
)

#: The entity executing benchmark operations.
OPERATOR = processor("benchmark-processor")
CONTROLLER = controller("benchmark-controller")

#: Engine-family tuning the profiles run with (paper-calibrated): the PSQL
#: deployment pays a high bloat penalty and recycles WAL segments every 5k
#: appends; the LSM deployment uses the engine defaults (block cache on).
PROFILE_ENGINE_OPTS: Dict[str, BackendConfig] = {
    "psql": BackendConfig(
        backend="psql", bloat_factor=8.0, wal_checkpoint_every=5_000
    ),
    "lsm": BackendConfig(backend="lsm"),
    "crypto-shred": BackendConfig(backend="crypto-shred"),
}


@dataclass
class ProfileConfig:
    """Tunable parameters shared by all profiles."""

    record_bytes: int = RECORD_BYTES
    metadata_row_bytes: int = 72  # one policy/metadata row per record
    vacuum_interval: int = 1_000        # deletes between reclamations (P_Base)
    vacuum_full_interval: int = 2_000   # deletes between full reclaims (P_SYS)
    cipher_tier: str = "cost-only"      # "cost-only" | "fast" | "aes"
    cost_book: CostBook = field(default_factory=CostBook)
    dataset_seed: int = 42


@dataclass(frozen=True)
class RunResult:
    """Outcome of one (profile, workload) execution."""

    profile: str
    workload: str
    record_count: int
    transaction_count: int
    load_seconds: float
    txn_seconds: float
    breakdown: Dict[str, float]
    space: SpaceReport
    denials: int
    vacuum_count: int
    vacuum_full_count: int
    backend: str = "psql"

    @property
    def total_seconds(self) -> float:
        return self.load_seconds + self.txn_seconds

    @property
    def total_minutes(self) -> float:
        return self.total_seconds / 60.0


class ComplianceProfile:
    """Base class: backend plumbing + run loop.  Subclasses set ``name``."""

    name = "abstract"

    #: The erasure interpretation the profile claims (Figure 2, step 2) —
    #: resolved against the active backend in the grounding registry.
    erasure_interpretation: ErasureInterpretation = ErasureInterpretation.DELETED

    #: How the grounding's reclamation half is scheduled: "interval" runs
    #: ``reclaim`` every ``vacuum_interval`` deletes; "interval-full" runs
    #: ``reclaim_full`` every ``vacuum_full_interval``; "never" leaves dead
    #: data behind forever (the P_GBench incompleteness the paper measures).
    maintenance: str = "interval"

    def __init__(
        self,
        config: Optional[ProfileConfig] = None,
        backend: str = "psql",
        engine_opts: Union[BackendConfig, Dict[str, Any], None] = None,
    ) -> None:
        self.config = config or ProfileConfig()
        self.clock = SimClock()
        self.cost = CostModel(self.clock, self.config.cost_book)
        self.backend_name = backend
        if isinstance(engine_opts, BackendConfig):
            overrides = engine_opts
            if overrides.backend != backend:
                raise ValueError(
                    f"profile backend {backend!r} got a config for "
                    f"{overrides.backend!r}"
                )
        else:
            overrides = BackendConfig.coerce(
                backend, engine_opts, owner=type(self).__name__,
                param="engine_opts",
            )
        base = PROFILE_ENGINE_OPTS.get(backend) or BackendConfig(backend=backend)
        self.backend_config = base.merged(overrides)
        self.storage = BackendGroup(
            backend, self.cost, engine_opts=self.backend_config
        )
        #: The shared relational engine on psql deployments (None elsewhere)
        #: — an escape hatch for engine-level forensics in tests/examples.
        self.engine = self.storage.engine
        self.groundings = GroundingRegistry()
        self._interpretations = register_erasure(self.groundings)
        self.erase_grounding: Grounding = self.groundings.select(
            self.groundings.grounding(
                "erasure", self.erasure_interpretation.label, backend
            ),
            backend,
        )
        self.space = SpaceAccountant(self.name)
        self.denials = 0
        self._deletes_since_maintenance = 0
        self._loaded_records = 0
        self._setup_tables()
        self._setup()
        self._register_space()

    # ------------------------------------------------------------- lifecycle
    def _setup_tables(self) -> None:
        self.data: StorageBackend = self.storage.create(
            DATA_TABLE, self._data_row_bytes()
        )
        self.meta: Optional[StorageBackend] = None
        if self._has_metadata_table():
            self.meta = self.storage.create(
                META_TABLE, self.config.metadata_row_bytes
            )

    def _setup(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _register_space(self) -> None:
        self.space.register(
            "personal-data",
            "personal",
            lambda: self._loaded_records * self.config.record_bytes,
        )
        self.space.register(
            "heap-overhead",
            "metadata",
            lambda: max(
                0,
                self.data.data_bytes()
                - self._loaded_records * self.config.record_bytes,
            ),
        )
        self.space.register("data-index", "index", self.data.index_bytes)
        if self.meta is not None:
            self.space.register("metadata-table", "metadata", self.meta.data_bytes)
            self.space.register("metadata-index", "index", self.meta.index_bytes)
        self.space.register("wal", "metadata", self.storage.log_bytes)
        self._register_profile_space()

    # ------------------------------------------------- hooks for subclasses
    def _data_row_bytes(self) -> int:
        """P_Base inlines metadata into the data row; others keep it at 70B."""
        return self.config.record_bytes

    def _has_metadata_table(self) -> bool:
        return True

    def _register_profile_space(self) -> None:  # pragma: no cover
        raise NotImplementedError

    def _attach_policies(self, key: int) -> None:  # pragma: no cover
        raise NotImplementedError

    def _check_access(self, key: int, op: OpKind, personal: bool) -> bool:
        """Returns False (and counts a denial) if access is refused."""
        raise NotImplementedError  # pragma: no cover

    def _log_operation(
        self, key: int, op: OpKind, response_bytes: int, personal: bool
    ) -> None:  # pragma: no cover
        raise NotImplementedError

    def _log_load(self, key: int) -> None:
        """History grounding for the bulk-load path.

        Profiles differ: P_Base's row-level response recording fires per
        row even for loads; P_GBench logs at statement level (one bulk COPY
        record — negligible, modelled as zero); P_SYS logs a policy decision
        per record but no per-row query record.
        """
        raise NotImplementedError  # pragma: no cover

    def _erase(self, key: int) -> None:  # pragma: no cover
        raise NotImplementedError

    def _encrypt_at_rest(self, nbytes: int) -> None:  # pragma: no cover
        raise NotImplementedError

    # ---------------------------------------------------------- maintenance
    def _maybe_reclaim(self) -> None:
        """Run the grounding's reclamation half on the profile's schedule —
        the second system-action of the selected erase grounding (VACUUM /
        victim or full compaction / key shred, depending on the backend)."""
        if self.maintenance == "never":
            return
        self._deletes_since_maintenance += 1
        if self.maintenance == "interval-full":
            if self._deletes_since_maintenance >= self.config.vacuum_full_interval:
                self.data.reclaim_full()
                self._deletes_since_maintenance = 0
        elif self._deletes_since_maintenance >= self.config.vacuum_interval:
            self.data.reclaim()
            self._deletes_since_maintenance = 0

    # -------------------------------------------------------------- load path
    def load(self, n_records: int, dataset: Optional[MallDataset] = None) -> None:
        """Load phase: ingest ``n_records`` Mall observations.

        Every record lands in the data store through the COPY-style fresh
        path; profiles with a metadata table also get one metadata row and
        their policy registrations; every profile logs the ingestion per
        its history grounding.
        """
        if dataset is None:
            dataset = MallDataset(
                n_devices=max(1, n_records // 100),
                seed=self.config.dataset_seed,
            )
        stream = dataset.stream()
        for _ in range(n_records):
            record = next(stream)
            key = record.record_id
            payload = (record.subject_id, record.timestamp, record.zone)
            self.data.insert(key, payload, fresh=True)
            self._encrypt_at_rest(self.config.record_bytes)
            if self.meta is not None:
                self.meta.insert(
                    key, (record.subject_id, record.timestamp), fresh=True
                )
            self._attach_policies(key)
            self._log_load(key)
            self._loaded_records += 1

    # ---------------------------------------------------------- txn execution
    @property
    def plain(self) -> StorageBackend:
        """The non-personal table, created on first use."""
        if PLAIN_TABLE not in self.storage:
            self.storage.create(PLAIN_TABLE, self.config.record_bytes)
        return self.storage.store(PLAIN_TABLE)

    def execute(self, op: Operation, personal: bool = True) -> None:
        """Run one benchmark operation with the profile's full machinery."""
        store = self.data if personal else self.plain
        if personal and not self._check_access(op.key, op.kind, personal):
            self.denials += 1
            return
        if op.kind == OpKind.CREATE:
            store.insert(op.key, (op.key, 0, "created"))
            self._encrypt_at_rest(self.config.record_bytes)
            if personal and self.meta is not None:
                self.meta.insert(op.key, (op.key, 0))
            if personal:
                self._attach_policies(op.key)
        elif op.kind == OpKind.READ:
            store.read(op.key)
            self._encrypt_at_rest(self.config.record_bytes)
        elif op.kind == OpKind.UPDATE:
            store.update(op.key, (op.key, 1, "updated"))
            self._encrypt_at_rest(self.config.record_bytes)
        elif op.kind == OpKind.DELETE:
            self._erase(op.key)
        elif op.kind == OpKind.READ_META:
            self._metadata_read(op.key)
        elif op.kind == OpKind.UPDATE_META:
            self._metadata_update(op.key)
        elif op.kind == OpKind.READ_BY_META:
            self._metadata_read(op.key)
            store.read(op.key)
            self._encrypt_at_rest(self.config.record_bytes)
        else:  # pragma: no cover - exhaustive
            raise ValueError(f"unhandled operation kind: {op.kind}")
        if personal:
            self._log_operation(
                op.key, op.kind, self.config.record_bytes, personal
            )
            if op.kind in _MUTATING_KINDS:
                # GDPR operations commit individually (each is a user-visible
                # transaction); the load path group-commits instead.
                self.storage.commit()

    def _metadata_read(self, key: int) -> None:
        if self.meta is not None:
            self.meta.read(key)
        else:
            # Inline metadata (P_Base): the data row holds it.
            self.data.read(key)
            self._encrypt_at_rest(self.config.record_bytes)

    def _metadata_update(self, key: int) -> None:
        if self.meta is not None:
            self.meta.update(key, (key, 2))
        else:
            self.data.update(key, (key, 2, "meta-updated"))
            self._encrypt_at_rest(self.config.record_bytes)

    # --------------------------------------------------------------- running
    def run(self, workload: Workload, personal: bool = True) -> RunResult:
        """Load + execute a workload; returns the timing/space result."""
        load_watch = self.clock.stopwatch()
        if personal:
            self.load(workload.record_count)
        else:
            plain = self.plain
            for key in range(workload.record_count):
                plain.insert(key, (key, 0, "plain"), fresh=True)
                self._encrypt_at_rest(self.config.record_bytes)
        load_seconds = load_watch.stop() / 1e6
        txn_watch = self.clock.stopwatch()
        for op in workload:
            self.execute(op, personal=personal)
        txn_seconds = txn_watch.stop() / 1e6
        return RunResult(
            profile=self.name,
            workload=workload.name,
            record_count=workload.record_count,
            transaction_count=workload.transaction_count,
            load_seconds=load_seconds,
            txn_seconds=txn_seconds,
            breakdown=self.cost.breakdown_seconds(),
            space=self.space.report(),
            denials=self.denials,
            vacuum_count=self.storage.reclaim_count,
            vacuum_full_count=self.storage.reclaim_full_count,
            backend=self.backend_name,
        )
