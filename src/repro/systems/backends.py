"""Storage backends — engine-specific system-actions behind one protocol.

The paper's grounding schema (Figure 2) maps a chosen interpretation of a
concept to *engine-specific* system-actions: "reversibly inaccessible" is a
flag-column write in PSQL but a flagged-value overwrite in an LSM store;
"delete" is DELETE+VACUUM in PSQL but tombstone + victim compaction in an LSM
store.  :class:`StorageBackend` is the seam where those mappings plug into
the system layer: :class:`~repro.systems.database.CompliantDatabase`, the
§4.2 :class:`~repro.systems.profiles.ComplianceProfile` runners, and the
sharded :class:`~repro.distributed.store.ReplicatedStore` all speak the
concept-level vocabulary (insert / read / make-inaccessible / delete /
reclaim / sanitize / forensic-scan) and each backend realizes it with its
engine's own operations, preserving that engine's cost and retention
behaviour.

Three backends ground the evaluation:

* :class:`PsqlBackend` — wraps :class:`~repro.storage.engine.RelationalEngine`
  with the exact semantics the paper's Table 1 assumes (flag column,
  DELETE+VACUUM, DELETE+VACUUM FULL; "permanently delete" unsupported);
* :class:`LsmBackend` — wraps :class:`~repro.lsm.engine.LSMEngine`, grounding
  "reversibly inaccessible" as a flag write (overwrite with a flagged value),
  "delete" as tombstone + victim compaction, and "strong delete" as a tombstone
  cascade + full compaction ("permanently delete" unsupported);
* :class:`CryptoShredBackend` — vault-keyed packed sector groups
  (:mod:`repro.crypto.vault` + :mod:`repro.crypto.sectors`): every value
  lives encrypted under its own subkey, KDF-derived from a per-unit master
  key held in a shared :class:`KeyVault`, so destroying the vault entry
  (``shred``) makes the ciphertext unrecoverable, and pairing the shred
  with a multi-pass sector overwrite grounds **"permanently delete"** — the
  retrofit that fills the Table-1 row both native engines mark "Not
  supported".  Units pack ~16 per :class:`SectorGroup` sharing one header,
  so the space factor stays near the relational heap's instead of the 3x a
  volume-per-unit layout costs.

Table 1, per backend (``×`` = impossible, ``✓`` = may occur):

======================= ==== ==== ==== ==============================
Erasure (psql)           IR   II   Inv  system-action(s)
======================= ==== ==== ==== ==============================
reversibly inaccessible  ×   ✓    ✓    Add new attribute
delete                   ×   ✓    ×    DELETE + VACUUM
strong delete            ×   ×    ×    DELETE + VACUUM FULL
permanently delete       ×   ×    ×    Not supported
======================= ==== ==== ==== ==============================

======================= ==============================================
Erasure (lsm)            system-action(s)
======================= ==============================================
reversibly inaccessible  flag write (overwrite with flagged value)
delete                   tombstone + victim compaction
strong delete            tombstone cascade + full compaction
permanently delete       Not supported
======================= ==============================================

======================= ==============================================
Erasure (crypto-shred)   system-action(s)
======================= ==============================================
reversibly inaccessible  flag entry (key retained, value hidden)
delete                   logical delete + key shred
strong delete            logical delete cascade + key shred
permanently delete       key shred + sector sanitize  ← **supported**
======================= ==============================================

All three register their erasure groundings in
:func:`repro.core.erasure.register_erasure`; the facade selects the grounding
matching :attr:`StorageBackend.name` at construction.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro import codec
from repro.config import BackendConfig
from repro.core.locations import CopyLocation
from repro.crypto.sectors import (
    GROUP_CAPACITY,
    MAX_SLOT_SECTORS,
    SECTOR,
    SectorGroup,
    derive_subkey,
)
from repro.crypto.vault import KEY_ENTRY_BYTES, VAULT_HEADER_BYTES, KeyVault
from repro.lsm.cache import SharedBlockCache
from repro.lsm.compaction import EMPTY_COMPACTION_STATS, CompactionStats
from repro.lsm.engine import LSMEngine
from repro.lsm.memtable import TOMBSTONE
from repro.sim.costs import CostModel
from repro.storage.engine import FlaggedPayload, RelationalEngine
from repro.storage.errors import StorageError, TupleNotFoundError
from repro.storage.page import PAGE_SIZE

#: The facade's storage namespace: the PSQL table name (LSM and crypto-shred
#: stores have a single keyspace and don't use it).
DATA_TABLE = "data_units"


@dataclass(frozen=True)
class BackendStats:
    """Engine-neutral physical statistics for one backend.

    ``dead_entries`` counts physically retained but logically dead data —
    dead MVCC tuples in PSQL; tombstones plus shadowed (superseded or
    deleted-but-uncompacted) values in an LSM store; deleted-but-not-yet-
    shredded volumes in a crypto-shredding store.  That count is the
    illegal-retention surface of the paper's §1.
    """

    backend: str
    live_entries: int
    dead_entries: int
    total_bytes: int
    detail: Tuple[Tuple[str, Any], ...] = ()


class ExportBatch:
    """An in-flight encoded migration batch, tracked as a copy site.

    ``export_encoded_range`` hands out *real value copies* — blobs that
    live outside the engine until the destination imports them.  While a
    batch is open the source backend reports every unit it carries as a
    ``(CopyLocation.MIGRATION, name)`` site, so a mid-migration
    ``erase_all_copies`` sees the batch instead of silently leaving a copy
    in transit.  A grounded erase on the source *scrubs* the unit from the
    batch (:meth:`discard`); closing the batch (or leaving its ``with``
    block) releases the site.
    """

    __slots__ = ("name", "_items", "_owner")

    def __init__(
        self,
        name: str,
        items: List[Tuple[Any, bytes]],
        owner: "StorageBackend",
    ) -> None:
        self.name = name
        self._items: Dict[Any, bytes] = dict(items)
        self._owner: Optional["StorageBackend"] = owner

    def holds(self, unit_id: Any) -> bool:
        return unit_id in self._items

    def discard(self, unit_id: Any) -> bool:
        """Scrub one unit's blob from the batch (the erase hook)."""
        return self._items.pop(unit_id, None) is not None

    @property
    def items(self) -> List[Tuple[Any, bytes]]:
        """The surviving ``(unit_id, blob)`` pairs, import-ready."""
        return list(self._items.items())

    def __len__(self) -> int:
        return len(self._items)

    def close(self) -> None:
        """Release the batch's copy site (idempotent)."""
        owner, self._owner = self._owner, None
        if owner is not None:
            owner._close_export(self)

    def __enter__(self) -> "ExportBatch":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class StorageBackend(ABC):
    """The system-action surface the system layer drives.

    ``name`` identifies the engine in the :class:`GroundingRegistry`
    ("psql", "lsm", "crypto-shred", …); consumers look up and select the
    erasure grounding registered under it.
    """

    #: Engine identifier used for grounding lookup.
    name: str = "abstract"

    #: Whether the engine offers a "permanently delete" system-action
    #: (advanced sanitization).  Table 1 marks the native engines False;
    #: the crypto-shredding retrofit flips it.
    supports_sanitize: bool = False

    def __init__(self) -> None:
        #: Reclamation passes run (VACUUM / victim compaction / key-shred
        #: sweeps) — the profile runners report these per Figure 4.
        self.reclaim_count = 0
        self.reclaim_full_count = 0
        #: Open encoded-export batches — in-flight migration copy sites.
        self._export_batches: List[ExportBatch] = []

    # ------------------------------------------------------------------- DML
    @abstractmethod
    def insert(self, unit_id: Any, value: Any, fresh: bool = False) -> None:
        """Store a new unit's value.

        ``fresh=True`` is the COPY-style bulk-load contract: the caller
        guarantees the id is unused, so engines may skip uniqueness probes.
        """

    @abstractmethod
    def insert_many(self, items: Iterable[Tuple[Any, Any]]) -> int:
        """Bulk-load ``(unit_id, value)`` pairs; returns the count stored.

        The facade guarantees fresh ids (its model rejects duplicates), so
        backends may skip per-key uniqueness probes — the COPY-style path.
        """

    @abstractmethod
    def read(self, unit_id: Any) -> Any:
        """The unit's current value; raises ``TupleNotFoundError`` if the
        unit holds no live value.  Reversibly-inaccessible values are
        returned unwrapped — visibility policy is the facade's job."""

    @abstractmethod
    def read_many(self, unit_ids: Sequence[Any]) -> List[Any]:
        """Batch point reads, same semantics as :meth:`read` per id."""

    @abstractmethod
    def update(self, unit_id: Any, value: Any) -> None:
        """Replace the unit's value."""

    def commit(self) -> None:
        """Durability point after a user-visible transaction (WAL flush on
        engines that keep one; a no-op elsewhere)."""

    # ------------------------------------------- reversible inaccessibility
    @abstractmethod
    def make_inaccessible(self, unit_id: Any) -> None:
        """The weakest erasure grounding: hide the value reversibly."""

    @abstractmethod
    def restore(self, unit_id: Any) -> None:
        """Invert :meth:`make_inaccessible`."""

    @abstractmethod
    def is_inaccessible(self, unit_id: Any) -> bool:
        """Whether the unit is currently reversibly inaccessible."""

    # ------------------------------------------------------ physical erasure
    @abstractmethod
    def delete(self, unit_id: Any) -> None:
        """Logically remove the value (dead tuple / tombstone / dead volume)
        without reclaiming physical space."""

    @abstractmethod
    def _reclaim(self) -> int:
        """Engine-specific reclamation (VACUUM / victim compaction / shred
        sweep) — wrapped by :meth:`reclaim`, which counts the passes.
        Returns the dead entries the pass made unrecoverable."""

    @abstractmethod
    def _reclaim_full(self) -> None:
        """The strongest reclamation the engine offers — wrapped by
        :meth:`reclaim_full`."""

    def reclaim(self) -> int:
        """Make logically deleted values physically unrecoverable — the
        second half of the "delete" grounding.  Returns how many dead
        entries the pass removed: what ``stats().dead_entries`` read just
        before it, counted by the pass itself instead of a second scan."""
        self.reclaim_count += 1
        return self._reclaim()

    def reclaim_full(self) -> None:
        """The strongest reclamation (VACUUM FULL / full compaction / shred
        + space release) — the second half of the "strong delete" grounding."""
        self.reclaim_full_count += 1
        self._reclaim_full()

    def erase(self, unit_id: Any) -> None:
        """The full "delete" grounding: logical delete + reclamation —
        including any copy riding an open export batch."""
        self.delete(unit_id)
        self.scrub_exports([unit_id])
        self.reclaim()

    def erase_many(self, unit_ids: Sequence[Any], strong: bool = False) -> int:
        """Batch physical erase: delete every unit, then reclaim once.

        Amortizing the reclamation over the batch is exactly how a real
        deployment grounds high-volume erasure; single-unit semantics are
        preserved by :meth:`erase`.
        """
        count = 0
        for unit_id in unit_ids:
            self.delete(unit_id)
            count += 1
        self.scrub_exports(unit_ids)
        if strong:
            self.reclaim_full()
        else:
            self.reclaim()
        return count

    def scrub_exports(self, unit_ids: Sequence[Any]) -> None:
        """Drop erased units from every open export batch — a grounded
        erase must reach copies already handed out for migration."""
        for batch in self._export_batches:
            for unit_id in unit_ids:
                batch.discard(unit_id)

    def sanitize(self, unit_id: Any) -> None:
        """The "permanently delete" system-action: advanced sanitization of
        the unit's physical footprint.  Unsupported by default — the paper's
        point is that native engines must be *retrofitted* (§1)."""
        raise StorageError(
            f"{self.name} has no sanitization system-action "
            "(Table 1: permanently delete = Not supported)"
        )

    def maintain(self, max_bytes: Optional[int] = None) -> int:
        """Run any deferred background maintenance the engine has queued
        (compaction work on LSM engines); returns the number of maintenance
        units (merges) run.  ``max_bytes`` bounds one slice by merge input
        bytes so callers (the service maintenance thread) can interleave
        maintenance with live traffic.  A no-op by default — engines whose
        reclamation is purely demand-driven have nothing to do between
        operations."""
        return 0

    def compaction_stats(self) -> CompactionStats:
        """Merge/throttle counters for engines with background compaction
        (zeros for engines without one) — the observability companion of
        :meth:`maintain`."""
        return EMPTY_COMPACTION_STATS

    # ----------------------------------------------------------- bulk export
    def export_range(
        self, predicate: Callable[[Any], bool]
    ) -> List[Tuple[Any, Any]]:
        """Live ``(unit_id, value)`` pairs whose id the predicate selects —
        the source side of a shard migration ("range" = a hash-ring arc,
        expressed as a predicate since ring ranges wrap).

        Reversibly-inaccessible units are exported wrapped in
        :class:`FlaggedPayload` whatever mechanism the engine uses for the
        flag (column, flag write, out-of-band bit), and
        :meth:`import_encoded_batch` re-grounds the wrapper on arrival — a
        migration must never silently undo a compliance-mandated
        reversible erase at the key's new home.

        The generic path scans the physical layout once and batch-reads the
        matches; engines override it with their native scan (PSQL seq scan,
        LSM merged run scan, crypto-shred volume sweep).
        """
        keys = sorted(
            {k for k, live in self.forensic_scan() if live and predicate(k)},
            key=repr,
        )
        out: List[Tuple[Any, Any]] = []
        for key, value in zip(keys, self.read_many(keys)):
            if self.is_inaccessible(key):
                value = FlaggedPayload(True, value)
            out.append((key, value))
        return out

    def export_encoded_range(
        self, predicate: Callable[[Any], bool]
    ) -> List[Tuple[Any, bytes]]:
        """:meth:`export_range` in codec form: ``(unit_id, blob)`` pairs.

        The migration transport of choice — encoded batches stream between
        nodes without a decode/re-encode hop when both sides store codec
        blobs natively (LSM blocks, crypto-shred sectors).  The generic
        path encodes the object export; native overrides hand out the
        stored bytes directly.
        """
        return [
            (key, codec.encode(value))
            for key, value in self.export_range(predicate)
        ]

    def import_encoded_batch(self, items: Sequence[Tuple[Any, bytes]]) -> int:
        """Destination side of a shard migration: load ``(unit_id, blob)``
        pairs through the COPY-style path and hit a durability point, so
        the imported copies survive exactly like written ones.  The
        migration planner guarantees the ids are fresh on this node.

        The generic path decodes each blob; ``FlaggedPayload``-wrapped
        values (reversibly-inaccessible units in transit) are unwrapped and
        re-grounded through this engine's own flag mechanism, preserving
        the inaccessibility across the move.  Native overrides write the
        blobs straight into storage."""
        values = [(key, codec.decode(blob)) for key, blob in items]
        plain = [
            (k, v) for k, v in values if not isinstance(v, FlaggedPayload)
        ]
        count = self.insert_many(plain) if plain else 0
        for key, value in values:
            if isinstance(value, FlaggedPayload):
                self.insert(key, value.value, fresh=True)
                if value.flagged:
                    self.make_inaccessible(key)
                count += 1
        self.commit()
        return count

    def open_export(
        self, predicate: Callable[[Any], bool], name: str = "export"
    ) -> ExportBatch:
        """Open a tracked encoded export: the batch's blobs are registered
        as in-flight ``MIGRATION`` copy sites (see :meth:`copy_locations`)
        until the batch is closed.  Use as a context manager around the
        transfer so a crash cannot leak an unregistered copy."""
        batch = ExportBatch(name, self.export_encoded_range(predicate), self)
        self._export_batches.append(batch)
        return batch

    def _close_export(self, batch: ExportBatch) -> None:
        if batch in self._export_batches:
            self._export_batches.remove(batch)

    def purge_history(self, unit_id: Any) -> int:
        """Scrub the unit's traces from the engine's recovery log, if it
        keeps one (the P_SYS erase grounding).  Returns records purged."""
        return 0

    # -------------------------------------------------------------- forensics
    @abstractmethod
    def copy_sites(self, unit_id: Any) -> List[str]:
        """Names of the primary-storage sites still holding a recoverable
        value for the unit, live or dead — heap tuples, memtable and
        SSTables, unshredded sector slots.  Engines that cannot tell their
        copies apart report one anonymous ``""`` site."""

    def copy_locations(self, unit_id: Any) -> List[Tuple[CopyLocation, str]]:
        """The unit's typed secondary copy sites: every open export batch
        carrying its blob, plus whatever the engine adds (block-cache
        entries, recovery-log row images).  The distributed layer merges
        these into ``copies_of``; ``erase_all_copies`` is only "verified
        clean" once this and :meth:`copy_sites` are both empty.
        """
        return [
            (CopyLocation.MIGRATION, batch.name)
            for batch in self._export_batches
            if batch.holds(unit_id)
        ]

    def physically_present(self, unit_id: Any) -> bool:
        """Whether a disk inspection would still recover the unit's value
        from *any* physical location the engine controls (heap, runs,
        recovery log)."""
        return bool(self.copy_sites(unit_id)) or any(
            loc is CopyLocation.WAL
            for loc, _site in self.copy_locations(unit_id)
        )

    @abstractmethod
    def forensic_scan(self) -> List[Tuple[Any, bool]]:
        """Every physical entry as ``(unit_id, live)`` pairs, logically dead
        data included — the illegal-retention primitive."""

    @abstractmethod
    def exists(self, unit_id: Any) -> bool:
        """Whether a live value exists for the unit."""

    @abstractmethod
    def stats(self) -> BackendStats:
        """Physical statistics for the bench harness."""

    # -------------------------------------------------------- space accounting
    def data_bytes(self) -> int:
        """Bytes attributable to stored values (heap / runs / sectors)."""
        return self.stats().total_bytes

    def index_bytes(self) -> int:
        """Bytes attributable to access structures (B-tree, Bloom filters)."""
        return 0

    def log_bytes(self) -> int:
        """Bytes held by the engine's recovery log, if any."""
        return 0


class PsqlBackend(StorageBackend):
    """Table-1's PSQL column, verbatim.

    All calls delegate to one :class:`RelationalEngine` table; semantics and
    cost charging are exactly those of the engine methods the facade
    previously called inline.  The engine's WAL is a tracked copy location:
    :meth:`physically_present` counts row images lingering in the log, and
    the reclamation passes scrub them (see :mod:`repro.storage.wal`).
    """

    name = "psql"

    def __init__(
        self,
        cost: CostModel,
        row_bytes: int = 70,
        table: str = DATA_TABLE,
        engine: Optional[RelationalEngine] = None,
        flag_column: bool = True,
        **engine_opts: Any,
    ) -> None:
        super().__init__()
        self.table = table
        self.engine = (
            engine if engine is not None else RelationalEngine(cost, **engine_opts)
        )
        if not self.engine.has_table(table):
            self.engine.create_table(table, row_bytes, flag_column=flag_column)

    # ------------------------------------------------------------------- DML
    def insert(self, unit_id: Any, value: Any, fresh: bool = False) -> None:
        self.engine.insert(self.table, unit_id, value, check_duplicate=not fresh)

    def insert_many(self, items: Iterable[Tuple[Any, Any]]) -> int:
        return self.engine.insert_many(self.table, items, check_duplicate=False)

    def read(self, unit_id: Any) -> Any:
        return self.engine.read(self.table, unit_id)

    def read_many(self, unit_ids: Sequence[Any]) -> List[Any]:
        return self.engine.read_many(self.table, unit_ids)

    def update(self, unit_id: Any, value: Any) -> None:
        self.engine.update(self.table, unit_id, value)

    def commit(self) -> None:
        self.engine.wal.flush()

    # ------------------------------------------- reversible inaccessibility
    def make_inaccessible(self, unit_id: Any) -> None:
        self.engine.set_flag(self.table, unit_id, True)

    def restore(self, unit_id: Any) -> None:
        self.engine.set_flag(self.table, unit_id, False)

    def is_inaccessible(self, unit_id: Any) -> bool:
        return self.engine.is_flagged(self.table, unit_id)

    # ------------------------------------------------------ physical erasure
    def delete(self, unit_id: Any) -> None:
        self.engine.delete(self.table, unit_id)

    def _reclaim(self) -> int:
        return self.engine.vacuum(self.table)

    def _reclaim_full(self) -> None:
        self.engine.vacuum_full(self.table)

    def purge_history(self, unit_id: Any) -> int:
        return self.engine.wal.purge_key(self.table, unit_id)

    def copy_locations(self, unit_id: Any) -> List[Tuple[CopyLocation, str]]:
        """Migration sites plus the engine's typed WAL row-image sites: an
        unscrubbed INSERT/UPDATE row image is a ``CopyLocation.WAL`` entry
        until the reclaim-time scrub redacts it."""
        sites = super().copy_locations(unit_id)
        sites.extend(self.engine.wal_copy_sites(self.table, unit_id))
        return sites

    # ----------------------------------------------------------- bulk export
    def export_range(
        self, predicate: Callable[[Any], bool]
    ) -> List[Tuple[Any, Any]]:
        """Sequential scan over live tuples, filtered by key — the COPY-out
        side of a shard migration.  Rows whose retrofit flag column is set
        travel as :class:`FlaggedPayload` so the flag state survives the
        move (the column itself is not part of the payload)."""
        out: List[Tuple[Any, Any]] = []
        for key, value in self.engine.seq_scan(
            self.table, lambda key, _value: predicate(key)
        ):
            if self.engine.is_flagged(self.table, key):
                value = FlaggedPayload(True, value)
            out.append((key, value))
        return sorted(out, key=lambda kv: repr(kv[0]))

    # -------------------------------------------------------------- forensics
    def copy_sites(self, unit_id: Any) -> List[str]:
        """One anonymous heap site while any tuple version of the unit,
        live or dead, is still on a page (a sequential scan, like the disk
        inspection it stands for)."""
        held = any(key == unit_id for key, _live in self.forensic_scan())
        return [""] if held else []

    def forensic_scan(self) -> List[Tuple[Any, bool]]:
        return self.engine.forensic_scan(self.table)

    def exists(self, unit_id: Any) -> bool:
        return self.engine.exists(self.table, unit_id)

    def stats(self) -> BackendStats:
        s = self.engine.stats(self.table)
        return BackendStats(
            backend=self.name,
            live_entries=s.live_tuples,
            dead_entries=s.dead_tuples,
            total_bytes=s.total_bytes,
            detail=(
                ("pages", s.pages),
                ("index_dead_entries", s.index_dead_entries),
                ("dead_fraction", s.dead_fraction),
            ),
        )

    def data_bytes(self) -> int:
        return self.engine.stats(self.table).heap_bytes

    def index_bytes(self) -> int:
        return self.engine.stats(self.table).index_bytes

    def log_bytes(self) -> int:
        return self.engine.wal.size_bytes


class LsmBackend(StorageBackend):
    """The LSM grounding of Table 1.

    * "reversibly inaccessible" ↦ *flag write*: overwrite the key with a
      :class:`FlaggedPayload`-wrapped value — invertible, and the value stays
      physically present (same Inv/II profile as PSQL's flag column);
    * "delete" ↦ *tombstone + victim compaction*: the tombstone alone leaves
      shadowed values in older runs (the §1 retention hazard); the paired
      compaction rewrites the runs holding a deleted key, without its entries;
    * "strong delete" ↦ *tombstone cascade + full compaction*: tombstone the
      unit and its identifying descendants, then rewrite every run once.

    Keys are upserted (LSM put semantics); the facade's model layer enforces
    unit-id uniqueness.

    ``compaction`` selects the engine's :class:`CompactionPolicy` ("size" —
    the size-tiered default — or "leveled", or a policy instance);
    ``compaction_mode`` selects the scheduler ("sync" runs merges inside
    the flush, "deferred" queues them for :meth:`maintain`).  Either way
    the grounded erase (``reclaim`` / ``reclaim_full``) stays synchronous.

    ``block_cache`` injects a :class:`SharedBlockCache` so several
    namespaces (a :class:`BackendGroup`) or co-located shards pool one
    cache budget; without it the engine builds a private cache of
    ``block_cache_capacity`` entries.  ``namespace`` labels this backend's
    entries in the shared cache (and its ``CACHE`` copy sites).
    """

    name = "lsm"

    def __init__(
        self,
        cost: CostModel,
        row_bytes: int = 70,
        engine: Optional[LSMEngine] = None,
        memtable_capacity: int = 4096,
        tier_threshold: int = 4,
        block_cache_capacity: int = 1024,
        compaction: Any = "size",
        compaction_mode: str = "sync",
        block_cache: Optional[SharedBlockCache] = None,
        namespace: str = "",
    ) -> None:
        super().__init__()
        self._row_bytes = row_bytes
        self.engine = (
            engine
            if engine is not None
            else LSMEngine(
                cost,
                payload_bytes=row_bytes,
                memtable_capacity=memtable_capacity,
                tier_threshold=tier_threshold,
                block_cache_capacity=block_cache_capacity,
                compaction=compaction,
                compaction_mode=compaction_mode,
                block_cache=block_cache,
                namespace=namespace,
            )
        )

    # ------------------------------------------------------------------- DML
    def insert(self, unit_id: Any, value: Any, fresh: bool = False) -> None:
        self.engine.put(unit_id, value)

    def insert_many(self, items: Iterable[Tuple[Any, Any]]) -> int:
        return self.engine.put_many(items)

    def read(self, unit_id: Any) -> Any:
        value = self.engine.get(unit_id)
        if value is None:
            raise TupleNotFoundError(f"lsm: no live value for key {unit_id!r}")
        if isinstance(value, FlaggedPayload):
            value = value.value
        return value

    def read_many(self, unit_ids: Sequence[Any]) -> List[Any]:
        return [self.read(unit_id) for unit_id in unit_ids]

    def update(self, unit_id: Any, value: Any) -> None:
        if self.engine.get(unit_id) is None:
            raise TupleNotFoundError(f"lsm: no live value for key {unit_id!r}")
        self.engine.put(unit_id, value)

    # ------------------------------------------- reversible inaccessibility
    def make_inaccessible(self, unit_id: Any) -> None:
        value = self.engine.get(unit_id)
        if value is None:
            raise TupleNotFoundError(f"lsm: no live value for key {unit_id!r}")
        # The engine hands back a decoded copy, not an alias of the stored
        # bytes — the flag write must go back through put to stick.
        if isinstance(value, FlaggedPayload):
            self.engine.put(unit_id, FlaggedPayload(True, value.value))
            return
        self.engine.put(unit_id, FlaggedPayload(True, value))

    def restore(self, unit_id: Any) -> None:
        value = self.engine.get(unit_id)
        if not isinstance(value, FlaggedPayload):
            raise StorageError(f"lsm: key {unit_id!r} is not flagged")
        self.engine.put(unit_id, value.value)

    def is_inaccessible(self, unit_id: Any) -> bool:
        value = self.engine.get(unit_id)
        if value is None:
            raise TupleNotFoundError(f"lsm: no live value for key {unit_id!r}")
        return isinstance(value, FlaggedPayload) and value.flagged

    # ------------------------------------------------------ physical erasure
    def delete(self, unit_id: Any) -> None:
        self.engine.delete(unit_id)

    def _reclaim(self) -> int:
        return self.engine.victim_compaction()

    def _reclaim_full(self) -> None:
        self.engine.full_compaction()

    def maintain(self, max_bytes: Optional[int] = None) -> int:
        """Run compaction work the deferred scheduler has queued — the
        between-operations hook of the compaction subsystem.  ``max_bytes``
        bounds the slice (at least one merge still runs when work is
        planned); returns merges run."""
        return self.engine.run_pending_compactions(max_bytes=max_bytes)

    def compaction_stats(self) -> CompactionStats:
        return self.engine.scheduler.stats()

    # ----------------------------------------------------------- bulk export
    def export_range(
        self, predicate: Callable[[Any], bool]
    ) -> List[Tuple[Any, Any]]:
        """Merged newest-live scan over memtable + every run, filtered by
        key.  Values come back as stored — ``FlaggedPayload`` wrappers
        included — so migration preserves reversible-inaccessibility state.
        """
        return self.engine.live_items(predicate)

    def export_encoded_range(
        self, predicate: Callable[[Any], bool]
    ) -> List[Tuple[Any, bytes]]:
        """Native encoded export: the stored blobs stream out unchanged
        (``FlaggedPayload`` wrappers are *in* the blobs, so the flag state
        travels without a decode)."""
        return self.engine.live_items_encoded(predicate)

    def import_encoded_batch(self, items: Sequence[Tuple[Any, bytes]]) -> int:
        """Native encoded import: blobs from the source engine land in the
        memtable as-is via :meth:`LSMEngine.put_encoded`."""
        count = 0
        for unit_id, blob in items:
            self.engine.put_encoded(unit_id, blob)
            count += 1
        self.commit()
        return count

    # -------------------------------------------------------------- forensics
    def copy_locations(self, unit_id: Any) -> List[Tuple[CopyLocation, str]]:
        """The engine's (possibly shared) block-cache entry for the unit,
        then the migration sites."""
        sites = self.engine.cache_copy_sites(unit_id)
        sites.extend(super().copy_locations(unit_id))
        return sites

    def copy_sites(self, unit_id: Any) -> List[str]:
        """Every physical site still holding a real value for the unit —
        the memtable and each SSTable, named by level.  Pre-compaction
        copies keep their own entries until the rewrite removes the table,
        which is what lets a distributed ``copies_of`` stay honest while
        compaction is pending."""
        return self.engine.copy_sites(unit_id)

    def forensic_scan(self) -> List[Tuple[Any, bool]]:
        newest: Dict[Any, Tuple[int, Any]] = {}
        physical: List[Tuple[Any, int, Any]] = []
        for key, (seqno, value) in self.engine.memtable_entries():
            physical.append((key, seqno, value))
            if key not in newest or seqno > newest[key][0]:
                newest[key] = (seqno, value)
        for run in self.engine.runs():
            for key, seqno, value in run.entries():
                physical.append((key, seqno, value))
                if key not in newest or seqno > newest[key][0]:
                    newest[key] = (seqno, value)
        out: List[Tuple[Any, bool]] = []
        for key, seqno, value in physical:
            if value is TOMBSTONE:
                continue  # tombstones carry no recoverable value
            top_seqno, top_value = newest[key]
            out.append((key, seqno == top_seqno and top_value is not TOMBSTONE))
        return out

    def exists(self, unit_id: Any) -> bool:
        return self.engine.get(unit_id) is not None

    def stats(self) -> BackendStats:
        scan = self.forensic_scan()
        live = sum(1 for _key, is_live in scan if is_live)
        return BackendStats(
            backend=self.name,
            live_entries=live,
            dead_entries=(len(scan) - live) + self.engine.tombstone_count,
            total_bytes=self.engine.total_bytes() + self.engine.memtable_bytes(),
            detail=(
                ("runs", self.engine.run_count),
                ("levels", self.engine.level_count),
                ("compaction_policy", self.engine.compaction_policy.name),
                ("tombstones", self.engine.tombstone_count),
                ("flushes", self.engine.flush_count),
                ("compactions", self.engine.compaction_count),
                ("write_amplification", self.engine.write_amplification),
                ("cache_hits", self.engine.cache_hits),
                ("cache_misses", self.engine.cache_misses),
                ("merges_run", self.engine.scheduler.merges_run),
                ("bytes_compacted", self.engine.bytes_compacted),
                ("trivial_moves", self.engine.trivial_moves),
                ("stall_events", self.engine.scheduler.stall_events),
                ("compaction_queue_depth", self.engine.scheduler.queue_depth),
                ("write_stalled", self.engine.write_stalled),
            ),
        )

    def data_bytes(self) -> int:
        # Real buffered blob bytes, not a nominal rows × row_bytes guess.
        return (
            self.engine.total_bytes()
            - self.index_bytes()
            + self.engine.memtable_bytes()
        )

    def index_bytes(self) -> int:
        return sum(run.bloom_bytes for run in self.engine.runs())


class _ShredEntry:
    """One unit's encrypted footprint: vault key + packed placement."""

    __slots__ = (
        "key_id",
        "group",
        "slot",
        "sectors",
        "nbytes",
        "live",
        "flagged",
        "sanitized",
        "volume",
    )

    def __init__(self, key_id: int) -> None:
        self.key_id = key_id
        self.group: Optional[SectorGroup] = None
        self.slot = -1
        self.sectors = 0
        self.nbytes = 0
        self.live = True
        self.flagged = False
        self.sanitized = False
        self.volume: Optional["_SlotView"] = None


class _SlotView:
    """The old per-unit "volume" surface over a packed (group, slot).

    Forensics (and the regression tests) address a unit's footprint as
    "its volume"; this view keeps that address working over the packed
    layout: sector indexes are slot-relative, ``is_shredded`` asks the
    vault, and ``read_sector`` fails exactly like a shredded volume once
    the unit's key is gone.
    """

    __slots__ = ("_vault", "_entry")

    def __init__(self, vault: KeyVault, entry: _ShredEntry) -> None:
        self._vault = vault
        self._entry = entry

    @property
    def is_shredded(self) -> bool:
        return self._vault.is_shredded(self._entry.key_id)

    @property
    def sector_count(self) -> int:
        entry = self._entry
        if entry.group is None:
            return 0
        return len(entry.group.slot_sector_numbers(entry.slot))

    def raw_sector(self, index: int) -> bytes:
        entry = self._entry
        return entry.group.raw_sector(entry.group.sector_number(entry.slot, index))

    def read_sector(self, index: int) -> bytes:
        entry = self._entry
        master = self._vault.master(entry.key_id)  # PermissionError if shredded
        subkey = derive_subkey(master, entry.group.group_id, entry.slot)
        return entry.group.read_sector(entry.slot, subkey, index)


class CryptoShredBackend(StorageBackend):
    """Crypto-shredding: the retrofit that grounds "permanently delete".

    Every unit's value is codec-encoded and encrypted into a slot of a
    packed :class:`SectorGroup` under its own subkey, KDF-derived from a
    per-unit master key in the :class:`KeyVault`; the plaintext never
    exists at rest.  The erasure interpretations then ground as:

    * "reversibly inaccessible" ↦ *flag entry*: a visibility flag beside
      the catalog entry — the key survives, so the transformation is
      invertible and the value stays recoverable (same Inv/II profile as
      the flag column);
    * "delete" ↦ *logical delete + key shred*: marking the entry dead is
      the O(1) step; the paired reclamation destroys the dead entries'
      vault keys in one batched key-table write, after which the
      ciphertext is unrecoverable — the crypto-erase analogue of VACUUM;
    * "strong delete" ↦ the same shred applied over the cascade;
    * "permanently delete" ↦ *key shred + sector sanitize*: in addition to
      the key destruction, every ciphertext sector is multi-pass
      overwritten (NIST SP 800-88 "Purge"), charged through
      :meth:`CostModel.charge_sanitize` — the Table-1 row no native engine
      supports.  :meth:`sanitize_many` amortizes the overwrite sweep per
      touched group.

    Space: ``GROUP_CAPACITY`` (16) units share one 512-byte group header and
    one vault (injectable, so a :class:`BackendGroup` shares it across
    namespaces), versus a whole LUKS header per unit in the original
    layout — the Table-2 factor drops from ~3x the relational heap toward
    parity.

    Retention honesty: between ``delete`` and the reclamation the key still
    exists, so the value is *recoverable* — those entries count as
    ``dead_entries`` and show up in :meth:`forensic_scan`, exactly like dead
    MVCC tuples or shadowed LSM values (§1).
    """

    name = "crypto-shred"
    supports_sanitize = True

    def __init__(
        self,
        cost: CostModel,
        row_bytes: int = 70,
        vault: Optional[KeyVault] = None,
    ) -> None:
        super().__init__()
        self._cost = cost
        self._row_bytes = row_bytes
        self._owns_vault = vault is None
        self._vault = vault if vault is not None else KeyVault()
        self._entries: Dict[Any, _ShredEntry] = {}
        # Dead entries displaced by a re-insert over their unit id: their
        # keys are still intact, so they stay in the retention accounting
        # until a reclamation pass shreds them (§1 honesty).
        self._graveyard: List[Tuple[Any, _ShredEntry]] = []
        # Entries deleted since the last reclamation — the sweep's victims,
        # so an erase never revisits keys an earlier pass already shredded.
        self._deleted: List[_ShredEntry] = []
        # Shredded graveyard placements: unrecoverable noise still
        # occupying group sectors until a full reclamation releases them.
        self._residue_slots: List[_ShredEntry] = []
        self._residue_bytes = 0
        self._groups: List[SectorGroup] = []
        self._partial: List[SectorGroup] = []
        self._group_counter = 0
        #: Vault entries this backend enrolled and has not yet compacted
        #: away — its share of a (possibly shared) vault's key table.
        self._owned_ids: set = set()
        self.shred_count = 0
        self.sanitize_count = 0

    # --------------------------------------------------------------- internals
    def _entry(self, unit_id: Any) -> _ShredEntry:
        entry = self._entries.get(unit_id)
        if entry is None or not entry.live:
            raise TupleNotFoundError(
                f"crypto-shred: no live value for key {unit_id!r}"
            )
        return entry

    def _alloc_placement(self, sectors: int) -> Tuple[SectorGroup, int]:
        """A (group, slot) with room for ``sectors``; oversized values get
        a dedicated single-slot group, everything else packs."""
        if sectors > MAX_SLOT_SECTORS:
            self._group_counter += 1
            group = SectorGroup(
                self._group_counter, capacity=1, slot_sectors=sectors
            )
            self._groups.append(group)
            return group, group.alloc_slot()
        while self._partial and not self._partial[-1].has_free_slot:
            self._partial.pop()
        if not self._partial:
            self._group_counter += 1
            group = SectorGroup(self._group_counter, capacity=GROUP_CAPACITY)
            self._groups.append(group)
            self._partial.append(group)
        group = self._partial[-1]
        return group, group.alloc_slot()

    def _offer_partial(self, group: SectorGroup) -> None:
        if group.capacity > 1 and group.has_free_slot and group not in self._partial:
            self._partial.append(group)

    def _release_slot(self, entry: _ShredEntry) -> None:
        """Discard the entry's ciphertext and return its slot to the pool."""
        if entry.group is not None:
            entry.group.discard_slot(entry.slot)
            self._offer_partial(entry.group)
            entry.group = None
            entry.slot = -1
        entry.sectors = 0

    def _subkey(self, entry: _ShredEntry) -> bytes:
        return derive_subkey(
            self._vault.master(entry.key_id), entry.group.group_id, entry.slot
        )

    def _write_blob(self, entry: _ShredEntry, blob: bytes) -> None:
        sectors = SectorGroup.sectors_needed(len(blob))
        if entry.group is None or sectors > entry.group.slot_sectors:
            # First write, or the value outgrew its slot: (re)place it.
            self._release_slot(entry)
            entry.group, entry.slot = self._alloc_placement(sectors)
        entry.sectors = entry.group.write(entry.slot, self._subkey(entry), blob)
        entry.nbytes = len(blob)
        self._cost.charge_luks(max(len(blob), self._row_bytes))
        self._cost.charge_page_write(entry.sectors * SECTOR / PAGE_SIZE)

    def _read_blob(self, entry: _ShredEntry) -> bytes:
        blob = entry.group.read(
            entry.slot, self._subkey(entry), entry.sectors, entry.nbytes
        )
        self._cost.charge_page_read()
        self._cost.charge_luks(max(entry.nbytes, self._row_bytes))
        return blob

    def _shred_one(self, entry: _ShredEntry) -> None:
        """Destroy one vault key — one key-table write, gone forever."""
        if self._vault.shred(entry.key_id):
            self._cost.charge_page_write()
            self.shred_count += 1

    def _shred_batch(self, entries: Sequence[_ShredEntry]) -> int:
        """Destroy a batch of vault keys in one key-table pass: the
        co-located vault turns N scattered header writes into one write
        covering the touched entry pages."""
        shredded = self._vault.shred_many([e.key_id for e in entries])
        if shredded:
            self._cost.charge_page_write(
                max(1.0, shredded * KEY_ENTRY_BYTES / PAGE_SIZE)
            )
            self.shred_count += shredded
        return shredded

    # ------------------------------------------------------------------- DML
    def insert(self, unit_id: Any, value: Any, fresh: bool = False) -> None:
        self._insert_blob(unit_id, codec.encode(value))

    def _insert_blob(self, unit_id: Any, blob: bytes) -> None:
        existing = self._entries.get(unit_id)
        if existing is not None and existing.live:
            raise StorageError(
                f"crypto-shred: key {unit_id!r} already holds a live value"
            )
        if (
            existing is not None
            and existing.sectors > 0
            and not self._vault.is_shredded(existing.key_id)
        ):
            # The displaced dead entry's key is still intact: keep it in
            # the retention accounting until a reclamation shreds it.
            self._graveyard.append((unit_id, existing))
        elif existing is not None:
            # Already shredded (or empty): its noise can make way now.
            self._release_slot(existing)
        key_id = self._vault.create_key(repr(unit_id))
        self._owned_ids.add(key_id)
        entry = _ShredEntry(key_id)
        entry.volume = _SlotView(self._vault, entry)
        self._write_blob(entry, blob)
        self._entries[unit_id] = entry

    def insert_many(self, items: Iterable[Tuple[Any, Any]]) -> int:
        count = 0
        for unit_id, value in items:
            self.insert(unit_id, value, fresh=True)
            count += 1
        return count

    def read(self, unit_id: Any) -> Any:
        return codec.decode(self._read_blob(self._entry(unit_id)))

    def read_many(self, unit_ids: Sequence[Any]) -> List[Any]:
        return [self.read(unit_id) for unit_id in unit_ids]

    def update(self, unit_id: Any, value: Any) -> None:
        # In-place sector overwrite under the same key — no MVCC bloat.
        self._write_blob(self._entry(unit_id), codec.encode(value))

    # ------------------------------------------- reversible inaccessibility
    def make_inaccessible(self, unit_id: Any) -> None:
        self._entry(unit_id).flagged = True
        self._cost.charge_page_write()

    def restore(self, unit_id: Any) -> None:
        entry = self._entries.get(unit_id)
        if entry is None or not entry.live or not entry.flagged:
            raise StorageError(f"crypto-shred: key {unit_id!r} is not flagged")
        entry.flagged = False
        self._cost.charge_page_write()

    def is_inaccessible(self, unit_id: Any) -> bool:
        return self._entry(unit_id).flagged

    # ------------------------------------------------------ physical erasure
    def delete(self, unit_id: Any) -> None:
        entry = self._entry(unit_id)
        entry.live = False
        self._deleted.append(entry)
        self._cost.charge_tuple_cpu()

    def _reclaim(self) -> int:
        """Shred the keys of every entry deleted since the last pass
        (graveyard included) — crypto-erase, one batched key-table write.

        Charged as a catalog sweep (the analogue of VACUUM's heap scan), so
        batching erases amortizes it; older dead entries were shredded by an
        earlier pass, ``sanitize`` or a full reclamation.  Returns the
        victims that were still recoverable (ciphertext and key both left).
        """
        self._cost.charge_tuple_cpu(len(self._entries) + len(self._graveyard))
        # A re-inserted unit's old entry is in both lists: keep it once.
        victims = list(dict.fromkeys(
            self._deleted + [e for _uid, e in self._graveyard]
        ))
        self._deleted.clear()
        recoverable = sum(
            1
            for e in victims
            if e.sectors > 0 and not self._vault.is_shredded(e.key_id)
        )
        self._shred_batch(victims)
        # Shredded graveyard placements leave the scan set for good — only
        # their (unrecoverable) ciphertext sectors keep occupying disk.
        for _unit_id, entry in self._graveyard:
            self._residue_bytes += entry.sectors * SECTOR
            self._residue_slots.append(entry)
        self._graveyard.clear()
        return recoverable

    def _reclaim_full(self) -> None:
        """Shred dead entries' keys, release their ciphertext space, and
        compact this backend's share of the vault's key table."""
        self._cost.charge_tuple_cpu(len(self._entries) + len(self._graveyard))
        victims = [e for e in self._entries.values() if not e.live]
        victims.extend(e for _uid, e in self._graveyard)
        self._deleted.clear()
        self._shred_batch(victims)
        for entry in victims:
            self._release_slot(entry)
        for entry in self._residue_slots:
            self._release_slot(entry)
        self._residue_slots.clear()
        self._graveyard.clear()
        self._residue_bytes = 0  # the full pass releases the noise too
        for key_id in self._vault.compact_keys(sorted(self._owned_ids)):
            self._owned_ids.discard(key_id)
        # Fully drained groups release their header too.
        kept = [g for g in self._groups if g.sector_count or g.slots_in_use]
        if len(kept) != len(self._groups):
            self._groups = kept
            self._partial = [
                g for g in kept if g.capacity > 1 and g.has_free_slot
            ]

    def _sanitize_victims(
        self, victims: Sequence[_ShredEntry], batched: bool
    ) -> int:
        """Shred + multi-pass overwrite, one sweep per touched group;
        returns the pages of sanitize work to charge."""
        if batched:
            self._shred_batch(victims)
        else:
            for victim in victims:
                self._shred_one(victim)
        pages = 0
        by_group: Dict[int, Tuple[SectorGroup, List[int]]] = {}
        for victim in victims:
            pages += max(
                1, (victim.sectors * SECTOR + PAGE_SIZE - 1) // PAGE_SIZE
            )
            if victim.group is not None and victim.sectors:
                group, slots = by_group.setdefault(
                    id(victim.group), (victim.group, [])
                )
                slots.append(victim.slot)
        for group, slots in by_group.values():
            group.overwrite_slots(slots)
        for victim in victims:
            self._release_slot(victim)
            victim.nbytes = 0
            victim.sanitized = True
        return pages

    def sanitize(self, unit_id: Any) -> None:
        """Key shred + multi-pass overwrite of the ciphertext sectors —
        Table 1's "permanently delete", charged as sanitization work."""
        entry = self._entries.get(unit_id)
        if entry is None:
            raise TupleNotFoundError(f"crypto-shred: unknown key {unit_id!r}")
        victims = [entry] + [e for uid, e in self._graveyard if uid == unit_id]
        self._graveyard = [
            (uid, e) for uid, e in self._graveyard if uid != unit_id
        ]
        pages = self._sanitize_victims(victims, batched=False)
        self._cost.charge_sanitize(pages)
        entry.live = False
        self.sanitize_count += 1

    def sanitize_many(self, unit_ids: Sequence[Any]) -> int:
        """Batch "permanently delete": one key-table shred write and one
        overwrite sweep per touched sector group — the packed layout's
        amortization of shred-time sanitize cost.  Returns units sanitized.
        """
        heads: List[_ShredEntry] = []
        for unit_id in unit_ids:
            entry = self._entries.get(unit_id)
            if entry is None:
                raise TupleNotFoundError(
                    f"crypto-shred: unknown key {unit_id!r}"
                )
            heads.append(entry)
        wanted = set(unit_ids)
        victims = heads + [e for uid, e in self._graveyard if uid in wanted]
        self._graveyard = [
            (uid, e) for uid, e in self._graveyard if uid not in wanted
        ]
        pages = self._sanitize_victims(victims, batched=True)
        self._cost.charge_sanitize(pages)
        for entry in heads:
            entry.live = False
        self.sanitize_count += len(heads)
        return len(heads)

    # ----------------------------------------------------------- bulk export
    def export_range(
        self, predicate: Callable[[Any], bool]
    ) -> List[Tuple[Any, Any]]:
        """Decrypt-and-export every live volume the predicate selects: the
        plaintext exists only in transit, and the source volumes stay
        intact (and tracked) until the migration's grounded erase shreds
        their keys.  Flagged (reversibly-inaccessible) entries travel as
        :class:`FlaggedPayload` so the out-of-band visibility bit survives
        the move."""
        self._cost.charge_tuple_cpu(len(self._entries))  # catalog sweep
        out: List[Tuple[Any, Any]] = []
        for unit_id, entry in self._entries.items():
            if not entry.live or not predicate(unit_id):
                continue
            value = codec.decode(self._read_blob(entry))
            if entry.flagged:
                value = FlaggedPayload(True, value)
            out.append((unit_id, value))
        return sorted(out, key=lambda kv: repr(kv[0]))

    def export_encoded_range(
        self, predicate: Callable[[Any], bool]
    ) -> List[Tuple[Any, bytes]]:
        """Native encoded export: sectors decrypt straight to codec blobs
        (flagged entries alone pay a re-wrap, the flag being out-of-band
        here)."""
        self._cost.charge_tuple_cpu(len(self._entries))  # catalog sweep
        out: List[Tuple[Any, bytes]] = []
        for unit_id, entry in self._entries.items():
            if not entry.live or not predicate(unit_id):
                continue
            blob = self._read_blob(entry)
            if entry.flagged:
                blob = codec.encode(FlaggedPayload(True, codec.decode(blob)))
            out.append((unit_id, blob))
        return sorted(out, key=lambda kv: repr(kv[0]))

    def import_encoded_batch(self, items: Sequence[Tuple[Any, bytes]]) -> int:
        """Native encoded import: plain blobs encrypt into sectors as-is;
        ``FlaggedPayload`` blobs re-ground through the out-of-band flag."""
        count = 0
        for unit_id, blob in items:
            if codec.is_extension_blob(blob):
                value = codec.decode(blob)
                if isinstance(value, FlaggedPayload):
                    self._insert_blob(unit_id, codec.encode(value.value))
                    if value.flagged:
                        self.make_inaccessible(unit_id)
                    count += 1
                    continue
            self._insert_blob(unit_id, blob)
            count += 1
        self.commit()
        return count

    # -------------------------------------------------------------- forensics
    def copy_sites(self, unit_id: Any) -> List[str]:
        """Recoverable ⟺ ciphertext sectors remain *and* the key survives —
        one anonymous site while the unit's catalog entry or a graveyard
        placement of it still qualifies.

        After a key shred the sectors may still sit on disk, but without
        the master key a forensic scan sees only noise — that asymmetry is
        the whole point of the crypto-shredding grounding.
        """
        entries = [self._entries.get(unit_id)]
        entries.extend(e for uid, e in self._graveyard if uid == unit_id)
        held = any(
            e is not None
            and e.sectors > 0
            and not self._vault.is_shredded(e.key_id)
            for e in entries
        )
        return [""] if held else []

    def forensic_scan(self) -> List[Tuple[Any, bool]]:
        out = [
            (unit_id, entry.live)
            for unit_id, entry in self._entries.items()
            if entry.sectors > 0 and not self._vault.is_shredded(entry.key_id)
        ]
        out.extend(
            (uid, False)
            for uid, e in self._graveyard
            if e.sectors > 0 and not self._vault.is_shredded(e.key_id)
        )
        return out

    def exists(self, unit_id: Any) -> bool:
        entry = self._entries.get(unit_id)
        return entry is not None and entry.live

    def stats(self) -> BackendStats:
        live = sum(1 for e in self._entries.values() if e.live)
        graveyard = [e for _uid, e in self._graveyard]
        recoverable_dead = sum(
            1
            for e in list(self._entries.values()) + graveyard
            if not e.live
            and e.sectors > 0
            and not self._vault.is_shredded(e.key_id)
        )
        return BackendStats(
            backend=self.name,
            live_entries=live,
            dead_entries=recoverable_dead,
            total_bytes=self.data_bytes() + self.index_bytes(),
            detail=(
                ("volumes", len(self._entries)),
                ("shredded", self.shred_count),
                ("sanitized", self.sanitize_count),
                ("groups", len(self._groups)),
                ("vault_keys", len(self._owned_ids)),
                ("residue_bytes", self._residue_bytes),
            ),
        )

    def data_bytes(self) -> int:
        """Group headers + every ciphertext sector — graveyard and shredded
        residue included, since that noise occupies real disk until a full
        reclamation releases the slots."""
        return sum(group.size_bytes for group in self._groups)

    def index_bytes(self) -> int:
        """This backend's share of the vault key table: one entry per
        enrolled key (zeroed ones included until compaction) plus the
        vault header when the vault is private.  A shared vault's header
        is group infrastructure, amortized across its owners."""
        share = VAULT_HEADER_BYTES if self._owns_vault else 0
        return share + KEY_ENTRY_BYTES * len(self._owned_ids)


#: Backend name → constructor, the selection table for every consumer.
BACKENDS: Dict[str, Type[StorageBackend]] = {
    PsqlBackend.name: PsqlBackend,
    LsmBackend.name: LsmBackend,
    CryptoShredBackend.name: CryptoShredBackend,
}


def make_backend(
    name: str, cost: CostModel, row_bytes: int = 70, **kwargs: Any
) -> StorageBackend:
    """Construct a backend by engine name ("psql", "lsm", "crypto-shred")."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        ) from None
    return cls(cost, row_bytes=row_bytes, **kwargs)


class BackendGroup:
    """Named storage namespaces over one engine family.

    The §4.2 profile runners need several tables (personal data, GDPR
    metadata, plain data); this group hands each namespace a
    :class:`StorageBackend` while sharing physical infrastructure the way
    the engine family would:

    * ``psql`` — one :class:`RelationalEngine` instance carries every
      namespace as a table (one WAL, one buffer pool), exactly the paper's
      single-PSQL deployment;
    * ``lsm`` — one engine per namespace (column-family style), all of
      them reading through one :class:`SharedBlockCache` — a single cache
      budget pooled across the namespaces instead of K private slices;
    * ``crypto-shred`` — one backend per namespace over one shared
      :class:`KeyVault`: every namespace's per-unit keys co-locate in one
      key table (one header, batched shreds), the deployment shape the
      Table-2 space factor assumes.

    ``engine_opts`` is a typed :class:`~repro.config.BackendConfig`
    (family-specific tuning for the shared :class:`RelationalEngine` on
    psql, or each per-namespace backend constructor elsewhere).
    """

    def __init__(
        self,
        name: str,
        cost: CostModel,
        engine_opts: Optional[BackendConfig] = None,
    ) -> None:
        if name not in BACKENDS:
            raise KeyError(
                f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
            )
        if engine_opts is not None and not isinstance(engine_opts, BackendConfig):
            raise TypeError(
                f"engine_opts must be a BackendConfig, not "
                f"{type(engine_opts).__name__}"
            )
        config = engine_opts or BackendConfig(backend=name)
        if config.backend != name:
            raise ValueError(
                f"BackendGroup({name!r}) got a config for {config.backend!r}"
            )
        if config.table is not None or config.flag_column is not None:
            raise ValueError(
                "table/flag_column are per-namespace in a BackendGroup; "
                "pass them to create()"
            )
        self.name = name
        self.config = config
        self._cost = cost
        self._stores: Dict[str, StorageBackend] = {}
        self.engine: Optional[RelationalEngine] = (
            RelationalEngine(cost, **config.engine_kwargs())
            if name == PsqlBackend.name
            else None
        )
        #: One pooled cache budget across every LSM namespace; an explicit
        #: ``block_cache_capacity=0`` turns it off, as on a bare backend.
        self.block_cache: Optional[SharedBlockCache] = None
        if name == LsmBackend.name:
            capacity = config.block_cache_capacity
            if capacity is None:
                capacity = config.shared_block_cache_capacity
            self.block_cache = SharedBlockCache(
                capacity if capacity is not None else 1024
            )
        #: One key table across every crypto-shred namespace.
        self.vault: Optional[KeyVault] = (
            KeyVault() if name == CryptoShredBackend.name else None
        )

    def _create_kwargs(self) -> Dict[str, Any]:
        """Per-namespace constructor kwargs: everything set on the config
        except what the group itself provides (pooled cache budget,
        namespace naming)."""
        kwargs = self.config.backend_kwargs()
        kwargs.pop("block_cache_capacity", None)
        kwargs.pop("namespace", None)
        return kwargs

    def create(
        self, namespace: str, row_bytes: int, flag_column: bool = False
    ) -> StorageBackend:
        """Create (and return) the backend for a new namespace."""
        if namespace in self._stores:
            raise ValueError(f"namespace {namespace!r} already exists")
        if self.engine is not None:
            store: StorageBackend = PsqlBackend(
                self._cost,
                row_bytes=row_bytes,
                table=namespace,
                engine=self.engine,
                flag_column=flag_column,
            )
        elif self.block_cache is not None:
            store = make_backend(
                self.name,
                self._cost,
                row_bytes=row_bytes,
                block_cache=self.block_cache,
                namespace=namespace,
                **self._create_kwargs(),
            )
        else:
            store = make_backend(
                self.name,
                self._cost,
                row_bytes=row_bytes,
                vault=self.vault,
                **self._create_kwargs(),
            )
        self._stores[namespace] = store
        return store

    def store(self, namespace: str) -> StorageBackend:
        return self._stores[namespace]

    def __contains__(self, namespace: str) -> bool:
        return namespace in self._stores

    def commit(self) -> None:
        """One durability point for the whole group (single WAL on psql)."""
        if self.engine is not None:
            self.engine.wal.flush()
        else:
            for store in self._stores.values():
                store.commit()

    def log_bytes(self) -> int:
        if self.engine is not None:
            return self.engine.wal.size_bytes
        return sum(store.log_bytes() for store in self._stores.values())

    @property
    def reclaim_count(self) -> int:
        return sum(s.reclaim_count for s in self._stores.values())

    @property
    def reclaim_full_count(self) -> int:
        return sum(s.reclaim_full_count for s in self._stores.values())
