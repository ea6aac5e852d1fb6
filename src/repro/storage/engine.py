"""The relational engine — the reproduction's "PSQL".

Semantics follow PostgreSQL where the paper's evaluation depends on them:

* ``INSERT`` appends to the heap and the B-tree primary-key index;
* ``UPDATE`` is out-of-place (new version + dead old version — MVCC), so
  updates create bloat just like deletes;
* ``DELETE`` only marks tuples and index entries dead;
* ``VACUUM`` prunes dead tuples and deletes dead index entries where they
  sit; space becomes reusable, neither the file nor the index tree shrinks;
* ``VACUUM FULL`` rewrites the heap compactly and rebuilds the index — the
  only REINDEX — under an exclusive lock;
* the retrofit system-action "add new attribute" (Table 1) is
  :meth:`RelationalEngine.set_flag` — the reversible-inaccessibility flag.

Cost charging: reads pay an explicit *bloat factor* — dead tuples reduce
heap density and buffer-pool efficiency, so the marginal page-fetch cost is
charged as ``page_read × (1 + bloat_factor × dead_fraction)``.  This is the
single structural knob behind the paper's Figure-4(a) observation that
DELETE+VACUUM beats DELETE alone on a read-heavy mix: VACUUM pays per-dead-
tuple costs on 20% of operations to keep the other 80% at density ~1.
"""

from __future__ import annotations

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
)

from repro import codec
from repro.core.locations import CopyLocation
from repro.sim.costs import CostModel
from repro.storage.catalog import Catalog, Table, TableSchema
from repro.storage.errors import (
    DuplicateKeyError,
    StorageError,
    TupleNotFoundError,
)
from repro.storage.page import PAGE_SIZE
from repro.storage.wal import WalRecordType, WriteAheadLog


@dataclass(frozen=True)
class TableStats:
    """Physical statistics for one table."""

    name: str
    live_tuples: int
    dead_tuples: int
    pages: int
    heap_bytes: int
    index_bytes: int
    index_dead_entries: int
    dead_fraction: float

    @property
    def total_bytes(self) -> int:
        return self.heap_bytes + self.index_bytes


class FlaggedPayload:
    """Wrapper marking a row's reversible-inaccessibility flag.

    A distinct type (not a dict) so user payloads can never be mistaken for
    flag state; reads unwrap it transparently.
    """

    __slots__ = ("flagged", "value")

    def __init__(self, flagged: bool, value: Any) -> None:
        self.flagged = flagged
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlaggedPayload(flagged={self.flagged})"


# Storage encodes values through repro.codec; the wrapper registers a
# compact extension encoding (flag + inner value) so a flagged value costs
# two extra bytes instead of a pickle round-trip, and the flag state rides
# inside the blob through flushes, compactions, and encoded migrations.
codec.register_extension(
    FlaggedPayload,
    lambda fp: codec.encode((fp.flagged, fp.value)),
    lambda payload: FlaggedPayload(*codec.decode(payload)),
)


class RelationalEngine:
    """A single-node relational engine with PostgreSQL-like vacuuming.

    Parameters
    ----------
    cost:
        The shared cost model; every operation charges it.
    bloat_factor:
        Weight of the dead-tuple density penalty on reads (see module doc).
    wal_checkpoint_every:
        Recycle WAL segments every N appends (``None`` keeps the whole log).

    Reclamation runs only when a grounding asks for it (:meth:`vacuum` /
    :meth:`vacuum_full`); there is no background vacuum.
    """

    def __init__(
        self,
        cost: CostModel,
        bloat_factor: float = 1.0,
        wal_checkpoint_every: Optional[int] = None,
    ) -> None:
        if bloat_factor < 0:
            raise ValueError("bloat_factor must be non-negative")
        self._cost = cost
        self._bloat_factor = bloat_factor
        self._catalog = Catalog()
        self.wal = WriteAheadLog(cost, checkpoint_every=wal_checkpoint_every)
        self.vacuum_count = 0
        self.vacuum_full_count = 0
        # Deleted keys whose WAL row images await scrubbing: the grounded
        # erase pairs DELETE with a reclamation pass, and that pass must
        # also make the *log* copy unrecoverable (WAL retention hazard).
        self._wal_scrub_pending: Dict[str, set] = {}

    # ----------------------------------------------------------------- DDL
    def create_table(
        self, name: str, row_bytes: int, flag_column: bool = False
    ) -> TableSchema:
        schema = TableSchema(name, row_bytes, flag_column)
        self._catalog.create(schema)
        return schema

    def drop_table(self, name: str) -> None:
        self._catalog.drop(name)

    def has_table(self, name: str) -> bool:
        return name in self._catalog

    def tables(self) -> List[str]:
        return [t.name for t in self._catalog]

    # ----------------------------------------------------------------- DML
    def insert(
        self,
        table: str,
        key: Any,
        payload: Any,
        payload_size: Optional[int] = None,
        check_duplicate: bool = True,
    ) -> None:
        """INSERT: heap append + index insert + WAL.

        ``check_duplicate=False`` is the bulk-load path (COPY-style): the
        caller guarantees fresh keys, so the engine skips the uniqueness
        probe — matching how the benchmarks load their datasets.
        """
        t = self._catalog.get(table)
        size = self._row_size(t, payload_size)
        self._insert_row(t, table, key, payload, size, check_duplicate)

    def insert_many(
        self,
        table: str,
        items: Iterable[Tuple[Any, Any]],
        payload_size: Optional[int] = None,
        check_duplicate: bool = False,
    ) -> int:
        """Bulk INSERT: one catalog/schema resolution for the whole batch.

        Per-row cost charging is identical to :meth:`insert`; only the
        Python-level per-call overhead (catalog lookup, size computation)
        is amortized.  Defaults to the COPY-style no-duplicate-probe path.
        """
        t = self._catalog.get(table)
        size = self._row_size(t, payload_size)
        count = 0
        for key, payload in items:
            self._insert_row(t, table, key, payload, size, check_duplicate)
            count += 1
        return count

    def _insert_row(
        self,
        t: Table,
        table: str,
        key: Any,
        payload: Any,
        size: int,
        check_duplicate: bool,
    ) -> None:
        """One heap append + index insert + WAL record, fully charged."""
        if check_duplicate:
            probe = t.index.probe(key)
            self._cost.charge_index_probe(probe.depth)
            if probe.found:
                raise DuplicateKeyError(f"{table}: key {key!r} already exists")
        # A re-insert after deletion makes the key live again: its WAL
        # images are ordinary superseded versions now, not erased data —
        # the next reclamation must not redact a live row's log copy.
        pending = self._wal_scrub_pending.get(table)
        if pending is not None:
            pending.discard(key)
        tid = t.heap.insert(key, payload, size)
        t.index.insert(key, tid)
        self._cost.charge_index_insert()
        self._cost.charge_tuple_cpu()
        self._charge_heap_write(size)
        self.wal.append(WalRecordType.INSERT, table, key, size, payload=payload)

    def read(self, table: str, key: Any) -> Any:
        """Point SELECT by primary key.

        Charges the index descent, dead-entry steps and the density-degraded
        heap fetch.
        """
        t = self._catalog.get(table)
        return self._read_row(t, table, key)

    def read_many(self, table: str, keys: Sequence[Any]) -> List[Any]:
        """Batch point SELECTs: catalog resolution amortized, per-key index
        descent and heap fetch charged exactly as :meth:`read`."""
        t = self._catalog.get(table)
        return [self._read_row(t, table, key) for key in keys]

    def _read_row(self, t: Table, table: str, key: Any) -> Any:
        """One fully-charged point read: probe, fetch, unwrap."""
        probe = t.index.probe(key)
        self._cost.charge_index_probe(probe.depth)
        if probe.dead_stepped:
            self._cost.charge_tuple_cpu(probe.dead_stepped)
        if not probe.found:
            raise TupleNotFoundError(f"{table}: no live tuple for key {key!r}")
        self._charge_heap_read(t)
        slot = t.heap.fetch(probe.tid)
        self._cost.charge_tuple_cpu()
        payload = slot.payload
        if isinstance(payload, FlaggedPayload):
            return payload.value
        return payload

    def update(
        self, table: str, key: Any, payload: Any, payload_size: Optional[int] = None
    ) -> None:
        """UPDATE: MVCC out-of-place — dead old version + new version."""
        t = self._catalog.get(table)
        size = self._row_size(t, payload_size)
        probe = t.index.probe(key)
        self._cost.charge_index_probe(probe.depth)
        if not probe.found:
            raise TupleNotFoundError(f"{table}: no live tuple for key {key!r}")
        t.heap.mark_dead(probe.tid)
        t.index.mark_dead(key)
        self._cost.charge_index_delete()
        tid = t.heap.insert(key, payload, size)
        t.index.insert(key, tid)
        self._cost.charge_index_insert()
        self._cost.charge_tuple_cpu()
        self._charge_heap_write(size)
        self.wal.append(WalRecordType.UPDATE, table, key, size, payload=payload)

    def delete(self, table: str, key: Any) -> None:
        """DELETE: mark the tuple and its index entry dead.  No space moves."""
        t = self._catalog.get(table)
        probe = t.index.probe(key)
        self._cost.charge_index_probe(probe.depth)
        if not probe.found:
            raise TupleNotFoundError(f"{table}: no live tuple for key {key!r}")
        t.heap.mark_dead(probe.tid)
        t.index.mark_dead(key)
        self._cost.charge_index_delete()
        self._cost.charge_tuple_cpu()
        # Hint-bit style page dirtying: a fraction of a page write.
        self._charge_heap_write(0)
        self.wal.append(WalRecordType.DELETE, table, key)
        self._wal_scrub_pending.setdefault(table, set()).add(key)

    def set_flag(self, table: str, key: Any, flagged: bool) -> None:
        """The "add new attribute" system-action: flip the visibility flag.

        In-place overwrite — the data stays physically present (that is the
        point: reversible inaccessibility is invertible, Table 1 row 1).
        """
        t = self._catalog.get(table)
        if not t.schema.flag_column:
            raise StorageError(
                f"table {table!r} was not created with flag_column=True; "
                "retrofit required (paper §1: systems may need retrofitting "
                "to support a grounding)"
            )
        probe = t.index.probe(key)
        self._cost.charge_index_probe(probe.depth)
        if not probe.found:
            raise TupleNotFoundError(f"{table}: no live tuple for key {key!r}")
        slot = t.heap.fetch(probe.tid)
        if isinstance(slot.payload, FlaggedPayload):
            slot.payload.flagged = flagged
        else:
            t.heap.overwrite(probe.tid, FlaggedPayload(flagged, slot.payload))
        self._cost.charge_tuple_cpu()
        self._charge_heap_write(1)
        self.wal.append(WalRecordType.FLAG, table, key)

    def is_flagged(self, table: str, key: Any) -> bool:
        """Whether the row is currently flagged inaccessible."""
        t = self._catalog.get(table)
        probe = t.index.probe(key)
        if not probe.found:
            raise TupleNotFoundError(f"{table}: no live tuple for key {key!r}")
        payload = t.heap.fetch(probe.tid).payload
        return isinstance(payload, FlaggedPayload) and payload.flagged

    def exists(self, table: str, key: Any) -> bool:
        return self._catalog.get(table).index.probe(key).found

    # ---------------------------------------------------------------- scans
    def seq_scan(
        self, table: str, predicate: Optional[Callable[[Any, Any], bool]] = None
    ) -> List[Tuple[Any, Any]]:
        """Full sequential scan over live tuples (pays every page, bloat
        included — a bloated relation is slower to scan)."""
        t = self._catalog.get(table)
        self._cost.charge_seq_scan(max(1, t.heap.page_count))
        out: List[Tuple[Any, Any]] = []
        for _tid, slot in t.heap.scan():
            self._cost.charge_tuple_cpu()
            if predicate is None or predicate(slot.key, slot.payload):
                out.append((slot.key, slot.payload))
        return out

    def forensic_scan(self, table: str) -> List[Tuple[Any, bool]]:
        """What a disk inspection would see: every tuple, dead included.

        Returns ``(key, live)`` pairs.  This is the primitive behind the
        illegal-retention analysis — physically retained dead tuples are
        visible here until VACUUM runs.
        """
        t = self._catalog.get(table)
        self._cost.charge_seq_scan(max(1, t.heap.page_count))
        return [(slot.key, slot.live) for _tid, slot in t.heap.scan_all()]

    # --------------------------------------------------------------- vacuums
    def vacuum(self, table: str) -> int:
        """VACUUM: prune dead tuples + dead index entries, visiting only the
        pages and leaves that hold one — work, like the charge, per dead tuple.

        Reclamation is the second half of the grounded "delete", so it also
        scrubs the WAL row images of every key deleted since the last pass —
        otherwise the log would keep the erased values recoverable.
        """
        t = self._catalog.get(table)
        dead = t.heap.dead_tuples
        self._cost.charge_vacuum(dead)
        reclaimed = t.heap.vacuum()
        t.index.cleanup()
        self._scrub_deleted_wal(table)
        self.wal.append(WalRecordType.VACUUM, table)
        self.wal.flush()
        self.vacuum_count += 1
        return reclaimed

    def vacuum_full(self, table: str) -> int:
        """VACUUM FULL: exclusive-lock rewrite + index rebuild."""
        t = self._catalog.get(table)
        live = t.heap.live_tuples
        dead = t.heap.dead_tuples
        self._cost.charge_vacuum_full(live + dead)
        mapping = t.heap.rewrite()
        items = sorted((key, tid) for key, (tid, _slot) in mapping.items())
        t.index.rebuild(items)
        self._scrub_deleted_wal(table)
        self.wal.append(WalRecordType.VACUUM_FULL, table)
        self.wal.flush()
        self.vacuum_full_count += 1
        return dead

    def _scrub_deleted_wal(self, table: str) -> int:
        """Redact WAL row images of keys deleted since the last reclamation."""
        pending = self._wal_scrub_pending.pop(table, None)
        if not pending:
            return 0
        scrubbed = 0
        for key in pending:
            scrubbed += self.wal.scrub_key(table, key)
        return scrubbed

    def wal_copy_sites(self, table: str, key: Any) -> List[Tuple[CopyLocation, str]]:
        """The key's WAL row-image copy sites, typed: ``[]`` or one
        ``(CopyLocation.WAL, "wal/<table>")`` entry.  INSERT/UPDATE records
        carry the row image (that is what makes them replayable), so until
        the reclaim-time scrub redacts them the log segment is a first-class
        copy location — the same unification the block cache got via
        ``CopyLocation.CACHE`` sites."""
        if self.wal.holds_payload_for(table, key):
            return [(CopyLocation.WAL, self.wal.site_name(table))]
        return []

    # ------------------------------------------------------------ statistics
    def stats(self, table: str) -> TableStats:
        t = self._catalog.get(table)
        return TableStats(
            name=table,
            live_tuples=t.heap.live_tuples,
            dead_tuples=t.heap.dead_tuples,
            pages=t.heap.page_count,
            heap_bytes=t.heap.total_bytes,
            index_bytes=t.index.size_bytes,
            index_dead_entries=t.index.dead_entries,
            dead_fraction=t.heap.dead_fraction,
        )

    def total_bytes(self) -> int:
        """Heap + index bytes across tables, plus the WAL."""
        total = self.wal.size_bytes
        for t in self._catalog:
            total += t.heap.total_bytes + t.index.size_bytes
        return total

    # -------------------------------------------------------------- internals
    def _row_size(self, t: Table, override: Optional[int]) -> int:
        return override if override is not None else t.schema.effective_row_bytes

    def _charge_heap_read(self, t: Table) -> None:
        penalty = 1.0 + self._bloat_factor * t.heap.dead_fraction
        self._cost.charge_page_read(penalty)  # type: ignore[arg-type]

    def _charge_heap_write(self, nbytes: int) -> None:
        # Dirty-page write-back amortized over the tuples sharing the page;
        # a zero-byte write (delete hint bits) still dirties ~1/32 page.
        fraction = max(nbytes / PAGE_SIZE, 1 / 32)
        self._cost.charge_page_write(fraction)  # type: ignore[arg-type]
