"""Write-ahead log.

Every mutation appends a WAL record; commits force an fsync (group commit
batches ``group_size`` records per flush, which is how the engine keeps the
paper-scale load phases affordable while still charging honest durability
costs).  The WAL doubles as the engine-level history the audit layer reads,
and its size feeds the Table-2 space accounting.

WAL retention interacts with erasure (§3.2: "logs may be temporary or kept
for a long duration … logs directly impact requirements like demonstrating
compliance, system recovery, and data erasure"): :meth:`purge_key` exists
precisely so the strictest profile (P_SYS) can scrub a data unit's traces
from the log when erasing it.

The WAL is itself a *copy location*: INSERT/UPDATE records carry the row
image (that is what makes them replayable), so an erased unit's payload
survives in the log until a checkpoint recycles the segment.  That is the
same §1 hazard as the replication log — a grounded erase must scrub it or
"physically gone" is a lie.  :meth:`holds_payload_for` answers the copy-
tracking question and :meth:`scrub_key` redacts the payloads while keeping
the records (LSNs and types stay — recovery metadata is not personal data).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterator, List, Optional

from repro.sim.costs import CostModel


class WalRecordType(Enum):
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"
    VACUUM = "vacuum"
    VACUUM_FULL = "vacuum-full"
    FLAG = "flag"
    CHECKPOINT = "checkpoint"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Approximate serialized bytes per WAL record (header + key + payload ref).
RECORD_BYTES = 56


@dataclass(slots=True)
class WalRecord:
    lsn: int
    type: WalRecordType
    table: str
    key: Any
    payload_size: int = 0
    #: The row image an INSERT/UPDATE must carry to be replayable — and the
    #: reason the WAL is a tracked copy location.  ``None`` once scrubbed.
    payload: Any = None


class WriteAheadLog:
    """An append-only, fsync-batched log."""

    def __init__(
        self,
        cost: CostModel,
        group_size: int = 64,
        checkpoint_every: Optional[int] = None,
    ) -> None:
        """``checkpoint_every`` — auto-checkpoint (truncate recycled
        segments) after that many appends, bounding the WAL footprint the
        way real deployments recycle segments.  None disables."""
        if group_size < 1:
            raise ValueError("group_size must be >= 1")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")
        self._cost = cost
        self._group_size = group_size
        self._checkpoint_every = checkpoint_every
        self._since_checkpoint = 0
        self.checkpoint_count = 0
        # Records bucketed by (table, key) so erase-time purging is O(bucket)
        # instead of O(log) — P_SYS purges on every delete.
        self._buckets: dict = {}
        self._count = 0
        self._next_lsn = 1
        self._pending = 0
        self._flushes = 0

    # --------------------------------------------------------------- logging
    def append(
        self,
        record_type: WalRecordType,
        table: str,
        key: Any = None,
        payload_size: int = 0,
        payload: Any = None,
    ) -> WalRecord:
        record = WalRecord(
            self._next_lsn, record_type, table, key, payload_size, payload
        )
        self._next_lsn += 1
        self._buckets.setdefault((table, key), []).append(record)
        self._count += 1
        self._cost.charge_log_append()
        self._pending += 1
        if self._pending >= self._group_size:
            self.flush()
        self._since_checkpoint += 1
        if (
            self._checkpoint_every is not None
            and self._since_checkpoint >= self._checkpoint_every
        ):
            self.checkpoint()
        return record

    def flush(self) -> None:
        """Force the pending group to stable storage (one fsync)."""
        if self._pending:
            self._cost.charge_fsync()
            self._flushes += 1
            self._pending = 0

    # ---------------------------------------------------------------- queries
    @property
    def record_count(self) -> int:
        return self._count

    @property
    def flush_count(self) -> int:
        return self._flushes

    @property
    def size_bytes(self) -> int:
        return self._count * RECORD_BYTES

    def records(self) -> Iterator[WalRecord]:
        """All records in LSN order (materializes a sort; debugging/tests)."""
        merged = [r for bucket in self._buckets.values() for r in bucket]
        merged.sort(key=lambda r: r.lsn)
        return iter(merged)

    def records_for_key(self, table: str, key: Any) -> List[WalRecord]:
        return list(self._buckets.get((table, key), ()))

    # -------------------------------------------------------------- retention
    @staticmethod
    def site_name(table: str) -> str:
        """The copy-site name WAL row images report under: one logical log
        segment per table.  The engine pairs it with ``CopyLocation.WAL``
        when building its typed copy-location inventory."""
        return f"wal/{table}"

    def holds_payload_for(self, table: str, key: Any) -> bool:
        """Whether any log record still retains the key's row image.

        This is the WAL's copy-tracking primitive: until it returns False,
        a disk inspection of the log segments would recover the value, so
        the key is *physically present* regardless of heap state.
        """
        return any(
            r.payload is not None for r in self._buckets.get((table, key), ())
        )

    def scrub_key(self, table: str, key: Any) -> int:
        """Redact the row images from every record about ``key``.

        Unlike :meth:`purge_key` the records themselves survive — LSNs and
        record types are recovery metadata, not personal data — only the
        carried payloads are overwritten.  This is what a grounded erase
        runs when reclamation makes the heap copy unrecoverable: the log
        copy must not outlive it.  Returns the number of records redacted
        and charges the per-record segment-rewrite share.
        """
        bucket = self._buckets.get((table, key))
        if not bucket:
            return 0
        scrubbed = 0
        for record in bucket:
            if record.payload is not None:
                record.payload = None
                scrubbed += 1
        if scrubbed:
            self._cost.charge_log_purge(scrubbed)
        return scrubbed

    def purge_key(self, table: str, key: Any) -> int:
        """Scrub every record about ``key`` (erase-grounding log purge).

        Returns the number of records removed; charges the per-record purge
        cost (find + segment rewrite share).
        """
        removed = len(self._buckets.pop((table, key), ()))
        if removed:
            self._count -= removed
            self._cost.charge_log_purge(removed)
        return removed

    def checkpoint(self) -> int:
        """Flush everything and recycle all segments (data pages are safe).

        Every record sits below the next LSN, so every bucket goes; returns
        the number of records removed.  LSNs continue where they were."""
        self.flush()
        self._cost.charge_fsync()
        self._since_checkpoint = 0
        self.checkpoint_count += 1
        removed, self._count = self._count, 0
        self._buckets.clear()
        return removed
