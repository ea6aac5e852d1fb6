"""Memtable — the in-memory write buffer of the LSM engine.

Values are held *encoded*: a ``put`` runs the value through
:mod:`repro.codec` once and the blob then flows unchanged through flush
(packed SSTable blocks), compaction merges, and migration exports — no
per-hop re-serialization, and no aliasing of caller objects (mutating a
value after ``put`` cannot silently rewrite the stored copy).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import codec


class _Tombstone:
    """Sentinel marking a logically deleted key."""

    _instance: Optional["_Tombstone"] = None

    def __new__(cls) -> "_Tombstone":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<tombstone>"


#: The tombstone sentinel: ``value is TOMBSTONE`` marks deletion.
TOMBSTONE = _Tombstone()

#: The tombstone's one-byte encoding — delete markers compare by blob
#: equality on the packed paths, no decode needed.
TOMBSTONE_BLOB = codec.register_singleton(TOMBSTONE)


class Memtable:
    """An unsorted write buffer; sorts once at flush time.

    Each entry carries the global sequence number assigned by the engine so
    that merges can resolve version order across runs.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._data: Dict[Any, Tuple[int, bytes]] = {}
        self._encoded_bytes = 0

    # -------------------------------------------------------------- interface
    def put(self, key: Any, value: Any, seqno: int) -> None:
        self.put_encoded(key, codec.encode(value), seqno)

    def put_encoded(self, key: Any, blob: bytes, seqno: int) -> bool:
        """Store an already-encoded value (the import/migration path);
        returns whether the buffer is now full (the engine then flushes)."""
        old = self._data.get(key)
        if old is not None:
            self._encoded_bytes -= len(old[1])
        self._data[key] = (seqno, blob)
        self._encoded_bytes += len(blob)
        return len(self._data) >= self._capacity

    def drop(self, key: Any) -> Optional[bytes]:
        """Forget ``key``'s entry; returns the blob it held, if any."""
        _seqno, blob = self._data.pop(key, (0, None))
        if blob is not None:
            self._encoded_bytes -= len(blob)
        return blob

    def get(self, key: Any) -> Optional[Tuple[int, Any]]:
        """``(seqno, value)`` — value may be TOMBSTONE; None if absent."""
        found = self._data.get(key)
        if found is None:
            return None
        return (found[0], codec.decode(found[1]))

    def get_encoded(self, key: Any) -> Optional[Tuple[int, bytes]]:
        """``(seqno, blob)`` without decoding; None if absent."""
        return self._data.get(key)

    @property
    def encoded_bytes(self) -> int:
        """Real bytes the buffered blobs occupy — the space accounting."""
        return self._encoded_bytes

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def tombstone_count(self) -> int:
        return sum(
            1 for _s, blob in self._data.values() if blob == TOMBSTONE_BLOB
        )

    def sorted_entries_encoded(self) -> List[Tuple[Any, int, bytes]]:
        """``(key, seqno, blob)`` sorted by key — flush order, no decode."""
        return [
            (key, seqno, blob)
            for key, (seqno, blob) in sorted(self._data.items())
        ]

    def clear(self) -> None:
        self._data.clear()
        self._encoded_bytes = 0

    def items(self) -> Iterator[Tuple[Any, Tuple[int, Any]]]:
        return (
            (key, (seqno, codec.decode(blob)))
            for key, (seqno, blob) in self._data.items()
        )

    def items_encoded(self) -> Iterator[Tuple[Any, Tuple[int, bytes]]]:
        return iter(self._data.items())
