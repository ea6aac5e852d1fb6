"""SSTables — immutable sorted runs on "disk".

Each SSTable stores sorted ``(key, seqno, value)`` entries with the values
packed into one length-prefixed binary block (:func:`repro.codec.pack_block`
layout): a ``u32`` count, then per entry a ``u32`` length plus the encoded
blob.  The in-memory index is a key list beside two flat typed arrays —
seqnos, and ``n + 1`` blob-start boundaries: blob ``i`` is
``block[starts[i] : starts[i + 1] - 4]``, since every blob is followed by the
next one's length prefix (the last by a virtual one).  Point reads are
``bisect`` + one slice-decode; compaction merges move the raw blobs between
runs without ever decoding them, and tombstones — one-byte blobs — are
recognized by blob equality.

Alongside the block the table keeps a Bloom filter for negative lookups and
retention bookkeeping: how many tombstones it carries and how many
*shadowed* values — older versions of keys whose latest version is a delete
— remain physically present.  Those shadowed values are the illegal-
retention hazard of §1.  ``size_bytes`` is the *real* packed-block size
plus index overhead — not a nominal per-value estimate.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from itertools import accumulate
from struct import Struct
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import codec
from repro.lsm.bloom import BloomFilter, BloomHashCache, HashPair
from repro.lsm.memtable import TOMBSTONE_BLOB

#: Approximate bytes per entry beyond the packed value block: the key and
#: seqno in the index plus the boundary slot.
ENTRY_OVERHEAD = 20

_U32 = Struct("<I")


def shift_lanes(lanes: array, shift: int) -> bytes:
    """Every native-endian ``u32`` of ``lanes`` minus ``shift``, as raw
    ``array('I')`` bytes — one big-int subtraction; no lane borrows from its
    neighbour while each lane is at least ``shift``."""
    order = sys.byteorder
    whole = int.from_bytes(lanes, order)
    cut = int.from_bytes(shift.to_bytes(4, order) * len(lanes), order)
    return (whole - cut).to_bytes(4 * len(lanes), order)


class SSTable:
    """One immutable sorted run over a packed value block."""

    _next_id = 0

    def __init__(
        self,
        entries: List[Tuple[Any, int, Any]],
        payload_bytes: int = 0,
        created_at: int = 0,
    ) -> None:
        """``entries`` must be sorted by key, one entry per key, with
        *decoded* values — the compatibility constructor; the engine's
        flush/compaction paths use :meth:`from_encoded` to avoid the
        re-encode.  ``payload_bytes`` is accepted for signature
        compatibility; sizes are measured from the packed block now.
        """
        blobs = codec.encode_many([e[2] for e in entries])
        self._init_from_blobs(
            [e[0] for e in entries],
            [e[1] for e in entries],
            blobs,
            created_at,
        )

    @classmethod
    def from_encoded(
        cls,
        entries: Sequence[Tuple[Any, int, bytes]],
        created_at: int,
        hash_cache: Optional[BloomHashCache] = None,
    ) -> "SSTable":
        """Build a run from already-encoded ``(key, seqno, blob)`` entries
        (sorted by key) — the zero-copy flush/compaction path.  With a warm
        ``hash_cache`` (the engine's) the Bloom build skips digesting keys
        that any earlier flush or rewrite already hashed."""
        table = cls.__new__(cls)
        table._init_from_blobs(
            [e[0] for e in entries],
            [e[1] for e in entries],
            [e[2] for e in entries],
            created_at,
            hash_cache=hash_cache,
        )
        return table

    def _init_from_blobs(
        self,
        keys: List[Any],
        seqnos: List[int],
        blobs: Sequence[bytes],
        created_at: int,
        hash_cache: Optional[BloomHashCache] = None,
    ) -> None:
        self.table_id = SSTable._next_id
        SSTable._next_id += 1
        self.created_at = created_at
        self._keys = keys
        self._seqnos = array("q", seqnos)
        # The packed block, and where each blob starts in it: a u32 count
        # and one u32 length come first, then each blob plus the next length.
        self._block = codec.pack_block(blobs)
        self._view = memoryview(self._block)
        self._starts = array(
            "I", accumulate((len(blob) + 4 for blob in blobs), initial=8)
        )
        self._tombstones = blobs.count(TOMBSTONE_BLOB)
        self._bloom = BloomFilter.from_keys(keys, cache=hash_cache)

    def without_keys(
        self, keys: Iterable[Any]
    ) -> Tuple["SSTable", List[Any], int]:
        """``(run, keys dropped, tombstones among them)``: this run minus
        every entry for ``keys`` — ``self`` when it holds none.  The packed
        block and the boundaries are spliced around the dropped entries (no
        per-entry repack) and the Bloom filter is carried forward: a filter
        over a superset of the keys has no false negatives."""
        old, n = self._starts, len(self._keys)
        drop = sorted({
            i
            for i, key in ((bisect_left(self._keys, key), key) for key in keys)
            if i < n and self._keys[i] == key
        })
        if not drop:
            return self, [], 0
        table = SSTable.__new__(SSTable)
        table.table_id = SSTable._next_id
        SSTable._next_id += 1
        table.created_at = self.created_at
        table._keys = self._keys[:]
        table._seqnos = self._seqnos[:]
        for i in reversed(drop):
            del table._keys[i], table._seqnos[i]
        parts = [_U32.pack(n - len(drop))]
        table._starts = old[: drop[0]]
        kept_from = 4  # first block byte not yet copied
        shift = 0  # bytes cut so far
        # Boundaries between one drop and the next move down by the bytes
        # cut so far; the last gap carries the virtual end boundary along.
        for i, upto in zip(drop, drop[1:] + [n + 1]):
            parts.append(self._view[kept_from : old[i] - 4])
            kept_from = old[i + 1] - 4
            shift += old[i + 1] - old[i]
            table._starts.frombytes(shift_lanes(old[i + 1 : upto], shift))
        parts.append(self._view[kept_from:])
        table._block = b"".join(parts)
        table._view = memoryview(table._block)
        tombstones = sum(1 for i in drop if self._is_tombstone(i))
        table._tombstones = self._tombstones - tombstones
        table._bloom = self._bloom
        return table, [self._keys[i] for i in drop], tombstones

    # ------------------------------------------------------------------ blobs
    def blob_at(self, i: int) -> bytes:
        starts = self._starts
        return self._block[starts[i] : starts[i + 1] - 4]

    def _is_tombstone(self, i: int) -> bool:
        return self.blob_at(i) == TOMBSTONE_BLOB

    def _value_at(self, i: int) -> Any:
        starts = self._starts
        return codec.decode(self._view[starts[i] : starts[i + 1] - 4])

    @property
    def packed_block(self) -> bytes:
        """The raw length-prefixed value block (codec.pack_block layout)."""
        return self._block

    # ---------------------------------------------------------------- lookups
    def might_contain(self, key: Any) -> bool:
        return key in self._bloom

    def might_contain_pair(self, pair: HashPair) -> bool:
        """Bloom probe with a precomputed base-hash pair — the engine read
        path hashes a key once and probes every run with the same pair."""
        return self._bloom.contains_pair(pair)

    def get(self, key: Any) -> Optional[Tuple[int, Any]]:
        i = bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            return (self._seqnos[i], self._value_at(i))
        return None

    def get_encoded(self, key: Any) -> Optional[Tuple[int, bytes]]:
        """``(seqno, blob)`` without decoding; None if absent."""
        i = bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            return (self._seqnos[i], self.blob_at(i))
        return None

    def entries(self) -> Iterator[Tuple[Any, int, Any]]:
        for i, key in enumerate(self._keys):
            yield (key, self._seqnos[i], self._value_at(i))

    def entries_encoded(self) -> Iterator[Tuple[Any, int, bytes]]:
        """``(key, seqno, blob)`` per entry — the merge/export path."""
        block, starts = self._block, self._starts
        for key, seqno, start, end in zip(
            self._keys, self._seqnos, starts, starts[1:]
        ):
            yield (key, seqno, block[start : end - 4])

    def range(self, lo: Any, hi: Any) -> Iterator[Tuple[Any, int, Any]]:
        i = bisect_left(self._keys, lo)
        while i < len(self._keys) and self._keys[i] <= hi:
            yield (self._keys[i], self._seqnos[i], self._value_at(i))
            i += 1

    # ------------------------------------------------------------- statistics
    def __len__(self) -> int:
        return len(self._keys)

    @property
    def tombstone_count(self) -> int:
        return self._tombstones

    @property
    def value_count(self) -> int:
        return len(self._keys) - self.tombstone_count

    @property
    def size_bytes(self) -> int:
        """Real bytes: the packed value block plus index overhead per
        entry (key + seqno + boundary slot) plus the Bloom filter."""
        return (
            len(self._block)
            + len(self._keys) * ENTRY_OVERHEAD
            + self._bloom.size_bytes
        )

    @property
    def block_bytes(self) -> int:
        """Bytes of the packed value block alone."""
        return len(self._block)

    @property
    def bloom_bytes(self) -> int:
        """Bytes held by the run's Bloom filter (the run's "index")."""
        return self._bloom.size_bytes

    @property
    def min_key(self) -> Optional[Any]:
        return self._keys[0] if self._keys else None

    @property
    def max_key(self) -> Optional[Any]:
        return self._keys[-1] if self._keys else None

    def physically_contains_value(self, key: Any) -> bool:
        """Whether a real (non-tombstone) value for ``key`` sits in this
        run — a blob-equality check, no decode."""
        i = bisect_left(self._keys, key)
        return (
            i < len(self._keys)
            and self._keys[i] == key
            and not self._is_tombstone(i)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SSTable(#{self.table_id}, n={len(self)}, "
            f"tombstones={self.tombstone_count})"
        )
