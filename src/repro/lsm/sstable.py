"""SSTables — immutable sorted runs on "disk".

Each SSTable stores sorted ``(key, seqno, value)`` entries split into
immutable pages of :data:`PAGE_ENTRIES` consecutive entries (about 4 KiB at
57-byte values).  A page holds its keys, an ``array('q')`` of seqnos, its
blobs back to back, each behind a ``u32`` length prefix and with no count
header, and ``n + 1`` blob-start boundaries: blob ``i`` is
``block[starts[i] : starts[i + 1] - 4]``, since every blob is followed by the
next one's length prefix (the last by a virtual one).  The table keeps each
page's first key — the fences — for ``bisect``, plus entry, tombstone and
block-byte counts.  Its packed block (:func:`repro.codec.pack_block` layout:
a ``u32`` count, then per entry a ``u32`` length plus the encoded blob) is
virtual: the count header followed by the page blocks, joined on request.
Point reads are two ``bisect`` calls + one slice-decode; compaction merges
move the raw blobs between runs without ever decoding them, and tombstones —
one-byte blobs — are recognized by blob equality.  Dropping keys rewrites
only the pages that hold them; every other page is shared with the source
run, which is immutable too.

Alongside the pages the table keeps a Bloom filter for negative lookups and
retention bookkeeping: how many tombstones it carries and how many
*shadowed* values — older versions of keys whose latest version is a delete
— remain physically present.  Those shadowed values are the illegal-
retention hazard of §1.  ``size_bytes`` is the *real* packed-block size
plus index overhead — not a nominal per-value estimate.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, islice
from struct import Struct
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import codec
from repro.lsm.bloom import BloomFilter, BloomHashCache, HashPair
from repro.lsm.memtable import TOMBSTONE_BLOB

#: Approximate bytes per entry beyond the packed value block: the key and
#: seqno in the index plus the boundary slot.
ENTRY_OVERHEAD = 20

#: Entries per page — the unit :meth:`SSTable.without_keys` rewrites.
PAGE_ENTRIES = 64

_U32 = Struct("<I")


class _Page:
    """Up to :data:`PAGE_ENTRIES` consecutive entries of a run; never
    mutated, so runs share it."""

    __slots__ = ("keys", "seqnos", "block", "starts")

    def __init__(self, keys: List[Any], seqnos: array, block: bytes, starts: array) -> None:
        self.keys = keys
        self.seqnos = seqnos
        self.block = block
        self.starts = starts

    @classmethod
    def of(cls, keys: List[Any], seqnos: Sequence[int], blobs: Sequence[bytes]) -> "_Page":
        return cls(
            keys,
            array("q", seqnos),
            codec.pack_block(blobs)[4:],
            array("I", accumulate((len(blob) + 4 for blob in blobs), initial=4)),
        )

    def blob(self, i: int) -> bytes:
        starts = self.starts
        return self.block[starts[i] : starts[i + 1] - 4]

    def without(self, drop: List[int]) -> Optional["_Page"]:
        """This page minus the entries at the ascending indices ``drop`` —
        None when none survives.  The block is spliced around them, and the
        boundaries after each cut move down by the bytes cut so far."""
        keys, seqnos, starts, block = self.keys[:], self.seqnos[:], self.starts, self.block
        for i in reversed(drop):
            del keys[i], seqnos[i]
        if not keys:
            return None
        parts, kept = [], starts[: drop[0]]
        kept_from = shift = 0
        for i, upto in zip(drop, drop[1:] + [len(starts)]):
            parts.append(block[kept_from : starts[i] - 4])
            kept_from = starts[i + 1] - 4
            shift += starts[i + 1] - starts[i]
            kept.extend([s - shift for s in starts[i + 1 : upto]])
        parts.append(block[kept_from:])
        return _Page(keys, seqnos, b"".join(parts), kept)


class SSTable:
    """One immutable sorted run over pages of packed values."""

    _next_id = 0

    def __init__(
        self,
        entries: List[Tuple[Any, int, Any]],
        created_at: int = 0,
    ) -> None:
        """``entries`` must be sorted by key, one entry per key, with
        *decoded* values — the compatibility constructor; the engine's
        flush/compaction paths use :meth:`from_encoded` to avoid the
        re-encode.
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
        cuts = [slice(lo, lo + PAGE_ENTRIES) for lo in range(0, len(keys), PAGE_ENTRIES)]
        self._pages = [_Page.of(keys[cut], seqnos[cut], blobs[cut]) for cut in cuts]
        self._fences = keys[::PAGE_ENTRIES]
        self._len = len(keys)
        self._tombstones = blobs.count(TOMBSTONE_BLOB)
        self._block_bytes = 4 + sum(len(page.block) for page in self._pages)
        self._bloom = BloomFilter.from_keys(keys, cache=hash_cache)

    def _locate(self, key: Any) -> Tuple[int, int]:
        """``(page number, index in the page)`` of ``key``; page -1 when
        the run does not hold it."""
        p = bisect_right(self._fences, key) - 1
        if p >= 0:
            keys = self._pages[p].keys
            i = bisect_left(keys, key)
            if i < len(keys) and keys[i] == key:
                return p, i
        return -1, 0

    def without_keys(
        self, keys: Iterable[Any]
    ) -> Tuple["SSTable", List[Any], int]:
        """``(run, keys dropped, tombstones among them)``: this run minus
        every entry for ``keys`` — ``self`` when it holds none.  Only the
        pages holding a dropped entry are spliced; every other page is the
        source run's own object.  The Bloom filter is carried forward: a
        filter over a superset of the keys has no false negatives."""
        pages = self._pages
        found = sorted({hit for hit in map(self._locate, keys) if hit[0] >= 0})
        if not found:
            return self, [], 0
        hits: Dict[int, List[int]] = {}
        for p, i in found:
            hits.setdefault(p, []).append(i)
        blobs = [pages[p].blob(i) for p, i in found]
        tombstones = blobs.count(TOMBSTONE_BLOB)
        table = SSTable.__new__(SSTable)
        table.table_id = SSTable._next_id
        SSTable._next_id += 1
        table.created_at = self.created_at
        table._pages, table._fences = pages[:], self._fences[:]
        for p in reversed(hits):  # last page first: deletions keep indices
            page = pages[p].without(hits[p])
            if page is None:
                del table._pages[p], table._fences[p]
            else:
                table._pages[p], table._fences[p] = page, page.keys[0]
        table._len = self._len - len(found)
        table._tombstones = self._tombstones - tombstones
        table._block_bytes = self._block_bytes - sum(map(len, blobs)) - 4 * len(blobs)
        table._bloom = self._bloom
        return table, [pages[p].keys[i] for p, i in found], tombstones

    @property
    def packed_block(self) -> bytes:
        """The raw length-prefixed value block (codec.pack_block layout)."""
        return b"".join([_U32.pack(self._len), *(page.block for page in self._pages)])

    # ---------------------------------------------------------------- lookups
    def might_contain(self, key: Any) -> bool:
        return key in self._bloom

    def might_contain_pair(self, pair: HashPair) -> bool:
        """Bloom probe with a precomputed base-hash pair — the engine read
        path hashes a key once and probes every run with the same pair."""
        return self._bloom.contains_pair(pair)

    def get(self, key: Any) -> Optional[Tuple[int, Any]]:
        found = self.get_encoded(key)
        return None if found is None else (found[0], codec.decode(found[1]))

    def get_encoded(self, key: Any) -> Optional[Tuple[int, bytes]]:
        """``(seqno, blob)`` without decoding; None if absent."""
        p, i = self._locate(key)
        if p < 0:
            return None
        page = self._pages[p]
        return (page.seqnos[i], page.blob(i))

    def entries(self) -> Iterator[Tuple[Any, int, Any]]:
        for key, seqno, blob in self.entries_encoded():
            yield (key, seqno, codec.decode(blob))

    def entries_encoded(self) -> Iterator[Tuple[Any, int, bytes]]:
        """``(key, seqno, blob)`` per entry — the merge/export path."""
        for page in self._pages:
            block, starts = page.block, page.starts
            for key, seqno, start, end in zip(
                page.keys, page.seqnos, starts, islice(starts, 1, None)
            ):
                yield (key, seqno, block[start : end - 4])

    def range(self, lo: Any, hi: Any) -> Iterator[Tuple[Any, int, Any]]:
        first = max(bisect_right(self._fences, lo) - 1, 0)
        for page in islice(self._pages, first, None):
            keys = page.keys
            for i in range(bisect_left(keys, lo), len(keys)):
                if keys[i] > hi:
                    return
                yield (keys[i], page.seqnos[i], codec.decode(page.blob(i)))

    # ------------------------------------------------------------- statistics
    def __len__(self) -> int:
        return self._len

    @property
    def tombstone_count(self) -> int:
        return self._tombstones

    @property
    def value_count(self) -> int:
        return self._len - self.tombstone_count

    @property
    def size_bytes(self) -> int:
        """Real bytes: the packed value block plus index overhead per
        entry (key + seqno + boundary slot) plus the Bloom filter."""
        return (
            self._block_bytes
            + self._len * ENTRY_OVERHEAD
            + self._bloom.size_bytes
        )

    @property
    def block_bytes(self) -> int:
        """Bytes of the packed value block alone."""
        return self._block_bytes

    @property
    def bloom_bytes(self) -> int:
        """Bytes held by the run's Bloom filter (the run's "index")."""
        return self._bloom.size_bytes

    @property
    def min_key(self) -> Optional[Any]:
        return self._fences[0] if self._fences else None

    @property
    def max_key(self) -> Optional[Any]:
        return self._pages[-1].keys[-1] if self._pages else None

    def physically_contains_value(self, key: Any) -> bool:
        """Whether a real (non-tombstone) value for ``key`` sits in this
        run — a blob-equality check, no decode."""
        p, i = self._locate(key)
        return p >= 0 and self._pages[p].blob(i) != TOMBSTONE_BLOB

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SSTable(#{self.table_id}, n={len(self)}, "
            f"tombstones={self.tombstone_count})"
        )
