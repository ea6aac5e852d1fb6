"""Bloom filter — per-SSTable negative lookups.

A real bit-array Bloom filter with double hashing (Kirsch–Mitzenmacher):
one 64-bit SipHash of the key's codec encoding splits into two 32-bit base
hashes that combine into k probe positions.  Used by the LSM read path to
skip runs that cannot contain a key, which is what keeps read amplification
sane as runs accumulate.

Hashing is *value-stable*: keys are reduced to their canonical
:func:`repro.codec.encode_stable` byte encoding before hashing, so two
equal-but-distinct key objects (a string built twice, a tuple assembled in
two places) always map to the same probe positions.  The previous
``repr(key)``-based scheme broke that for any object whose default
``repr`` embeds ``id()``; the storage codec's own :func:`repro.codec.encode`
breaks it more subtly — its marshal version ref-flags objects by refcount,
so the bytes depend on incidental aliasing.  The 64-bit hash is the
interpreter's bytes hash — stable within a process, which is the only
lifetime these in-memory filters have.

Every flush and compaction rewrite builds a filter.  :class:`BloomHashCache`
memoizes ``key -> (h1, h2)`` across those rebuilds and probes, and the batch
entry points (:meth:`BloomFilter.from_keys`, :meth:`BloomFilter.add_many`,
:meth:`BloomFilter.probe_many`) share the pairs, so no hot loop digests a
key.  Every batch build (``from_keys``, ``add_many``, a resize's replay) is
one kernel: it sets one *byte* per bit, ``flags[pos] = 1``, with no shift or
mask per probe, then packs them in one pass — reversed and translated to
ASCII ``0``/``1`` they are one base-2 integer whose little-endian bytes are
the bit array.  Positions are listed ``_BUILD_CHUNK`` keys at a time: a
whole 4 096-key flush at once holds ~28 000 ints and raises peak RSS.
"""

from __future__ import annotations

import math
from array import array
from itertools import islice
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.codec import encode_stable as _encode

HashPair = Tuple[int, int]

_M64 = (1 << 64) - 1
_LOW32 = 0xFFFFFFFF
_LN2 = math.log(2.0)

# An incrementally-filled filter that exceeds its expected size by this
# factor is resized (re-sized filters replay their retained pairs).
_RESIZE_FACTOR = 2

# Keys whose probe positions the build kernel lists at once.
_BUILD_CHUNK = 1024
# Byte-per-bit flags -> the ASCII digits of one base-2 integer.
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def hash_pair(key: Any) -> HashPair:
    """The (h1, h2) double-hashing base pair for ``key``.

    One 64-bit hash over the codec encoding, split 32/32; h2 is forced odd
    so the probe sequence cycles the whole bit array.
    """
    h = hash(_encode(key)) & _M64
    return (h >> 32, (h & _LOW32) | 1)


class BloomHashCache:
    """Bounded memo of ``key -> (h1, h2)`` shared across SSTable rebuilds.

    One instance lives per LSM engine: flushes, compaction rewrites, and
    read probes all consult it, so a key is digested once no matter how
    many times compaction rewrites the run that holds it.  Eviction is
    oldest-first (dict insertion order) once ``max_entries`` is reached.
    """

    __slots__ = ("_pairs", "max_entries", "hits", "misses")

    def __init__(self, max_entries: int = 131_072) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self._pairs: Dict[Any, HashPair] = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._pairs)

    def pair(self, key: Any) -> HashPair:
        pairs = self._pairs
        cached = pairs.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        h = hash(_encode(key)) & _M64
        pair = (h >> 32, (h & _LOW32) | 1)
        if len(pairs) >= self.max_entries:
            del pairs[next(iter(pairs))]
        pairs[key] = pair
        return pair

    def pairs_of(self, keys: Iterable[Any]) -> List[HashPair]:
        """Batch :meth:`pair` — one Python-level loop for a whole run."""
        pairs = self._pairs
        get = pairs.get
        max_entries = self.max_entries
        out: List[HashPair] = []
        append = out.append
        hits = misses = 0
        for key in keys:
            cached = get(key)
            if cached is not None:
                hits += 1
                append(cached)
                continue
            misses += 1
            h = hash(_encode(key)) & _M64
            pair = (h >> 32, (h & _LOW32) | 1)
            if len(pairs) >= max_entries:
                del pairs[next(iter(pairs))]
            pairs[key] = pair
            append(pair)
        self.hits += hits
        self.misses += misses
        return out

    def forget(self, key: Any) -> None:
        self._pairs.pop(key, None)

    def clear(self) -> None:
        self._pairs.clear()


def _sizing(expected_items: int, fp_rate: float) -> Tuple[int, int]:
    bits = max(8, int(-expected_items * math.log(fp_rate) / (_LN2 * _LN2)))
    hashes = max(1, round((bits / expected_items) * _LN2))
    return bits, hashes


class BloomFilter:
    """Bit-array Bloom filter sized for a target false-positive rate.

    Incrementally-filled filters (plain ``add``/``add_many``) retain their
    base-hash pairs and transparently resize once the live count exceeds
    ``_RESIZE_FACTOR`` times the expected size — a default-constructed
    filter fed thousands of keys no longer saturates into uselessness.
    Exact-sized filters built with :meth:`from_keys` skip retention; their
    population is known up front.
    """

    __slots__ = ("_bits", "_hashes", "_array", "_count", "_expected",
                 "_fp_rate", "_pairs")

    def __init__(self, expected_items: int, fp_rate: float = 0.01) -> None:
        if expected_items < 1:
            expected_items = 1
        if not 0.0 < fp_rate < 1.0:
            raise ValueError("fp_rate must be in (0, 1)")
        self._expected = expected_items
        self._fp_rate = fp_rate
        self._bits, self._hashes = _sizing(expected_items, fp_rate)
        self._array = bytearray((self._bits + 7) // 8)
        self._count = 0
        # Flat (h1, h2, h1, h2, ...) retention for auto-resize replay.
        self._pairs: Optional[array] = array("Q")

    # ----------------------------------------------------------- construction
    @classmethod
    def from_keys(
        cls,
        keys: Sequence[Any],
        fp_rate: float = 0.01,
        cache: Optional[BloomHashCache] = None,
    ) -> "BloomFilter":
        """Build an exact-sized filter over ``keys`` in one pass.

        The population is known, so no pairs are retained and no resize can
        trigger; with a warm ``cache`` (compaction rewrites) the build does
        no digest work at all.
        """
        bloom = cls(max(1, len(keys)), fp_rate)
        bloom._pairs = None
        if keys:
            bloom._add_pairs(
                cache.pairs_of(keys) if cache is not None
                else [hash_pair(key) for key in keys]
            )
            bloom._count = len(keys)
        return bloom

    def _add_pairs(self, pairs: Iterable[HashPair]) -> None:
        """Set every probe bit of ``pairs`` (the count is the caller's)."""
        bits = self._bits
        rng = range(self._hashes)
        flags = bytearray(bits)
        pairs = iter(pairs)
        while positions := [
            (h1 + i * h2) % bits
            for h1, h2 in islice(pairs, _BUILD_CHUNK)
            for i in rng
        ]:
            for pos in positions:
                flags[pos] = 1
        packed = int(flags[::-1].translate(_BIT_DIGITS), 2)
        if self._count:
            packed |= int.from_bytes(self._array, "little")
        self._array = bytearray(packed.to_bytes(len(self._array), "little"))

    # -------------------------------------------------------------- mutation
    def add(self, key: Any, pair: Optional[HashPair] = None) -> None:
        if pair is None:
            pair = hash_pair(key)
        h1, h2 = pair
        arr = self._array
        bits = self._bits
        for i in range(self._hashes):
            pos = (h1 + i * h2) % bits
            arr[pos >> 3] |= 1 << (pos & 7)
        self._count += 1
        if self._pairs is not None:
            self._pairs.append(h1)
            self._pairs.append(h2)
            if self._count > self._expected * _RESIZE_FACTOR:
                self._grow()

    def add_many(
        self,
        keys: Sequence[Any],
        cache: Optional[BloomHashCache] = None,
    ) -> None:
        pairs = (
            cache.pairs_of(keys) if cache is not None
            else [hash_pair(key) for key in keys]
        )
        self._add_pairs(pairs)
        self._count += len(pairs)
        if self._pairs is not None:
            for h1, h2 in pairs:
                self._pairs.append(h1)
                self._pairs.append(h2)
            if self._count > self._expected * _RESIZE_FACTOR:
                self._grow()

    def _grow(self) -> None:
        """Re-size for the actual population and replay retained pairs."""
        assert self._pairs is not None
        self._expected = self._count * _RESIZE_FACTOR
        self._bits, self._hashes = _sizing(self._expected, self._fp_rate)
        self._array = bytearray((self._bits + 7) // 8)
        flat = iter(self._pairs)
        self._add_pairs(zip(flat, flat))

    # --------------------------------------------------------------- probing
    def contains_pair(self, pair: HashPair) -> bool:
        h1, h2 = pair
        arr = self._array
        bits = self._bits
        for i in range(self._hashes):
            pos = (h1 + i * h2) % bits
            if not arr[pos >> 3] & (1 << (pos & 7)):
                return False
        return True

    def __contains__(self, key: Any) -> bool:
        return self.contains_pair(hash_pair(key))

    def probe_many(
        self,
        keys: Sequence[Any],
        cache: Optional[BloomHashCache] = None,
    ) -> List[bool]:
        """Batch membership probe — one result per key, order preserved."""
        pairs = (
            cache.pairs_of(keys) if cache is not None
            else [hash_pair(key) for key in keys]
        )
        return [self.contains_pair(pair) for pair in pairs]

    # ------------------------------------------------------------ inspection
    @property
    def bit_size(self) -> int:
        return self._bits

    @property
    def hash_count(self) -> int:
        return self._hashes

    @property
    def size_bytes(self) -> int:
        pair_bytes = self._pairs.itemsize * len(self._pairs) if self._pairs else 0
        return len(self._array) + pair_bytes

    def __len__(self) -> int:
        return self._count
