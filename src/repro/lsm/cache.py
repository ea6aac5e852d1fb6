"""The shared block cache — one capacity budget across LSM namespaces.

Before this module each :class:`~repro.lsm.engine.LSMEngine` owned a
private LRU over its run-search outcomes, so a ``BackendGroup`` with K
namespaces (or a multi-shard ``ReplicatedStore`` on one box) held K
fixed-size caches: a hot namespace thrashed its private slice while cold
namespaces pinned idle capacity.  :class:`SharedBlockCache` is that cache
extracted into an injectable object: one LRU, one capacity bound, entries
keyed ``(namespace token, key)`` so namespaces stay isolated while the
*budget* pools — the LRU order naturally lends a hot namespace the
capacity cold ones are not using.

Erasure semantics (the part a cache shared across compliance namespaces
must get right):

* A cached outcome holding a real value is a physical copy, reported as a
  :class:`CopyLocation` ``CACHE`` site via :meth:`copy_sites` — backends
  fold these into their ``copies_of`` answers, so "verified clean" sees
  the cache.
* Writes and deletes invalidate the written key's entry
  (:meth:`invalidate`); a grounded erase therefore removes the cache copy
  before the storage copy, and a later read-through can only refill from
  what storage still holds — never from the erased value.
* Eviction is erasure-*safe* but not erasure-*granting*: an evicted entry
  simply vanishes (nothing can resurrect it from the cache), and the
  authoritative copy remains wherever it lives.  Tombstone and negative
  outcomes are cached for read speed but are never value copies, so they
  are invisible to :meth:`copy_sites`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.core.locations import CopyLocation
from repro.lsm.memtable import TOMBSTONE

#: Sentinel distinguishing "no cache entry" from a cached ``None`` outcome
#: (negative caching of absent keys is part of the read-path contract).
_ABSENT = object()


class SharedBlockCache:
    """A capacity-bounded LRU over run-search outcomes, namespace-keyed."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._cache: "OrderedDict[Tuple[int, Any], Any]" = OrderedDict()
        self._labels: Dict[int, str] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ----------------------------------------------------------- namespaces
    def register(self, label: str = "") -> int:
        """Claim a namespace token; entries never cross tokens."""
        token = len(self._labels)
        self._labels[token] = label or f"ns-{token}"
        return token

    def label(self, token: int) -> str:
        return self._labels[token]

    # ----------------------------------------------------------- operations
    def get(self, token: int, key: Any) -> Tuple[bool, Optional[Any]]:
        """``(hit, outcome)`` — outcome may be a value, TOMBSTONE, or None."""
        if not self.capacity:
            self.misses += 1
            return False, None
        entry = self._cache.get((token, key), _ABSENT)
        if entry is _ABSENT:
            self.misses += 1
            return False, None
        self._cache.move_to_end((token, key))
        self.hits += 1
        return True, entry

    def put(self, token: int, key: Any, outcome: Optional[Any]) -> None:
        """Cache a run-search outcome, evicting LRU entries over capacity."""
        if not self.capacity:
            return
        self._cache[(token, key)] = outcome
        self._cache.move_to_end((token, key))
        while len(self._cache) > self.capacity:
            self._cache.popitem(last=False)
            self.evictions += 1

    def invalidate(self, token: int, key: Any) -> None:
        """Drop the entry for a written/deleted/erased key, if cached."""
        self._cache.pop((token, key), None)

    def clear(self) -> None:
        """Drop every entry (all namespaces) — test/fault-injection hook."""
        self._cache.clear()

    def invalidate_namespace(self, token: int) -> int:
        """Drop every entry of one namespace (engine decommission)."""
        victims = [k for k in self._cache if k[0] == token]
        for cache_key in victims:
            del self._cache[cache_key]
        return len(victims)

    # ------------------------------------------------------------ forensics
    def holds_value(self, token: int, key: Any) -> bool:
        """Whether a *real value* (not a tombstone/negative outcome) for
        ``key`` is currently cached in the namespace."""
        entry = self._cache.get((token, key), _ABSENT)
        return entry is not _ABSENT and entry is not None and entry is not TOMBSTONE

    def copy_sites(self, token: int, key: Any) -> List[Tuple[CopyLocation, str]]:
        """The key's cache copy sites in this namespace — ``[]`` or one
        ``CopyLocation.CACHE`` entry named after the namespace label."""
        if self.holds_value(token, key):
            return [(CopyLocation.CACHE, f"block-cache/{self._labels[token]}")]
        return []

    # ----------------------------------------------------------- statistics
    def __len__(self) -> int:
        return len(self._cache)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SharedBlockCache(capacity={self.capacity}, used={len(self)}, "
            f"namespaces={len(self._labels)})"
        )
