"""B-tree index.

A from-scratch B+-tree: internal nodes route by separator keys; leaves hold
``key → TID`` entries and are chained for range scans.  Deletion is lazy,
matching PostgreSQL: ``mark_dead`` leaves the entry in the leaf (index
bloat!) and only :meth:`cleanup` — invoked by VACUUM — physically removes
dead entries, in place: it edits the leaves that hold one and unlinks a leaf
it empties; nothing merges and the tree never gets shorter.  Repacking is
:meth:`rebuild`, the index pass of VACUUM FULL only.

``probe`` returns the traversal depth and the number of dead entries the
search had to step over, so the engine can charge honest costs.

A key above every key in the tree, live or dead, descends nowhere: every
separator on the right edge is at most the rightmost leaf's last key, so
the general descent would reach that leaf anyway.  ``probe`` answers it
from the leaf and ``insert`` appends to it — PostgreSQL's rightmost-leaf
fastpath — and the split path is walked only when the leaf overflows.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Set, Tuple

from repro.storage.heap import TID

#: Max entries per leaf / children per internal node.
ORDER = 64

#: Approximate bytes per leaf entry (key + tid + flags), for space accounting.
ENTRY_BYTES = 24

#: Approximate bytes of per-node overhead.
NODE_OVERHEAD = 48

#: Bulk-load input: sorted (key, tid) pairs.
BulkItems = Optional[List[Tuple[Any, TID]]]


@dataclass(slots=True)
class _Entry:
    key: Any
    tid: TID
    live: bool = True


class _Leaf:
    __slots__ = ("keys", "entries", "next")

    def __init__(self) -> None:
        self.keys: List[Any] = []
        self.entries: List[_Entry] = []
        self.next: Optional["_Leaf"] = None


class _Internal:
    __slots__ = ("keys", "children")

    def __init__(self, keys: List[Any], children: List[Any]) -> None:
        self.keys = keys          # len(children) - 1 separators
        self.children = children


@dataclass(slots=True)
class ProbeResult:
    """What a point lookup observed — input to cost charging."""

    tid: Optional[TID]
    depth: int
    dead_stepped: int

    @property
    def found(self) -> bool:
        return self.tid is not None


class BTreeIndex:
    """A unique-key B+-tree with lazy deletion."""

    def __init__(self, name: str = "idx") -> None:
        self.name = name
        self._root: Any = _Leaf()
        self._tail: _Leaf = self._root  # the rightmost leaf
        self._height = 1
        self._live = 0
        self._dead = 0
        self._dead_keys: Set[Any] = set()  # keys with a dead entry: cleanup's work list

    # ------------------------------------------------------------ statistics
    @property
    def depth(self) -> int:
        return self._height

    @property
    def live_entries(self) -> int:
        return self._live

    @property
    def dead_entries(self) -> int:
        return self._dead

    @property
    def size_bytes(self) -> int:
        entries = self._live + self._dead
        nodes = max(1, entries // (ORDER // 2))
        return entries * ENTRY_BYTES + nodes * NODE_OVERHEAD

    def __len__(self) -> int:
        return self._live

    # -------------------------------------------------------------- internals
    def _find_leaf(self, key: Any) -> _Leaf:
        """The leftmost leaf that can hold ``key``.  An insert goes to the
        rightmost one (:meth:`_find_leaf_path`), so a key's dead and live
        entries can sit either side of a leaf split: lookups start here and
        follow ``next``."""
        node = self._root
        while isinstance(node, _Internal):
            i = bisect_left(node.keys, key)
            node = node.children[i]
        return node

    def _find_live(self, key: Any) -> Tuple[Optional[_Entry], int]:
        """The live entry for ``key`` (or None) and the dead entries for
        it stepped over on the way."""
        leaf: Optional[_Leaf] = self._find_leaf(key)
        i = bisect_left(leaf.keys, key)
        dead = 0
        while leaf is not None:
            keys = leaf.keys
            while i < len(keys) and keys[i] == key:
                entry = leaf.entries[i]
                if entry.live:
                    return entry, dead
                dead += 1
                i += 1
            if i < len(keys):
                break  # a larger key: the run of duplicates ended
            leaf, i = leaf.next, 0
        return None, dead

    def _find_leaf_path(self, key: Any) -> Tuple[_Leaf, List[Tuple[_Internal, int]]]:
        node = self._root
        path: List[Tuple[_Internal, int]] = []
        while isinstance(node, _Internal):
            i = bisect_right(node.keys, key)
            path.append((node, i))
            node = node.children[i]
        return node, path

    def _right_edge(self) -> Tuple[_Leaf, List[Tuple[_Internal, int]]]:
        """The rightmost leaf and the path to it, as ``_find_leaf_path``
        returns them for a key above every key in the tree."""
        node = self._root
        path: List[Tuple[_Internal, int]] = []
        while isinstance(node, _Internal):
            path.append((node, len(node.children) - 1))
            node = node.children[-1]
        return node, path

    def _past_end(self, key: Any) -> bool:
        """Whether ``key`` is above every key in the tree, live or dead."""
        keys = self._tail.keys
        return not keys or key > keys[-1]

    def _split_leaf(self, leaf: _Leaf) -> Tuple[Any, _Leaf]:
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.entries = leaf.entries[mid:]
        right.next = leaf.next
        leaf.keys = leaf.keys[:mid]
        leaf.entries = leaf.entries[:mid]
        leaf.next = right
        return right.keys[0], right

    # --------------------------------------------------------------- mutation
    def insert(self, key: Any, tid: TID) -> None:
        """Insert a new live entry.  The engine enforces key uniqueness among
        live entries; a dead entry with the same key may coexist (a deleted
        row whose index entry has not been vacuumed yet)."""
        if self._past_end(key):
            leaf, path, i = self._tail, None, len(self._tail.keys)
        else:
            # The key's run can start leaves left of the insert position.
            if self._find_live(key)[0] is not None:
                raise KeyError(f"duplicate live key in index: {key!r}")
            leaf, path = self._find_leaf_path(key)
            i = bisect_left(leaf.keys, key)
        leaf.keys.insert(i, key)
        leaf.entries.insert(i, _Entry(key, tid))
        self._live += 1
        if len(leaf.keys) <= ORDER:
            return
        # Split upward.
        if path is None:
            path = self._right_edge()[1]
        sep, right = self._split_leaf(leaf)
        if right.next is None:
            self._tail = right
        new_child: Any = right
        for node, child_i in reversed(path):
            node.keys.insert(child_i, sep)
            node.children.insert(child_i + 1, new_child)
            if len(node.children) <= ORDER:
                return
            mid = len(node.keys) // 2
            sep_up = node.keys[mid]
            right_node = _Internal(node.keys[mid + 1:], node.children[mid + 1:])
            node.keys = node.keys[:mid]
            node.children = node.children[:mid + 1]
            sep, new_child = sep_up, right_node
        self._root = _Internal([sep], [self._root, new_child])
        self._height += 1

    def mark_dead(self, key: Any) -> bool:
        """Lazily delete the live entry for ``key`` (stays until cleanup)."""
        entry, _dead = self._find_live(key)
        if entry is None:
            return False
        entry.live = False
        self._live -= 1
        self._dead += 1
        self._dead_keys.add(key)
        return True

    # ----------------------------------------------------------------- reads
    def probe(self, key: Any) -> ProbeResult:
        """Point lookup; reports depth and dead entries stepped over."""
        if self._past_end(key):
            return ProbeResult(None, self._height, 0)
        entry, dead = self._find_live(key)
        return ProbeResult(
            entry.tid if entry is not None else None, self._height, dead
        )

    def get(self, key: Any) -> Optional[TID]:
        return self.probe(key).tid

    def __contains__(self, key: Any) -> bool:
        return self.probe(key).found

    def range(self, lo: Any = None, hi: Any = None) -> Iterator[Tuple[Any, TID]]:
        """Live entries with ``lo ≤ key ≤ hi`` in key order."""
        if lo is None:
            node = self._root
            while isinstance(node, _Internal):
                node = node.children[0]
            leaf, i = node, 0
        else:
            leaf = self._find_leaf(lo)
            i = bisect_left(leaf.keys, lo)
        while leaf is not None:
            while i < len(leaf.keys):
                key = leaf.keys[i]
                if hi is not None and key > hi:
                    return
                entry = leaf.entries[i]
                if entry.live:
                    yield key, entry.tid
                i += 1
            leaf, i = leaf.next, 0

    def keys(self) -> Iterator[Any]:
        for key, _tid in self.range():
            yield key

    # ----------------------------------------------------------- maintenance
    def cleanup(self) -> int:
        """Physically remove dead entries (VACUUM's index pass), in place.

        Work is per key that holds a dead entry, not per entry in the tree;
        returns the number of dead entries removed.
        """
        dead = self._dead
        for key in self._dead_keys:
            if self._delete_dead(self._root, key, None):
                self._root, self._height = _Leaf(), 1
        self._dead_keys.clear()
        self._tail = self._right_edge()[0]
        return dead - self._dead

    def _delete_dead(self, node: Any, key: Any, before: Optional[_Leaf]) -> bool:
        """Delete ``key``'s dead entries below ``node``; True if that empties
        the node, which the caller then unlinks.  Every child that can hold
        the key is visited — a run of duplicates can straddle leaf splits, the
        separators between them equal to the key.  ``before`` is the leaf
        chained ahead of the node's first."""
        if isinstance(node, _Leaf):
            i, j = bisect_left(node.keys, key), bisect_right(node.keys, key)
            kept = [e for e in node.entries[i:j] if e.live]
            node.entries[i:j] = kept
            node.keys[i:j] = [key] * len(kept)
            self._dead -= j - i - len(kept)
            if not node.keys and before is not None:
                before.next = node.next
            return not node.keys
        lo, hi = bisect_left(node.keys, key), bisect_right(node.keys, key)
        for i in range(hi, lo - 1, -1):  # right to left: unlinking shifts no pending index
            prev = node.children[i - 1] if i else before
            while isinstance(prev, _Internal):
                prev = prev.children[-1]
            if self._delete_dead(node.children[i], key, prev):
                del node.children[i]
                del node.keys[max(i - 1, 0):max(i, 1)]  # one adjoining separator
        return not node.children

    def rebuild(self, items: BulkItems = None) -> None:
        """Bulk-load the tree from ``(key, tid)`` pairs (must be sorted)."""
        items = list(items or [])
        leaves: List[_Leaf] = []
        chunk = max(1, (ORDER * 3) // 4)
        for start in range(0, len(items), chunk):
            leaf = _Leaf()
            for key, tid in items[start:start + chunk]:
                leaf.keys.append(key)
                leaf.entries.append(_Entry(key, tid))
            if leaves:
                leaves[-1].next = leaf
            leaves.append(leaf)
        level: List[Any] = leaves or [_Leaf()]
        seps: List[Any] = [leaf.keys[0] for leaf in leaves[1:]]
        height = 1
        while len(level) > 1:
            parents: List[Any] = []
            parent_seps: List[Any] = []
            for start in range(0, len(level), ORDER):
                children = level[start:start + ORDER]
                keys = seps[start:start + len(children) - 1]
                parents.append(_Internal(keys, children))
                if start + ORDER < len(level):
                    parent_seps.append(seps[start + len(children) - 1])
            level = parents
            seps = parent_seps
            height += 1
        self._root = level[0]
        self._tail = self._right_edge()[0]
        self._height = height
        self._live = len(items)
        self._dead = 0
        self._dead_keys.clear()
