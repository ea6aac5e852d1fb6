"""Property tests: the B+-tree against a dict model.

The stateful machine runs over *deep* trees (``ORDER`` patched to 4, so 200
keys make four or five levels) and checks the physical layout by walking the
leaf chain after every rule — a one-leaf tree cannot see a run of duplicates
straddling a split, nor a leaf that cleanup emptied.

A key above every key in the tree takes the right-edge fastpath; a twin
tree with the fastpath turned off is fed the same operations, and after
every rule both trees must have the same shape, entry for entry, and
answer every probe alike.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.storage import index as index_module
from repro.storage.index import BTreeIndex, _Leaf

KEYS = st.integers(min_value=0, max_value=200)


class GeneralDescent(BTreeIndex):
    """The same tree with every key sent down the general descent."""

    def _past_end(self, key):
        return False


def shape(node):
    """The whole tree — separators, leaves, entries — as plain values."""
    if isinstance(node, _Leaf):
        return [(e.key, e.tid, e.live) for e in node.entries]
    return (list(node.keys), [shape(child) for child in node.children])


def max_key(index):
    """The largest key in the tree, live or dead (-1 when empty)."""
    leaves = tree_leaves(index._root)
    return max((leaf.keys[-1] for leaf in leaves if leaf.keys), default=-1)


def tree_leaves(node):
    """The leaves below ``node`` as the routing levels reach them."""
    if isinstance(node, _Leaf):
        return [node]
    assert len(node.keys) == len(node.children) - 1
    return [leaf for child in node.children for leaf in tree_leaves(child)]


class BTreeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self._order = index_module.ORDER
        index_module.ORDER = 4
        self.index = BTreeIndex()
        self.twin = GeneralDescent()
        self.model = {}
        self.counter = 0
        self.top = 200  # the largest key ever inserted, at least KEYS' top

    def teardown(self):
        index_module.ORDER = self._order

    def _insert(self, key):
        tid = (key, self.counter)
        self.counter += 1
        self.index.insert(key, tid)
        self.twin.insert(key, tid)
        self.model[key] = tid
        self.top = max(self.top, key)

    def _mark_dead(self, key):
        assert self.index.mark_dead(key) == (key in self.model)
        assert self.twin.mark_dead(key) == (key in self.model)
        self.model.pop(key, None)

    def _cleanup(self):
        dead = self.index.dead_entries
        assert self.index.cleanup() == dead
        assert self.twin.cleanup() == dead
        leaves = tree_leaves(self.index._root)
        assert all(e.live for leaf in leaves for e in leaf.entries)
        # An emptied leaf is unlinked, never left to be walked over.
        assert all(leaf.keys for leaf in leaves) or self.index.depth == 1
        # Bytes follow the entry counts, not where the entries sit.
        repacked = BTreeIndex()
        repacked.rebuild(sorted(self.model.items()))
        assert self.index.size_bytes == repacked.size_bytes

    @rule(key=KEYS)
    def insert(self, key):
        if key not in self.model:
            self._insert(key)

    @rule(lo=KEYS, count=st.integers(min_value=1, max_value=40))
    def bulk_insert(self, lo, count):
        for key in range(lo, min(lo + count, 201)):
            if key not in self.model:
                self._insert(key)

    @rule(gap=st.integers(min_value=0, max_value=3),
          count=st.integers(min_value=1, max_value=40))
    def append_past_the_end(self, gap, count):
        """A run of keys above every key in the tree, dead ones included —
        what a sequential load sends down the right-edge fastpath."""
        start = max_key(self.index) + 1 + gap
        for key in range(start, start + count):
            self._insert(key)
        self._live_keys_refused()

    def _live_keys_refused(self):
        """Every live key is refused on both trees, wherever its run of
        dead versions starts: the right edge itself and the keys behind it
        take the general descent."""
        for key in self.model:
            for tree in (self.index, self.twin):
                with pytest.raises(KeyError):
                    tree.insert(key, (key, -1))

    @rule(key=KEYS)
    def mark_dead(self, key):
        self._mark_dead(key)

    @rule(key=KEYS, times=st.integers(min_value=1, max_value=7))
    def churn_one_key(self, key, times):
        """Dead versions of one key pile up beside its live entry — more of
        them than a leaf holds, so the run straddles splits."""
        if key not in self.model:
            self._insert(key)
        for _ in range(times):
            self._mark_dead(key)
            self._insert(key)
        self._live_keys_refused()

    @rule()
    def cleanup(self):
        self._cleanup()

    @rule(lo=KEYS, count=st.integers(min_value=1, max_value=60), pick=KEYS)
    def erase_range_then_use_it(self, lo, count, pick):
        """A contiguous key range erased wholesale empties whole leaves;
        the hole must still answer probes, take inserts and scan."""
        hi = min(lo + count, 200)
        for key in range(lo, hi + 1):
            if key in self.model:
                self._mark_dead(key)
        self._cleanup()
        inside = lo + pick % (hi - lo + 1)
        assert not self.index.probe(inside).found
        assert list(self.index.range(lo, hi)) == []
        self._insert(inside)
        assert self.index.probe(inside) == index_module.ProbeResult(
            self.model[inside], self.index.depth, 0
        )
        assert list(self.index.range(lo, hi)) == [(inside, self.model[inside])]

    @invariant()
    def lookups_agree(self):
        """Every live key is reachable from ``_find_leaf`` (what ``get``
        walks from); absent keys are absent."""
        for key in range(0, self.top + 2):
            assert self.index.get(key) == self.model.get(key)

    @invariant()
    def twin_has_the_same_tree(self):
        """The fastpath builds exactly the tree the general descent builds,
        and every probe, past the end or not, reports the same."""
        assert shape(self.index._root) == shape(self.twin._root)
        assert self.index.depth == self.twin.depth
        for key in range(0, self.top + 2):
            assert self.index.probe(key) == self.twin.probe(key)

    @invariant()
    def full_scan_is_sorted_model(self):
        assert list(self.index.range()) == sorted(self.model.items())

    @invariant()
    def leaf_chain_is_the_tree(self):
        """The ``next`` chain visits exactly the leaves the routing levels
        reach, in order; keys are globally sorted along it; the counters
        equal a recount."""
        leaves = tree_leaves(self.index._root)
        chain, leaf = [], leaves[0]
        while leaf is not None:
            chain.append(leaf)
            leaf = leaf.next
        assert [id(leaf) for leaf in chain] == [id(leaf) for leaf in leaves]
        entries = [e for leaf in chain for e in leaf.entries]
        keys = [k for leaf in chain for k in leaf.keys]
        assert keys == sorted(keys) == [e.key for e in entries]
        live = sum(e.live for e in entries)
        assert (live, len(entries) - live) == (
            self.index.live_entries, self.index.dead_entries
        )
        assert len(self.index) == len(self.model)


def test_live_key_behind_a_split_run_of_dead_versions_is_refused():
    """Two dead versions of key 0 and its live one, then keys 1 and 2,
    split the leaf so that the run of 0 starts a leaf left of where an
    insert of 0 lands: the duplicate guard must still see the live 0."""
    order, index_module.ORDER = index_module.ORDER, 4
    try:
        index = BTreeIndex()
        index.insert(0, (0, 0))
        for version in (1, 2):
            index.mark_dead(0)
            index.insert(0, (0, version))
        index.insert(1, (1, 0))
        index.insert(2, (2, 0))
        assert index.depth == 2
        with pytest.raises(KeyError, match="duplicate live key"):
            index.insert(0, (0, 9))
        assert len(index) == 3
        assert index.get(0) == (0, 2)
    finally:
        index_module.ORDER = order


TestBTreeMachine = BTreeMachine.TestCase
TestBTreeMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)


@given(keys=st.lists(st.integers(), unique=True, min_size=1, max_size=500))
@settings(max_examples=30, deadline=None)
def test_insert_then_range_scan_sorted(keys):
    index = BTreeIndex()
    for key in keys:
        index.insert(key, (0, key & 0xFF))
    assert [k for k, _ in index.range()] == sorted(keys)


@given(
    keys=st.lists(st.integers(min_value=-1000, max_value=1000), unique=True,
                  min_size=5, max_size=200),
    bounds=st.tuples(st.integers(min_value=-1000, max_value=1000),
                     st.integers(min_value=-1000, max_value=1000)),
)
@settings(max_examples=40, deadline=None)
def test_bounded_range_matches_filter(keys, bounds):
    lo, hi = min(bounds), max(bounds)
    index = BTreeIndex()
    for key in keys:
        index.insert(key, (0, 0))
    got = [k for k, _ in index.range(lo, hi)]
    assert got == sorted(k for k in keys if lo <= k <= hi)


@given(keys=st.lists(st.integers(), unique=True, min_size=1, max_size=300))
@settings(max_examples=30, deadline=None)
def test_rebuild_equals_incremental(keys):
    incremental = BTreeIndex()
    for key in keys:
        incremental.insert(key, (1, 2))
    bulk = BTreeIndex()
    bulk.rebuild(sorted((k, (1, 2)) for k in keys))
    assert list(bulk.range()) == list(incremental.range())
    assert len(bulk) == len(incremental)
