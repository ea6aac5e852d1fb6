"""Property tests: the B+-tree against a dict model.

The stateful machine runs over *deep* trees (``ORDER`` patched to 4, so 200
keys make four or five levels) and checks the physical layout by walking the
leaf chain after every rule — a one-leaf tree cannot see a run of duplicates
straddling a split, nor a leaf that cleanup emptied.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.storage import index as index_module
from repro.storage.index import BTreeIndex, _Leaf

KEYS = st.integers(min_value=0, max_value=200)


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
        self.model = {}
        self.counter = 0

    def teardown(self):
        index_module.ORDER = self._order

    def _insert(self, key):
        tid = (key, self.counter)
        self.counter += 1
        self.index.insert(key, tid)
        self.model[key] = tid

    def _mark_dead(self, key):
        assert self.index.mark_dead(key) == (key in self.model)
        self.model.pop(key, None)

    def _cleanup(self):
        dead = self.index.dead_entries
        assert self.index.cleanup() == dead
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
        for key in range(0, 201):
            assert self.index.get(key) == self.model.get(key)

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
