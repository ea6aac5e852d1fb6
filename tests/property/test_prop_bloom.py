"""Property tests: the Bloom fast path and throttled drain-vs-erase.

Two subjects from the raw-speed round-three PR:

* the rewritten :mod:`repro.lsm.bloom` — value-stable hashing over codec
  bytes, shared :class:`BloomHashCache`, batch builders/probes, and the
  saturation auto-resize guard — must never produce a false negative and
  must keep its false-positive rate near the configured target;
* budgeted ``maintain(max_bytes=...)`` slices interleaved with grounded
  erases must leave the LSM backend agreeing with a dict model, with no
  copy site or forensic residue for erased units.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.lsm.bloom import BloomFilter, BloomHashCache, hash_pair
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.storage.errors import TupleNotFoundError
from repro.systems.backends import make_backend

# Mixed-type keys: every codec-encodable hashable shape the engines use.
KEYS = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.text(max_size=24),
    st.binary(max_size=24),
    st.tuples(st.integers(min_value=0, max_value=1000), st.text(max_size=8)),
)


# --------------------------------------------------------------- no false negs
@given(keys=st.lists(KEYS, min_size=1, max_size=200))
@settings(max_examples=40, deadline=None)
def test_incremental_add_never_false_negative(keys):
    bloom = BloomFilter(len(keys))
    for key in keys:
        bloom.add(key)
    assert all(key in bloom for key in keys)


@given(keys=st.lists(KEYS, min_size=1, max_size=200, unique=True))
@settings(max_examples=40, deadline=None)
def test_from_keys_never_false_negative(keys):
    cold = BloomFilter.from_keys(keys)
    cache = BloomHashCache()
    warm = BloomFilter.from_keys(keys, cache=cache)
    assert all(cold.probe_many(keys))
    assert all(warm.probe_many(keys, cache=cache))
    # The cached build and the digest build agree probe-for-probe.
    probes = keys + [("absent", i) for i in range(32)]
    assert cold.probe_many(probes) == warm.probe_many(probes)


@given(keys=st.lists(st.text(min_size=1, max_size=16), min_size=1, max_size=80,
                     unique=True))
@settings(max_examples=40, deadline=None)
def test_rebuild_with_distinct_key_objects_never_false_negative(keys):
    """A compaction rebuild sees equal-but-distinct key objects.

    The pre-PR ``repr``-based scheme was only value-stable by accident of
    repr; the codec-bytes scheme guarantees it.  Build with one set of
    string objects, rebuild (warm cache) with fresh copies, probe with a
    third set — no false negatives anywhere.
    """
    cache = BloomHashCache()
    first = BloomFilter.from_keys(keys, cache=cache)
    copies = ["".join(key) for key in keys]
    assert all(a == b and (len(a) < 2 or a is not b)
               for a, b in zip(keys, copies))
    rebuilt = BloomFilter.from_keys(copies, cache=cache)
    third = [str(key) for key in copies]
    assert all(first.probe_many(third))
    assert all(rebuilt.probe_many(third, cache=cache))


@given(keys=st.lists(KEYS, min_size=1, max_size=64, unique=True))
@settings(max_examples=40, deadline=None)
def test_hash_pair_is_value_stable(keys):
    for key in keys:
        h1, h2 = hash_pair(key)
        assert hash_pair(key) == (h1, h2)
        assert h2 % 2 == 1  # odd h2 => the probe sequence cycles every bit


# --------------------------------------------------------------- fp behaviour
def test_false_positive_rate_near_configured_target():
    # n=5000 at fp=0.01 gives ~7 sigma of headroom below the 2x gate.
    n = 5000
    keys = [f"member:{i}" for i in range(n)]
    bloom = BloomFilter.from_keys(keys, fp_rate=0.01)
    absent = [f"absent:{i}" for i in range(n)]
    fp = sum(bloom.probe_many(absent))
    assert fp / n <= 0.02


@given(n=st.integers(min_value=32, max_value=600))
@settings(max_examples=20, deadline=None)
def test_saturated_filter_resizes_instead_of_degrading(n):
    """A default-sized filter fed far more keys than expected must grow.

    Pre-guard behaviour: BloomFilter(1) saturated to all-ones and answered
    True for everything.  The resize guard re-sizes for the real population,
    so absent keys are still mostly rejected and members always hit.
    """
    bloom = BloomFilter(1)
    for i in range(n):
        bloom.add(("sat", i))
    assert all(bloom.probe_many([("sat", i) for i in range(n)]))
    assert bloom.bit_size >= n  # grew past the 8-bit floor
    absent = [("sat-miss", i) for i in range(512)]
    fp = sum(bloom.probe_many(absent))
    # Worst case just before a resize fires the filter carries 2x its
    # expected load, where the theoretical fp is ~13% — bounded, versus
    # ~100% for the unguarded saturated filter this regression covers.
    assert fp / len(absent) <= 0.20


class BloomMachine(RuleBasedStateMachine):
    """Adds, batch adds, and cache-warm rebuilds against a set model."""

    def __init__(self):
        super().__init__()
        self.cache = BloomHashCache()
        self.bloom = BloomFilter(8)
        self.model = set()

    @rule(key=KEYS)
    def add(self, key):
        self.bloom.add(key, pair=self.cache.pair(key))
        self.model.add(key)

    @rule(keys=st.lists(KEYS, min_size=1, max_size=32))
    def add_many(self, keys):
        self.bloom.add_many(keys, cache=self.cache)
        self.model.update(keys)

    @rule()
    def rebuild(self):
        # What a compaction rewrite does: exact-size a new filter over the
        # surviving keys, sharing the engine-wide hash cache.
        self.bloom = BloomFilter.from_keys(sorted(self.model, key=repr),
                                           cache=self.cache)

    @invariant()
    def no_false_negatives(self):
        members = list(self.model)
        assert all(self.bloom.probe_many(members, cache=self.cache))
        assert all(key in self.bloom for key in members[:8])


TestBloomMachine = BloomMachine.TestCase
TestBloomMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)


# ------------------------------------------------------- drain versus erase
class DrainEraseMachine(RuleBasedStateMachine):
    """Budgeted maintenance slices racing grounded erases on a deferred LSM.

    The throttled-compaction contract: a unit erased while merge work is
    still queued must be gone — model-visible reads agree, no copy sites,
    no forensic residue — no matter how little of the backlog has drained.
    Both groundings race the slices: "delete" (victim compaction, which
    rewrites only the victim's runs and leaves the backlog queued) and
    "strong delete" (full compaction).  Neither may leave so much as a
    tombstone for a later slice to merge.
    """

    def __init__(self):
        super().__init__()
        cost = CostModel(SimClock(), CostBook())
        self.backend = make_backend(
            "lsm",
            cost,
            memtable_capacity=4,
            compaction="leveled",
            compaction_mode="deferred",
        )
        self.model = {}
        self.erased = set()

    @rule(key=st.integers(min_value=0, max_value=24),
          value=st.integers(min_value=0, max_value=10**6))
    def put(self, key, value):
        if key in self.model:
            self.backend.update(key, value)
        else:
            self.backend.insert(key, value)
        self.model[key] = value
        self.erased.discard(key)

    @rule(key=st.integers(min_value=0, max_value=24))
    def delete(self, key):
        if key in self.model:
            self.backend.delete(key)
            del self.model[key]

    @rule()
    def drain_slice(self):
        self.backend.maintain(max_bytes=1024)

    @rule(key=st.integers(min_value=0, max_value=24))
    def erase(self, key):
        if key in self.model:
            self.backend.erase(key)
            del self.model[key]
            self.erased.add(key)

    @rule(key=st.integers(min_value=0, max_value=24))
    def erase_strong(self, key):
        if key in self.model:
            self.backend.erase_many([key], strong=True)
            del self.model[key]
            self.erased.add(key)

    @invariant()
    def gets_agree(self):
        for key in range(0, 25, 5):
            try:
                got = self.backend.read(key)
            except TupleNotFoundError:
                got = None
            assert got == self.model.get(key)

    @invariant()
    def erased_units_leave_no_residue(self):
        engine = self.backend.engine
        buffered = dict(engine.memtable_entries())
        for key in self.erased:
            assert self.backend.copy_locations(key) == []
            assert self.backend.copy_sites(key) == []
            assert not self.backend.physically_present(key)
            assert key not in buffered
            assert all(run.get_encoded(key) is None for run in engine.runs())


TestDrainEraseMachine = DrainEraseMachine.TestCase
TestDrainEraseMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
