"""Property tests: the Bloom fast path and merges racing erases.

Two subjects from the raw-speed round-three PR:

* the rewritten :mod:`repro.lsm.bloom` — value-stable hashing over codec
  bytes, shared :class:`BloomHashCache`, batch builders/probes, and the
  saturation auto-resize guard — must never produce a false negative and
  must keep its false-positive rate near the configured target;
* flush-triggered merges interleaved with grounded erases must leave the
  LSM backend agreeing with a dict model, with no copy site or forensic
  residue for erased units.
"""

import math
import random

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
FOUR_SIGMA_TAIL = 3.17e-5  # a standard normal's one-sided tail past 4 σ


def _binomial_tail(trials, p, hits):
    """``P(X >= hits)`` for ``X ~ Binomial(trials, p)``."""
    return sum(
        math.comb(trials, x) * p**x * (1 - p) ** (trials - x)
        for x in range(hits, trials + 1)
    )


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
    # Bound: this filter's theory at its bits, hashes and count, 4 σ out in
    # each of its two random stages.  The count * hashes probe writes set a
    # fraction ``1 - (1 - 1/bits)**writes`` of the bits, give or take a
    # balls-in-bins spread (~2 % for 50 keys in 249 bits: ~20 % of the fp
    # rate once raised to the hashes-th power); an absent key then hits
    # with probability ``fill**hashes``, and the 512 probes' count gets an
    # exact binomial tail, since it is often 0-2 where a normal margin
    # misleads.  Just before a resize the bound is ~40 %; the unguarded
    # saturated filter this regression covers reads ~100 %.
    bits, writes = bloom.bit_size, len(bloom) * bloom.hash_count
    q1, q2 = (1 - 1 / bits) ** writes, (1 - 2 / bits) ** writes
    empty_sd = math.sqrt(bits * q1 + bits * (bits - 1) * q2 - (bits * q1) ** 2)
    fill = 1 - q1 + 4 * empty_sd / bits
    assert _binomial_tail(len(absent), fill**bloom.hash_count, fp) > FOUR_SIGMA_TAIL


# ------------------------------------------------------------ bit identity
def _reference_bits(bits, hashes, pairs):
    """The per-bit writer the batch kernel replaced: each probe ORs its own
    bit into a byte.  Every filter array must equal its output."""
    arr = bytearray((bits + 7) // 8)
    rng = range(hashes)
    for h1, h2 in pairs:
        for pos in [(h1 + i * h2) % bits for i in rng]:
            arr[pos >> 3] |= 1 << (pos & 7)
    return arr


def _mixed_keys(n, seed):
    rnd = random.Random(seed)
    shapes = (
        lambda i: rnd.randrange(-(10**9), 10**9),
        lambda i: f"u{rnd.randrange(10**6):06d}",
        lambda i: rnd.randbytes(rnd.randrange(24)),
        lambda i: (i, str(rnd.random())),
    )
    return [rnd.choice(shapes)(i) for i in range(n)]


# Sizes either side of the kernel's 1 024-key chunk, plus anything to 3 000.
SIZES = st.one_of(
    st.sampled_from([0, 1, 1023, 1024, 1025, 2047, 2048, 2049, 3000]),
    st.integers(min_value=0, max_value=3000),
)


@given(n=SIZES, seed=st.integers(min_value=0, max_value=2**32 - 1),
       cached=st.booleans(), fp_rate=st.sampled_from([0.01, 0.05, 0.3]))
@settings(max_examples=40, deadline=None)
def test_from_keys_bits_equal_the_reference_writer(n, seed, cached, fp_rate):
    keys = _mixed_keys(n, seed)
    cache = BloomHashCache() if cached else None
    bloom = BloomFilter.from_keys(keys, fp_rate=fp_rate, cache=cache)
    expected = _reference_bits(
        bloom.bit_size, bloom.hash_count, [hash_pair(key) for key in keys]
    )
    assert bloom._array == expected
    assert len(bloom) == n


@given(n=SIZES, split=st.integers(min_value=0, max_value=3000),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_add_then_add_many_bits_equal_the_reference_writer(n, split, seed):
    """Per-key adds first, then one batch ORed over them; sized for the
    whole population, so no resize runs."""
    keys = _mixed_keys(n, seed)
    split = min(split, n)
    bloom = BloomFilter(max(1, n))
    bits = bloom.bit_size
    for key in keys[:split]:
        bloom.add(key)
    bloom.add_many(keys[split:])
    assert bloom.bit_size == bits
    assert bloom._array == _reference_bits(
        bits, bloom.hash_count, [hash_pair(key) for key in keys]
    )
    assert len(bloom) == n


@given(n=st.integers(min_value=3, max_value=3000),
       expected=st.integers(min_value=1, max_value=400),
       batches=st.integers(min_value=1, max_value=5),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_grown_filter_bits_equal_the_reference_writer(n, expected, batches,
                                                       seed):
    """A filter fed past its resize point replays every retained pair at
    the new size; adds after the resize land on top of the replay."""
    keys = _mixed_keys(n, seed)
    expected = min(expected, n // 3)
    bloom = BloomFilter(expected)
    bits = bloom.bit_size
    cut = len(keys) // (batches + 1)
    for key in keys[:cut]:
        bloom.add(key)
    for start in range(cut, n, max(1, cut)):
        bloom.add_many(keys[start:start + max(1, cut)])
    assert bloom.bit_size > bits  # at least one resize ran
    assert bloom._array == _reference_bits(
        bloom.bit_size, bloom.hash_count, [hash_pair(key) for key in keys]
    )


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


# ------------------------------------------------------- merges versus erase
class MergeEraseMachine(RuleBasedStateMachine):
    """Flush-triggered leveled merges racing grounded erases on an LSM.

    A unit erased between merges must be gone — model-visible reads agree,
    no copy sites, no forensic residue — whatever merges later flushes run.
    Both groundings race the merges: "delete" (victim compaction, which
    rewrites only the victim's runs) and "strong delete" (full compaction).
    Neither may leave so much as a tombstone for a later merge to carry.
    """

    def __init__(self):
        super().__init__()
        cost = CostModel(SimClock(), CostBook())
        self.backend = make_backend(
            "lsm",
            cost,
            memtable_capacity=4,
            compaction="leveled",
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
    def flush(self):
        self.backend.engine.flush()

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


TestMergeEraseMachine = MergeEraseMachine.TestCase
TestMergeEraseMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
