"""Property tests: the LSM engine against a dict model, the SSTable splice
against a rebuild, and its boundary shift against a per-lane subtraction."""

from array import array

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.lsm.engine import LSMEngine
from repro.lsm.memtable import TOMBSTONE
from repro.lsm.sstable import SSTable, shift_lanes
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.storage.errors import TupleNotFoundError
from repro.systems.backends import LsmBackend


def make_engine(memtable_capacity=8, tier_threshold=3):
    cost = CostModel(SimClock(), CostBook())
    return LSMEngine(
        cost,
        payload_bytes=16,
        memtable_capacity=memtable_capacity,
        tier_threshold=tier_threshold,
    )


class LSMMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.engine = make_engine()
        self.model = {}

    @rule(key=st.integers(min_value=0, max_value=60),
          value=st.integers(min_value=0, max_value=10**6))
    def put(self, key, value):
        self.engine.put(key, value)
        self.model[key] = value

    @rule(key=st.integers(min_value=0, max_value=60))
    def delete(self, key):
        self.engine.delete(key)
        self.model.pop(key, None)

    @rule()
    def flush(self):
        self.engine.flush()

    @rule()
    def full_compaction(self):
        self.engine.full_compaction()
        assert self.engine.tombstone_count == 0
        assert self.engine.run_count <= 1

    @invariant()
    def gets_agree(self):
        for key in range(0, 61, 7):
            assert self.engine.get(key) == self.model.get(key)

    @invariant()
    def range_agrees(self):
        got = self.engine.range(0, 60)
        assert got == sorted(self.model.items())


TestLSMMachine = LSMMachine.TestCase
TestLSMMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)


KEYS = st.integers(min_value=0, max_value=15)


class ReclaimMachine(RuleBasedStateMachine):
    """Both lsm reclamations against a dict model: after ``reclaim`` (victim
    compaction) or ``reclaim_full`` no deleted key has a copy site — or any
    entry, tombstone included — on the node, every live key still reads its
    latest value, and no later flush, merge, maintenance slice or full
    compaction brings a reclaimed key back."""

    COMPACTION = "size"
    MODE = "sync"

    def __init__(self):
        super().__init__()
        self.backend = LsmBackend(
            CostModel(SimClock(), CostBook()),
            memtable_capacity=4,
            tier_threshold=3,
            compaction=self.COMPACTION,
            compaction_mode=self.MODE,
        )
        self.model = {}
        self.deleted = set()  # tombstoned, no reclamation yet
        self.gone = set()  # reclaimed while deleted, not written since

    @rule(key=KEYS, value=st.integers(min_value=0, max_value=10**6))
    def put(self, key, value):
        if key in self.model:
            self.backend.update(key, value)
        else:
            self.backend.insert(key, value)
        self.model[key] = value
        self.deleted.discard(key)
        self.gone.discard(key)

    @rule(key=KEYS)
    def delete(self, key):
        if key in self.model:
            self.backend.delete(key)
            del self.model[key]
            self.deleted.add(key)

    @rule()
    def flush(self):
        self.backend.engine.flush()

    @rule(max_bytes=st.sampled_from([1, 256, 4096]))
    def maintain_slice(self, max_bytes):
        self.backend.maintain(max_bytes=max_bytes)

    def _reclaimed(self):
        for key in self.deleted:
            assert self.backend.copy_sites(key) == []
        self.gone |= self.deleted
        self.deleted.clear()

    @rule()
    def reclaim(self):
        before = self.backend.stats().dead_entries
        removed = self.backend.reclaim()
        assert removed == before - self.backend.stats().dead_entries
        self._reclaimed()

    @rule()
    def reclaim_full(self):
        self.backend.reclaim_full()
        assert self.backend.stats().dead_entries == 0
        self._reclaimed()

    @invariant()
    def live_keys_read_their_latest_value(self):
        for key in range(16):
            try:
                got = self.backend.read(key)
            except TupleNotFoundError:
                got = None
            assert got == self.model.get(key)

    @invariant()
    def reclaimed_keys_never_come_back(self):
        engine = self.backend.engine
        buffered = dict(engine.memtable_entries())
        for key in self.gone:
            assert self.backend.copy_sites(key) == []
            assert key not in buffered
            assert all(run.get_encoded(key) is None for run in engine.runs())


def _reclaim_machine(compaction, mode):
    machine = type(
        f"ReclaimMachine_{compaction}_{mode}",
        (ReclaimMachine,),
        {"COMPACTION": compaction, "MODE": mode},
    )
    case = machine.TestCase
    case.settings = settings(
        max_examples=25, stateful_step_count=50, deadline=None
    )
    return case


TestReclaimSizeSync = _reclaim_machine("size", "sync")
TestReclaimSizeDeferred = _reclaim_machine("size", "deferred")
TestReclaimLeveledSync = _reclaim_machine("leveled", "sync")
TestReclaimLeveledDeferred = _reclaim_machine("leveled", "deferred")


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "delete"]),
            st.integers(min_value=0, max_value=40),
        ),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=40, deadline=None)
def test_full_compaction_purges_every_deleted_value(ops):
    engine = make_engine(memtable_capacity=4, tier_threshold=3)
    model = {}
    for op, key in ops:
        if op == "put":
            engine.put(key, key * 2)
            model[key] = key * 2
        else:
            engine.delete(key)
            model.pop(key, None)
    engine.full_compaction()
    for key in range(41):
        assert engine.get(key) == model.get(key)
        if key not in model:
            # physical removal after full compaction — no retained values
            assert not engine.physically_present(key)


@given(
    keys=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=60)
)
@settings(max_examples=40, deadline=None)
def test_retention_records_only_for_currently_deleted(keys):
    engine = make_engine(memtable_capacity=4)
    for key in keys:
        engine.put(key, key)
    deleted = set()
    for key in keys[: len(keys) // 2]:
        engine.delete(key)
        deleted.add(key)
    recorded = {r.key for r in engine.retention_records()}
    assert recorded == deleted
    # re-inserting cancels the retention question
    for key in list(deleted)[:2]:
        engine.put(key, key + 1)
        deleted.discard(key)
    recorded = {r.key for r in engine.retention_records()}
    assert recorded == deleted


LO, HI = -2, 43  # the key universe: table keys are 0..40, drops overshoot
BLOBS = st.one_of(
    st.just(TOMBSTONE),
    st.integers(),
    st.text(max_size=12),
    st.tuples(st.integers(), st.binary(max_size=40)),
)


@st.composite
def table_and_drops(draw):
    """A sorted table (values and tombstones; empty and one-entry included)
    and a drop list: random keys — absent ones and repeats among them — plus
    one adjacent run of present keys, which reaches the first key, the last
    and the whole table."""
    keys = sorted(draw(st.sets(st.integers(0, 40), max_size=24)))
    entries = [(key, draw(st.integers(0, 10**6)), draw(BLOBS)) for key in keys]
    drops = draw(st.lists(st.integers(LO, HI), max_size=12))
    edge = st.integers(0, len(keys))
    lo, hi = sorted((draw(edge), draw(edge)))
    return entries, drops + keys[lo:hi]


@given(table_and_drops())
@settings(max_examples=300, deadline=None)
def test_without_keys_is_a_rebuild_of_the_survivors(case):
    """``without_keys`` ≡ ``from_encoded(survivors)`` on the whole public
    read surface, and the source run is untouched."""
    entries, drops = case
    run = SSTable(entries, created_at=7)
    encoded = list(run.entries_encoded())
    survivors = [e for e in encoded if e[0] not in drops]
    out, dropped, tombstones = run.without_keys(drops)
    ref = SSTable.from_encoded(survivors, created_at=7)

    assert dropped == sorted({e[0] for e in encoded} & set(drops))
    assert tombstones == run.tombstone_count - ref.tombstone_count
    assert (out is run) == (not dropped)
    assert out.packed_block == ref.packed_block
    assert out._starts.tobytes() == ref._starts.tobytes()
    assert list(out.entries_encoded()) == survivors
    assert list(out.entries()) == list(ref.entries())
    assert list(out.range(LO, HI)) == list(ref.range(LO, HI))
    for key in range(LO, HI + 1):
        assert out.get_encoded(key) == ref.get_encoded(key)
    assert len(out) == len(ref) == len(survivors)
    assert out.tombstone_count == ref.tombstone_count
    assert out.value_count == ref.value_count
    assert (out.min_key, out.max_key) == (ref.min_key, ref.max_key)
    # The Bloom filter is carried forward, not re-sized for the survivors.
    assert out.bloom_bytes == run.bloom_bytes
    assert out.size_bytes - out.bloom_bytes == ref.size_bytes - ref.bloom_bytes

    assert list(run.entries_encoded()) == encoded
    assert list(run.entries()) == entries
    for key, seqno, blob in encoded:
        assert run.get_encoded(key) == (seqno, blob)


U32 = st.integers(0, 2**32 - 1)


@st.composite
def lanes_and_shift(draw):
    """``u32`` lanes (empty, and up to 2**32 - 1, included) and a shift no
    lane is below — zero among the draws."""
    lanes = draw(st.lists(U32, max_size=64))
    shift = draw(st.one_of(st.just(0), st.integers(0, min(lanes, default=0))))
    return array("I", lanes), shift


@given(lanes_and_shift())
@settings(max_examples=300, deadline=None)
def test_shift_lanes_is_a_per_lane_subtraction(case):
    lanes, shift = case
    got = array("I")
    got.frombytes(shift_lanes(lanes, shift))
    assert got == array("I", [s - shift for s in lanes])
