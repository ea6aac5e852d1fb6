"""Differential model of the replication log.

A stateful machine drives :class:`ReplicationLog` and a brute-force
reference — a plain list of entries, rescanned for every question, which is
what ``_Shard`` did before the log had a per-key index — through the same
appends, scrubs and replays.  After every step the two must agree on what
is still held, for which keys, and on what a replica would replay.

The ``_Shard``-level half checks what the index must not change about a
grounded erase: the scrub count it reports, and that a replica joining or
reviving afterwards replays the victim's entries as no-ops.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.config import BackendConfig, StoreConfig
from repro.distributed.replication_log import SCRUBBED, ReplicationLog, _OpType
from repro.distributed.store import ReplicatedStore
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.storage.errors import TupleNotFoundError

KEYS = st.integers(min_value=0, max_value=6)
#: ``None`` is a legitimate stored value — the scrub marker must not be it.
VALUES = st.one_of(st.none(), st.integers(min_value=0, max_value=99))
VALUED = (_OpType.PUT, _OpType.UPDATE)


class ListScanLog:
    """The reference: every query is a loop over every entry."""

    def __init__(self):
        self.entries = []  # [op, key, value, ready_at, scrubbed]

    def append(self, op, key, value, ready_at):
        self.entries.append([op, key, value, ready_at, False])

    def _valued(self):
        return [e for e in self.entries if e[0] in VALUED and not e[4]]

    def holds_value(self, key):
        return any(e[1] == key for e in self._valued())

    def valued_keys(self):
        return {e[1] for e in self._valued()}

    def scrub(self, key):
        victims = [e for e in self._valued() if e[1] == key]
        for entry in victims:
            entry[2], entry[4] = None, True
        return len(victims)

    def scrub_all(self):
        return sum(self.scrub(key) for key in self.valued_keys())

    def replay(self, applied, now, force, upto):
        """What ``_Shard._apply_backlog`` would do, as ``(op, key, value)``
        with scrubbed PUT/UPDATE entries reported as ``"noop"``."""
        out = []
        for seqno, (op, key, value, ready_at, scrubbed) in enumerate(
            self.entries, start=1
        ):
            if seqno <= applied:
                continue
            if upto is not None and seqno > upto:
                break
            if not force and ready_at > now:
                break
            out.append(("noop", key, None) if scrubbed else (op, key, value))
        return out


def replay_of(log, applied, now, force, upto):
    out = []
    for op, key, value, ready_at in log.replay(applied, upto):
        if not force and ready_at > now:
            break
        out.append(("noop", key, None) if value is SCRUBBED else (op, key, value))
    return out


class ReplicationLogMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.log = ReplicationLog()
        self.ref = ListScanLog()
        self.now = 0

    @rule(op=st.sampled_from(VALUED), key=KEYS, value=VALUES,
          lag=st.integers(min_value=0, max_value=5))
    def append_valued(self, op, key, value, lag):
        # Also the re-put after a scrub: the key starts a fresh chain.
        self.log.append(op, key, value, self.now + lag)
        self.ref.append(op, key, value, self.now + lag)

    @rule(key=KEYS, lag=st.integers(min_value=0, max_value=5))
    def append_delete(self, key, lag):
        self.log.append(_OpType.DELETE, key, None, self.now + lag)
        self.ref.append(_OpType.DELETE, key, None, self.now + lag)

    @rule(step=st.integers(min_value=1, max_value=4))
    def tick(self, step):
        self.now += step

    @rule(key=KEYS)
    def scrub(self, key):
        assert self.log.scrub(key) == self.ref.scrub(key)
        assert not self.log.holds_value(key)

    @rule()
    def scrub_all(self):
        assert self.log.scrub_all() == self.ref.scrub_all()
        assert not self.log.valued_keys()

    @rule(data=st.data(), force=st.booleans())
    def replay(self, data, force):
        n = len(self.ref.entries)
        applied = data.draw(st.integers(min_value=0, max_value=n + 2))
        upto = data.draw(st.none() | st.integers(min_value=0, max_value=n + 2))
        assert replay_of(self.log, applied, self.now, force, upto) == (
            self.ref.replay(applied, self.now, force, upto)
        )

    @invariant()
    def holdings_agree(self):
        assert len(self.log) == len(self.ref.entries)
        assert set(self.log.valued_keys()) == self.ref.valued_keys()
        for key in range(0, 7):
            assert self.log.holds_value(key) == self.ref.holds_value(key)

    @invariant()
    def full_replay_agrees(self):
        assert replay_of(self.log, 0, self.now, True, None) == (
            self.ref.replay(0, self.now, True, None)
        )


TestReplicationLogMachine = ReplicationLogMachine.TestCase
TestReplicationLogMachine.settings = settings(
    max_examples=60, stateful_step_count=50, deadline=None
)


# ------------------------------------------------------------ _Shard level
@pytest.fixture(params=["psql", "lsm", "crypto-shred"])
def shard_and_ref(request):
    """One shard (one replica) with a write history, and the reference log
    fed the same history."""
    store = ReplicatedStore(
        CostModel(SimClock(), CostBook()),
        StoreConfig(
            backend=BackendConfig(backend=request.param),
            n_replicas=1,
            replication_lag=1_000,
        ),
    )
    ref = ListScanLog()
    for i in range(12):
        store.put(f"k{i}", ("v", i, 0))
        ref.append(_OpType.PUT, f"k{i}", ("v", i, 0), 0)
    for n in range(1, 4):
        store.update("k3", ("v", 3, n))
        ref.append(_OpType.UPDATE, "k3", ("v", 3, n), 0)
        store.update("k7", ("v", 7, n))
        ref.append(_OpType.UPDATE, "k7", ("v", 7, n), 0)
    return store, ref


def test_erase_report_scrub_count_matches_the_reference(shard_and_ref):
    store, ref = shard_and_ref
    assert store.erase_all_copies("k3").log_values_scrubbed == ref.scrub("k3") == 4
    assert store.erase_all_copies("k0").log_values_scrubbed == ref.scrub("k0") == 1
    assert store.erase_all_copies("ghost").log_values_scrubbed == ref.scrub("ghost") == 0
    # Re-collected after the erase: only the new value is there to scrub.
    store.put("k3", "again")
    ref.append(_OpType.PUT, "k3", "again", 0)
    assert store.erase_all_copies("k3").log_values_scrubbed == ref.scrub("k3") == 1
    batch = store.erase_many(["k7", "k1"])
    assert batch.log_values_scrubbed == ref.scrub("k7") + ref.scrub("k1") == 5


@pytest.mark.parametrize("rejoin", ["add_replica", "revive_replica"])
def test_erased_entries_replay_as_noops_on_a_fresh_replica(shard_and_ref, rejoin):
    store, _ref = shard_and_ref
    (shard,) = store.shards()
    if rejoin == "revive_replica":
        shard.kill_replica(0)
    assert store.erase_all_copies("k3").verified_clean
    entries = len(shard._log)
    if rejoin == "revive_replica":
        assert shard.revive_replica(0) == entries
    else:
        assert shard.add_replica() == entries
    fresh = shard.replicas[-1 if rejoin == "add_replica" else 0]
    assert fresh.applied_seqno == entries
    # No resurrection: the victim's PUT/UPDATEs did nothing, not even dead
    # data, on the fresh machine — and every other key arrived.
    assert store.copies_of("k3") == []
    assert not fresh.backend.physically_present("k3")
    with pytest.raises(TupleNotFoundError):
        fresh.backend.read("k3")
    assert fresh.backend.read("k7") == ("v", 7, 3)
