"""Property tests: replica elasticity and fault injection against a dict
model.

A stateful machine interleaves collects, grounded erases, replica
add/remove (``set_replicas``), replica kill/revive, and anti-entropy
sweeps against a live :class:`ReplicatedStore`, maintaining its own
ground truth.  Two properties must hold at every step, whatever the
topology:

* no read ever returns an erased value — ``TupleNotFoundError`` (or
  fail-fast unavailability) is the only legal outcome;
* ``copies_of`` matches the harness's ground truth: erased keys report
  zero copies anywhere, live keys at least one.

The infrastructure-fault integration scenarios live in
``tests/integration/test_distributed_faults.py``; this machine hunts the
interleavings nobody thought to script.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.config import StoreConfig
from repro.distributed.faults import FaultError, FaultInjector
from repro.distributed.store import ReplicatedStore
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.storage.errors import TupleNotFoundError

KEYS = st.integers(min_value=0, max_value=40)


class ReplicationMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        cost = CostModel(SimClock(), CostBook())
        self.store = ReplicatedStore(
            cost,
            StoreConfig(
                shards=2, n_replicas=1, replication_lag=1_000, cache_ttl=10**12
            ),
        )
        self.injector = FaultInjector(self.store)
        self.model = {}
        self.erased = set()

    @staticmethod
    def _key(i):
        return f"u{i:06d}"

    @rule(key=KEYS, value=st.integers(min_value=0, max_value=10**6))
    def collect(self, key, value):
        k = self._key(key)
        if k in self.model:
            self.store.update(k, (value, "payload"))
        else:
            self.store.put(k, (value, "payload"))
        self.model[k] = (value, "payload")
        self.erased.discard(k)

    @rule(key=KEYS)
    def erase(self, key):
        k = self._key(key)
        report = self.store.erase_all_copies(k)
        assert report.verified_clean
        self.model.pop(k, None)
        self.erased.add(k)

    @rule(n=st.integers(min_value=0, max_value=2))
    def set_replicas(self, n):
        # Membership change requires a fully-healed topology — heal first,
        # like an operator would before resizing the replica set.
        self.injector.heal_all()
        change = self.store.set_replicas(n)
        assert change.replicas_after == n

    @rule(shard=st.integers(min_value=0, max_value=1))
    def kill_replica(self, shard):
        node = self.store._shards.get(shard)
        if node is None or not node.replicas:
            return
        replica = 0
        if self.injector.is_down(shard, replica):
            return
        self.injector.kill_replica(shard, replica)

    @rule(shard=st.integers(min_value=0, max_value=1))
    def revive_replica(self, shard):
        if self.injector.is_down(shard, 0):
            self.injector.revive_replica(shard, 0)

    @rule()
    def antientropy_sweep(self):
        report, events = self.store.anti_entropy_sweep(n_ranges=8)
        # No quorum reads run in this machine: every repair the sweep
        # produced is an anti-entropy range repair, never a read repair.
        assert all(e.key.startswith("antientropy:") for e in events)
        assert len(events) <= report.repairs_queued

    @invariant()
    def no_read_returns_an_erased_value(self):
        for k in sorted(self.erased)[:8]:
            try:
                value = self.store.read(k, use_cache=False)
            except (TupleNotFoundError, FaultError):
                continue
            raise AssertionError(
                f"read of erased key {k!r} returned {value!r}"
            )

    @invariant()
    def copies_match_ground_truth(self):
        for k in sorted(self.erased)[:8]:
            assert not self.store.copies_of(k), (
                f"erased key {k!r} still has tracked copies"
            )
        for k in sorted(self.model)[:8]:
            assert self.store.copies_of(k), (
                f"live key {k!r} has no tracked copies"
            )

    @invariant()
    def live_reads_serve_the_model(self):
        for k in sorted(self.model)[:4]:
            try:
                assert self.store.read(k, use_cache=False) == self.model[k]
            except FaultError:
                pass  # unavailability is legal; a wrong value is not


TestReplicationMachine = ReplicationMachine.TestCase
TestReplicationMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
