"""A closed value domain: every facade refuses an unencodable value.

The codec stores marshal values, registered singletons and registered
extensions, and nothing else.  A value outside that domain must fail where
it enters storage — with ``CodecError`` naming its type — before any state
changes: no physical copy, no replication-log entry, no CONTRACT record.
"""

import pytest

from repro import codec
from repro.config import BackendConfig, StoreConfig
from repro.core.entities import controller, data_subject
from repro.core.policy import Policy, Purpose
from repro.distributed.store import ReplicatedStore
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.systems.backends import make_backend
from repro.systems.database import CompliantDatabase

BACKENDS = ["psql", "lsm", "crypto-shred"]
REJECTED = "cannot encode a value of type 'object'"


def make_cost():
    return CostModel(SimClock(), CostBook())


@pytest.mark.parametrize("backend", BACKENDS)
def test_bare_backend_refuses_before_storing(backend):
    cost = make_cost()
    b = make_backend(backend, cost)
    with pytest.raises(codec.CodecError, match=REJECTED):
        b.insert("k", object())
    assert cost.clock.now == 0  # refused before any work was charged
    assert not b.physically_present("k")
    assert b.copy_locations("k") == []

    b.insert("k", "v")
    before = (b.forensic_scan(), b.copy_locations("k"), b.stats())
    with pytest.raises(codec.CodecError, match=REJECTED):
        b.update("k", object())
    # No new version anywhere: same tuples, same copy sites, same bytes.
    assert (b.forensic_scan(), b.copy_locations("k"), b.stats()) == before
    assert b.read("k") == "v"


@pytest.mark.parametrize("backend", BACKENDS)
def test_bare_backend_refuses_a_partly_bad_batch_whole(backend):
    cost = make_cost()
    b = make_backend(backend, cost)
    with pytest.raises(codec.CodecError, match=REJECTED):
        b.insert_many([("a", 1), ("b", object())])
    assert cost.clock.now == 0  # refused before any work was charged
    assert not b.physically_present("a")
    assert b.copy_locations("a") == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_replicated_store_put_refuses_before_logging(backend):
    store = ReplicatedStore.from_config(
        make_cost(),
        StoreConfig(backend=BackendConfig(backend=backend), shards=2, n_replicas=1),
    )
    with pytest.raises(codec.CodecError, match=REJECTED):
        store.put("k", object())
    assert store.copies_of("k") == []
    sid = store.shard_of("k")
    assert store.replication_backlog(0, shard=sid) == 0


def _database(backend):
    db = CompliantDatabase(controller("acme"), backend=backend)
    subject = data_subject("alice")
    policies = [Policy(Purpose.SERVICE, db.controller, 0, 10**9)]
    return db, subject, policies


def _nothing_left(db, unit_ids):
    assert all(unit_id not in db.model for unit_id in unit_ids)
    assert db.log.record_count == 0  # no CONTRACT (nor CREATE) recorded
    assert not any(db.physically_present(unit_id) for unit_id in unit_ids)


@pytest.mark.parametrize("backend", BACKENDS)
def test_collect_refuses_before_the_contract(backend):
    db, subject, policies = _database(backend)
    with pytest.raises(codec.CodecError, match=REJECTED):
        db.collect("u1", subject, "signup", object(), policies)
    _nothing_left(db, ["u1"])
    db.collect("u1", subject, "signup", {"ok": 1}, policies)  # the id is free
    assert db.read("u1", db.controller, Purpose.SERVICE) == {"ok": 1}


@pytest.mark.parametrize("backend", BACKENDS)
def test_collect_many_refuses_the_whole_batch(backend):
    db, subject, policies = _database(backend)
    records = [
        ("u1", subject, "signup", {"ok": 1}, policies),
        ("u2", subject, "signup", object(), policies),
    ]
    with pytest.raises(codec.CodecError, match=REJECTED):
        db.collect_many(records)
    _nothing_left(db, ["u1", "u2"])
