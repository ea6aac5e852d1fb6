"""Deterministic performance bounds, each at the configuration it was
measured at.

Every number here is simulated time or a byte count, so it does not depend
on the machine.  It can depend on the hash seed: LSM Bloom probes follow the
salted ``hash(bytes)``, so the LSM read-path values move a little between
processes.  Each docstring gives the bound and the value measured at its
configuration under ``PYTHONHASHSEED=0``; a change that moves a value past
its bound must say why in the same commit.  Wall-clock cost is the measurement
spine's job (``benchmarks/spine/``), not this file's.
"""

import pickle

import pytest

from repro import codec
from repro.analysis.invariants import store_invariants
from repro.config import BackendConfig, StoreConfig
from repro.core.entities import controller, data_subject
from repro.core.erasure import ErasureInterpretation
from repro.core.invariants import World, check_invariants
from repro.core.policy import Policy, Purpose
from repro.core.provenance import DependencyKind
from repro.distributed.store import ReplicatedStore
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.systems.backends import BackendGroup, LsmBackend, make_backend
from repro.systems.database import CompliantDatabase

BACKENDS = ("psql", "lsm", "crypto-shred")


def make_cost():
    return CostModel(SimClock(), CostBook())


def loaded_store(backend, shards, n_keys, n_replicas=1):
    """``n_keys`` values over ``shards``, replicas caught up and caches
    warm: every copy site populated before anything is measured."""
    cost = make_cost()
    store = ReplicatedStore(
        cost,
        StoreConfig(
            backend=BackendConfig(backend=backend),
            shards=shards,
            n_replicas=n_replicas,
            replication_lag=50_000,
            cache_ttl=10**12,
        ),
    )
    for i in range(n_keys):
        store.put(f"u{i:06d}", (i, "payload"))
    cost.clock.charge(60_000, "idle")
    for i in range(n_keys):
        store.read(f"u{i:06d}", replica=0)
    return store, cost


# -- Table 1, batch erase at 200 units ---------------------------------------

GRID = [
    (backend, interpretation)
    for backend in BACKENDS
    for interpretation in (
        ErasureInterpretation.REVERSIBLY_INACCESSIBLE,
        ErasureInterpretation.DELETED,
        ErasureInterpretation.STRONGLY_DELETED,
    )
] + [("crypto-shred", ErasureInterpretation.PERMANENTLY_DELETED)]


@pytest.mark.parametrize(
    "backend,interpretation", GRID, ids=[f"{b}-{i.label}" for b, i in GRID]
)
def test_table1_batch_erase_retention(backend, interpretation):
    """200 units (every tenth with a derived identifying copy), the first
    100 batch-erased: the reversible grounding keeps all 100 recoverable,
    every physical one none — "permanently delete" included, which only
    crypto-shred grounds (``test_cross_backend.py`` pins the refusal on
    psql and lsm)."""
    metaspace, user = controller("MetaSpace"), data_subject("user-1")
    policy = [Policy(Purpose.SERVICE, metaspace, 0, 10**12)]
    db = CompliantDatabase(metaspace, backend=backend)
    db.collect_many(
        ((f"u{i:06d}", user, "app", {"i": i}, policy) for i in range(200)),
        erase_deadline=10**12,
    )
    for i in range(0, 200, 10):
        db.derive_unit(
            f"u{i:06d}-cache", [f"u{i:06d}"], {"i": i}, metaspace, Purpose.SERVICE,
            kind=DependencyKind.COPY, invertible=True, identifying=True,
        )
    victims = [f"u{i:06d}" for i in range(100)]
    start = db.clock.now
    db.erase_many(victims, interpretation=interpretation)
    assert db.clock.now > start
    retained = sum(db.physically_present(uid) for uid in victims)
    reversible = interpretation is ErasureInterpretation.REVERSIBLY_INACCESSIBLE
    assert retained == (100 if reversible else 0)


# -- LSM read path ------------------------------------------------------------

def test_block_cache_cuts_the_read_phase():
    """200 rows, 800 reads, four in five on a hot tenth: the 1 024-entry
    block cache makes the identical read phase cheaper (measured 3.403 s
    off, 0.295 s on, 741 hits)."""
    seconds, hits = {}, {}
    for capacity in (0, 1_024):
        cost = make_cost()
        backend = LsmBackend(cost, memtable_capacity=64, block_cache_capacity=capacity)
        backend.insert_many((f"u{i:06d}", (i, "payload")) for i in range(200))
        start = cost.clock.now
        for i in range(800):
            backend.read(f"u{(i * 7919) % 200:06d}" if i % 5 == 0 else f"u{(i * 31) % 20:06d}")
        seconds[capacity] = cost.clock.now - start
        hits[capacity] = backend.engine.cache_hits
    assert hits[0] == 0 and hits[1_024] > 0
    assert seconds[1_024] < seconds[0]


def shared_cache_rates(layout):
    """Four tenants of 200 rows under one 125-entry cache budget, pooled
    ("shared") or split in four; tenant 0 takes ~70 % of 2 000 reads over
    its hot half.  Returns warm ``(mixed, hot)`` reads per simulated s."""
    cost = make_cost()
    if layout == "shared":
        config = BackendConfig(backend="lsm", block_cache_capacity=125, memtable_capacity=32)
        group = BackendGroup("lsm", cost, engine_opts=config)
        stores = [group.create(f"tenant-{k}", 70) for k in range(4)]
    else:
        stores = [
            LsmBackend(
                cost, memtable_capacity=32, block_cache_capacity=31, namespace=f"tenant-{k}"
            )
            for k in range(4)
        ]
    for store in stores:
        store.insert_many((f"u{i:06d}", (i, "payload")) for i in range(200))
    mix = [
        (0, f"u{(i * 31) % 100:06d}")
        if (i * 2654435761) % 10 < 7
        else (1 + i % 3, f"u{(i * 7919) % 200:06d}")
        for i in range(2_000)
    ]
    hot = [f"u{(i * 31) % 100:06d}" for i in range(2_000)]
    rates = []
    for reads in (mix, [(0, key) for key in hot]):
        for ns, key in reads:  # warm pass
            stores[ns].read(key)
        start = cost.clock.now
        for ns, key in reads:
            stores[ns].read(key)
        rates.append(len(reads) * 1e6 / (cost.clock.now - start))
    return tuple(rates)


def test_pooled_block_cache_beats_split_slices():
    """The pooled budget serves the skewed mix >= 2x faster than four
    private slices (measured 747 vs 232 reads/s, 3.22x), and warm hot
    reads clear 10 000/s and 2x the 2 708/s of the private-cache design
    it replaced (measured 12 346/s)."""
    split_mixed, _ = shared_cache_rates("split")
    shared_mixed, shared_hot = shared_cache_rates("shared")
    assert shared_mixed / split_mixed >= 2.0
    assert shared_hot >= 10_000
    assert shared_hot >= 2 * 2_708


# -- Bytes at rest ---------------------------------------------------------------

def test_codec_is_smaller_than_pickle_on_the_value_mix():
    """4 000 values in the storage path's four shapes encode to <= 0.9x
    their per-value pickle bytes (measured 208 445 vs 255 258, 0.817)."""
    def value(i):
        shapes = (
            {"id": i, "field0": "x" * 40, "field1": i * 17, "ts": i * 1.5},
            (i, f"payload-{i}", i * 1.5),
            "v" * 64 + str(i),
            [i, i + 1, "tag", None, True],
        )
        return shapes[i % 4]

    values = [value(i) for i in range(4_000)]
    encoded = sum(map(len, codec.encode_many(values)))
    pickled = sum(len(pickle.dumps(v, protocol=5)) for v in values)
    assert encoded / pickled <= 0.9


def test_crypto_shred_space_factor_and_batched_shred():
    """500 ten-field rows (~402 B encoded): crypto-shred stores <= 1.8x the
    psql heap's bytes (measured 1.269x), and a batched key shred costs
    <= 1/25 of a single one per unit (measured 170x cheaper)."""
    def row(i):
        return {f"field{f}": f"{i:06d}-" + "v" * 23 for f in range(10)}

    row_bytes = len(codec.encode(row(0)))
    cost = make_cost()
    psql = make_backend("psql", cost, row_bytes=row_bytes)
    crypto = make_backend("crypto-shred", cost, row_bytes=row_bytes)
    items = [(f"u{i:06d}", row(i)) for i in range(500)]
    psql.insert_many(items)
    psql.commit()
    crypto.insert_many(items)
    space_factor = crypto.stats().total_bytes / psql.stats().total_bytes
    start = cost.clock.now
    crypto.erase("u000000")
    single_us = cost.clock.now - start
    batch = [f"u{i:06d}" for i in range(1, 250)]
    start = cost.clock.now
    crypto.erase_many(batch)
    batched_speedup = single_us / ((cost.clock.now - start) / len(batch))
    assert space_factor <= 1.8
    assert batched_speedup >= 25


# -- Erase between flush-triggered merges ------------------------------------

def test_flush_merges_stay_bounded_with_erases_mid_ingest():
    """Two leveled lsm shards with 32-entry memtables ingest 2 000 keys;
    in the second half a grounded erase follows every 128th put.  No single
    put's flush and merge cascade rewrites more than 13 000 B over the four
    nodes (measured 10 584), merges run between every two erases, every
    erase leaves no copy — then and after the rest of the ingest — and the
    invariant oracle stays silent."""
    store = ReplicatedStore(
        make_cost(),
        StoreConfig(
            n_replicas=1,
            replication_lag=10_000,
            cache_ttl=10**12,
            shards=2,
            backend=BackendConfig(backend="lsm", compaction="leveled", memtable_capacity=32),
        ),
    )
    world = World.observe(store)

    def node_total(name):
        return sum(getattr(node.backend.engine, name) for node in store.nodes())

    steps, merges_at_erase, victims, violations = [], [], [], []
    for i in range(2_000):
        before = node_total("bytes_compacted")
        store.put(f"u{i:06d}", (i, "payload"))
        steps.append(node_total("bytes_compacted") - before)
        world.record_write(f"u{i:06d}")
        if i >= 1_000 and (i + 1) % 128 == 0 and len(victims) < 8:
            victim = f"u{i - 64:06d}"
            merges_at_erase.append(node_total("merges_run"))
            world.record_erase(victim, store.erase_all_copies(victim))
            victims.append(victim)
            assert store.copies_of(victim) == []
            violations.extend(check_invariants(world, store_invariants()).violations)
    violations.extend(check_invariants(world, store_invariants()).violations)
    assert max(steps) <= 13_000
    assert len(victims) == 8 and violations == []
    assert all(a < b for a, b in zip(merges_at_erase, merges_at_erase[1:]))
    assert all(store.copies_of(victim) == [] for victim in victims)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_erase_between_flush_merges_leaves_nothing(backend_name):
    """An erase after every 16 inserts (on lsm, each batch flushes a
    16-entry memtable and runs its merges), and the inserts after the last
    erase, leave no victim tracked or present."""
    opts = {"memtable_capacity": 16} if backend_name == "lsm" else {}
    backend = make_backend(backend_name, make_cost(), **opts)
    backend.insert_many((f"u{i:04d}", (i, "payload")) for i in range(96))
    victims = [f"u{i:04d}" for i in range(0, 96, 16)]
    next_key = 96
    for victim in victims + [None]:
        backend.insert_many(
            (f"u{i:04d}", (i, "payload")) for i in range(next_key, next_key + 16)
        )
        next_key += 16
        if victim is None:
            break
        backend.erase(victim)
        assert backend.copy_locations(victim) == []
        assert not backend.physically_present(victim)
    if backend_name == "lsm":
        assert backend.engine.merges_run > 0
    for victim in victims:
        assert backend.copy_sites(victim) == [] and backend.copy_locations(victim) == []
        assert not backend.physically_present(victim)


# -- Sharded store -------------------------------------------------------------

@pytest.mark.parametrize(
    "backend,shard_counts,n_keys",
    [("psql", (1, 2, 4), 120), ("lsm", (1, 2, 4), 120), ("crypto-shred", (2,), 60)],
)
def test_batch_erase_amortizes_per_node(backend, shard_counts, n_keys):
    """Half the keys erased one by one vs in one ``erase_many``: the batch
    reclaims once per node (not per key), costs less simulated time
    (psql 0.70 vs 21.84 s on one shard, crypto-shred 0.051 vs 0.733 s;
    lsm ties at 0.036 s, a victim compaction charging per entry), and its
    slowest shard finishes sooner as shards grow (psql 85 -> 141 keys/s,
    lsm 1 681 -> 5 307 from 1 to 4 shards)."""
    victims = [f"u{i:06d}" for i in range(n_keys // 2)]
    throughput = []
    for shards in shard_counts:
        store, cost = loaded_store(backend, shards, n_keys)
        start = cost.clock.now
        for key in victims:
            store.erase_all_copies(key)
        per_key_seconds = (cost.clock.now - start) / 1e6
        store, _ = loaded_store(backend, shards, n_keys)
        report = store.erase_many(victims)
        assert report.verified_clean
        assert report.reclamations == report.shards_touched * 2 < len(victims) * 2
        if backend == "lsm":
            assert sum(report.shard_seconds) <= per_key_seconds
        else:
            assert sum(report.shard_seconds) < per_key_seconds
        throughput.append(len(victims) / max(report.shard_seconds))
    assert len(throughput) == 1 or throughput[-1] > throughput[0]


@pytest.mark.parametrize("backend", ["psql", "lsm"])
def test_read_cost_orders_one_quorum_all(backend):
    """80 keys, one shard, two warm replicas: a read at ``one`` costs less
    than at ``quorum``, which costs no more than at ``all`` (psql 8 226 /
    16 452 / 24 678 µs, lsm 75 / 150 / 225 µs per read)."""
    store, cost = loaded_store(backend, 1, 80, n_replicas=2)
    keys = [f"u{i:06d}" for i in range(80)]
    for key in keys:
        for replica in range(2):
            store.read(key, replica=replica, use_cache=False)
    mean_us = {}
    for level in ("one", "quorum", "all"):
        start = cost.clock.now
        for key in keys:
            store.read(key, use_cache=False, consistency=level)
        mean_us[level] = (cost.clock.now - start) / len(keys)
    assert mean_us["one"] < mean_us["quorum"] <= mean_us["all"]
