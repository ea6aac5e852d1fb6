"""Differential: this checkout's psql, lsm or crypto-shred backend against a parent.

    python tests/differential/vs_parent.py --backend psql|lsm|crypto-shred --against /path/to/parent
    python tests/differential/vs_parent.py --backend psql|lsm|crypto-shred --against HEAD~1

replays one seeded 6 000-op sequence per leg on both source trees (a child
process each — both define ``repro``) and compares the transcripts: every
read, erase report and ``copies_of`` answer, what the backend holds at rest,
the final ``SimClock``.  Prints the first diverging line and exits 1, or the
transcript's SHA-256.  Not collected by pytest.  ``--against`` takes a
checkout, or a git ref of this repository, exported (``git archive``) to a
temporary directory that is removed on exit; ``--against HEAD`` on a clean
tree is a self-check that the transcript is deterministic across processes.

* psql, bare leg — one ``PsqlBackend``; ``reclaim()`` ("delete": VACUUM)
  interleaved with ``reclaim_full()`` ("strong delete": VACUUM FULL); after
  every erase, the table's heap image, WAL size and records, B-tree leaf
  chain and depth.
* lsm, bare leg — one ``LsmBackend``; ``reclaim()`` ("delete": victim
  compaction) interleaved with ``reclaim_full()`` ("strong delete": full
  compaction); after every erase, each run's ``table_id``, a digest of its
  ``packed_block`` and one of its index (each entry's seqno and blob length,
  from ``entries_encoded()`` — no layout internals).
* crypto-shred, bare leg — one ``CryptoShredBackend``; ``reclaim()`` (key
  shred), ``reclaim_full()`` (shred + space release) and ``sanitize_many``
  ("permanently delete") interleaved with re-inserts over dead units.
* store leg — ``ReplicatedStore``, 3 shards x 1 replica: naive deletes,
  grounded single and batch erases.  lsm records every node's runs at the
  end; psql and crypto-shred record every node's bytes at rest after every
  erase.

Bytes at rest on psql: a SHA-256 over the heap image in ``scan_all()``
order (each tuple's TID, key, liveness, ``payload_size`` and payload
``repr``, dead tuples included), the WAL's ``size_bytes``, a SHA-256 over
the WAL records in LSN order (each record's LSN, type, key,
``payload_size`` and payload ``repr``, or "scrubbed" once redacted), a
SHA-256 over the B-tree leaf chain (each entry's key, TID and liveness,
dead entries included), and the B-tree's depth.

Bytes at rest on crypto-shred: a SHA-256 over every sector group's raw
sectors in sector order, and one over the vault's key table (each id's
master key, or "shredded") — identical transcripts mean identical
ciphertext.
"""

import argparse
import contextlib
import hashlib
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
OPS, KEYS = 6_000, 500
ENGINE = {"memtable_capacity": 48, "tier_threshold": 3}


def _leaf_chain(index):
    """The B-tree's leaf entries left to right, dead ones included."""
    node = index._root
    while hasattr(node, "children"):
        node = node.children[0]
    while node is not None:
        yield from node.entries
        node = node.next


def _at_rest(tag, backend):
    """What a forensic scan of the backend's storage reads, as digests."""
    if backend.name == "psql":
        table = backend.engine._catalog.get(backend.table)
        heap = hashlib.sha256()
        for tid, slot in table.heap.scan_all():
            heap.update(
                f"{tid}|{slot.key!r}|{slot.live}|{slot.payload_size}|"
                f"{slot.payload!r};".encode()
            )
        leaves = hashlib.sha256()
        for entry in _leaf_chain(table.index):
            leaves.update(f"{entry.key!r}|{entry.tid}|{entry.live};".encode())
        wal = hashlib.sha256()
        for r in backend.engine.wal.records():
            image = "scrubbed" if r.payload is None else repr(r.payload)
            wal.update(f"{r.lsn}|{r.type.value}|{r.key!r}|{r.payload_size}|{image};".encode())
        yield (
            f"{tag} heap {heap.hexdigest()} wal={backend.engine.wal.size_bytes} "
            f"{wal.hexdigest()} index {leaves.hexdigest()} depth={table.index.depth}"
        )
        return
    if backend.name == "lsm":
        for level, table in backend.engine.tables_by_level():
            block = hashlib.sha256(table.packed_block).hexdigest()
            index = hashlib.sha256()
            for _key, seqno, blob in table.entries_encoded():
                index.update(b"%d:%d;" % (seqno, len(blob)))
            yield (
                f"{tag} L{level} sst-{table.table_id} n={len(table)} {block} "
                f"index {index.hexdigest()}"
            )
        return
    sectors = hashlib.sha256()
    for group in backend._groups:
        for slot in range(group.capacity):
            for sector_no in group.slot_sector_numbers(slot):
                sectors.update(b"%d/%d:" % (group.group_id, sector_no))
                sectors.update(group.raw_sector(sector_no))
    keys = hashlib.sha256()
    for key_id, key in sorted(backend._vault._keys.items()):
        keys.update(b"%d:%s;" % (key_id, b"shredded" if key is None else key))
    yield f"{tag} sectors {sectors.hexdigest()} keys {keys.hexdigest()}"


def _attempt(call, key):
    """``call(key)``'s result, or the name of the storage error it raises
    (a dead key's read, a live key's re-insert on crypto-shred)."""
    from repro.storage.errors import StorageError
    try:
        return call(key)
    except StorageError as exc:
        return type(exc).__name__


def _batch(key):
    """The key and its three neighbours — one grounded batch."""
    return [f"unit-{(int(key[5:]) + i) % KEYS:04d}" for i in range(4)]


def _sequence(rng):
    """``(op, key, value)`` draws: every key collected once, then the mix."""
    ops = ["collect"] * 26 + ["read"] * 24 + ["update"] * 32 + ["delete"] * 6
    ops += ["erase"] * 6 + ["erase_batch"] * 2 + ["strong"] * 1
    for n in range(OPS):
        key = f"unit-{n if n < KEYS else rng.randrange(KEYS):04d}"
        value = {"unit": key, "v": rng.random(), "pad": "x" * rng.randrange(60)}
        yield "collect" if n < KEYS else rng.choice(ops), key, value


def bare_leg(name, seed):
    from repro.sim.clock import SimClock
    from repro.sim.costs import CostBook, CostModel
    from repro.systems.backends import CryptoShredBackend, LsmBackend, PsqlBackend

    clock = SimClock()
    cost = CostModel(clock, CostBook())
    backend = {
        "psql": lambda: PsqlBackend(cost),
        "lsm": lambda: LsmBackend(cost, **ENGINE),
        "crypto-shred": lambda: CryptoShredBackend(cost),
    }[name]()
    for n, (op, key, value) in enumerate(_sequence(random.Random(seed))):
        if op == "collect":
            _attempt(lambda k: backend.insert(k, value), key)
        elif op == "read":
            yield f"{n} read {key} {_attempt(backend.read, key)!r}"
        elif op == "update":
            _attempt(lambda k: backend.update(k, value), key)
        elif op == "erase_batch" and name == "crypto-shred":
            batch = _batch(key)
            yield f"{n} sanitize {batch} {backend.sanitize_many(batch)}"
            yield from (f"{n} {k} sites={backend.copy_sites(k)}" for k in batch)
            yield from _at_rest(f"{n}", backend)
        else:
            _attempt(backend.delete, key)
            if op == "delete":
                continue
            removed = (backend.reclaim_full if op == "strong" else backend.reclaim)()
            yield f"{n} {op} {key} removed={removed} sites={backend.copy_sites(key)}"
            yield from _at_rest(f"{n}", backend)
    yield f"bare clock {clock.now} stats {backend.stats()!r}"


def store_leg(name, seed):
    from repro.config import BackendConfig, StoreConfig
    from repro.distributed.store import ReplicatedStore
    from repro.sim.clock import SimClock
    from repro.sim.costs import CostBook, CostModel

    clock = SimClock()
    opts = ENGINE if name == "lsm" else {}
    config = StoreConfig(
        backend=BackendConfig(backend=name, **opts), shards=3, n_replicas=1
    )
    store = ReplicatedStore.from_config(CostModel(clock, CostBook()), config)
    rng = random.Random(seed)
    for n, (op, key, value) in enumerate(_sequence(rng)):
        if op == "collect":
            _attempt(lambda k: store.put(k, value), key)
        elif op == "read":
            replica = rng.choice([None, 0])
            got = _attempt(lambda k: store.read(k, replica=replica), key)
            yield f"{n} read {key} via={replica} {got!r}"
        elif op == "update":
            _attempt(lambda k: store.update(k, value), key)
        elif op == "delete":
            _attempt(store.naive_delete, key)
            yield f"{n} naive {key} {store.copies_of(key)!r}"
        elif op == "erase":
            yield f"{n} {store.erase_all_copies(key)!r} {store.copies_of(key)!r}"
        else:  # one grounded batch: the key and its neighbours
            batch = _batch(key)
            yield f"{n} {store.erase_many(batch)!r}"
            yield from (f"{n} {k} {store.copies_of(k)!r}" for k in batch)
        if name != "lsm" and op in ("erase", "erase_batch", "strong"):
            for node in store.nodes():
                yield from _at_rest(f"{n} {node.name}", node.backend)
        clock.advance_to(clock.now + rng.randrange(40_000))
    for node in store.nodes():
        yield from _at_rest(node.name, node.backend)
        yield f"{node.name} stats {node.backend.stats()!r}"
    yield f"store clock {clock.now}"


def transcript(checkout, name, seed):
    # Pinned hash seed: Bloom false positives (charged probes) follow hash(bytes).
    argv = [
        sys.executable, __file__, "--emit", str(checkout),
        "--backend", name, "--seed", str(seed),
    ]
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True, env=env)
    return done.stdout.splitlines()


def parent_tree(against, stack):
    """``against`` itself when it is a checkout holding ``src/repro``, else
    that git ref of this repository exported to a temporary directory the
    ``stack`` removes; None when git cannot resolve it."""
    if (Path(against) / "src" / "repro").is_dir():
        return Path(against)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", against],
        stdout=subprocess.PIPE,
    )
    if archive.returncode:
        return None
    tree = stack.enter_context(tempfile.TemporaryDirectory(prefix="vs-parent-"))
    subprocess.run(["tar", "-x", "-C", tree], input=archive.stdout, check=True)
    return Path(tree)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--against", help="a checkout of the parent, or a git ref of this repository"
    )
    parser.add_argument("--emit", type=Path, help="print one checkout's transcript")
    parser.add_argument("--backend", choices=("psql", "lsm", "crypto-shred"), default="lsm")
    parser.add_argument("--seed", type=int, default=23)
    args = parser.parse_args()
    if args.emit:
        sys.path.insert(0, str(args.emit / "src"))
        name, seed = args.backend, args.seed
        print(*bare_leg(name, seed), *store_leg(name, seed), sep="\n")
        return 0
    with contextlib.ExitStack() as stack:
        parent = args.against and parent_tree(args.against, stack)
        if not parent:
            parser.error("--against must name a checkout holding src/repro or a git ref")
        ours = transcript(ROOT, args.backend, args.seed)
        theirs = transcript(parent, args.backend, args.seed)
    for n, (a, b) in enumerate(zip(ours + [None], theirs + [None])):
        if a != b:
            print(f"first divergence at line {n}:\n  change: {a}\n  parent: {b}")
            return 1
    digest = hashlib.sha256("\n".join(ours).encode()).hexdigest()
    print(
        f"identical: {len(ours)} lines, {args.backend}, seed {args.seed}, "
        f"sha256 {digest}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
