"""Differential: this checkout's lsm backend against a checkout of its parent.

    python tests/differential/lsm_vs_parent.py --against /path/to/parent

replays one seeded 6 000-op sequence per leg on both source trees (a child
process each — both define ``repro``) and compares the transcripts: every
read, erase report and ``copies_of`` answer, each run's ``table_id`` +
``packed_block`` digest, the final ``SimClock``.  Prints the first diverging
line and exits 1, or the transcript's SHA-256.  Not collected by pytest.

* bare leg — one ``LsmBackend``; ``reclaim()`` ("delete": victim compaction)
  interleaved with ``reclaim_full()`` ("strong delete": full compaction).
* store leg — ``ReplicatedStore``, 3 shards x 1 replica, deferred merges:
  naive deletes, grounded single and batch erases, ``maintain`` slices.
"""

import argparse
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

OPS, KEYS = 6_000, 500
ENGINE = {"memtable_capacity": 48, "tier_threshold": 3}


def _tables(tag, engine):
    for level, table in engine.tables_by_level():
        block = hashlib.sha256(table.packed_block).hexdigest()
        yield f"{tag} L{level} sst-{table.table_id} n={len(table)} {block}"


def _attempt(call, key):
    """``call(key)``'s result, or the name of the error a dead key raises."""
    from repro.storage.errors import TupleNotFoundError
    try:
        return call(key)
    except TupleNotFoundError as exc:
        return type(exc).__name__


def _sequence(rng):
    """``(op, key, value)`` draws: every key collected once, then the mix."""
    ops = ["collect"] * 26 + ["read"] * 24 + ["update"] * 32 + ["delete"] * 6
    ops += ["erase"] * 6 + ["erase_batch"] * 2 + ["strong"] * 1 + ["maintain"] * 3
    for n in range(OPS):
        key = f"unit-{n if n < KEYS else rng.randrange(KEYS):04d}"
        value = {"unit": key, "v": rng.random(), "pad": "x" * rng.randrange(60)}
        yield "collect" if n < KEYS else rng.choice(ops), key, value


def bare_leg(seed):
    from repro.sim.clock import SimClock
    from repro.sim.costs import CostBook, CostModel
    from repro.systems.backends import LsmBackend

    clock = SimClock()
    backend = LsmBackend(CostModel(clock, CostBook()), **ENGINE)
    for n, (op, key, value) in enumerate(_sequence(random.Random(seed))):
        if op == "collect":
            backend.insert(key, value)
        elif op == "read":
            yield f"{n} read {key} {_attempt(backend.read, key)!r}"
        elif op == "update":
            _attempt(lambda k: backend.update(k, value), key)
        elif op == "maintain":
            yield f"{n} maintain {backend.maintain(max_bytes=4096)}"
        else:
            _attempt(backend.delete, key)
            if op == "delete":
                continue
            removed = (backend.reclaim_full if op == "strong" else backend.reclaim)()
            yield f"{n} {op} {key} removed={removed} sites={backend.copy_sites(key)}"
            yield from _tables(f"{n}", backend.engine)
    yield f"bare clock {clock.now} stats {backend.stats()!r}"


def store_leg(seed):
    from repro.distributed.store import ReplicatedStore
    from repro.sim.clock import SimClock
    from repro.sim.costs import CostBook, CostModel

    clock = SimClock()
    store = ReplicatedStore(
        CostModel(clock, CostBook()), n_replicas=1, shards=3, backend="lsm",
        backend_opts={**ENGINE, "compaction_mode": "deferred"},
    )
    rng = random.Random(seed)
    for n, (op, key, value) in enumerate(_sequence(rng)):
        if op == "collect":
            store.put(key, value)
        elif op == "read":
            replica = rng.choice([None, 0])
            got = _attempt(lambda k: store.read(k, replica=replica), key)
            yield f"{n} read {key} via={replica} {got!r}"
        elif op == "update":
            _attempt(lambda k: store.update(k, value), key)
        elif op == "delete":
            _attempt(store.naive_delete, key)
            yield f"{n} naive {key} {store.copies_of(key)!r}"
        elif op == "maintain":
            yield f"{n} maintain {store.maintain(max_bytes=4096)}"
        elif op == "erase":
            yield f"{n} {store.erase_all_copies(key)!r} {store.copies_of(key)!r}"
        else:  # one grounded batch: the key and its neighbours
            batch = [f"unit-{(int(key[5:]) + i) % KEYS:04d}" for i in range(4)]
            yield f"{n} {store.erase_many(batch)!r}"
            yield from (f"{n} {k} {store.copies_of(k)!r}" for k in batch)
        clock.advance_to(clock.now + rng.randrange(40_000))
    for node in store.nodes():
        yield from _tables(node.name, node.engine)
        yield f"{node.name} stats {node.backend.stats()!r}"
    yield f"store clock {clock.now}"


def transcript(checkout, seed):
    # Pinned hash seed: Bloom false positives (charged probes) follow hash(bytes).
    argv = [sys.executable, __file__, "--emit", str(checkout), "--seed", str(seed)]
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True, env=env)
    return done.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="a checkout of the parent")
    parser.add_argument("--emit", type=Path, help="print one checkout's transcript")
    parser.add_argument("--seed", type=int, default=23)
    args = parser.parse_args()
    if args.emit:
        sys.path.insert(0, str(args.emit / "src"))
        print(*bare_leg(args.seed), *store_leg(args.seed), sep="\n")
        return 0
    if not args.against or not (args.against / "src" / "repro").is_dir():
        parser.error("--against must name a checkout holding src/repro")
    ours = transcript(Path(__file__).resolve().parents[2], args.seed)
    theirs = transcript(args.against, args.seed)
    for n, (a, b) in enumerate(zip(ours + [None], theirs + [None])):
        if a != b:
            print(f"first divergence at line {n}:\n  change: {a}\n  parent: {b}")
            return 1
    digest = hashlib.sha256("\n".join(ours).encode()).hexdigest()
    print(f"identical: {len(ours)} lines, seed {args.seed}, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
