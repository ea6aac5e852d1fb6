"""The spine's four workloads: frozen sizes, seeded op streams, a digest.

Why each exists is ``BENCHMARK.json``'s ``why`` and the README's table.

Sizes are constants, never adapted at run time; ``--scale`` exists only so
the smoke test can run a miniature.  What varies between runs on one
commit is how many ops fit in the measured window, nothing else.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.config import BackendConfig
from repro.workloads.zipf import ZipfianSampler

from spine.check import COLLECT, ERASE, READ, UPDATE, ClientModel, key_name

#: Load-generator threads (and HTTP connections).  The box has 2 cores.
CLIENTS = 2

#: A client keeps at least this many live keys, so a stream never reads an
#: empty key set; the main phase also leaves the erase tail this many
#: victims above the floor.  At either limit an erase slot degrades to a
#: collect (``build_mixed_workload``'s rule).
LIVE_FLOOR = 8
TAIL_RESERVE = 24

ZIPF_THETA = 0.99

#: Ops per client hashed into the op-sequence digest.
DIGEST_OPS = 1000

Op = Tuple[str, int, Any]  # (kind, key index, value to write / expect)


@dataclass(frozen=True)
class Workload:
    name: str
    backend: BackendConfig
    records: int
    #: ``(kind, weight)`` — the main-phase request mix.
    mix: Tuple[Tuple[str, float], ...]
    #: Reads/updates pick keys zipfian (``ZIPF_THETA``) instead of uniformly.
    zipf: bool
    http: bool = False
    #: Open loop at this many requests/s over all clients; ``None`` is a
    #: closed loop (each client waits for its reply).
    rate: Optional[float] = None
    #: Share of the measured window the main phase gets; the erase tail
    #: gets the rest.
    main_share: float = 0.7
    #: The main phase also ends after this many ops (all clients together):
    #: where what follows depends on how much was written, the amount must
    #: not depend on how fast the machine happened to be.
    main_op_cap: Optional[int] = None
    #: Also time ``erase_all_copies`` against ``naive_delete`` on twin
    #: stores (the traced run's ``grounding_tax``).
    twin_pass: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ycsb_c",
            # 256 cached values per node; reads hit the 3 primaries.
            backend=BackendConfig(backend="lsm", block_cache_capacity=256),
            records=20_000,
            mix=((READ, 1.0),),
            zipf=True,
        ),
        Workload(
            name="erasure_study",
            backend=BackendConfig(backend="psql"),
            records=8_000,
            mix=((READ, 0.8), (ERASE, 0.2)),
            zipf=False,
            # What the erases before it left (records, dead tuples, WAL
            # since the last checkpoint) decides an erase's cost and
            # ``space_amp``.  4 400 ops take 9–14 s of the 16.8 s allowed.
            main_op_cap=4_400,
            twin_pass=True,
        ),
        Workload(
            name="ingest_update",
            backend=BackendConfig(backend="lsm"),
            records=5_000,
            mix=((COLLECT, 0.5), (UPDATE, 0.5)),
            zipf=True,
            # An erase after this churn costs ~5000 writes; the tail needs
            # the larger share to see a few dozen of them.  60 000 writes
            # take ~5.5 s of the 8.4 s the share allows.
            main_share=0.35,
            main_op_cap=60_000,
        ),
        Workload(
            name="http_mixed",
            backend=BackendConfig(backend="crypto-shred"),
            records=5_000,
            mix=((READ, 0.7), (UPDATE, 0.2), (COLLECT, 0.05), (ERASE, 0.05)),
            zipf=True,
            http=True,
            # ISSUE 13 says 300: that keeps the service 53 % busy at this
            # box's nominal speed and saturates it when the VM slows 1.8×;
            # the backlog of those seconds then reaches the median.
            rate=200.0,
        ),
    )
}


def scaled_records(workload: Workload, scale: float) -> int:
    return max(4 * CLIENTS * (LIVE_FLOOR + TAIL_RESERVE), int(workload.records * scale))


def _client_seed(seed: int, client: int, stream: int) -> int:
    return (seed * 1_000_003 + client) * 7 + stream


def op_stream(
    workload: Workload, model: ClientModel, seed: int, client: int
) -> Iterator[Op]:
    """This client's main-phase ops, forever.  Generating an op advances
    ``model``, so generate one only when it will be sent."""
    rng = random.Random(_client_seed(seed, client, 0))
    kinds = [k for k, _w in workload.mix]
    cum = []
    total = 0.0
    for _k, weight in workload.mix:
        total += weight
        cum.append(total)
    n0 = len(model.live)
    zipf = (
        ZipfianSampler(n0, ZIPF_THETA, seed=_client_seed(seed, client, 1))
        if workload.zipf
        else None
    )
    live = model.live
    while True:
        kind = kinds[bisect.bisect_left(cum, rng.random() * total)]
        if kind == ERASE and len(live) <= LIVE_FLOOR + TAIL_RESERVE:
            kind = COLLECT
        if kind == COLLECT:
            index = model.collect()
            yield COLLECT, index, model.value(index)
        elif kind == ERASE:
            index = live[rng.randrange(len(live))]
            model.erase(index)
            yield ERASE, index, None
        else:
            if zipf is not None:
                # Ranks stretch over the live list as it grows or shrinks;
                # rank 0 (the hottest) stays at its head.
                index = live[zipf.sample() * len(live) // n0]
            else:
                index = live[rng.randrange(len(live))]
            if kind == READ:
                yield READ, index, model.value(index)
            else:
                yield UPDATE, index, model.update(index)


def erase_stream(model: ClientModel, seed: int, client: int) -> Iterator[Op]:
    """The erase tail: uniformly chosen victims until the floor."""
    rng = random.Random(_client_seed(seed, client, 2))
    live = model.live
    while len(live) > LIVE_FLOOR:
        index = live[rng.randrange(len(live))]
        model.erase(index)
        yield ERASE, index, None


def arrivals(rate: float, seed: int, client: int) -> Iterator[float]:
    """Seeded exponential inter-arrival offsets for one open-loop client."""
    rng = random.Random(_client_seed(seed, client, 3))
    due = 0.0
    while True:
        due += rng.expovariate(rate)
        yield due


def digest(workload: Workload, seed: int, scale: float) -> str:
    """SHA-256 over the first ``DIGEST_OPS`` main-phase ops of every
    client — same seed, same inputs."""
    records = scaled_records(workload, scale)
    sha = hashlib.sha256()
    for client in range(CLIENTS):
        model = ClientModel(client, CLIENTS, records)
        stream = op_stream(workload, model, seed, client)
        for _ in range(DIGEST_OPS):
            kind, index, value = next(stream)
            sha.update(f"{kind} {key_name(index)} {value!r}\n".encode())
    return sha.hexdigest()
