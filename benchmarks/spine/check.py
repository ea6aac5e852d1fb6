"""Output oracle for the spine: what every reply and the final state must be.

Each key is driven by exactly one client (``index % clients``), and a
client issues its next request only after the previous reply (closed loop)
or on its own connection in order (open loop), so per-key history is a
straight line: the last value the owning client wrote is the only value a
read may return.  :class:`ClientModel` is that history for one client —
the op generator (``workloads.op_stream``) draws keys from it and advances
it, so the expected reply travels inside each generated op.

:func:`judge` checks one reply; :func:`final_sweep` checks the end state
at store depth after the service closed: every live key reads back its
last value at consistency ``all``, erased keys are gone from every copy
site.  Anything that misses counts as a failed operation.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Sequence, Tuple

from repro.storage.errors import TupleNotFoundError

READ, UPDATE, COLLECT, ERASE = "read", "update", "collect", "erase"

#: ``copies_of`` scans the whole replication log per key, so the sweep
#: probes a seeded sample of the erased keys, not all of them.
ERASED_SAMPLE = 256

_PAD = "x" * 40


def key_name(index: int) -> str:
    return f"u{index:07d}"


def make_value(index: int, version: int) -> List[Any]:
    """The value of ``index`` after ``version`` updates.  A list of JSON
    scalars, so it reads back equal through the codec and through HTTP."""
    return [index, version, _PAD]


class ClientModel:
    """Keys one client owns: which are live, at which version, which it
    erased.  O(1) pick / erase via the swap-pop idiom (``KeyPool``'s)."""

    def __init__(self, client: int, clients: int, records: int) -> None:
        self._clients = clients
        self.live: List[int] = list(range(client, records, clients))
        self._pos: Dict[int, int] = {k: i for i, k in enumerate(self.live)}
        self.version: Dict[int, int] = dict.fromkeys(self.live, 0)
        self.erased: List[int] = []
        # First index past the preload that this client owns.
        self._next_new = records + (client - records) % clients

    def value(self, index: int) -> List[Any]:
        return make_value(index, self.version[index])

    def collect(self) -> int:
        index = self._next_new
        self._next_new += self._clients
        self._pos[index] = len(self.live)
        self.live.append(index)
        self.version[index] = 0
        return index

    def update(self, index: int) -> List[Any]:
        self.version[index] += 1
        return self.value(index)

    def erase(self, index: int) -> None:
        pos = self._pos.pop(index)
        last = self.live.pop()
        if last != index:
            self.live[pos] = last
            self._pos[last] = pos
        del self.version[index]
        self.erased.append(index)


Reply = Tuple[int, Any, Any]  # (status, value, verified_clean)


def judge(kind: str, expected: Any, reply: Reply) -> bool:
    """Whether one reply is the right answer to one op."""
    status, value, clean = reply
    if kind == READ:
        return status == 200 and value == expected
    if kind == ERASE:
        return status == 200 and clean is True
    if kind == COLLECT:
        return status == 201
    return status == 200


def final_sweep(
    store: Any, models: Sequence[ClientModel], seed: int
) -> Tuple[int, List[str]]:
    """Check the end state; returns ``(checks made, failure messages)``."""
    checked = 0
    failures: List[str] = []
    for model in models:
        for index in model.live:
            checked += 1
            key = key_name(index)
            try:
                got = store.read(key, use_cache=False, consistency="all")
            except TupleNotFoundError:
                failures.append(f"live key {key} reads 404")
                continue
            if got != model.value(index):
                failures.append(f"live key {key} reads {got!r}")
    erased = [i for model in models for i in model.erased]
    rng = random.Random(seed)
    for index in rng.sample(erased, min(ERASED_SAMPLE, len(erased))):
        checked += 1
        key = key_name(index)
        try:
            store.read(key, use_cache=False, consistency="all")
        except TupleNotFoundError:
            pass
        else:
            failures.append(f"erased key {key} still reads")
        copies = store.copies_of(key)
        if copies:
            failures.append(f"erased key {key} has copies {copies!r}")
    return checked, failures
