"""The per-shard replication log — append-only, queried per key.

Every mutation the primary accepts is appended here and shipped to the
replicas asynchronously; the log is therefore a copy location
(``CopyLocation.LOG``) a grounded erase must reach.  The erase asks three
things of it — does it still hold a value for this key, redact every value
it holds for this key, replay what a replica has not applied yet — and
none of them may cost a scan of the shard's whole write history.

Layout: parallel columns indexed by position, where ``position = seqno -
1`` (seqnos are dense and start at 1, so none is stored).  A valued entry
(PUT / UPDATE) also carries the position of the key's previous valued
entry, and ``_last_valued`` maps each key to its newest one: the key's
unscrubbed values form a chain walked in O(entries of that key).  A scrub
overwrites the value slot with :data:`SCRUBBED` (``None`` is a legitimate
value) and drops the key from ``_last_valued``, so a later re-put starts
a fresh chain and the scrubbed entries are never walked again.
"""

from __future__ import annotations

from array import array
from enum import Enum
from typing import Any, Dict, Iterator, KeysView, List, Optional, Tuple

from repro.core.locations import CopyLocation


class _OpType(Enum):
    PUT = "put"
    UPDATE = "update"
    DELETE = "delete"


#: What a valued entry's value slot holds once a grounded erase redacted
#: it (compared by identity — no stored value can be it); such an entry
#: replays as a no-op.
SCRUBBED: Any = object()


class ReplicationLog:
    """One shard's replication log."""

    #: The copy-site kind a key has here while :meth:`holds_value` is true.
    location = CopyLocation.LOG

    __slots__ = ("_ops", "_keys", "_values", "_ready_at", "_prev", "_last_valued")

    def __init__(self) -> None:
        self._ops: List[_OpType] = []
        self._keys: List[Any] = []
        self._values: List[Any] = []
        #: Model time at which a replica may apply the entry.
        self._ready_at = array("q")
        #: Position of the key's previous unscrubbed valued entry, or -1.
        self._prev = array("q")
        self._last_valued: Dict[Any, int] = {}

    def __len__(self) -> int:
        """Entries ever appended — equally the newest entry's seqno."""
        return len(self._ops)

    def append(self, op: _OpType, key: Any, value: Any, ready_at: int) -> None:
        prev = -1
        if op is not _OpType.DELETE:
            prev = self._last_valued.get(key, -1)
            self._last_valued[key] = len(self._ops)
        self._ops.append(op)
        self._keys.append(key)
        self._values.append(value)
        self._ready_at.append(ready_at)
        self._prev.append(prev)

    def holds_value(self, key: Any) -> bool:
        """Whether any entry still carries a value for ``key``."""
        return key in self._last_valued

    def valued_keys(self) -> KeysView[Any]:
        """Every key some entry still carries a value for."""
        return self._last_valued.keys()

    def scrub(self, key: Any) -> int:
        """Redact the value from every entry for ``key``; returns how many
        entries carried one.  DELETE entries never did and stay as they
        are, so the key's deletes still replay."""
        values, prev = self._values, self._prev
        at = self._last_valued.pop(key, -1)
        scrubbed = 0
        while at >= 0:
            values[at] = SCRUBBED
            at = prev[at]
            scrubbed += 1
        return scrubbed

    def scrub_all(self) -> int:
        """Redact every remaining value (a shard leaving the topology)."""
        return sum(self.scrub(key) for key in list(self._last_valued))

    def replay(
        self, applied: int, upto: Optional[int] = None
    ) -> Iterator[Tuple[_OpType, Any, Any, int]]:
        """``(op, key, value, ready_at)`` of the entries after seqno
        ``applied``, in order, through seqno ``upto`` (default: the end).
        A redacted value arrives as :data:`SCRUBBED`.  Lazy, so a caller
        that stops at the first entry not yet shippable pays for no more."""
        ops, keys, values, ready_at = (
            self._ops, self._keys, self._values, self._ready_at
        )
        stop = len(ops) if upto is None else min(upto, len(ops))
        for at in range(applied, stop):
            yield ops[at], keys[at], values[at], ready_at[at]
