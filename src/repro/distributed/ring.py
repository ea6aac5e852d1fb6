"""Consistent-hash ring — elastic, *weighted* shard routing with vnodes.

Static modulo routing (``hash(key) % shards``) reassigns almost *every* key
when the shard count changes: growing 4 → 5 shards moves ~80% of the
keyspace, and every moved key is a copy the compliance layer must track and
ground (§1 — a rebalance that silently copies values between sites is an
Art. 17 leak in waiting).  A consistent-hash ring bounds the blast radius:
each shard owns the arcs between its virtual nodes, so adding or removing
one shard relocates only the ~K/N keys whose arc changed hands, and every
surviving shard keeps its position.

**Weights** model heterogeneous capacity: a shard with weight 2.0
contributes twice the vnodes and therefore owns roughly twice the fair
share of the keyspace.  Changing only a weight is itself a topology change
— the planner diffs ownership the same way and migrates exactly the arcs
that changed hands, so a capacity upgrade rebalances online like a
shard-count change does.

The ring is deliberately immutable: topology changes produce a *new* ring
(:meth:`HashRing.with_nodes`), and the migration planner diffs old vs new
ownership key by key.  That makes **dual-routing** during an online
rebalance trivial — reads try ring-new first and fall back to ring-old,
writes to not-yet-copied keys stay at their ring-old source — because both
rings coexist until every move is grounded and the store commits ring-new.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Virtual nodes per unit of shard weight.  More vnodes → smoother key
#: spread and finer movement granularity on resize, at O(shards × vnodes)
#: ring-build cost.
DEFAULT_VNODES = 64


def stable_hash(key: Any) -> int:
    """Deterministic content hash (``hash()`` is salted per process)."""
    digest = hashlib.blake2b(repr(key).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def hash_range_of(key: Any, n_ranges: int) -> int:
    """The hash-range bucket ``key`` falls in when the 64-bit ring is cut
    into ``n_ranges`` equal arcs — the partitioning unit anti-entropy
    digests compare (:mod:`repro.distributed.antientropy`).  Derived from
    the same :func:`stable_hash` the ring routes by, so one bucket is one
    contiguous keyspace arc, not an arbitrary modulus class."""
    if n_ranges < 1:
        raise ValueError("n_ranges must be >= 1")
    return stable_hash(key) * n_ranges >> 64


class HashRing:
    """An immutable consistent-hash ring over integer shard ids.

    Each shard id contributes ``round(DEFAULT_VNODES × weight)`` points on
    the 64-bit ring (at least one); a key belongs to the shard owning the
    first point at or after the key's hash (wrapping).  Shard ids — not list
    positions — identify nodes, so removing shard 1 from ``{0, 1, 2}``
    leaves shards 0 and 2 exactly where they were.

    ``weights`` maps shard id → relative capacity (default 1.0 each);
    heavier shards take proportionally more keyspace.
    """

    def __init__(
        self,
        nodes: Iterable[int],
        weights: Optional[Mapping[int, float]] = None,
    ) -> None:
        self._nodes: Tuple[int, ...] = tuple(sorted(set(nodes)))
        if not self._nodes:
            raise ValueError("a ring needs at least one node")
        given = dict(weights or {})
        unknown = sorted(set(given) - set(self._nodes))
        if unknown:
            raise ValueError(
                f"weights name shards {unknown} not on the ring "
                f"{list(self._nodes)}"
            )
        for node, weight in given.items():
            if weight <= 0:
                raise ValueError(
                    f"shard {node!r} weight must be positive, got {weight!r}"
                )
        self._weights: Dict[int, float] = {
            node: float(given.get(node, 1.0)) for node in self._nodes
        }
        points: List[Tuple[int, int]] = [
            (stable_hash(f"vnode/{node}/{v}"), node)
            for node in self._nodes
            for v in range(self.vnode_count(node))
        ]
        points.sort()
        self._positions = [position for position, _node in points]
        # Point owners plus a wrap slot: a hash past the top point bisects
        # to ``len(points)`` and belongs to the first point's node.
        self._owners = [node for _p, node in points] + [points[0][1]]

    # ------------------------------------------------------------- topology
    @property
    def nodes(self) -> Tuple[int, ...]:
        return self._nodes

    @property
    def weights(self) -> Dict[int, float]:
        """Shard id → weight (a copy; rings are immutable)."""
        return dict(self._weights)

    def weight_of(self, node: int) -> float:
        return self._weights[node]

    def vnode_count(self, node: int) -> int:
        """Ring points the node contributes: ``round(DEFAULT_VNODES ×
        weight)``, floored at 1 so even a tiny weight keeps the shard
        routable."""
        return max(1, round(DEFAULT_VNODES * self._weights[node]))

    def expected_share(self, node: int) -> float:
        """The keyspace fraction the node's weight entitles it to."""
        total = sum(self._weights.values())
        return self._weights[node] / total

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: int) -> bool:
        return node in self._nodes

    def with_nodes(
        self,
        nodes: Iterable[int],
        weights: Optional[Mapping[int, float]] = None,
    ) -> "HashRing":
        """A new ring over ``nodes``.

        Surviving nodes keep their current weight unless ``weights``
        overrides it; nodes new to the ring default to weight 1.0.
        """
        nodes = tuple(nodes)
        merged = {n: self._weights[n] for n in nodes if n in self._weights}
        if weights:
            merged.update(weights)
        return HashRing(nodes, weights=merged)

    def with_weights(self, weights: Mapping[int, float]) -> "HashRing":
        """Same nodes, new weights for the listed shards — a capacity
        change is a topology change like any other."""
        return self.with_nodes(self._nodes, weights=weights)

    # -------------------------------------------------------------- routing
    def owner(self, key: Any) -> int:
        """The shard id owning ``key`` (first vnode at/after its hash)."""
        return self._owners[bisect_right(self._positions, stable_hash(key))]

    def moved_keys(self, keys: Sequence[Any], new: "HashRing") -> List[Any]:
        """Keys whose owner differs between this ring and ``new`` — the
        migration set a resize must ground."""
        return [key for key in keys if self.owner(key) != new.owner(key)]
