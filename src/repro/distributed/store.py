"""Sharded, replicated store — async replication, read repair, elastic
weighted sharding with background (budgeted) rebalancing.

Topology: ``shards`` independent shard groups, each a primary plus
``n_replicas`` asynchronous replicas; keys route to their shard over a
consistent-hash ring (:mod:`repro.distributed.ring`) so the topology can
change *online*: :meth:`ReplicatedStore.begin_resize` — the one entry
point for growing, shrinking, and reweighting — migrates only the
ring-affected key fraction instead of reshuffling the whole keyspace the
way modulo routing would, and per-shard **weights** let
heterogeneous-capacity nodes take a proportional keyspace share.  Every
node is a :class:`~repro.systems.backends.StorageBackend` (``psql``,
``lsm``, or ``crypto-shred``), so the distributed erase story is
engine-pluggable: the same copy-tracking machinery runs over MVCC dead
tuples, LSM shadowed values, or unshredded key volumes.

Replication model (per shard): the primary appends every mutation to a
replication log; a log entry becomes *applicable* at ``now +
replication_lag`` (asynchronous shipping).  Replicas apply their backlog
lazily — whenever they serve a read — mirroring how real async replicas
trail the primary.  Reads may be served from a per-node cache whose entries
expire after ``cache_ttl``, and accept a ``consistency`` level: ``"one"``
(any single node, the legacy fast path), ``"quorum"`` (a majority of the
shard's nodes, force-applying only as much replica backlog as the quorum
needs), or ``"all"``.  Quorum and all reads compare each replica's
``applied_seqno`` against the primary's, so a stale replica can never serve
a value the primary has already erased.

**Read repair**: a quorum/all read that observes replica divergence
(participants behind the primary's seqno) queues a repair for the replicas
still lagging after the read.  Repairs run asynchronously — off the read's
critical path, drained by :meth:`ReplicatedStore.flush_repairs` or by a
:class:`RebalanceDriver` step — and replay the replication log, so a
grounded erase can never be undone by one: erased keys' log values are
scrubbed (their PUT/UPDATE entries replay as no-ops) while their DELETEs
still apply.  Each completed repair is announced as a :class:`RepairEvent`
so the facade can record it as a ``REPAIR`` audit action.

Every location that ever physically held a unit's value is recorded by the
copy tracker — primaries, replicas, caches, the replication log, each
node's write-ahead log, *and keys in flight between shards during a
rebalance* (``CopyLocation.MIGRATION``); the erasure questions of §1 become
queries over it:

* where do copies of X live right now? (:meth:`ReplicatedStore.copies_of`)
* did the naive primary-only delete actually remove X? (it did not —
  ``copies_of`` still lists replicas holding it, caches serving it, dead
  data not yet reclaimed on any node, and logs carrying the value);
* run the *grounded* distributed erase and verify nothing lingers
  (:meth:`erase_all_copies`), or amortize a whole Art. 17 stream with
  :meth:`erase_many`, which fans the deletions out per shard and runs **one
  reclamation pass per node per batch** — the same batching the engine-level
  ``erase_many`` helpers use.  Both verify clean even mid-rebalance.

**The dual-routing invariant.**  While a rebalance is in progress two rings
coexist: ring-old (the committed topology) and ring-new (the target).  At
*every* step boundary the store routes so no operation can miss the key's
physical location:

* reads try ring-new first and fall back to ring-old — wherever the copy
  currently lives, one of the two owners has it;
* writes to a key whose copy step has not run yet go to its ring-old source
  (the later export picks them up); all other writes route ring-new;
* erases cover **both** owners and cancel the key's move, so an Art. 17
  request landing mid-migration grounds every site the key ever touched.

**MIGRATION copy-site lifecycle.**  A key move passes through three phases,
each a step boundary the invariant above holds across: *pending* (planned,
not yet copied — the key lives only at its ring-old source), *in flight*
(the copy step exported it to the destination; ``copies_of`` reports a
``CopyLocation.MIGRATION`` site named ``shard-src→shard-dst`` while both
copies physically exist), and *moved* (the ground step ran the source
shard's grounded erase — delete + reclaim + replication-log and WAL scrub —
after which the MIGRATION site disappears and exactly one shard holds the
key again).  Each completed move is announced to
:meth:`add_move_listener` subscribers so the facade can record it as a
``MOVE`` audit action (the *Data Capsule* hazard: compliance must track
data as it moves between processing sites).

Driving a rebalance is either stop-the-world (:meth:`Rebalance.run`) or
**background**: a :class:`RebalanceDriver` advances the same migration in
bounded ``step(budget_keys=…)`` increments so live reads, writes, and
grounded erases interleave with key movement — the concurrent-workload
harness in :mod:`repro.workloads.driver` and ``python -m repro rebalance
--background`` are built on it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro import codec
from repro.config import BackendConfig, StoreConfig
from repro.core.locations import CopyLocation
from repro.distributed.antientropy import (
    AntiEntropyReport,
    AntiEntropySweeper,
    RangeRepair,
)
from repro.distributed.faults import (
    FaultInjector,
    QuorumUnavailableError,
    ReplicaDownError,
    ShardUnavailableError,
)
from repro.distributed.replication_log import SCRUBBED, ReplicationLog, _OpType
from repro.distributed.ring import HashRing, hash_range_of
from repro.lsm.cache import SharedBlockCache
from repro.lsm.compaction import EMPTY_COMPACTION_STATS, CompactionStats
from repro.sim.costs import CostModel
from repro.storage.errors import TupleNotFoundError
from repro.systems.backends import ExportBatch, StorageBackend, make_backend

TABLE = "replicated_data"

#: Read consistency levels: any single node / a majority of the shard's
#: nodes / every node in the shard.
CONSISTENCY_LEVELS = ("one", "quorum", "all")


@dataclass
class CacheEntry:
    value: Any
    cached_at: int
    expires_at: int


@dataclass(frozen=True)
class DistributedEraseReport:
    """What the grounded distributed erase did."""

    key: Any
    nodes_deleted: int
    caches_invalidated: int
    dead_tuples_vacuumed: int
    verified_clean: bool
    log_values_scrubbed: int = 0
    shard: int = 0


@dataclass(frozen=True)
class BatchEraseReport:
    """What a batch distributed erase did, aggregated over shards.

    ``reclamations`` counts reclamation passes actually run — with N shards
    of R+1 nodes each and K keys, the batch path runs at most
    ``shards_touched × (R+1)`` passes instead of ``K × (R+1)``.
    ``shard_seconds`` is the simulated work per shard touched (shard-index
    order); shards are independent groups, so its max is the critical path
    a parallel deployment waits for.
    """

    n_keys: int
    shards_touched: int
    nodes_deleted: int
    caches_invalidated: int
    dead_tuples_vacuumed: int
    log_values_scrubbed: int
    reclamations: int
    verified_clean: bool
    shard_seconds: Tuple[float, ...] = ()


@dataclass(frozen=True)
class ReplicaChangeReport:
    """What :meth:`ReplicatedStore.set_replicas` did, summed over shards.

    ``catchup_entries`` counts scrubbed-log entries joining replicas
    replayed (their only bootstrap path — an erased value cannot ride in);
    ``grounded_values`` counts live values grounded off leaving replicas
    before they left ``copies_of``'s world.
    """

    replicas_before: int
    replicas_after: int
    shards: int
    added: int
    removed: int
    catchup_entries: int
    grounded_values: int


@dataclass(frozen=True)
class RepairEvent:
    """One completed read repair: lagging replicas re-synced after a
    quorum/all read observed divergence.

    A repair replays the shard's replication log up to the seqno the read
    observed, so it can never undo a grounded erase: an erased key's log
    values are scrubbed (its PUT/UPDATE entries replay as no-ops) and its
    DELETE entries still apply.  ``key`` names the read that observed the
    divergence — the unit the facade's REPAIR audit action speaks about.
    """

    key: Any
    shard: int
    replicas_repaired: int
    entries_applied: int
    at: int  # model time the repair completed


@dataclass(frozen=True)
class MoveEvent:
    """One completed, grounded key move between shards.

    Emitted only after the source shard's grounded erase verified — the
    moment at which exactly one shard holds the key again.
    """

    key: Any
    source: int
    dest: int
    at: int  # model time the move was grounded


@dataclass(frozen=True)
class RebalanceReport:
    """What an online rebalance did, end to end.

    ``moved_fraction`` is ``keys_moved / keys_examined`` — consistent-hash
    routing keeps it near K/N for a one-shard topology change, where modulo
    routing would move nearly everything.  ``verified_clean`` asserts every
    source-side copy of every moved key was grounded away, and (for shard
    removals) that the drained shards hold nothing at all.
    """

    keys_examined: int
    keys_moved: int
    keys_skipped: int  # planned but erased/dead before their batch ran
    batches: int
    shards_from: Tuple[int, ...]
    shards_to: Tuple[int, ...]
    moved_fraction: float
    verified_clean: bool
    seconds: float
    #: Keys with no live value at the source (naive-deleted, residues still
    #: on replicas/caches/logs) whose ownership changed: nothing to copy,
    #: but the source's physical leftovers were ground-erased — otherwise
    #: the ring swap would orphan them invisibly.
    keys_grounded_residue: int = 0


class _Node:
    """One storage node: a backend plus a read cache."""

    def __init__(
        self,
        name: str,
        cost: CostModel,
        row_bytes: int,
        config: BackendConfig,
        extras: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.name = name
        opts = config.backend_kwargs()
        # ``extras`` carries injected *objects* the store pools across its
        # nodes (a SharedBlockCache) — deliberately not config
        # fields (configs stay declarative/comparable).
        opts.update(extras or {})
        if config.backend == "psql":
            opts.setdefault("table", TABLE)
            opts.setdefault("wal_checkpoint_every", 5_000)
        elif config.backend == "lsm" and "block_cache" in opts:
            # Nodes sharing one block cache must not share cache entries:
            # each node is a distinct physical machine, so its cached
            # copies are tracked (and invalidated) under its own name.
            opts.setdefault("namespace", name)
        self.backend: StorageBackend = make_backend(
            config.backend, cost, row_bytes=row_bytes, **opts
        )
        #: The raw engine object — exposed for forensics and fault injection.
        self.engine = getattr(self.backend, "engine", None)
        self.cache: Dict[Any, CacheEntry] = {}
        self.applied_seqno = 0
        #: Crash-stop flag: a down node is unreachable *and* its storage is
        #: gone (``backend``/``engine`` dropped) — revival builds a fresh
        #: node that bootstraps from the scrubbed replication log.
        self.down = False

    def crash(self) -> None:
        """Crash-stop with storage loss.  The node's heap, WAL, private
        cache, and pooled block-cache share all go with the machine — and
        so does its slice of the pooled cache's *capacity ledger*: the
        namespace is invalidated so a crashed node's cached values cannot
        linger as untracked physical copies."""
        cache = getattr(self.engine, "_block_cache", None)
        token = getattr(self.engine, "_cache_token", None)
        if cache is not None and token is not None:
            cache.invalidate_namespace(token)
        self.down = True
        self.cache.clear()
        self.backend = None  # type: ignore[assignment]
        self.engine = None

    def secondary_copies(self, key: Any) -> List[Tuple[CopyLocation, str]]:
        """The node's read-cache entry for the key plus the backend's own
        typed secondary sites (block cache, WAL, open export batches)."""
        found = [(CopyLocation.CACHE, self.name)] if key in self.cache else []
        for loc, site in self.backend.copy_locations(key):
            found.append((loc, f"{self.name}[{site}]"))
        return found

    def copies_of(
        self, key: Any, role: CopyLocation
    ) -> List[Tuple[CopyLocation, str]]:
        """Every copy this machine holds.  The backend's primary-storage
        sites come first, under the node's ``role`` — live *or dead*
        entries count, retention is physical, and LSM names one site per
        memtable/SSTable copy so a pre-compaction copy stays listed until
        a rewrite removes it — then the secondary sites."""
        found = [
            (role, f"{self.name}[{site}]" if site else self.name)
            for site in self.backend.copy_sites(key)
        ]
        found.extend(self.secondary_copies(key))
        return found


class _Shard:
    """One replication group: a primary, N replicas, and their log."""

    def __init__(
        self,
        index: int,
        cost: CostModel,
        n_replicas: int,
        replication_lag: int,
        cache_ttl: int,
        row_bytes: int,
        config: BackendConfig,
        solo: bool,
        extras: Optional[Mapping[str, Any]] = None,
        repair_sink: Optional[Callable[[int, Any, int], None]] = None,
    ) -> None:
        self.index = index
        self._cost = cost
        self._lag = replication_lag
        self._cache_ttl = cache_ttl
        #: Where a consistent read reports observed divergence so the store
        #: can schedule an asynchronous read repair: ``(shard, key, upto)``.
        self._repair_sink = repair_sink
        # Node-construction parameters are kept: replica elasticity
        # (add/remove/revive) provisions fresh nodes long after __init__.
        self._row_bytes = row_bytes
        self._config = config
        self._extras = extras
        # Single-shard deployments keep the legacy node names.
        self._prefix = prefix = "" if solo else f"shard-{index}/"
        self.primary = _Node(
            f"{prefix}primary", cost, row_bytes, config, extras
        )
        self.replicas = [
            _Node(f"{prefix}replica-{i}", cost, row_bytes, config, extras)
            for i in range(n_replicas)
        ]
        #: Monotonic name counter — names stay unique across add/remove
        #: cycles (a re-used name would alias audit trails and cache
        #: namespaces of two different physical machines).
        self._replica_seq = n_replicas
        self._log = ReplicationLog()

    # ------------------------------------------------------------- internals
    @property
    def _now(self) -> int:
        return self._cost.clock.now

    @property
    def _seqno(self) -> int:
        """The primary's seqno: entries logged so far."""
        return len(self._log)

    def nodes(self) -> Iterator[_Node]:
        """Every node with physical storage: the primary plus live
        replicas.  Down replicas are crash-stopped machines whose storage
        is *gone* — no heap, cache, or WAL to scan, erase, or maintain —
        so every physical iteration skips them by construction."""
        yield self.primary
        yield from (node for node in self.replicas if not node.down)

    def live_replicas(self) -> List[_Node]:
        """Replicas currently up (membership minus crash-stopped nodes)."""
        return [node for node in self.replicas if not node.down]

    def _append_log(self, op: _OpType, key: Any, value: Any) -> None:
        self._log.append(op, key, value, self._now + self._lag)
        self._cost.charge_log_append()

    def _apply_backlog(
        self, node: _Node, force: bool = False, upto: Optional[int] = None
    ) -> int:
        """Apply every applicable log entry to the replica.

        ``upto`` caps how far the catch-up goes (a quorum read only needs
        the replica at the primary's seqno *as of the read* — not entries
        appended later by concurrent writers).
        """
        if node.down:
            return 0  # crashed machine: nothing to apply onto
        applied = 0
        for op, key, value, ready_at in self._log.replay(
            node.applied_seqno, upto
        ):
            if not force and ready_at > self._now:
                break  # later entries are even younger
            if value is SCRUBBED:
                pass  # value redacted by erase; the delete entry follows
            elif op is _OpType.PUT:
                node.backend.insert(key, value)
            elif op is _OpType.UPDATE:
                node.backend.update(key, value)
            else:
                try:
                    node.backend.delete(key)
                except TupleNotFoundError:
                    pass  # never replicated in the first place
                node.cache.pop(key, None)
            node.applied_seqno += 1
            applied += 1
        return applied

    # ----------------------------------------------------------------- writes
    def put(self, key: Any, value: Any) -> None:
        self.primary.backend.insert(key, value)
        self._append_log(_OpType.PUT, key, value)

    def update(self, key: Any, value: Any) -> None:
        self.primary.backend.update(key, value)
        self._append_log(_OpType.UPDATE, key, value)

    def naive_delete(self, key: Any) -> None:
        self.primary.backend.delete(key)
        self._append_log(_OpType.DELETE, key, None)

    # ------------------------------------------------------------------ reads
    def read(
        self,
        key: Any,
        replica: Optional[int] = None,
        use_cache: bool = True,
        consistency: str = "one",
    ) -> Any:
        if consistency not in CONSISTENCY_LEVELS:
            raise ValueError(
                f"unknown consistency {consistency!r}; "
                f"choose from {CONSISTENCY_LEVELS}"
            )
        if consistency != "one":
            if replica is not None:
                raise ValueError(
                    "pinning a replica requires consistency='one'"
                )
            return self._read_consistent(key, consistency, use_cache)
        node = self.primary if replica is None else self.replicas[replica]
        if node.down:
            raise ReplicaDownError(
                f"replica {node.name!r} is down (crash-stopped)"
            )
        if node is not self.primary:
            self._apply_backlog(node)
        if use_cache:
            entry = node.cache.get(key)
            if entry is not None:
                if entry.expires_at >= self._now:
                    self._cost.charge_tuple_cpu()
                    return entry.value
                del node.cache[key]
        try:
            value = node.backend.read(key)
        except TupleNotFoundError:
            # Never cache a miss: after a grounded erase the negative probe
            # must not replant a CACHE entry that copies_of would then
            # report as a copy of the erased key.
            node.cache.pop(key, None)
            raise
        if use_cache:
            node.cache[key] = CacheEntry(
                value, self._now, self._now + self._cache_ttl
            )
        return value

    def _read_consistent(self, key: Any, consistency: str, use_cache: bool) -> Any:
        """Quorum / all read: a majority (or all) of the shard's nodes must
        agree, replica ``applied_seqno`` compared against the primary's.

        The most-caught-up replicas are chosen first and force-applied only
        up to the primary's seqno as of the read — the minimum catch-up the
        quorum needs — so a replica whose backlog still holds the victim's
        DELETE applies it *before* answering, and an erased value is never
        served.
        """
        # Quorum is over *membership*, not over whoever happens to be up:
        # a killed replica still counts toward n so the majority threshold
        # cannot silently shrink to "whatever survived".  Only live
        # replicas can participate; if too few remain, fail fast.
        n_nodes = 1 + len(self.replicas)
        needed = n_nodes if consistency == "all" else n_nodes // 2 + 1
        live = self.live_replicas()
        if 1 + len(live) < needed:
            raise QuorumUnavailableError(
                f"{consistency} read needs {needed} of {n_nodes} nodes; "
                f"only {1 + len(live)} reachable on shard {self.index}"
            )
        target = self._seqno
        diverged = any(n.applied_seqno < target for n in live)
        chosen = sorted(
            live, key=lambda n: n.applied_seqno, reverse=True
        )[: needed - 1]
        for node in chosen:
            if node.applied_seqno < target:
                self._apply_backlog(node, force=True, upto=target)
        # Collect (seqno, found, value) per participant; the newest answer
        # wins and the primary — always at `target` — is authoritative.
        answers: List[Tuple[int, bool, Any]] = []
        for node in [self.primary, *chosen]:
            seqno = target if node is self.primary else node.applied_seqno
            try:
                answers.append((seqno, True, node.backend.read(key)))
            except TupleNotFoundError:
                answers.append((seqno, False, None))
        _seq, found, value = max(answers, key=lambda a: a[0])
        # Read repair: the read observed divergence and some replicas are
        # *still* behind target (the quorum only force-applied its own
        # participants).  Report it so the store can re-sync the laggards
        # asynchronously — off this read's critical path.  A miss queues
        # nothing: an erased key must not earn post-erase repair records.
        if (
            found
            and diverged
            and self._repair_sink is not None
            and any(n.applied_seqno < target for n in self.live_replicas())
        ):
            self._repair_sink(self.index, key, target)
        if not found:
            raise TupleNotFoundError(
                f"no live value for key {key!r} at {consistency} consistency"
            )
        if use_cache:
            self.primary.cache[key] = CacheEntry(
                value, self._now, self._now + self._cache_ttl
            )
        return value

    # -------------------------------------------------------------- migration
    def live_keys(self) -> List[Any]:
        """Every key with a live value on the primary (repr-ordered)."""
        return sorted(
            {k for k, live in self.primary.backend.forensic_scan() if live},
            key=repr,
        )

    def open_export_encoded(
        self, predicate: Callable[[Any], bool], name: str = "export"
    ) -> ExportBatch:
        """Open a *tracked* encoded export on the primary: the batch's
        blobs stream shard-to-shard without a decode/re-encode hop, and
        while it is open every unit it carries reports a ``MIGRATION``
        copy site (a grounded erase scrubs the unit out of the batch)."""
        return self.primary.backend.open_export(predicate, name=name)

    def import_items_encoded(self, items: Sequence[Tuple[Any, bytes]]) -> int:
        """Destination side of an encoded migration: the primary writes the
        blobs natively (no re-encode); the replication log still needs the
        decoded values so replicas can apply the PUTs."""
        items = list(items)
        count = self.primary.backend.import_encoded_batch(items)
        for key, blob in items:
            self._append_log(_OpType.PUT, key, codec.decode(blob))
        return count

    def physically_present_keys(self) -> List[Any]:
        """Every key with *any* physical trace on the shard — live or dead
        heap entries on any node, cache entries, and valued replication-log
        entries.  The rebalance planner uses this superset of
        :meth:`live_keys` so a key with no live value but lingering
        residues still gets grounded when its ownership moves."""
        present: Set[Any] = set()
        for node in self.nodes():
            present.update(k for k, _live in node.backend.forensic_scan())
            present.update(node.cache)
        present.update(self._log.valued_keys())
        return sorted(present, key=repr)

    def holds_any(self, keys: Sequence[Any]) -> List[Any]:
        """Subset of ``keys`` with any copy ``copies_of`` would report on
        the shard — one forensic pass per node for the primary-storage
        sites instead of one per key (the batch verification the
        migration's per-batch grounding uses), then each node's secondary
        sites for the keys still unaccounted for."""
        wanted: Set[Any] = set(keys)
        found: Set[Any] = set()
        for node in self.nodes():
            found.update(
                k for k, _live in node.backend.forensic_scan() if k in wanted
            )
            found.update(k for k in wanted - found if node.secondary_copies(k))
        found |= wanted & self._log.valued_keys()
        return sorted(found, key=repr)

    def decommission(self) -> None:
        """Drain-side teardown for a shard leaving the topology: force the
        replicas past the whole log, reclaim every node (WAL scrub
        included), drop the caches, and redact every remaining valued log
        entry — the shard must hold *nothing* before it is dropped."""
        for node in self.replicas:
            self._apply_backlog(node, force=True)
        for node in self.nodes():
            node.cache.clear()
            node.backend.reclaim()
        self._log.scrub_all()

    def holds_nothing(self) -> bool:
        """Whether the shard retains no value anywhere (decommission check)."""
        for node in self.nodes():
            stats = node.backend.stats()
            if stats.live_entries or stats.dead_entries or node.cache:
                return False
        return not self._log.valued_keys()

    # -------------------------------------------------------------- forensics
    def copies_of(self, key: Any) -> List[Tuple[CopyLocation, str]]:
        found = self.primary.copies_of(key, CopyLocation.PRIMARY)
        for node in self.live_replicas():
            found.extend(node.copies_of(key, CopyLocation.REPLICA))
        if self._log.holds_value(key):
            found.append((CopyLocation.LOG, self.primary.name))
        return found

    # ---------------------------------------------------------------- erasure
    def erase_many(self, keys: Sequence[Any]) -> Tuple[int, int, int, int, int]:
        """The grounded erase within the shard: every key is logically
        deleted on every node, then each node reclaims **once**.

        Returns ``(nodes_deleted, caches, vacuumed, scrubbed, reclaims)``.
        """
        # Count cache copies before the erase barrier touches them: the
        # DELETEs it replays evict replica cache entries.
        wanted = set(keys)
        caches = sum(len(wanted & node.cache.keys()) for node in self.nodes())
        # Erase barrier: replicas catch up past every victim's entries so
        # the deletes and the log scrub are safe.  Down replicas are
        # skipped: a crash-stopped machine holds nothing physical to erase,
        # and its eventual revival bootstraps from the log this erase is
        # about to scrub — so it comes back clean too.
        for node in self.live_replicas():
            self._apply_backlog(node, force=True)
        nodes_deleted = 0
        for key in keys:
            for node in self.nodes():
                # Replicas delete directly too: the barrier only caught
                # them up to pre-batch entries, so this batch's DELETEs
                # have not replicated yet.
                if node.backend.exists(key):
                    node.backend.delete(key)
                    nodes_deleted += 1
                    if node is self.primary:
                        self._append_log(_OpType.DELETE, key, None)
                node.cache.pop(key, None)
                node.backend.scrub_exports([key])
        # Force the just-appended DELETE entries onto the replicas too, so
        # no replica resurrects a victim later.
        for node in self.live_replicas():
            self._apply_backlog(node, force=True)
        vacuumed = 0
        reclaims = 0
        for node in self.nodes():
            vacuumed += node.backend.reclaim()
            reclaims += 1
        # Every replica is now caught up past the victims' log entries, so
        # the values they carried can be redacted — the log is a copy
        # location (§1) and must not outlive the erase.
        scrubbed = sum(self._log.scrub(key) for key in keys)
        return nodes_deleted, caches, vacuumed, scrubbed, reclaims

    def replication_backlog(self, replica: int) -> int:
        node = self.replicas[replica]
        if node.down:
            raise ReplicaDownError(
                f"replica {node.name!r} is down (crash-stopped)"
            )
        return max(0, len(self._log) - node.applied_seqno)

    # ----------------------------------------------------- replica elasticity
    def _make_replica_node(self, name: Optional[str] = None) -> _Node:
        """A fresh, empty replica node (no name re-use unless asked)."""
        if name is None:
            name = f"{self._prefix}replica-{self._replica_seq}"
            self._replica_seq += 1
        return _Node(
            name, self._cost, self._row_bytes, self._config, self._extras
        )

    def add_replica(self) -> int:
        """Join a fresh replica and catch it up by replaying the shard's
        replication log — the *scrubbed* log, so an erased value can never
        ride in on a new machine: the victim's PUT/UPDATE entries replay as
        no-ops and its DELETEs still apply.  Returns entries replayed."""
        node = self._make_replica_node()
        self.replicas.append(node)
        return self._apply_backlog(node, force=True)

    def remove_replica(self, index: int) -> int:
        """Grounded leave: every physical copy on the departing replica is
        erased — live values deleted, cache dropped, one reclamation pass
        (dead tuples + WAL scrub) — before the node leaves ``copies_of``'s
        world.  Returns the live values grounded.  Removing a down replica
        is a pure membership change (its storage died with the machine)."""
        node = self.replicas[index]
        if node.down:
            self.replicas.pop(index)
            return 0
        victims = sorted(
            {k for k, live in node.backend.forensic_scan() if live}, key=repr
        )
        for key in victims:
            node.backend.delete(key)
        node.cache.clear()
        node.backend.scrub_exports(victims)
        node.backend.reclaim()
        self.replicas.pop(index)
        return len(victims)

    # --------------------------------------------------------- fault handling
    def kill_replica(self, index: int) -> None:
        """Crash-stop one replica (storage loss; membership unchanged)."""
        node = self.replicas[index]
        if node.down:
            raise KeyError(f"replica {node.name!r} is already down")
        node.crash()

    def revive_replica(self, index: int) -> int:
        """Replace a crashed replica with a fresh machine under the same
        name and bootstrap it from the scrubbed replication log — recovery
        is state transfer from the durable log, never a resurrected disk.
        Returns the log entries replayed."""
        dead = self.replicas[index]
        if not dead.down:
            raise KeyError(f"replica {dead.name!r} is not down")
        node = self._make_replica_node(name=dead.name)
        self.replicas[index] = node
        return self._apply_backlog(node, force=True)

    def resync_range(
        self, range_index: int, n_ranges: int
    ) -> Tuple[int, int]:
        """Heal one keyspace arc on every live replica — the repair half of
        the anti-entropy loop (:mod:`repro.distributed.antientropy`).

        Two phases, both erasure-safe by construction: first the replica
        force-applies its full backlog (scrubbed entries replay as no-ops),
        then any *remaining* divergence in the arc — state the log cannot
        explain, i.e. out-of-band corruption or loss — is fixed directly
        from the primary's live values: missing/differing keys overwritten,
        stray keys deleted and reclaimed.  A grounded-erased value is live
        nowhere on the primary, so neither phase can resurrect it.

        Returns ``(replicas_repaired, entries_fixed)`` where entries counts
        log entries applied plus keys directly overwritten/deleted.
        """
        def in_arc(key: Any) -> bool:
            return hash_range_of(key, n_ranges) == range_index

        want = dict(self.primary.backend.export_range(in_arc))
        repaired = 0
        entries = 0
        for node in self.live_replicas():
            fixed = self._apply_backlog(node, force=True)
            have = dict(node.backend.export_range(in_arc))
            strays = [k for k in have if k not in want]
            for key in strays:
                node.backend.delete(key)
                node.cache.pop(key, None)
                fixed += 1
            for key, value in want.items():
                if key not in have:
                    node.backend.insert(key, value)
                    fixed += 1
                elif have[key] != value:
                    node.backend.update(key, value)
                    node.cache.pop(key, None)
                    fixed += 1
            if strays:
                # Direct deletes leave dead entries outside the erase
                # path's reclamation; ground them before reporting healed.
                node.backend.reclaim()
            if fixed:
                repaired += 1
                entries += fixed
        return repaired, entries


class Rebalance:
    """One online topology change, migrated batch by batch.

    Built by :meth:`ReplicatedStore.begin_resize`; :meth:`run` drives it
    to completion, or :meth:`step` advances one half-batch at a time so
    callers can interleave traffic — reads, writes, and erases all keep
    working mid-rebalance.

    Each batch takes two steps.  The *copy* step exports the batch from its
    source shard (``StorageBackend.export_encoded_range``) and imports it at
    the destination (``import_encoded_batch`` + replication-log PUTs); from
    that moment the keys are in flight and ``copies_of`` reports a
    ``MIGRATION`` site for each.  The *ground* step runs the source shard's grounded batch
    erase — delete on every node, one reclamation pass per node, replication
    log scrubbed — verifies the source holds nothing, and emits a
    :class:`MoveEvent` per key.  A key erased by the compliance layer while
    pending or in flight is cancelled: the erase already grounded both
    sides, so the migration skips it.
    """

    def __init__(
        self,
        store: "ReplicatedStore",
        new_ring: HashRing,
        added: Sequence[int],
        removed: Sequence[int],
        batch_size: int,
    ) -> None:
        self._store = store
        self.old_ring = store._ring
        self.new_ring = new_ring
        self.added = tuple(added)
        self.removed = tuple(removed)
        self._t0 = store._cost.clock.now
        self._pending: Dict[Any, Tuple[int, int]] = {}
        self._in_flight: Dict[Any, Tuple[int, int]] = {}
        self._cancelled: Set[Any] = set()
        self._moved = 0
        self._skipped = 0
        self._batches_run = 0
        self._clean = True
        self._grounded_residue = 0
        self._last_step_keys = 0
        #: The last :meth:`step` could not progress: the batch it must run
        #: names a partitioned shard.  Cleared by the next productive step.
        self._stalled = False
        examined = 0
        plan: Dict[Tuple[int, int], List[Any]] = {}
        residue: Dict[int, List[Any]] = {}
        for src in sorted(store._shards):
            if src in self.added:
                continue  # freshly created — nothing to move off it
            live = set(store._shards[src].live_keys())
            for key in sorted(live, key=repr):
                examined += 1
                dst = new_ring.owner(key)
                if dst != src:
                    self._pending[key] = (src, dst)
                    plan.setdefault((src, dst), []).append(key)
            # Keys with no live value but physical leftovers (a naive
            # delete's dead tuple, lagging replica copy, cache entry, or
            # unscrubbed log value): nothing to copy, but once the ring
            # stops routing here those residues would be orphaned —
            # invisible to copies_of and unreachable by any later erase.
            # Ground them at the source as part of the rebalance.
            for key in store._shards[src].physically_present_keys():
                if key not in live and new_ring.owner(key) != src:
                    residue.setdefault(src, []).append(key)
        self.keys_examined = examined
        #: ("ground", src, src, keys) erases source residues;
        #: ("copy", src, dst, keys) streams a batch to its new owner.
        self._queue: Deque[Tuple[str, int, int, List[Any]]] = deque()
        for src, keys in sorted(residue.items()):
            self._queue.append(("ground", src, src, keys))
        for (src, dst), keys in sorted(plan.items()):
            for i in range(0, len(keys), batch_size):
                self._queue.append(("copy", src, dst, keys[i:i + batch_size]))
        # The batch whose copy step ran but whose ground step has not:
        # (src, dst, exported keys, planned-but-dead keys to ground).
        self._current: Optional[Tuple[int, int, List[Any], List[Any]]] = None
        self._report: Optional[RebalanceReport] = None

    # ------------------------------------------------------------- inspection
    @property
    def done(self) -> bool:
        return self._current is None and not self._queue

    @property
    def report(self) -> Optional[RebalanceReport]:
        """The final report, once the migration has finalized."""
        return self._report

    @property
    def stalled(self) -> bool:
        """Whether the last step was blocked by a partitioned shard.  Work
        remains, but no batch can run until the partition heals — a driver
        should back off instead of spinning."""
        return self._stalled

    def _partitioned(self, shard_index: int) -> bool:
        """Migration traffic honors partitions like client traffic does."""
        injector = getattr(self._store, "_fault_injector", None)
        return injector is not None and injector.is_partitioned(shard_index)

    @property
    def keys_moved(self) -> int:
        """Keys fully migrated so far (copied *and* grounded at the source).

        Every increment emits a :class:`MoveEvent`, so the audit trail a
        move listener accumulates must stay equal to this counter — the
        runtime invariant registry checks exactly that."""
        return self._moved

    @property
    def last_step_keys(self) -> int:
        """Keys the most recent :meth:`step` copied or grounded — what a
        :class:`RebalanceDriver` charges against its budget."""
        return self._last_step_keys

    def owners(self, key: Any) -> Tuple[int, int]:
        """(ring-old owner, ring-new owner) for the key."""
        return self.old_ring.owner(key), self.new_ring.owner(key)

    def in_flight_route(self, key: Any) -> Optional[Tuple[int, int]]:
        return self._in_flight.get(key)

    def is_pending(self, key: Any) -> bool:
        """Whether the key is planned to move but not yet copied."""
        return key in self._pending

    # ---------------------------------------------------------------- routing
    def route_read(self, key: Any) -> Tuple[int, int]:
        """Dual routing: try ring-new first, fall back to ring-old."""
        old, new = self.owners(key)
        return new, old

    def route_write(self, key: Any) -> int:
        """Writes to a not-yet-copied key go to its source shard (they are
        picked up by the later export); everything else routes ring-new."""
        if key in self._pending:
            return self._pending[key][0]
        return self.new_ring.owner(key)

    def cancel(self, key: Any) -> None:
        """An erase beat the migration to this key — stop tracking it."""
        pending = self._pending.pop(key, None)
        in_flight = self._in_flight.pop(key, None)
        if pending is not None or in_flight is not None:
            self._cancelled.add(key)

    # -------------------------------------------------------------- execution
    def step(self) -> bool:
        """Advance one half-batch; returns False when no work remains.

        The step that exhausts the plan also finalizes — commits the new
        ring, decommissions drained shards, clears the store's rebalance
        state — so driving with ``while r.step(): pass`` is equivalent to
        :meth:`run` (whose report is then available via :attr:`report`).
        """
        if self._report is not None:
            return False
        self._last_step_keys = 0
        self._stalled = False
        store = self._store
        if self._current is not None:
            src, dst, keys, dead = self._current
            if self._partitioned(src):
                # The in-flight batch must ground at its source before any
                # other work — and the source is unreachable.  Stall.
                self._stalled = True
                return True
            victims = [k for k in keys if k not in self._cancelled]
            # Planned keys that died between planning and export carry no
            # live value to move, but their source residues (dead tuples,
            # lagging replica copies, log values) are grounded with the
            # batch — the ring is about to stop routing here.
            ground = victims + [k for k in dead if k not in self._cancelled]
            self._last_step_keys = len(ground)
            if ground:
                store._shards[src].erase_many(ground)
                if store._shards[src].holds_any(ground):
                    self._clean = False
            now = store._cost.clock.now
            for key in victims:
                self._in_flight.pop(key, None)
                self._moved += 1
                store._emit_move(MoveEvent(key, src, dst, now))
            self._current = None
            self._batches_run += 1
            if self.done and not self._try_finalize():
                self._stalled = True
            return True
        while self._queue:
            kind, src, dst, keys = self._queue[0]
            if self._partitioned(src) or (
                kind == "copy" and self._partitioned(dst)
            ):
                # Head-of-line stall: batches are ordered (a shard's
                # residue grounds before its keys stream out), so the
                # migration waits for the heal rather than reordering.
                self._stalled = True
                return True
            self._queue.popleft()
            if kind == "ground":
                keys = [k for k in keys if k not in self._cancelled]
                if not keys:
                    continue
                store._shards[src].erase_many(keys)
                if store._shards[src].holds_any(keys):
                    self._clean = False  # pragma: no cover - safety net
                self._grounded_residue += len(keys)
                self._last_step_keys = len(keys)
                self._batches_run += 1
                if self.done and not self._try_finalize():
                    self._stalled = True  # pragma: no cover - safety net
                return True
            keys = [k for k in keys if k in self._pending]
            if not keys:
                continue
            wanted = set(keys)
            # Encoded transport: the source hands out its stored blobs (no
            # decode), the destination writes them natively (no re-encode).
            # The open batch is a tracked MIGRATION copy site until the
            # import lands and the ``with`` block releases it.
            with store._shards[src].open_export_encoded(
                lambda k: k in wanted, name=f"rebalance:{src}->{dst}"
            ) as batch:
                items = batch.items
                exported = {k for k, _b in items}
                dead = []
                for key in keys:
                    self._pending.pop(key, None)
                    if key in exported:
                        self._in_flight[key] = (src, dst)
                    else:
                        self._skipped += 1  # died (naive-deleted) since planning
                        dead.append(key)
                store._shards[dst].import_items_encoded(items)
            self._current = (src, dst, sorted(exported, key=repr), dead)
            self._last_step_keys = len(keys)
            return True
        # Plan exhausted (or empty from the start): all that remains is
        # committing the topology, which drains removed shards — blocked
        # while any of them is partitioned.
        if not self._try_finalize():
            self._stalled = True
            return True
        return False

    def run(self) -> RebalanceReport:
        """Drive the migration to completion and commit the new topology.

        Stop-the-world driving cannot wait out a partition the way a
        background driver can, so a stall here is an error, not a retry."""
        while self.step():
            if self._stalled:
                raise ShardUnavailableError(
                    "rebalance stalled: a shard it must touch is "
                    "partitioned — heal it or drive in the background"
                )
        if self._report is None:  # pragma: no cover - safety net
            self._finalize()
        return self._report

    def _try_finalize(self) -> bool:
        """Finalize unless a removed shard is partitioned (its drain-side
        decommission must not mutate an unreachable machine)."""
        if any(self._partitioned(sid) for sid in self.removed):
            return False
        self._finalize()
        return True

    def _finalize(self) -> RebalanceReport:
        if self._report is not None:
            return self._report
        store = self._store
        for sid in self.removed:
            shard = store._shards[sid]
            shard.decommission()
            if not shard.holds_nothing():
                self._clean = False  # pragma: no cover - safety net
            del store._shards[sid]
        store._ring = self.new_ring
        store._rebalance = None
        examined = self.keys_examined
        self._report = RebalanceReport(
            keys_examined=examined,
            keys_moved=self._moved,
            keys_skipped=self._skipped + len(self._cancelled),
            batches=self._batches_run,
            shards_from=self.old_ring.nodes,
            shards_to=self.new_ring.nodes,
            moved_fraction=(self._moved / examined) if examined else 0.0,
            verified_clean=self._clean,
            seconds=(store._cost.clock.now - self._t0) / 1e6,
            keys_grounded_residue=self._grounded_residue,
        )
        return self._report


class RebalanceDriver:
    """Background rebalancing: advance a migration in bounded increments
    interleaved with live traffic.

    Wraps the :class:`Rebalance` :meth:`ReplicatedStore.begin_resize`
    returns and drives it ``budget_keys`` keys at a time: each
    :meth:`step` advances whole half-batches until at least that many keys
    have been copied or grounded, then drains the store's pending read
    repairs — the background maintenance loop a deployment runs between
    serving requests.  Because a batch never splits, a single call
    overshoots the budget by at most one half-batch (``batch_size - 1``
    keys); pick ``batch_size <= budget_keys`` at ``begin_resize`` time for
    tight budgets.

    Reads, writes, and grounded erases stay correct at every step boundary
    — the store dual-routes and tracks ``MIGRATION`` copy sites for as long
    as the driver has work left (see the module docstring for the
    invariant).  The step that exhausts the plan also finalizes the
    topology, exactly like :meth:`Rebalance.run`.
    """

    def __init__(
        self,
        rebalance: Rebalance,
        antientropy: Optional[AntiEntropySweeper] = None,
        sweep_every: int = 4,
    ) -> None:
        if sweep_every < 1:
            raise ValueError("sweep_every must be >= 1")
        self._rebalance = rebalance
        self._store = rebalance._store
        #: Optional anti-entropy loop: every ``sweep_every``-th step runs a
        #: digest sweep before the repair flush, so divergence queued by
        #: the sweep heals in the same step that found it.
        self._antientropy = antientropy
        self._sweep_every = sweep_every
        self.steps = 0
        self.keys_processed = 0
        #: Read repairs completed while driving (flushed after each step).
        self.repairs: List[RepairEvent] = []
        #: Anti-entropy sweep reports, when a sweeper is attached.
        self.sweeps: List[AntiEntropyReport] = []

    @property
    def rebalance(self) -> Rebalance:
        return self._rebalance

    @property
    def done(self) -> bool:
        """Whether the migration has finalized (topology committed)."""
        return self._rebalance.report is not None

    @property
    def stalled(self) -> bool:
        """Whether the migration is currently blocked by a partition."""
        return self._rebalance.stalled

    @property
    def report(self) -> Optional[RebalanceReport]:
        return self._rebalance.report

    def step(self, budget_keys: int = 64) -> int:
        """Advance the migration by roughly ``budget_keys`` keys.

        Returns the number of keys actually copied or grounded this call
        (0 once the rebalance has finalized, or while every runnable batch
        waits on a partitioned shard — check :attr:`stalled`).  Always
        flushes the store's pending read repairs before returning, even
        after completion — the driver doubles as the background repair
        (and, with a sweeper attached, anti-entropy) loop.
        """
        if budget_keys < 1:
            raise ValueError("budget_keys must be >= 1")
        processed = 0
        while processed < budget_keys:
            if not self._rebalance.step():
                break
            if self._rebalance.stalled:
                break  # blocked on a partition — budget can't be spent
            processed += self._rebalance.last_step_keys
        self.steps += 1
        self.keys_processed += processed
        if self._antientropy is not None and self.steps % self._sweep_every == 0:
            self.sweeps.append(self._antientropy.sweep())
        self.repairs.extend(self._store.flush_repairs())
        return processed

    def run(self, budget_keys: int = 64) -> RebalanceReport:
        """Drive to completion in ``budget_keys`` increments.

        Refuses to spin on a partition: a stalled step makes no progress,
        so waiting here would loop forever — heal first, or keep calling
        :meth:`step` from a loop that also heals faults.
        """
        while self._rebalance.report is None:
            self.step(budget_keys)
            if self._rebalance.report is None and self._rebalance.stalled:
                raise ShardUnavailableError(
                    "rebalance stalled: a shard it must touch is "
                    "partitioned — heal it before driving to completion"
                )
        return self._rebalance.report


class ReplicatedStore:
    """``shards`` primaries, each with N asynchronous read-cached replicas,
    over a pluggable storage backend and a weighted consistent-hash ring.

    One :class:`StoreConfig` describes the whole store (``None`` takes its
    defaults); :meth:`begin_resize` is the one way to reshape it."""

    def __init__(
        self, cost: CostModel, config: Optional[StoreConfig] = None
    ) -> None:
        config = config or StoreConfig()
        self._cost = cost
        #: The typed deployment description every node is built from.
        self.backend_config = config.backend
        self._n_replicas = config.n_replicas
        self._lag = config.replication_lag
        self._cache_ttl = config.cache_ttl
        self._row_bytes = config.row_bytes
        #: Shared physical infrastructure across every node of every shard,
        #: mirroring :class:`repro.systems.backends.BackendGroup`: one
        #: pooled block-cache budget (``BackendConfig(backend="lsm",
        #: shared_block_cache=capacity)``) instead of a private slice per
        #: node.
        self.block_cache: Optional[SharedBlockCache] = None
        extras: Dict[str, Any] = {}
        if config.backend.backend == "lsm":
            capacity = config.backend.shared_block_cache_capacity
            if capacity:
                self.block_cache = SharedBlockCache(capacity)
                extras["block_cache"] = self.block_cache
        self._node_extras = extras
        self._shards: Dict[int, _Shard] = {
            index: self._make_shard(index, solo=(config.shards == 1))
            for index in range(config.shards)
        }
        self._ring = HashRing(
            self._shards, vnodes=config.vnodes, weights=config.weights_mapping
        )
        self._next_shard_id = config.shards
        self._rebalance: Optional[Rebalance] = None
        #: Attached by :class:`repro.distributed.faults.FaultInjector` —
        #: ``None`` means no fault layer, every shard reachable.
        self._fault_injector: Optional[FaultInjector] = None
        self._move_listeners: List[Callable[[MoveEvent], None]] = []
        self._repair_listeners: List[Callable[[RepairEvent], None]] = []
        #: Read repairs awaiting their asynchronous run: ``(shard, key)`` →
        #: the highest primary seqno a consistent read observed divergence
        #: against.  Drained by :meth:`flush_repairs`.
        self._pending_repairs: Dict[Tuple[int, Any], int] = {}

    @classmethod
    def from_config(cls, cost: CostModel, config: StoreConfig) -> "ReplicatedStore":
        """Build a store from one declarative :class:`StoreConfig`."""
        return cls(cost, config)

    def _make_shard(self, index: int, solo: bool = False) -> _Shard:
        return _Shard(
            index,
            self._cost,
            self._n_replicas,
            self._lag,
            self._cache_ttl,
            self._row_bytes,
            self.backend_config,
            solo=solo,
            extras=self._node_extras,
            repair_sink=self._queue_repair,
        )

    # -------------------------------------------------------------- topology
    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def shard_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self._shards))

    @property
    def shard_weights(self) -> Dict[int, float]:
        """Shard id → ring weight (heavier shards own more keyspace)."""
        return self._ring.weights

    def shards_involved(self, key: Any) -> Tuple[int, ...]:
        """Every shard a read/write/erase of ``key`` may touch right now
        (sorted).  Outside a rebalance that is the single ring owner;
        mid-rebalance the dual-routing pair (source and destination) — the
        lock scope the service layer's per-shard discipline needs."""
        if self._rebalance is None:
            return (self._ring.owner(key),)
        old, new = self._rebalance.owners(key)
        return tuple(sorted({old, new}))

    def shard_of(self, key: Any) -> int:
        """The shard the key routes to (ring owner; during a rebalance,
        writes to a not-yet-copied key still route to its source shard)."""
        if self._rebalance is not None:
            return self._rebalance.route_write(key)
        return self._ring.owner(key)

    def _shard(self, key: Any) -> _Shard:
        return self._shards[self.shard_of(key)]

    def shards(self) -> Iterator[_Shard]:
        for index in sorted(self._shards):
            yield self._shards[index]

    @property
    def replica_count(self) -> int:
        """Replicas per shard."""
        return self._n_replicas

    def nodes(self) -> Iterator[_Node]:
        for shard in self.shards():
            yield from shard.nodes()

    # ------------------------------------------------------- fault awareness
    @property
    def fault_injector(self) -> Optional[FaultInjector]:
        """The attached fault injector, if a harness installed one."""
        return self._fault_injector

    def _check_reachable(self, *shard_indices: int) -> None:
        """Fail fast if any shard a serving-path operation must touch is
        partitioned.  Erase paths call this for *every* involved shard
        before mutating anything, so a partial erase cannot be mistaken
        for a grounded one.  Forensic surfaces (``copies_of``) never call
        it — the compliance auditor's view is global, not routed."""
        injector = self._fault_injector
        if injector is None:
            return
        for index in shard_indices:
            if injector.is_partitioned(index):
                raise ShardUnavailableError(
                    f"shard {index} is partitioned from the router"
                )

    # ----------------------------------------------------- replica elasticity
    def set_replicas(self, n_replicas: int) -> ReplicaChangeReport:
        """Elastically change the per-shard replica count, grounded both
        ways: joining replicas bootstrap by replaying the scrubbed
        replication log (never a resurrected value), and leaving replicas
        have every live copy erased — delete, cache drop, reclamation —
        before they stop being ``copies_of``'s problem.

        Removals drop the highest-index replicas first.  Refused while a
        rebalance is migrating keys (two concurrent topology changes) or
        while any injected fault is active (a crashed replica cannot be
        grounded-removed; heal first).
        """
        if n_replicas < 0:
            raise ValueError("n_replicas must be non-negative")
        if self._rebalance is not None:
            raise RuntimeError(
                "cannot change the replica count mid-rebalance"
            )
        injector = self._fault_injector
        if injector is not None and injector.active_count:
            raise RuntimeError(
                "cannot change the replica count with active faults: "
                f"{', '.join(injector.active_faults)}"
            )
        before = self._n_replicas
        added = removed = 0
        catchup = grounded = 0
        for shard in self.shards():
            while len(shard.replicas) < n_replicas:
                catchup += shard.add_replica()
                added += 1
            while len(shard.replicas) > n_replicas:
                grounded += shard.remove_replica(len(shard.replicas) - 1)
                removed += 1
        self._n_replicas = n_replicas
        return ReplicaChangeReport(
            replicas_before=before,
            replicas_after=n_replicas,
            shards=len(self._shards),
            added=added,
            removed=removed,
            catchup_entries=catchup,
            grounded_values=grounded,
        )

    # ------------------------------------------------------------ antientropy
    def anti_entropy_sweep(
        self, n_ranges: int = 16
    ) -> Tuple[AntiEntropyReport, List[RepairEvent]]:
        """One full anti-entropy cycle: digest-compare every live replica
        against its primary, queue divergent arcs through the read-repair
        queue, and flush it — returning the sweep report and the
        :class:`RepairEvent` s the healing emitted.  For the periodic
        version attach an :class:`AntiEntropySweeper` to a
        :class:`RebalanceDriver` or run the service maintenance tick."""
        report = AntiEntropySweeper(self, n_ranges=n_ranges).sweep()
        return report, self.flush_repairs()

    # ------------------------------------------------------------ maintenance
    def maintain(self, max_bytes: Optional[int] = None) -> int:
        """Run one bounded maintenance slice of deferred backend work
        (compaction on LSM nodes) across every shard node; returns merges
        run.  ``max_bytes`` is a *per-node* input-byte budget — the same
        bounded-slice contract as :meth:`RebalanceDriver.step`, so the
        service maintenance thread can interleave slices with live
        requests without an unbounded stall."""
        merges = 0
        for node in self.nodes():
            merges += node.backend.maintain(max_bytes=max_bytes)
        return merges

    def compaction_stats(self) -> "CompactionStats":
        """Aggregated merge/throttle counters across every shard node."""
        total = EMPTY_COMPACTION_STATS
        for node in self.nodes():
            total = total + node.backend.compaction_stats()
        return total

    @property
    def rebalance_in_progress(self) -> bool:
        return self._rebalance is not None

    # ------------------------------------------------------------ rebalancing
    def add_move_listener(self, listener: Callable[[MoveEvent], None]) -> None:
        """Subscribe to grounded key moves (the facade records them as MOVE
        audit actions)."""
        self._move_listeners.append(listener)

    def _emit_move(self, event: MoveEvent) -> None:
        for listener in self._move_listeners:
            listener(event)

    # ------------------------------------------------------------ read repair
    def add_repair_listener(
        self, listener: Callable[[RepairEvent], None]
    ) -> None:
        """Subscribe to completed read repairs (the facade records them as
        REPAIR audit actions)."""
        self._repair_listeners.append(listener)

    def _emit_repair(self, event: RepairEvent) -> None:
        for listener in self._repair_listeners:
            listener(event)

    def _queue_repair(self, shard_index: int, key: Any, upto: int) -> None:
        """A consistent read observed divergence: remember the laggards'
        catch-up target.  Deduplicated per (shard, key) — repeated diverged
        reads raise the target instead of queueing duplicate work."""
        slot = (shard_index, key)
        self._pending_repairs[slot] = max(
            self._pending_repairs.get(slot, 0), upto
        )

    @property
    def pending_repairs(self) -> int:
        """Read repairs queued but not yet flushed."""
        return len(self._pending_repairs)

    def flush_repairs(self) -> List[RepairEvent]:
        """Run every queued read repair: force-apply each lagging replica's
        backlog up to the seqno its diverged read observed.

        Replaying the log respects grounded erases — a key erased since the
        repair was queued has its log values scrubbed (PUT/UPDATE replay as
        no-ops) and its replicas already force-applied by the erase barrier,
        so the repair finds nothing to do and emits no event; a repaired
        replica can never resurrect an erased value.  Returns the
        :class:`RepairEvent` per (shard, key) that actually re-synced
        something; each is also announced to :meth:`add_repair_listener`
        subscribers."""
        pending, self._pending_repairs = self._pending_repairs, {}
        events: List[RepairEvent] = []
        injector = self._fault_injector
        for (sid, key), upto in sorted(
            pending.items(), key=lambda item: (item[0][0], repr(item[0][1]))
        ):
            shard = self._shards.get(sid)
            if shard is None:
                continue  # the shard was decommissioned since the read
            if injector is not None and injector.is_partitioned(sid):
                # Repair traffic honors partitions too: keep the repair
                # queued (at its highest observed target) for the heal.
                slot = (sid, key)
                self._pending_repairs[slot] = max(
                    self._pending_repairs.get(slot, 0), upto
                )
                continue
            if isinstance(key, RangeRepair):
                # An anti-entropy sweep queued a divergent keyspace arc:
                # re-sync it from the primary's live state (backlog replay
                # first, direct overwrite/delete for what the log cannot
                # explain) — see _Shard.resync_range for why this can
                # never resurrect an erased value.
                repaired, entries = shard.resync_range(
                    key.range_index, key.n_ranges
                )
                if repaired:
                    event = RepairEvent(
                        repr(key), sid, repaired, entries,
                        self._cost.clock.now,
                    )
                    events.append(event)
                    self._emit_repair(event)
                continue
            repaired = 0
            entries = 0
            for node in shard.replicas:
                if node.applied_seqno < upto:
                    applied = shard._apply_backlog(node, force=True, upto=upto)
                    if applied:
                        repaired += 1
                        entries += applied
            if repaired:
                event = RepairEvent(
                    key, sid, repaired, entries, self._cost.clock.now
                )
                events.append(event)
                self._emit_repair(event)
        return events

    def _begin(
        self,
        new_ring: HashRing,
        spawn: int,
        removed: Sequence[int],
        batch_size: int,
    ) -> Rebalance:
        rebalance = Rebalance(
            self,
            new_ring,
            [self._spawn_shard() for _ in range(spawn)],
            removed,
            batch_size,
        )
        self._rebalance = rebalance
        return rebalance

    @staticmethod
    def _resolve_weights(
        weights: Optional[Union[Mapping[int, float], Sequence[float]]],
        survivors: Sequence[int],
    ) -> Optional[Dict[int, float]]:
        """Normalize a weights argument against the target topology.

        A mapping names shard ids explicitly; a plain sequence is zipped
        against the target shard ids in sorted order (convenient for grows,
        where the new ids are assigned by the store).
        """
        if weights is None:
            return None
        if isinstance(weights, Mapping):
            unknown = sorted(set(weights) - set(survivors))
            if unknown:
                raise ValueError(
                    f"weights name shards {unknown} absent from the "
                    f"target topology {sorted(survivors)}"
                )
            return {sid: float(w) for sid, w in weights.items()}
        listed = [float(w) for w in weights]
        ordered = sorted(survivors)
        if len(listed) != len(ordered):
            raise ValueError(
                f"got {len(listed)} weights for {len(ordered)} target "
                "shards; pass one per shard (sorted by shard id) or a "
                "mapping"
            )
        return dict(zip(ordered, listed))

    def begin_resize(
        self,
        shards: int,
        batch_size: int = 64,
        weights: Optional[
            Union[Mapping[int, float], Sequence[float]]
        ] = None,
    ) -> Rebalance:
        """Start an online topology change to ``shards`` shard groups — the
        one way to grow, shrink, or reweight the store.

        Growing spawns fresh shards; shrinking drains the highest-id shards
        into the survivors; the same count with ``weights`` is a pure
        capacity reweight.  ``weights`` (a shard-id mapping, or one float
        per target shard sorted by id) sets the target ring's capacity
        weights; omitted, surviving shards keep theirs and new shards get
        1.0.  The target ring is built over the would-be shard ids before
        any shard is spawned, so a rejected call leaves the topology
        untouched.  The returned :class:`Rebalance` must be driven
        (``run()``, ``step()`` repeatedly, or a :class:`RebalanceDriver`)
        to complete the change; until then the store dual-routes."""
        if self._rebalance is not None:
            raise RuntimeError("a rebalance is already in progress")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if weights is not None and not weights:
            raise ValueError("weights must name at least one shard")
        current = sorted(self._shards)
        spawn = max(0, shards - len(current))
        target = current[:shards] + list(
            range(self._next_shard_id, self._next_shard_id + spawn)
        )
        new_ring = self._ring.with_nodes(
            target, weights=self._resolve_weights(weights, target)
        )
        return self._begin(new_ring, spawn, current[shards:], batch_size)

    def _spawn_shard(self) -> int:
        index = self._next_shard_id
        self._next_shard_id += 1
        self._shards[index] = self._make_shard(index, solo=False)
        return index

    # ----------------------------------------------------------------- writes
    def put(self, key: Any, value: Any) -> None:
        sid = self.shard_of(key)
        self._check_reachable(sid)
        self._shards[sid].put(key, value)

    def update(self, key: Any, value: Any) -> None:
        sid = self.shard_of(key)
        self._check_reachable(sid)
        self._shards[sid].update(key, value)

    def naive_delete(self, key: Any) -> None:
        """The under-specified erase: DELETE at the owning shard's primary,
        replication does the rest *eventually* — replicas and caches keep
        serving and holding the value until lag/TTL/reclamation catch up."""
        sid = self.shard_of(key)
        self._check_reachable(sid)
        self._shards[sid].naive_delete(key)

    # ------------------------------------------------------------------ reads
    def read(
        self,
        key: Any,
        replica: Optional[int] = None,
        use_cache: bool = True,
        consistency: str = "one",
    ) -> Any:
        """Read from the owning shard — primary, one of its replicas, or a
        ``consistency`` level ("one" / "quorum" / "all").  Mid-rebalance the
        read dual-routes: ring-new first, fall back to ring-old."""
        rebalance = self._rebalance
        if rebalance is None:
            sid = self.shard_of(key)
            self._check_reachable(sid)
            return self._shards[sid].read(
                key, replica=replica, use_cache=use_cache, consistency=consistency
            )
        first, fallback = rebalance.route_read(key)
        self._check_reachable(first)
        try:
            return self._shards[first].read(
                key, replica=replica, use_cache=use_cache, consistency=consistency
            )
        except TupleNotFoundError:
            if fallback == first:
                raise
            self._check_reachable(fallback)
            return self._shards[fallback].read(
                key, replica=replica, use_cache=use_cache, consistency=consistency
            )

    # -------------------------------------------------------------- forensics
    def copies_of(self, key: Any) -> List[Tuple[CopyLocation, str]]:
        """Every location physically holding the value right now — live
        entries, dead (unreclaimed) data, cache entries, log/WAL row images
        on the key's owning shard, and (mid-rebalance) both the old and new
        owners plus a MIGRATION site while the move is in flight."""
        rebalance = self._rebalance
        if rebalance is None:
            return self._shard(key).copies_of(key)
        old, new = rebalance.owners(key)
        found = list(self._shards[old].copies_of(key))
        if new != old:
            found.extend(self._shards[new].copies_of(key))
        route = rebalance.in_flight_route(key)
        if route is not None:
            src, dst = route
            found.append((CopyLocation.MIGRATION, f"shard-{src}→shard-{dst}"))
        return found

    # ---------------------------------------------------------------- erasure
    def erase_all_copies(self, key: Any) -> DistributedEraseReport:
        """The grounded distributed erase: track and delete every copy on
        the key's shard — primary, replicas, caches, replication log, and
        each node's WAL — then verify via the tracker.  Mid-rebalance the
        erase covers *both* owning shards and cancels the key's move.
        A batch of one: :meth:`erase_many` is the algorithm."""
        batch = self.erase_many([key])
        return DistributedEraseReport(
            key=key,
            nodes_deleted=batch.nodes_deleted,
            caches_invalidated=batch.caches_invalidated,
            dead_tuples_vacuumed=batch.dead_tuples_vacuumed,
            verified_clean=batch.verified_clean,
            log_values_scrubbed=batch.log_values_scrubbed,
            # The erase cancelled any move of the key, so it now routes
            # to its ring-new owner.
            shard=self.shard_of(key),
        )

    def erase_many(self, keys: Sequence[Any]) -> BatchEraseReport:
        """Batch grounded erase: fan the victims out per shard, delete every
        copy, and run **one reclamation pass per node** instead of one per
        key — the distributed analogue of the engine batch helpers.
        Mid-rebalance every victim is erased on both of its owners and its
        move is cancelled."""
        keys = list(keys)
        rebalance = self._rebalance
        # Reachability first, for every involved shard, before any move is
        # cancelled or any copy deleted — the batch grounds atomically with
        # respect to partitions or not at all.
        involved: Set[int] = set()
        for key in keys:
            if rebalance is None:
                involved.add(self.shard_of(key))
            else:
                involved.update(rebalance.owners(key))
        self._check_reachable(*sorted(involved))
        by_shard: Dict[int, List[Any]] = {}
        for key in keys:
            if rebalance is None:
                by_shard.setdefault(self.shard_of(key), []).append(key)
            else:
                old, new = rebalance.owners(key)
                rebalance.cancel(key)
                by_shard.setdefault(new, []).append(key)
                if old != new:
                    by_shard.setdefault(old, []).append(key)
        nodes_deleted = caches = vacuumed = scrubbed = reclaims = 0
        shard_seconds: List[float] = []
        for shard_index, shard_keys in sorted(by_shard.items()):
            before = self._cost.clock.now
            d, c, v, s, r = self._shards[shard_index].erase_many(shard_keys)
            shard_seconds.append((self._cost.clock.now - before) / 1e6)
            nodes_deleted += d
            caches += c
            vacuumed += v
            scrubbed += s
            reclaims += r
        clean = all(not self.copies_of(key) for key in keys)
        return BatchEraseReport(
            n_keys=len(keys),
            shards_touched=len(by_shard),
            nodes_deleted=nodes_deleted,
            caches_invalidated=caches,
            dead_tuples_vacuumed=vacuumed,
            log_values_scrubbed=scrubbed,
            reclamations=reclaims,
            verified_clean=clean,
            shard_seconds=tuple(shard_seconds),
        )

    # ------------------------------------------------------------- statistics
    def replication_backlog(self, replica: int, shard: int = 0) -> int:
        """Log entries the replica has not applied yet."""
        return self._shards[shard].replication_backlog(replica)
