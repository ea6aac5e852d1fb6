"""Declarative runtime invariants — the grounding oracle the driver runs.

The static rules in :mod:`repro.analysis.rules` reject leak-prone *code
shapes*; this module declares the *runtime* properties those shapes exist
to protect, as first-class :class:`Invariant` objects a harness can execute
between steps of a live run (the VenomQA pattern: a registry of
``Invariant(name, check, description)`` evaluated against a ``World`` after
every action).

The :class:`World` is the harness's ground truth: which keys it believes
live, which it grounded-erased, plus the audit events (erase reports,
:class:`MoveEvent`/:class:`RepairEvent` subscriptions) the store emitted
along the way.  Each invariant compares that belief against the store's
physical reality:

* ``copies-match-reality`` — ``copies_of`` agrees with an independent
  physical scan: erased keys have zero copies anywhere (heap, cache, WAL,
  replication log, migration buffers), live keys have at least one;
* ``no-erased-read`` — no read path (any consistency, cache bypassed)
  returns a value for an erased key;
* ``destructive-actions-audited`` — every grounded erase produced a
  verified report, and every migrated key produced exactly one MoveEvent;
* ``replicas-converge`` — no replica has applied past its primary's
  sequence number, and no erased key survives on any individual node;
* ``replicas-converge-after-heal`` — on a fully-healed topology (a fault
  injector is attached and reports zero active faults), every replica is
  up and every fully-caught-up replica's physical content matches its
  primary's hash-range digests — revival catch-up replayed the scrubbed
  log without resurrecting anything, and injected divergence did not
  outlive the heal.

The checks are fault-aware: a store under injected faults
(:mod:`repro.distributed.faults`) may answer a probe with fail-fast
unavailability (``FaultError``) instead of data, and that is never a
violation — serving an *erased value* is the crime, refusing to serve is
not.

:func:`repro.workloads.driver.run_interleaved` evaluates the registry at
every driver-step boundary and once after the drain; ``python -m repro.cli
analyze --invariants`` runs the same registry over a scripted
rebalance-under-erasure scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.distributed.antientropy import range_digests
from repro.distributed.faults import FaultError
from repro.storage.errors import TupleNotFoundError

#: Bounded per-check sample so invariant evaluation stays O(sample) per
#: step, not O(keyspace); deterministic (sorted prefix) for replayability.
SAMPLE_LIMIT = 32


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant: which one, and the evidence."""

    invariant: str
    message: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.message}"


@dataclass(frozen=True)
class Invariant:
    """One executable runtime property.

    ``check`` takes the :class:`World` and returns the violation messages
    it found (empty when the invariant holds).  Checks must be read-mostly
    — they run between live-traffic steps — and bounded (sample, don't
    enumerate the keyspace).
    """

    name: str
    check: Callable[["World"], List[str]]
    description: str


@dataclass
class World:
    """The harness's ground truth about a store under test.

    The driver maintains ``live``/``erased`` from the operations it
    applied; ``attach`` subscribes the audit-event collectors to the
    store's listener seams.  ``erase_reports`` keeps the
    :class:`DistributedEraseReport` of each grounded erase (latest wins —
    a key can be erased, re-created, and erased again).
    """

    store: Any
    driver: Optional[Any] = None
    live: Set[Any] = field(default_factory=set)
    erased: Set[Any] = field(default_factory=set)
    erase_reports: Dict[Any, Any] = field(default_factory=dict)
    moves: List[Any] = field(default_factory=list)
    repairs: List[Any] = field(default_factory=list)
    #: ``keys_moved`` at attach time — migrations advanced before this
    #: world subscribed never produced events it could have seen.
    moved_at_attach: int = 0

    @classmethod
    def observe(cls, store: Any, driver: Optional[Any] = None) -> "World":
        """A world subscribed to the store's audit-event seams."""
        world = cls(store=store, driver=driver)
        world.attach()
        return world

    def attach(self) -> None:
        if hasattr(self.store, "add_move_listener"):
            self.store.add_move_listener(self.moves.append)
        if hasattr(self.store, "add_repair_listener"):
            self.store.add_repair_listener(self.repairs.append)
        if self.driver is not None:
            self.moved_at_attach = self.driver.rebalance.keys_moved

    # ------------------------------------------------------- driver bookkeeping
    def record_write(self, key: Any) -> None:
        """A CREATE/UPDATE landed — the key is live again even if a prior
        erase grounded it (re-creation after erasure is legal; §2.2 only
        forbids *resurrection* of the erased value)."""
        self.live.add(key)
        self.erased.discard(key)
        self.erase_reports.pop(key, None)

    def record_erase(self, key: Any, report: Any) -> None:
        self.erased.add(key)
        self.live.discard(key)
        self.erase_reports[key] = report

    # ----------------------------------------------------------------- sampling
    def erased_sample(self) -> List[Any]:
        return sorted(self.erased)[:SAMPLE_LIMIT]

    def live_sample(self) -> List[Any]:
        return sorted(self.live)[:SAMPLE_LIMIT]


# ------------------------------------------------------------------ the checks
def _check_copies_match_reality(world: World) -> List[str]:
    violations: List[str] = []
    for key in world.erased_sample():
        copies = world.store.copies_of(key)
        if copies:
            sites = ", ".join(f"{loc}@{name}" for loc, name in copies)
            violations.append(
                f"erased key {key!r} still has tracked copies: {sites}"
            )
    # Independent physical scan: copies_of could itself be lying, so ask
    # the shards what they *physically* hold and cross-check.
    if hasattr(world.store, "shards") and world.erased:
        erased = set(world.erased)
        for shard in world.store.shards():
            lingering = erased.intersection(shard.physically_present_keys())
            for key in sorted(lingering)[:SAMPLE_LIMIT]:
                violations.append(
                    f"erased key {key!r} physically present on shard "
                    f"{shard.index} (independent scan)"
                )
    for key in world.live_sample():
        if not world.store.copies_of(key):
            violations.append(
                f"live key {key!r} has no tracked copies — copies_of is "
                "blind to at least one physical site"
            )
    return violations


def _check_no_erased_read(world: World) -> List[str]:
    violations: List[str] = []
    for key in world.erased_sample():
        try:
            value = world.store.read(key, use_cache=False)
        except TupleNotFoundError:
            continue  # the required outcome for an erased key
        except FaultError:
            continue  # unavailable is acceptable; serving the value is not
        violations.append(
            f"read of erased key {key!r} returned {value!r} instead "
            "of TupleNotFoundError"
        )
    return violations


def _check_destructive_audited(world: World) -> List[str]:
    violations: List[str] = []
    for key in world.erased_sample():
        report = world.erase_reports.get(key)
        if report is None:
            violations.append(
                f"erased key {key!r} has no erase report — destructive "
                "action without an audit record"
            )
        elif not report.verified_clean:
            violations.append(
                f"erase of key {key!r} did not verify clean: "
                f"{world.store.copies_of(key)!r}"
            )
    if world.driver is not None:
        moved = world.driver.rebalance.keys_moved - world.moved_at_attach
        if len(world.moves) != moved:
            violations.append(
                f"{moved} key(s) migrated but {len(world.moves)} MoveEvent"
                "(s) emitted — moves without audit records"
            )
    return violations


def _check_replicas_converge(world: World) -> List[str]:
    violations: List[str] = []
    if not hasattr(world.store, "shards"):
        return violations
    for shard in world.store.shards():
        # A replica may lag its primary (asynchronous replication) but can
        # never be *ahead* of it.
        target = shard._seqno  # noqa: SLF001 - oracle reads internals
        for node in shard.replicas:
            if getattr(node, "down", False):
                continue  # crash-stopped: no storage, no seqno to police
            if node.applied_seqno > target:
                violations.append(
                    f"replica {node.name} applied seqno "
                    f"{node.applied_seqno} > primary seqno {target} on "
                    f"shard {shard.index}"
                )
        for key in world.erased_sample():
            for node in shard.nodes():
                if node.backend.exists(key):
                    violations.append(
                        f"erased key {key!r} still live on node "
                        f"{node.name} (shard {shard.index})"
                    )
    return violations


def _check_replicas_converge_after_heal(world: World) -> List[str]:
    """Only meaningful on a store with a fault injector attached *and*
    fully healed: mid-fault, divergence and down replicas are the injected
    state itself.  Once every fault is healed, nothing injected may
    survive: every replica must be up, and every replica claiming to be
    fully caught up (``applied_seqno`` equal to the primary's) must
    physically match the primary — compared by the same hash-range digests
    the anti-entropy sweep uses, so silently lost *or* resurrected state
    in any arc trips it.  Replicas still lagging are legal (asynchronous
    replication); the sweep, a quorum read, or their next lazy catch-up
    will close that gap through the scrubbed log."""
    violations: List[str] = []
    injector = getattr(world.store, "fault_injector", None)
    if injector is None or injector.active_count:
        return violations
    if not hasattr(world.store, "shards"):
        return violations  # pragma: no cover - registry guard
    n_ranges = 8
    for shard in world.store.shards():
        target = shard._seqno  # noqa: SLF001 - oracle reads internals
        primary_digests: Optional[List[int]] = None
        for node in shard.replicas:
            if getattr(node, "down", False):
                violations.append(
                    f"replica {node.name} still down on shard "
                    f"{shard.index} with zero active faults — heal did "
                    "not revive it"
                )
                continue
            if node.applied_seqno != target:
                continue  # lag, not divergence — catch-up is pending
            if primary_digests is None:
                primary_digests = range_digests(
                    shard.primary.backend, n_ranges
                )
            theirs = range_digests(node.backend, n_ranges)
            if theirs != primary_digests:
                arcs = [
                    i
                    for i, (mine, got) in enumerate(
                        zip(primary_digests, theirs)
                    )
                    if mine != got
                ]
                violations.append(
                    f"replica {node.name} claims seqno {target} but its "
                    f"content diverges from the primary in hash range(s) "
                    f"{arcs} (shard {shard.index}) — unhealed divergence "
                    "after all faults cleared"
                )
    return violations


def store_invariants() -> List[Invariant]:
    """The registered invariant set for a :class:`ReplicatedStore` run."""
    return [
        Invariant(
            name="copies-match-reality",
            check=_check_copies_match_reality,
            description=(
                "copies_of agrees with physical reality: erased keys have "
                "zero copies anywhere (cross-checked by an independent "
                "shard scan), live keys have at least one"
            ),
        ),
        Invariant(
            name="no-erased-read",
            check=_check_no_erased_read,
            description=(
                "no read path returns a value for a grounded-erased key"
            ),
        ),
        Invariant(
            name="destructive-actions-audited",
            check=_check_destructive_audited,
            description=(
                "every grounded erase has a verified report and every "
                "migrated key an emitted MoveEvent"
            ),
        ),
        Invariant(
            name="replicas-converge",
            check=_check_replicas_converge,
            description=(
                "no replica runs ahead of its primary and no erased key "
                "survives on any individual node"
            ),
        ),
        Invariant(
            name="replicas-converge-after-heal",
            check=_check_replicas_converge_after_heal,
            description=(
                "with every injected fault healed, all replicas are up "
                "and every fully-caught-up replica's content matches its "
                "primary's hash-range digests"
            ),
        ),
    ]


def check_invariants(
    world: World, invariants: Optional[Sequence[Invariant]] = None
) -> List[InvariantViolation]:
    """Evaluate every invariant against the world; empty list = all hold."""
    invariants = store_invariants() if invariants is None else invariants
    violations: List[InvariantViolation] = []
    for invariant in invariants:
        for message in invariant.check(world):
            violations.append(
                InvariantViolation(invariant=invariant.name, message=message)
            )
    return violations
