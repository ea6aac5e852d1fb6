"""The store invariants — the grounding oracle a live run is checked by.

The static rules in :mod:`repro.analysis.rules` reject leak-prone *code
shapes*; this module declares the *runtime* properties those shapes exist
to protect, as :class:`repro.core.invariants.Invariant` entries a harness
evaluates with :func:`repro.core.invariants.check_invariants` between
steps of a live run — the same vocabulary and evaluator as the paper's
regulation invariants.  Each check compares the :class:`World`'s belief
(which keys the harness believes live, which it grounded-erased, the audit
events the store emitted) against the store's physical reality:

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
not.  :func:`repro.workloads.driver.run_interleaved` evaluates the registry
at every driver-step boundary and once after the drain.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.invariants import SAMPLE_LIMIT, Check, Invariant, World
from repro.distributed.antientropy import range_digests
from repro.distributed.faults import FaultError
from repro.storage.errors import TupleNotFoundError


def _store_check(messages: Callable[[World], List[str]]) -> Check:
    """A store check samples keys, not data units: it counts no units and
    its breaches name no unit and no history witness."""
    return lambda world: (0, [(None, m, None) for m in messages(world)])


@_store_check
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


@_store_check
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


@_store_check
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


@_store_check
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


@_store_check
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
        Invariant("copies-match-reality", "GDPR Art. 17", _check_copies_match_reality),
        Invariant("no-erased-read", "GDPR Art. 17", _check_no_erased_read),
        Invariant(
            "destructive-actions-audited",
            "GDPR Arts. 5(2), 30",
            _check_destructive_audited,
        ),
        Invariant("replicas-converge", "GDPR Art. 17", _check_replicas_converge),
        Invariant(
            "replicas-converge-after-heal",
            "GDPR Arts. 5(1)(d), 32",
            _check_replicas_converge_after_heal,
        ),
    ]
