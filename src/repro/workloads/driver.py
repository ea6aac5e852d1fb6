"""Concurrent-workload driver — live traffic interleaved with background
rebalancing.

The elastic-sharding claims only matter if they hold *under load*: the
paper's §1 guarantee ("erase all copies" means every physical site) has to
survive a migration that is still running while reads, writes, and grounded
erases keep arriving.  This module turns any generated
:class:`~repro.workloads.base.Workload` (YCSB, the GDPRBench mixes, the
erasure study) into live traffic against a
:class:`~repro.distributed.store.ReplicatedStore`, interleaving a bounded
:meth:`~repro.distributed.store.RebalanceDriver.step` of background key
movement every ``ops_per_step`` operations:

* ``READ`` ops run at the chosen consistency level, so quorum reads that
  observe replica divergence (migration imports create fresh backlog at the
  destination shards) queue the read repairs the driver then flushes;
* ``DELETE`` ops run the **grounded** distributed erase — each one is the
  Art. 17 stress case landing mid-rebalance, and the run records whether
  every single one verified clean;
* ``CREATE``/``UPDATE`` ops write through the dual-routing path, landing at
  the key's correct owner whichever migration phase it is in;
* metadata operations (policy/subject-record traffic) have no replicated-
  store counterpart and are counted but not applied.

``python -m repro rebalance --background`` and ``python -m repro chaos``
are thin wrappers over :func:`run_interleaved`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.invariants import Invariant, World, check_invariants
from repro.distributed.faults import FaultError, FaultInjector, FaultPlan
from repro.storage.errors import TupleNotFoundError
from repro.workloads.base import OpKind, Workload


def unit_key(key: int) -> str:
    """The store key for a workload's integer key: ``u%06d``."""
    return f"u{key:06d}"


def load_store(
    store: Any,
    workload: Workload,
    key_fn: Callable[[int], str] = unit_key,
    value_fn: Callable[[int], Any] = lambda i: (i, "payload"),
) -> List[str]:
    """Load the workload's initial records; returns the keys loaded."""
    keys = [key_fn(i) for i in range(workload.record_count)]
    for i, key in enumerate(keys):
        store.put(key, value_fn(i))
    return keys


@dataclass(frozen=True)
class InterleavedRunResult:
    """What a workload-under-rebalance run did, and whether it stayed
    grounded.

    ``erases_verified_clean`` is the §1 acceptance bit: every DELETE in the
    mix ran as a grounded ``erase_all_copies`` *while the migration was in
    whatever phase it happened to be in*, and all of them verified zero
    lingering copies.  ``repairs`` counts completed read repairs (replica
    re-syncs triggered by diverged quorum reads).

    When the run carries a registry from
    :mod:`repro.analysis.invariants`, ``invariants_checked`` counts the
    individual invariant evaluations performed (once per registered
    invariant at every step boundary, plus a final post-drain sweep) and
    ``invariant_violations`` collects the distinct violation messages —
    empty on a healthy run.
    """

    workload: str
    ops_applied: int
    reads: int
    writes: int
    erases: int
    metadata_ops: int
    read_misses: int
    erases_verified_clean: bool
    driver_steps: int
    keys_stepped: int
    repairs: int
    rebalance_completed: bool
    invariants_checked: int = 0
    invariant_violations: Tuple[str, ...] = ()
    #: Fault-plan transitions applied / skipped (stale topology) during the
    #: run, when a :class:`~repro.distributed.faults.FaultPlan` was given.
    fault_events_applied: int = 0
    fault_events_skipped: int = 0
    #: Operations that failed fast against an injected fault (a partitioned
    #: shard or an unassemblable quorum) — unavailability, not data loss:
    #: the harness never counts them as applied writes or grounded erases.
    fault_errors: int = 0


def run_interleaved(
    store: Any,
    workload: Workload,
    driver: Optional[Any] = None,
    ops_per_step: int = 32,
    budget_keys: int = 32,
    consistency: str = "one",
    key_fn: Callable[[int], str] = unit_key,
    drain: bool = True,
    invariants: Optional[Sequence[Invariant]] = None,
    faults: Optional[FaultPlan] = None,
) -> InterleavedRunResult:
    """Replay ``workload`` against ``store`` while ``driver`` advances a
    background rebalance ``budget_keys`` keys at a time.

    Every ``ops_per_step`` operations the driver takes one bounded step
    (and flushes pending read repairs); with no driver the repairs are
    still flushed on the same cadence, so a pure-traffic run exercises the
    asynchronous repair loop too.  With ``drain`` the migration is driven
    to completion after the traffic ends — the store never stays
    dual-routing forever because the workload was short.

    ``invariants`` (a registry from :mod:`repro.analysis.invariants`)
    turns the run into its own oracle: the harness maintains a
    :class:`World` of what it believes live/erased, and evaluates every
    registered invariant at each step boundary and once after the drain —
    exactly the moments the migration's dual-routing state just changed.

    ``faults`` (a :class:`~repro.distributed.faults.FaultPlan`) replays a
    seeded kill/revive/partition/heal schedule between operations: every
    transition due at the current op index is applied before the op runs,
    and operations that fail fast against an injected fault count as
    ``fault_errors`` rather than applied work.  Before the drain, every
    remaining scheduled transition is applied and all still-active faults
    are healed — the drain must terminate, and the plan's own epilogue is
    exactly the revive/heal tail — so the post-drain invariant sweep always
    runs on a fully-healed topology.
    """
    if ops_per_step < 1:
        raise ValueError("ops_per_step must be >= 1")
    reads = writes = erases = metadata = misses = 0
    repairs = 0
    injector: Optional[FaultInjector] = None
    plan_applied = 0
    fault_applied = fault_skipped = fault_errors = 0
    if faults is not None:
        injector = getattr(store, "_fault_injector", None) or FaultInjector(
            store
        )

    def apply_due(op_index: int) -> None:
        nonlocal plan_applied, fault_applied, fault_skipped
        due = faults.due(op_index, plan_applied)
        if due:
            plan_applied += len(due)
            report = injector.apply(due)
            fault_applied += report.applied
            fault_skipped += report.skipped
    world = (
        World.observe(store, driver=driver) if invariants is not None else None
    )
    invariants_checked = 0
    violations: List[str] = []

    def run_checks() -> None:
        nonlocal invariants_checked
        if world is None:
            return
        invariants_checked += len(invariants)
        for violation in check_invariants(world, invariants).violations:
            message = str(violation)
            if message not in violations:
                violations.append(message)
    # Only repairs completed during THIS run count — the driver may have
    # flushed some in earlier steps (or an earlier run over the same
    # driver).
    driver_repairs_before = len(driver.repairs) if driver is not None else 0
    clean = True
    for i, op in enumerate(workload):
        if faults is not None:
            apply_due(i)
        try:
            if op.kind is OpKind.CREATE:
                store.put(key_fn(op.key), op.payload or (op.key, "payload"))
                if world is not None:
                    world.record_write(key_fn(op.key))
                writes += 1
            elif op.kind is OpKind.READ:
                try:
                    store.read(
                        key_fn(op.key), use_cache=False, consistency=consistency
                    )
                except TupleNotFoundError:
                    misses += 1
                reads += 1
            elif op.kind is OpKind.UPDATE:
                try:
                    store.update(
                        key_fn(op.key), op.payload or (op.key, "rewritten")
                    )
                except TupleNotFoundError:
                    if faults is None:
                        raise
                    # The key's CREATE failed fast against a fault earlier
                    # in this run — nothing to update is unavailability
                    # fallout, not an error.
                    misses += 1
                else:
                    if world is not None:
                        world.record_write(key_fn(op.key))
                    writes += 1
            elif op.kind is OpKind.DELETE:
                report = store.erase_all_copies(key_fn(op.key))
                clean = clean and report.verified_clean
                if world is not None:
                    world.record_erase(key_fn(op.key), report)
                erases += 1
            else:  # metadata traffic has no replicated-store counterpart
                metadata += 1
        except FaultError:
            # Fail-fast unavailability (partitioned shard, unassemblable
            # quorum).  Deliberately counted *before* any ground-truth
            # update: a DELETE that failed here did not erase, so the
            # harness keeps expecting the key live — and the invariant
            # sweep will catch the store if that stops being true.
            fault_errors += 1
        if (i + 1) % ops_per_step == 0:
            if driver is not None and not driver.done:
                driver.step(budget_keys)
            else:
                repairs += len(store.flush_repairs())
            run_checks()
    if faults is not None:
        # Epilogue before the drain: run the rest of the schedule (its
        # revive/heal tail included), then defensively heal anything still
        # active — a drain against a permanent partition would never
        # terminate, and the post-drain checks must see a healed topology.
        rest = list(faults.actions[plan_applied:])
        if rest:
            plan_applied += len(rest)
            report = injector.apply(rest)
            fault_applied += report.applied
            fault_skipped += report.skipped
        injector.heal_all()
    if driver is not None and drain:
        while not driver.done:
            driver.step(budget_keys)
    repairs += len(store.flush_repairs())
    if driver is not None:
        repairs += len(driver.repairs) - driver_repairs_before
    run_checks()
    return InterleavedRunResult(
        workload=workload.name,
        ops_applied=workload.transaction_count,
        reads=reads,
        writes=writes,
        erases=erases,
        metadata_ops=metadata,
        read_misses=misses,
        erases_verified_clean=clean,
        driver_steps=driver.steps if driver is not None else 0,
        keys_stepped=driver.keys_processed if driver is not None else 0,
        repairs=repairs,
        rebalance_completed=driver.done if driver is not None else False,
        invariants_checked=invariants_checked,
        invariant_violations=tuple(violations),
        fault_events_applied=fault_applied,
        fault_events_skipped=fault_skipped,
        fault_errors=fault_errors,
    )
