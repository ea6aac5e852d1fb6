"""Command-line interface — regenerate experiments and audit groundings.

Usage::

    python -m repro table1
    python -m repro table2  [--records N] [--txns N] [--backend B]
    python -m repro fig4a   [--records N] [--txns N ...]
    python -m repro fig4b   [--records N] [--txns N] [--backend B]
    python -m repro fig4c   [--txns N] [--records N ...] [--backend B]
    python -m repro rebalance [--shards N] [--to M] [--replicas R]
                              [--consistency C] [--backend B] [--keys N]
                              [--background] [--budget K] [--weights W ...]
                              [--replicas-to R2]
    python -m repro chaos   [--seed S ...] [--shards N] [--replicas R]
                            [--keys N] [--ops N] [--budget K] [--backend B]
    python -m repro audit   --profile P_SYS
    python -m repro regulations [--name GDPR]

The backend-generic experiments accept ``--backend psql|lsm|crypto-shred``;
on the lsm backend, ``--compaction size|leveled`` selects the engine's
compaction policy (leveled cuts write amplification at the Figure-4(c)
scale).

``rebalance`` demonstrates the elastic sharding subsystem: it loads a
keyspace over ``--shards`` consistent-hash shard groups, reads it back at
the chosen ``--consistency`` level, then resizes online to ``--to`` shards
— reporting how few keys the ring moved (vs the near-total reshuffle
modulo routing would cause), the MIGRATION copy sites tracked while keys
were in flight, and that an erase issued *mid-rebalance* still verified
clean.  ``--background`` drives the same migration through a
``RebalanceDriver`` in bounded ``--budget``-key increments interleaved with
a live GDPRBench erasure-mix workload (grounded erases and read repairs
included); ``--weights`` assigns per-shard ring weights so heterogeneous
capacity takes a proportional keyspace share (with ``--to`` equal to
``--shards`` it performs a pure capacity reweight).

Every experiment prints the same rows/series the paper reports.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.experiments import fig4a, fig4b, fig4c, table1, table2
from repro.bench.reporting import (
    render_fig4a,
    render_fig4b,
    render_fig4c,
    render_table1,
    render_table2,
)
from repro.core.compatibility import (
    check_compatibility,
    has_conflicts,
    profile_selection,
)
from repro.core.regulation import all_regulations
from repro.lsm.compaction import COMPACTION_POLICIES
from repro.systems.backends import BACKENDS

#: Storage backends every backend-generic experiment can run on — derived
#: from the registry so a new backend is CLI-selectable the moment it
#: registers.
BACKEND_CHOICES = tuple(sorted(BACKENDS))


def _cmd_table1(args: argparse.Namespace) -> int:
    if args.backend == "both":
        backends = ("psql", "lsm")
    elif args.backend == "all":
        backends = BACKEND_CHOICES
    else:
        backends = (args.backend,)
    for i, backend in enumerate(backends):
        if i:
            print()
        print(render_table1(table1(backend=backend), engine=backend.upper()))
    return 0


def _check_compaction(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """--compaction is an LSM engine knob; reject it on other backends."""
    if args.compaction is not None and args.backend != "lsm":
        parser.error("--compaction requires --backend lsm")


def _cmd_table2(args: argparse.Namespace) -> int:
    print(
        render_table2(
            table2(
                args.records,
                args.txns,
                backend=args.backend,
                compaction=args.compaction,
            )
        )
    )
    return 0


def _cmd_fig4a(args: argparse.Namespace) -> int:
    series = fig4a(record_count=args.records, txn_counts=tuple(args.txns))
    print(render_fig4a(series))
    return 0


def _cmd_fig4b(args: argparse.Namespace) -> int:
    results = fig4b(
        record_count=args.records,
        n_transactions=args.txns,
        backend=args.backend,
        compaction=args.compaction,
    )
    print(render_fig4b(results))
    return 0


def _cmd_fig4c(args: argparse.Namespace) -> int:
    results = fig4c(
        record_counts=tuple(args.records),
        n_transactions=args.txns,
        backend=args.backend,
        compaction=args.compaction,
    )
    print(render_fig4c(results))
    return 0


def _cmd_rebalance(args: argparse.Namespace) -> int:
    """Elastic-sharding demo: online (optionally background) resize or
    reweight with grounded key migration."""
    from repro.config import BackendConfig, StoreConfig
    from repro.distributed.ring import stable_hash
    from repro.distributed.store import (
        CopyLocation,
        RebalanceDriver,
        ReplicatedStore,
    )
    from repro.sim.clock import SimClock
    from repro.sim.costs import CostBook, CostModel

    if args.shards < 1 or args.to < 1:
        print("--shards and --to must be >= 1")
        return 2
    if args.keys < 1 or args.replicas < 0 or args.batch_size < 1:
        print("--keys and --batch-size must be >= 1, --replicas >= 0")
        return 2
    if args.budget < 1:
        print("--budget must be >= 1")
        return 2
    reweight_only = args.to == args.shards
    if reweight_only and args.weights is None:
        print(
            "--to must differ from --shards for a topology change "
            "(or pass --weights for a pure capacity reweight)"
        )
        return 2
    if args.weights is not None:
        if len(args.weights) != args.to:
            print(f"--weights needs one weight per target shard ({args.to})")
            return 2
        if any(w <= 0 for w in args.weights):
            print("--weights must all be positive")
            return 2
    cost = CostModel(SimClock(), CostBook())
    store = ReplicatedStore(
        cost,
        StoreConfig(
            backend=BackendConfig(backend=args.backend),
            shards=args.shards,
            n_replicas=args.replicas,
            cache_ttl=10**12,
        ),
    )
    keys = [f"u{i:06d}" for i in range(args.keys)]
    for i, key in enumerate(keys):
        store.put(key, (i, "payload"))
    cost.clock.charge(60_000, "replication lag elapses")
    if args.replicas:
        for key in keys:
            store.read(key, replica=0)  # replicas apply + caches warm

    t0 = cost.clock.now
    for key in keys[: min(200, len(keys))]:
        store.read(key, use_cache=False, consistency=args.consistency)
    sample = min(200, len(keys))
    read_us = (cost.clock.now - t0) / sample
    print(
        f"{args.backend}: {len(keys)} keys over {args.shards} shard(s), "
        f"{args.replicas} replica(s)/shard"
    )
    print(f"  read({args.consistency!r}) mean simulated latency: {read_us:.0f} us")

    modulo_moved = sum(
        1
        for key in keys
        if stable_hash(key) % args.shards != stable_hash(key) % args.to
    )
    rebalance = store.begin_resize(
        args.to, batch_size=args.batch_size, weights=args.weights
    )
    rebalance.step()  # copy step: first batch goes in flight
    migration_sites = [
        (key, name)
        for key in keys
        if rebalance.in_flight_route(key)
        for loc, name in store.copies_of(key)
        if loc is CopyLocation.MIGRATION
    ]
    erased_clean = True
    if migration_sites:
        victim = migration_sites[0][0]
        erased_clean = store.erase_all_copies(victim).verified_clean
        print(
            f"  mid-rebalance: {len(migration_sites)} MIGRATION site(s) "
            f"tracked; erased {victim!r} in flight "
            f"(verified_clean={erased_clean})"
        )
    if args.background:
        from repro.workloads import erasure_study_workload, run_interleaved

        driver = RebalanceDriver(rebalance)
        workload = erasure_study_workload(len(keys), max(200, len(keys)))
        run = run_interleaved(
            store,
            workload,
            driver,
            ops_per_step=max(1, args.budget // 2),
            budget_keys=args.budget,
            consistency=args.consistency,
        )
        report = driver.report
        erased_clean = erased_clean and run.erases_verified_clean
        print(
            f"  background: {driver.steps} bounded "
            f"step(budget_keys={args.budget}) call(s) interleaved with "
            f"{run.ops_applied} live {workload.name} ops — {run.reads} "
            f"{args.consistency} reads, {run.erases} grounded erases "
            f"mid-rebalance (all clean: {run.erases_verified_clean}), "
            f"{run.repairs} read repair(s)"
        )
    else:
        report = rebalance.run()
    change = (
        f"reweight ×{args.to}" if reweight_only
        else f"resize {args.shards}→{args.to}"
    )
    modulo_note = (
        ""
        if reweight_only
        else f"; modulo routing would move {modulo_moved / len(keys):.0%}"
    )
    print(
        f"  {change}: moved {report.keys_moved}"
        f"/{report.keys_examined} keys "
        f"({report.moved_fraction:.0%}{modulo_note}) in "
        f"{report.batches} batch(es), {report.seconds:.3f} simulated s"
    )
    if args.weights is not None:
        shares = ", ".join(
            f"shard-{sid}: w={weight:g}"
            for sid, weight in sorted(store.shard_weights.items())
        )
        print(f"  weighted ring committed ({shares})")
    print(
        f"  verified clean: {report.verified_clean} "
        f"(every source copy ground-erased"
        + (", drained shards empty)" if report.shards_from != report.shards_to
           and len(report.shards_to) < len(report.shards_from) else ")")
    )
    if args.replicas_to is not None and args.replicas_to != args.replicas:
        change = store.set_replicas(args.replicas_to)
        direction = (
            f"joined {change.added} (scrubbed-log catch-up: "
            f"{change.catchup_entries} entries)"
            if change.added
            else f"retired {change.removed} (grounded "
                 f"{change.grounded_values} value(s) before drop)"
        )
        print(
            f"  replicas {change.replicas_before}→{change.replicas_after} "
            f"per shard across {change.shards} shard(s): {direction}"
        )
    return 0 if (report.verified_clean and erased_clean) else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded fault-injection harness: a live erasure-mix workload over a
    background resize while replicas crash and shards partition, with the
    runtime invariant registry as the oracle."""
    from repro.analysis.invariants import store_invariants
    from repro.config import BackendConfig, StoreConfig
    from repro.distributed.antientropy import AntiEntropySweeper
    from repro.distributed.faults import FaultPlan
    from repro.distributed.store import RebalanceDriver, ReplicatedStore
    from repro.sim.clock import SimClock
    from repro.sim.costs import CostBook, CostModel
    from repro.workloads.driver import load_store, run_interleaved
    from repro.workloads.gdprbench import erasure_study_workload

    if args.shards < 1 or args.replicas < 1:
        print("--shards must be >= 1 and --replicas >= 1 (faults need "
              "replicas to kill)")
        return 2
    if args.keys < 1 or args.ops < 4 or args.budget < 1:
        print("--keys and --budget must be >= 1, --ops >= 4")
        return 2
    failures = 0
    for seed in args.seed:
        cost = CostModel(SimClock(), CostBook())
        store = ReplicatedStore(
            cost,
            StoreConfig(
                backend=BackendConfig(backend=args.backend),
                shards=args.shards,
                n_replicas=args.replicas,
            ),
        )
        workload = erasure_study_workload(args.keys, args.ops, seed=seed)
        load_store(store, workload)
        plan = FaultPlan.seeded(
            seed,
            shards=args.shards,
            replicas=args.replicas,
            n_ops=args.ops,
        )
        rebalance = store.begin_resize(
            args.shards + 1, batch_size=max(8, args.budget // 2)
        )
        driver = RebalanceDriver(
            rebalance,
            antientropy=AntiEntropySweeper(store),
            sweep_every=2,
        )
        result = run_interleaved(
            store,
            workload,
            driver,
            ops_per_step=16,
            budget_keys=args.budget,
            consistency="quorum",
            invariants=store_invariants(),
            faults=plan,
        )
        ok = (
            result.erases_verified_clean
            and not result.invariant_violations
            and result.rebalance_completed
        )
        failures += 0 if ok else 1
        print(
            f"seed {seed}: {len(plan)} fault transition(s) "
            f"({plan.kills} kill(s), {plan.partitions} partition(s)) over "
            f"{result.ops_applied} {workload.name} ops — "
            f"{result.fault_events_applied} applied, "
            f"{result.fault_errors} op(s) failed fast; "
            f"{result.erases} grounded erase(s) all clean: "
            f"{result.erases_verified_clean}; "
            f"{result.invariants_checked} invariant evaluation(s), "
            f"{len(result.invariant_violations)} violation(s); "
            f"rebalance completed: {result.rebalance_completed}"
        )
        for violation in result.invariant_violations:
            print(f"  VIOLATION {violation}")
    print(
        f"chaos: {len(args.seed)} seed(s), "
        f"{len(args.seed) - failures} clean, {failures} failed"
    )
    return 1 if failures else 0


def _cmd_audit(args: argparse.Namespace) -> int:
    """Compatibility audit of a profile's grounding selections (§3.2)."""
    selection = profile_selection(args.profile)
    findings = check_compatibility(selection)
    if not findings:
        print(f"{args.profile}: no grounding incompatibilities detected")
        return 0
    print(f"{args.profile}: {len(findings)} finding(s)")
    for finding in findings:
        print(f"  {finding}")
    return 2 if has_conflicts(findings) else 0


def _cmd_regulations(args: argparse.Namespace) -> int:
    for regulation in all_regulations():
        if args.name and regulation.name != args.name:
            continue
        print(regulation.render_figure1())
        print()
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """The grounding linter: exit 1 on any finding."""
    from pathlib import Path

    from repro.analysis.engine import package_root, render_report, run_rules

    root = Path(args.path) if args.path else package_root()
    findings = run_rules(root)
    print(render_report(findings))
    return 1 if findings else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Compliance-as-a-service front door: a concurrent HTTP server over a
    sharded ReplicatedStore (see docs/SERVICE.md)."""
    from repro.config import BackendConfig, ServiceConfig, StoreConfig
    from repro.distributed.store import ReplicatedStore
    from repro.service import ComplianceService
    from repro.service.http import serve_forever
    from repro.sim.clock import SimClock
    from repro.sim.costs import CostBook, CostModel

    if args.shards < 1 or args.replicas < 0:
        print("--shards must be >= 1 and --replicas >= 0")
        return 2
    if args.workers < 1 or args.queue_depth < 1 or args.erase_batch < 1:
        print("--workers, --queue-depth and --erase-batch must be >= 1")
        return 2
    backend_config = BackendConfig(
        backend=args.backend, compaction=args.compaction
    )
    store_config = StoreConfig(
        backend=backend_config,
        shards=args.shards,
        n_replicas=args.replicas,
    )
    cost = CostModel(SimClock(), CostBook())
    store = ReplicatedStore.from_config(cost, store_config)
    for i in range(args.preload):
        store.put(f"u{i:06d}", (i, "payload"))
    service = ComplianceService(
        store,
        config=ServiceConfig(
            workers_per_shard=args.workers,
            queue_depth=args.queue_depth,
            erase_batch=args.erase_batch,
        ),
    )
    serve_forever(service, host=args.host, port=args.port)
    return 0


# --------------------------------------------------------------------------
# Shared parent parsers: the flags several subcommands accept are declared
# once here — a subparser composes the parents it needs instead of
# re-declaring ``--backend``/``--compaction``/``--records``/``--txns``
# inline (and drifting, as six near-identical copies once did).
# --------------------------------------------------------------------------
def _backend_parent(
    help: str,  # noqa: A002 (mirrors argparse's own keyword)
    extra_choices: tuple = (),
) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--backend", default="psql",
        choices=[*BACKEND_CHOICES, *extra_choices], help=help,
    )
    return parent


def _compaction_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--compaction", default=None, choices=list(COMPACTION_POLICIES),
        help="LSM compaction policy (requires --backend lsm)",
    )
    return parent


def _fixed_parent(axis: str, default: int) -> argparse.ArgumentParser:
    """A single-valued ``--records``/``--txns`` scale flag."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(f"--{axis}", type=int, default=default)
    return parent


def _sweep_parent(axis: str, default: List[int]) -> argparse.ArgumentParser:
    """A multi-valued ``--records``/``--txns`` sweep flag (nargs=+)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(f"--{axis}", type=int, nargs="+", default=default)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Data-CASE reproduction: experiments and grounding audits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "table1", help="erasure characterization matrix",
        parents=[_backend_parent(
            "storage backend to ground the interpretations on "
            "('both' = psql+lsm, 'all' = every backend)",
            extra_choices=("both", "all"),
        )],
    )
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser(
        "table2", help="space factors (Table 2)",
        parents=[
            _fixed_parent("records", 100_000),
            _fixed_parent("txns", 10_000),
            _backend_parent("storage backend the profiles run on"),
            _compaction_parent(),
        ],
    )
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser(
        "fig4a", help="erasure implementations on PSQL",
        parents=[
            _fixed_parent("records", 100_000),
            _sweep_parent("txns", [10_000, 30_000, 50_000, 70_000]),
        ],
    )
    p.set_defaults(func=_cmd_fig4a)

    p = sub.add_parser(
        "fig4b", help="profiles × workloads completion time",
        parents=[
            _fixed_parent("records", 100_000),
            _fixed_parent("txns", 10_000),
            _backend_parent("storage backend the profile grid runs on"),
            _compaction_parent(),
        ],
    )
    p.set_defaults(func=_cmd_fig4b)

    p = sub.add_parser(
        "fig4c", help="scalability in record count",
        parents=[
            _fixed_parent("txns", 10_000),
            _sweep_parent(
                "records", [100_000, 200_000, 300_000, 400_000, 500_000]
            ),
            _backend_parent("storage backend the profile grid runs on"),
            _compaction_parent(),
        ],
    )
    p.set_defaults(func=_cmd_fig4c)

    p = sub.add_parser(
        "rebalance",
        help="online consistent-hash resize with grounded key migration",
        parents=[_backend_parent("storage backend every node runs")],
    )
    p.add_argument("--keys", type=int, default=2_000,
                   help="keys to load before resizing")
    p.add_argument("--shards", type=int, default=4,
                   help="initial shard count")
    p.add_argument("--to", type=int, default=5,
                   help="target shard count (grow or shrink)")
    p.add_argument("--replicas", type=int, default=1,
                   help="asynchronous replicas per shard")
    p.add_argument("--consistency", default="quorum",
                   choices=["one", "quorum", "all"],
                   help="read consistency level for the read phase")
    p.add_argument("--batch-size", type=int, default=64,
                   help="keys migrated per batch")
    p.add_argument("--background", action="store_true",
                   help="drive the migration as a background process: "
                        "bounded step(budget_keys=…) increments interleaved "
                        "with a live GDPRBench erasure-mix workload "
                        "(consistent reads, grounded mid-rebalance erases, "
                        "read repairs)")
    p.add_argument("--budget", type=int, default=32,
                   help="keys migrated per background step "
                        "(with --background)")
    p.add_argument("--weights", type=float, nargs="+", default=None,
                   metavar="W",
                   help="ring weights, one per target shard (sorted by id); "
                        "heavier shards own proportionally more keyspace. "
                        "With --to equal to --shards this performs a pure "
                        "capacity reweight")
    p.add_argument("--replicas-to", type=int, default=None,
                   help="after the rebalance commits, change the per-shard "
                        "replica count to this value: joiners catch up from "
                        "the scrubbed replication log, leavers are grounded "
                        "before they drop")
    p.set_defaults(func=_cmd_rebalance)

    p = sub.add_parser(
        "chaos",
        help="seeded fault injection: kill/partition schedules against a "
             "live rebalance, invariant-checked",
        parents=[_backend_parent("storage backend every node runs")],
    )
    p.add_argument("--seed", type=int, nargs="+", default=[11, 12, 13, 14, 15],
                   help="fault-plan seed(s); each runs one full harness pass")
    p.add_argument("--shards", type=int, default=4,
                   help="initial shard count (resizes to one more mid-run)")
    p.add_argument("--replicas", type=int, default=2,
                   help="asynchronous replicas per shard (kill targets)")
    p.add_argument("--keys", type=int, default=300,
                   help="keys loaded before the chaos run")
    p.add_argument("--ops", type=int, default=400,
                   help="live erasure-mix operations per seed")
    p.add_argument("--budget", type=int, default=24,
                   help="keys migrated per background rebalance step")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "serve",
        help="compliance-as-a-service HTTP front door over a sharded store",
        parents=[
            _backend_parent("storage backend every node runs"),
            _compaction_parent(),
        ],
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="interface to bind")
    p.add_argument("--port", type=int, default=8080,
                   help="TCP port to listen on (0 = ephemeral)")
    p.add_argument("--shards", type=int, default=4,
                   help="shard count")
    p.add_argument("--replicas", type=int, default=1,
                   help="asynchronous replicas per shard")
    p.add_argument("--workers", type=int, default=1,
                   help="worker threads per shard")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="bounded admission queue depth per shard "
                        "(full queue rejects with HTTP 429)")
    p.add_argument("--erase-batch", type=int, default=16,
                   help="max consecutive queued erases amortized into one "
                        "erase_many() reclamation")
    p.add_argument("--preload", type=int, default=0,
                   help="load this many u%%06d records before serving")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("audit", help="grounding compatibility audit")
    p.add_argument("--profile", required=True,
                   choices=["P_Base", "P_GBench", "P_SYS"])
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("regulations", help="Figure-1 catalogs")
    p.add_argument("--name", default=None,
                   choices=["GDPR", "CCPA", "VDPA", "PIPEDA"])
    p.set_defaults(func=_cmd_regulations)

    p = sub.add_parser(
        "analyze",
        help="grounding linter (AST rules G01-G06)",
    )
    p.add_argument("--path", default=None,
                   help="file or directory to lint (default: the installed "
                        "repro package)")
    p.set_defaults(func=_cmd_analyze)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "compaction"):
        _check_compaction(parser, args)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - module entry
    sys.exit(main())
