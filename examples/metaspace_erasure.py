"""Case Study 1 (paper §4.1) — MetaSpace grounds "erasure".

A service provider storing smart-space location data wants strong erasure
semantics for GDPR Article 17 and asks, for its database (PSQL):

1. which interpretations of erase can the engine support, and how
   (Table 1 — regenerated here from live scenarios);
2. what does each interpretation do on a real record (Figure 3 timeline);
3. what does each cost on the customer workload (Figure 4(a), reduced
   scale so the example runs in seconds).

Run:  python examples/metaspace_erasure.py
"""

from repro import (
    CompliantDatabase,
    DependencyKind,
    ErasureInterpretation,
    Policy,
    Purpose,
    UnsupportedGroundingError,
    controller,
    data_subject,
    table1,
)
from repro.bench.experiments import ErasureConfig, run_erasure_config
from repro.bench.reporting import render_table1


def show_groundings() -> None:
    print(render_table1(table1()))
    print()


def show_backend_portability() -> None:
    """Figure 2's promise: the same interpretations, re-grounded onto an
    LSM store's system-actions, exhibit the identical IR/II/Inv profile."""
    print(render_table1(table1(backend="lsm"), engine="LSM"))
    print()
    metaspace = controller("MetaSpace")
    user = data_subject("user-77")
    db = CompliantDatabase(metaspace, backend="lsm")
    db.collect(
        "loc-77", user, "wifi-ap", {"zone": "food-court"},
        policies=[Policy(Purpose.SERVICE, metaspace, 0, 10**12)],
        erase_deadline=10**12,
    )
    outcome = db.erase("loc-77", interpretation=ErasureInterpretation.DELETED)
    print(
        f"LSM erase of loc-77 ran: {' + '.join(outcome.system_actions)}; "
        f"physically present afterwards: {db.physically_present('loc-77')}"
    )
    print()


def show_timelines() -> None:
    metaspace = controller("MetaSpace")
    user = data_subject("user-77")
    for interpretation in (
        ErasureInterpretation.REVERSIBLY_INACCESSIBLE,
        ErasureInterpretation.DELETED,
        ErasureInterpretation.STRONGLY_DELETED,
    ):
        db = CompliantDatabase(metaspace)
        db.collect(
            "loc-77",
            user,
            "wifi-ap",
            {"zone": "food-court"},
            policies=[Policy(Purpose.SERVICE, metaspace, 0, 10**12)],
            erase_deadline=10**12,
        )
        db.derive_unit(
            "loc-77-cache", ["loc-77"], {"zone": "food-court"},
            metaspace, Purpose.SERVICE,
            kind=DependencyKind.COPY, invertible=True,
        )
        db.erase("loc-77", interpretation=interpretation)
        print(f"— {interpretation.label} —")
        print(db.timeline("loc-77").render())
        cache_gone = db.model.get("loc-77-cache").is_erased
        print(f"  dependent cache erased: {cache_gone}")
        print()

    # Permanent deletion is not implementable on PSQL: the engine would
    # need retrofitting with a drive-sanitization system-action.
    db = CompliantDatabase(metaspace)
    db.collect(
        "loc-78", user, "wifi-ap", {"zone": "atrium"},
        policies=[Policy(Purpose.SERVICE, metaspace, 0, 10**12)],
        erase_deadline=10**12,
    )
    try:
        db.erase("loc-78", interpretation=ErasureInterpretation.PERMANENTLY_DELETED)
    except UnsupportedGroundingError as err:
        print(f"permanently delete -> {err}")
    print()


def show_costs() -> None:
    print("Erasure implementation costs (reduced scale: 20k records):")
    txn_counts = (2_000, 6_000)
    header = f"{'txns':>8} | " + " | ".join(f"{c.value:>24}" for c in ErasureConfig)
    print(header)
    print("-" * len(header))
    for n in txn_counts:
        cells = []
        for config in ErasureConfig:
            seconds = run_erasure_config(config, 20_000, n)
            cells.append(f"{seconds:>24.0f}")
        print(f"{n:>8} | " + " | ".join(cells))
    print()
    print("Note how DELETE+VACUUM beats DELETE alone on the 20/80 mix: the")
    print("vacuum cost on deletes is offset by faster reads (paper Fig 4a).")


if __name__ == "__main__":
    show_groundings()
    show_backend_portability()
    show_timelines()
    show_costs()
