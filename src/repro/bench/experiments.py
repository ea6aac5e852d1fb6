"""Experiment drivers — one per table/figure of the paper's evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import BackendConfig
from repro.core.entities import controller, data_subject
from repro.core.erasure import (
    ErasureCharacterization,
    ErasureInterpretation,
    characterize,
)
from repro.core.policy import Policy, Purpose
from repro.core.provenance import DependencyKind
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.systems import make_profile
from repro.systems.backends import make_backend
from repro.systems.database import CompliantDatabase
from repro.systems.profiles import RunResult
from repro.systems.space import SpaceReport
from repro.workloads.base import OpKind, Workload
from repro.workloads.gdprbench import (
    controller_workload,
    customer_workload,
    erasure_study_workload,
    processor_workload,
    pure_delete_workload,
)
from repro.workloads.ycsb import ycsb_c_workload

PROFILE_NAMES = ("P_Base", "P_GBench", "P_SYS")


# ===========================================================================
# Table 1 — erasure interpretations characterized on live scenarios
# ===========================================================================

def _erasure_scenario(
    interpretation: ErasureInterpretation,
    backend: str = "psql",
) -> ErasureCharacterization:
    """Run one erase interpretation end-to-end and characterize it.

    The scenario mirrors the paper's MetaSpace example: a controller
    collects a user's location record, a processor derives an (invertible)
    replica of it, the user exercises G17, and the deployment erases under
    the given interpretation.  The observed IR/II/Inv profile is computed
    from the real action history, provenance, and engine state.

    ``backend`` selects the grounding substrate: "psql" reproduces the
    paper's Table-1 column verbatim; "lsm" executes the same
    interpretations through their LSM system-actions (flag write,
    tombstone + victim compaction) and must exhibit the identical property
    profile — the point of grounding portability; "crypto-shred" is the
    retrofit whose key-shredding system-actions make even "permanently
    delete" executable, filling the paper's "Not supported" cell.
    """
    metaspace = controller("MetaSpace")
    user = data_subject("user-1234")
    db = CompliantDatabase(metaspace, backend=backend)
    window = (0, 10**12)
    db.collect(
        "loc-1234",
        user,
        "mobile-app",
        {"lat": 33.64, "lon": -117.84},
        policies=[
            Policy(Purpose.SERVICE, metaspace, *window),
            Policy(Purpose.ANALYTICS, metaspace, *window),
        ],
        erase_deadline=10**12,
    )
    # An authorized replica (cache) — invertible, identifying.
    db.derive_unit(
        "loc-1234-cache",
        ["loc-1234"],
        {"lat": 33.64, "lon": -117.84},
        metaspace,
        Purpose.ANALYTICS,
        kind=DependencyKind.COPY,
        invertible=True,
        identifying=True,
    )
    db.read("loc-1234", metaspace, Purpose.SERVICE)  # lawful read
    registered = db.groundings.grounding(
        "erasure", interpretation.label, db.backend.name
    )
    supported = registered.is_implementable
    if supported:
        db.erase("loc-1234", interpretation=interpretation)
        unit = db.model.get("loc-1234")
        actions = tuple(a.name for a in registered.system_actions)
    else:
        # Permanent deletion has no system-action on the native engines
        # (Table 1); its property profile equals strong deletion's — the
        # paper notes the two differ only in the extra sanitization step.
        # Characterize the strong-delete execution and mark the row
        # unsupported.  (On crypto-shred the grounding IS implementable,
        # so this branch never runs there.)
        db.erase("loc-1234", interpretation=ErasureInterpretation.STRONGLY_DELETED)
        unit = db.model.get("loc-1234")
        actions = ()
    return characterize(
        interpretation,
        unit,
        db.history,
        db.provenance,
        db.model,
        actions,
        supported=supported,
    )


def table1(backend: str = "psql") -> List[ErasureCharacterization]:
    """Regenerate Table 1 by executing each interpretation on ``backend``."""
    return [_erasure_scenario(i, backend) for i in ErasureInterpretation]


# ===========================================================================
# Figure 4(a) — erasure implementations on the PSQL / LSM substrates
# ===========================================================================

class ErasureConfig(Enum):
    """The four Figure-4(a) series, legend order."""

    DELETE_VACUUM_FULL = "DELETE and VACUUM FULL"
    TOMBSTONES = "Tombstones (Indexing)"
    DELETE = "DELETE"
    DELETE_VACUUM = "DELETE + VACUUM"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Fig4aPoint:
    transactions: int
    seconds: float


def run_erasure_config(
    config: ErasureConfig,
    record_count: int,
    n_transactions: int,
    seed: int = 4,
    maintenance_interval: int = 200,
    workload: Optional[Workload] = None,
    cost_book: Optional[CostBook] = None,
) -> float:
    """One Figure-4(a) cell: load + run the erasure-study workload under one
    erase implementation; returns simulated completion seconds."""
    clock = SimClock()
    book = cost_book or CostBook()
    cost = CostModel(clock, book)
    if workload is None:
        workload = erasure_study_workload(record_count, n_transactions, seed)
    bloat_factor = 8.0
    tombstones = config is ErasureConfig.TOMBSTONES
    # Through the registry (G03): same engine, same cost charging, but the
    # grounding selection and copy-site protocol stay in force.
    backend = make_backend(
        "psql",
        cost,
        row_bytes=70,
        table="data",
        flag_column=tombstones,
        bloat_factor=bloat_factor,
        wal_checkpoint_every=5_000,
    )
    for key in range(record_count):
        backend.insert(key, (key, "payload"), fresh=True)
    deletes = 0
    flagged = 0
    for op in workload:
        if op.kind is OpKind.DELETE:
            if tombstones:
                # Logical delete: rewrite the row with the tombstone marker
                # set.  In PSQL MVCC this is an UPDATE — it creates a dead
                # version *and* leaves a live flagged row behind; the data
                # is physically retained (the §1 hazard) and reads must
                # filter markers forever.
                backend.update(op.key, (op.key, "tombstoned"))
                backend.make_inaccessible(op.key)
                flagged += 1
            else:
                backend.delete(op.key)
            backend.commit()
            deletes += 1
            if deletes % maintenance_interval == 0:
                if config is ErasureConfig.DELETE_VACUUM:
                    backend.reclaim()
                elif config is ErasureConfig.DELETE_VACUUM_FULL:
                    backend.reclaim_full()
        elif op.kind is OpKind.READ:
            backend.read(op.key)
            if tombstones and flagged:
                # Marker filtering: index entries of tombstoned rows are
                # still live; every read steps over a share of them.
                fraction = flagged / record_count
                clock.charge(book.page_read * bloat_factor * fraction, "storage")
        else:
            backend.insert(op.key, (op.key, "created"))
            backend.commit()
    return clock.now_seconds


def fig4a(
    record_count: int = 100_000,
    txn_counts: Sequence[int] = (10_000, 30_000, 50_000, 70_000),
    seed: int = 4,
) -> Dict[ErasureConfig, List[Fig4aPoint]]:
    """Regenerate Figure 4(a): completion time per erase implementation."""
    series: Dict[ErasureConfig, List[Fig4aPoint]] = {}
    for config in ErasureConfig:
        points = []
        for n in txn_counts:
            seconds = run_erasure_config(config, record_count, n, seed)
            points.append(Fig4aPoint(n, seconds))
        series[config] = points
    return series


def fig4a_pure_delete_control(
    record_count: int = 100_000, n_transactions: int = 10_000, seed: int = 5
) -> Dict[ErasureConfig, float]:
    """The paper's control: on a deletion-only workload plain DELETE beats
    DELETE+VACUUM ('the expected performance is observed for a workload
    composed only of deletions')."""
    workload = pure_delete_workload(record_count, n_transactions, seed)
    return {
        config: run_erasure_config(
            config, record_count, n_transactions, seed, workload=workload
        )
        for config in (ErasureConfig.DELETE, ErasureConfig.DELETE_VACUUM)
    }


# ===========================================================================
# Figure 4(b) — profiles × workloads
# ===========================================================================

WORKLOAD_ORDER = ("WPro", "WCon", "WCus", "YCSB-C")


def _make_workload(name: str, record_count: int, n_txns: int) -> Tuple[Workload, bool]:
    if name == "WPro":
        return processor_workload(record_count, n_txns), True
    if name == "WCon":
        return controller_workload(record_count, n_txns), True
    if name == "WCus":
        return customer_workload(record_count, n_txns), True
    if name == "YCSB-C":
        return ycsb_c_workload(record_count, n_txns), False
    raise KeyError(f"unknown workload {name!r}")


def _compaction_opts(
    backend: str, compaction: Optional[str]
) -> Optional[BackendConfig]:
    """Engine-config override for an explicit LSM compaction policy choice."""
    if compaction is None:
        return None
    if backend != "lsm":
        raise ValueError(
            "compaction policy selection only applies to the lsm backend"
        )
    return BackendConfig(backend="lsm", compaction=compaction)


def fig4b(
    record_count: int = 100_000,
    n_transactions: int = 10_000,
    workload_names: Sequence[str] = WORKLOAD_ORDER,
    profile_names: Sequence[str] = PROFILE_NAMES,
    backend: str = "psql",
    compaction: Optional[str] = None,
) -> Dict[str, Dict[str, RunResult]]:
    """Regenerate Figure 4(b): ``results[workload][profile] -> RunResult``.

    ``backend`` selects the storage substrate the whole grid runs on —
    the profile machinery is backend-generic, so the same profile ×
    workload matrix regenerates on "psql", "lsm", or "crypto-shred".
    ``compaction`` ("size" | "leveled") selects the LSM engine's
    compaction policy when the grid runs on the lsm backend.
    """
    engine_opts = _compaction_opts(backend, compaction)
    results: Dict[str, Dict[str, RunResult]] = {}
    for wname in workload_names:
        row: Dict[str, RunResult] = {}
        for pname in profile_names:
            workload, personal = _make_workload(wname, record_count, n_transactions)
            profile = make_profile(pname, backend=backend, engine_opts=engine_opts)
            row[pname] = profile.run(workload, personal=personal)
        results[wname] = row
    return results


# ===========================================================================
# Figure 4(c) — scalability in record count
# ===========================================================================

def fig4c(
    record_counts: Sequence[int] = (100_000, 200_000, 300_000, 400_000, 500_000),
    n_transactions: int = 10_000,
    profile_names: Sequence[str] = PROFILE_NAMES,
    include_ycsb: bool = True,
    backend: str = "psql",
    compaction: Optional[str] = None,
) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Regenerate Figure 4(c) on the chosen storage backend.

    Returns ``{"WCus": {records: {profile: minutes}},
    "YCSB-C": {records: {profile: minutes}}}`` — WCus are the lines, YCSB-C
    the bars.  ``compaction`` selects the LSM compaction policy (lsm
    backend only) — the 500k-record points are where the policies'
    write-amplification difference shows.
    """
    engine_opts = _compaction_opts(backend, compaction)
    out: Dict[str, Dict[int, Dict[str, float]]] = {"WCus": {}}
    if include_ycsb:
        out["YCSB-C"] = {}
    for records in record_counts:
        out["WCus"][records] = {}
        for pname in profile_names:
            workload, personal = _make_workload("WCus", records, n_transactions)
            result = make_profile(
                pname, backend=backend, engine_opts=engine_opts
            ).run(workload, personal=personal)
            out["WCus"][records][pname] = result.total_minutes
        if include_ycsb:
            out["YCSB-C"][records] = {}
            for pname in profile_names:
                workload, personal = _make_workload(
                    "YCSB-C", records, n_transactions
                )
                result = make_profile(
                    pname, backend=backend, engine_opts=engine_opts
                ).run(workload, personal=personal)
                out["YCSB-C"][records][pname] = result.total_minutes
    return out


# ===========================================================================
# Table 2 — space accounting of the Figure-4(b) WCus run
# ===========================================================================

def table2(
    record_count: int = 100_000,
    n_transactions: int = 10_000,
    backend: str = "psql",
    compaction: Optional[str] = None,
) -> List[SpaceReport]:
    """Regenerate Table 2: run WCus on each profile, report space."""
    engine_opts = _compaction_opts(backend, compaction)
    reports: List[SpaceReport] = []
    for pname in PROFILE_NAMES:
        workload, _personal = _make_workload("WCus", record_count, n_transactions)
        result = make_profile(pname, backend=backend, engine_opts=engine_opts).run(
            workload
        )
        reports.append(result.space)
    return reports
