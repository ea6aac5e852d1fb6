"""Data-CASE — grounding data regulations for compliant data processing.

A full reproduction of *"Data-CASE: Grounding Data Regulations for
Compliant Data Processing Systems"* (EDBT 2024): the formal model
(data units, policies, action histories, invariants), the grounding
machinery (concepts → interpretations → system-actions), the storage
substrates the evaluation depends on (a PostgreSQL-like engine with
DELETE/VACUUM/VACUUM FULL semantics, an LSM tree with tombstones, a crypto
stack, audit logs, RBAC/FGAC/Sieve access control), the three compliance
profiles of §4.2, the GDPRBench/YCSB workloads, and experiment drivers for
every table and figure.

Quickstart::

    from repro import CompliantDatabase, controller, data_subject
    from repro import Policy, Purpose, ErasureInterpretation

    netflix = controller("Netflix")
    db = CompliantDatabase(netflix)
    db.collect("cc-1", data_subject("u1"), "signup", {"card": "4111…"},
               policies=[Policy(Purpose.BILLING, netflix, 0, 10**12)],
               erase_deadline=10**12)
    db.read("cc-1", netflix, Purpose.BILLING)
    db.erase("cc-1")
    assert db.check_compliance().compliant
"""

__version__ = "1.0.0"

from repro.bench.experiments import fig4a, fig4b, fig4c, table1, table2
from repro.config import BackendConfig, ServiceConfig, StoreConfig
from repro.core.actions import Action, ActionHistory, ActionHistoryTuple, ActionType
from repro.core.consistency import (
    is_history_consistent,
    is_policy_consistent,
    policy_violations,
    regulation_requires_any_of,
)
from repro.core.dataunit import (
    Database,
    DataCategory,
    DataUnit,
    DataUnitState,
    ValueVersion,
    derive,
)
from repro.core.entities import (
    Entity,
    EntityRegistry,
    Role,
    auditor,
    controller,
    data_subject,
    processor,
)
from repro.core.erasure import (
    ErasureCharacterization,
    ErasureInterpretation,
    ErasureTimeline,
    characterize,
    paper_table1,
    register_erasure,
)
from repro.core.grounding import (
    Concept,
    Grounding,
    GroundingRegistry,
    Interpretation,
    SystemAction,
)
from repro.core.invariants import (
    ComplianceReport,
    ComplianceVerdict,
    Invariant,
    Violation,
    World,
    check_invariants,
    figure1_invariants,
    g17_erasure_deadline,
    g6_policy_consistency,
)
from repro.core.policy import Policy, PolicySet, Purpose
from repro.core.provenance import Dependency, DependencyKind, ProvenanceGraph
from repro.core.regulation import Article, Regulation, ccpa, gdpr, pipeda, vdpa
from repro.distributed.store import ReplicatedStore
from repro.lsm.engine import LSMEngine
from repro.service import ComplianceService
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.storage.engine import RelationalEngine
from repro.systems import PROFILES, make_profile
from repro.systems.database import (
    CompliantDatabase,
    EraseOutcome,
    UnsupportedGroundingError,
)
from repro.systems.profiles import ProfileConfig, RunResult
from repro.systems.space import SpaceAccountant, SpaceReport
from repro.workloads.driver import run_interleaved
from repro.workloads.gdprbench import (
    controller_workload,
    customer_workload,
    erasure_study_workload,
    processor_workload,
)
from repro.workloads.mall import MallDataset
from repro.workloads.ycsb import ycsb_c_workload

__all__ = [
    "__version__",
    # entities
    "Entity", "EntityRegistry", "Role",
    "auditor", "controller", "data_subject", "processor",
    # policies & data units
    "Policy", "PolicySet", "Purpose",
    "Database", "DataCategory", "DataUnit", "DataUnitState", "ValueVersion",
    "derive",
    # actions & consistency
    "Action", "ActionHistory", "ActionHistoryTuple", "ActionType",
    "is_history_consistent", "is_policy_consistent", "policy_violations",
    "regulation_requires_any_of",
    # grounding & erasure
    "Concept", "Grounding", "GroundingRegistry", "Interpretation",
    "SystemAction",
    "ErasureCharacterization", "ErasureInterpretation", "ErasureTimeline",
    "characterize", "paper_table1", "register_erasure",
    # invariants & compliance
    "ComplianceReport", "ComplianceVerdict", "Invariant", "Violation",
    "World", "check_invariants", "figure1_invariants",
    "g6_policy_consistency", "g17_erasure_deadline",
    # provenance & regulations
    "Dependency", "DependencyKind", "ProvenanceGraph",
    "Article", "Regulation", "gdpr", "ccpa", "vdpa", "pipeda",
    # systems
    "CompliantDatabase", "EraseOutcome", "UnsupportedGroundingError",
    "PROFILES", "make_profile", "ProfileConfig", "RunResult",
    "SpaceAccountant", "SpaceReport",
    # distributed store, typed configuration & the service front door
    "ReplicatedStore",
    "BackendConfig", "StoreConfig", "ServiceConfig",
    "ComplianceService",
    # substrates
    "SimClock", "CostBook", "CostModel", "RelationalEngine", "LSMEngine",
    # workloads
    "controller_workload", "customer_workload", "erasure_study_workload",
    "processor_workload", "ycsb_c_workload", "MallDataset",
    "run_interleaved",
    # experiments
    "table1", "table2", "fig4a", "fig4b", "fig4c",
]
