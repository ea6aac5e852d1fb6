"""The Data-CASE model (paper §2–§3).

This package is the paper's primary contribution: a small set of data
processing concepts (entities, data units, policies, actions, action
histories), the policy-consistency abstraction of lawful processing,
regulation invariants stated over those concepts, and the *grounding*
machinery that maps a concept to one unambiguous interpretation and then to
engine-level system-actions.

``repro.core`` is pure model code: it never imports an engine.  The
``repro.systems`` layer is where groundings meet system-actions.
"""

from repro.core.actions import (
    Action,
    ActionHistory,
    ActionHistoryTuple,
    ActionType,
)
from repro.core.consistency import (
    is_history_consistent,
    is_policy_consistent,
    policy_violations,
)
from repro.core.dataunit import (
    Database,
    DataCategory,
    DataUnit,
    DataUnitState,
    ValueVersion,
)
from repro.core.entities import Entity, EntityRegistry, Role
from repro.core.erasure import (
    ErasureCharacterization,
    ErasureInterpretation,
    ErasureTimeline,
    characterize,
    paper_table1,
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
from repro.core.provenance import DependencyKind, ProvenanceGraph
from repro.core.regulation import Article, Regulation, ccpa, gdpr, pipeda, vdpa

__all__ = [
    "Entity",
    "EntityRegistry",
    "Role",
    "Policy",
    "PolicySet",
    "Purpose",
    "Database",
    "DataCategory",
    "DataUnit",
    "DataUnitState",
    "ValueVersion",
    "Action",
    "ActionHistory",
    "ActionHistoryTuple",
    "ActionType",
    "is_history_consistent",
    "is_policy_consistent",
    "policy_violations",
    "Concept",
    "Grounding",
    "GroundingRegistry",
    "Interpretation",
    "SystemAction",
    "ErasureCharacterization",
    "ErasureInterpretation",
    "ErasureTimeline",
    "characterize",
    "paper_table1",
    "ComplianceReport",
    "ComplianceVerdict",
    "Invariant",
    "Violation",
    "World",
    "check_invariants",
    "figure1_invariants",
    "g17_erasure_deadline",
    "g6_policy_consistency",
    "DependencyKind",
    "ProvenanceGraph",
    "Article",
    "Regulation",
    "gdpr",
    "ccpa",
    "vdpa",
    "pipeda",
]
