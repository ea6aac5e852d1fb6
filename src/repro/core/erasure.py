"""Erasure grounding — the paper's showcase concept (paper §3.1, Fig 3, Table 1).

Four interpretations, ordered by strictness:

* **reversibly inaccessible** — data cannot be read by data-subjects but
  remains accessible to the controller/processor and can be restored;
* **deleted** — the data and all its copies have been physically erased;
* **strongly deleted** — deleted, and all dependent data where the
  data-subject is identifiable has been deleted;
* **permanently deleted** — strongly deleted plus advanced physical drive
  sanitization.

Three grounding properties characterize them (Table 1):

* **IR** — erasure-inconsistent read: X read at a time when ``P(t) = ∅``;
* **II** — erasure-inconsistent inference: X erased, yet reconstructible
  from surviving dependent data;
* **Inv** — transformation invertibility: the value transformation applied
  by the erasure is recoverable.

Table 1 (✓ = the property is feasible / may occur under the interpretation):

====================== ==== ==== ==== ============================
Erasure                 IR   II   Inv  PSQL system-action(s)
====================== ==== ==== ==== ============================
reversibly inaccessible  ×   ✓    ✓    Add new attribute
delete                   ×   ✓    ×    DELETE + VACUUM
strong delete            ×   ×    ×    DELETE + VACUUM FULL
permanently delete       ×   ×    ×    Not supported
====================== ==== ==== ==== ============================

The same interpretations ground onto the LSM engine with engine-specific
system-actions but the *identical* property profile — the portability the
paper's Figure 2 promises (asserted by
``tests/integration/test_cross_backend.py``):

====================== ============================================
Erasure                 LSM system-action(s)
====================== ============================================
reversibly inaccessible flag write (overwrite with flagged value)
delete                  tombstone + victim compaction
strong delete           tombstone cascade + full compaction
permanently delete      Not supported
====================== ============================================

The tombstone alone is *not* a grounding of "delete": it leaves shadowed
values physically recoverable in older runs (the §1 retention hazard the
LSM engine's retention records quantify); only the paired compaction (of the
victim's runs, or of every run — VACUUM / VACUUM FULL) makes it unrecoverable.

"Not supported" is a statement about the *engine*, not the interpretation:
the paper's §1 remedy is retrofitting.  The crypto-shredding backend
(:class:`~repro.systems.backends.CryptoShredBackend`) is that retrofit —
every value is encrypted under a per-unit volume key, so destroying the key
("key shred") plus a multi-pass overwrite of the ciphertext sectors grounds
the fourth row with the full property profile (IR ×, II ×, Inv ×):

====================== ============================================
Erasure                 crypto-shred system-action(s)
====================== ============================================
reversibly inaccessible flag entry (key retained, value hidden)
delete                  logical delete + key shred
strong delete           logical delete cascade + key shred
permanently delete      key shred + sector sanitize
====================== ============================================

:func:`register_erasure` registers all three engines' groundings; a
deployment selects the set matching its
:class:`~repro.systems.backends.StorageBackend` at construction.
:data:`PAPER_TABLE1` remains the paper's PSQL ground truth (its last row
stays "Not supported"); :func:`backend_table1` renders the matrix a given
backend actually achieves.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.actions import ActionHistory, ActionType
from repro.core.dataunit import Database, DataUnit
from repro.core.grounding import (
    Concept,
    GroundingRegistry,
    Interpretation,
    SystemAction,
)
from repro.core.provenance import ProvenanceGraph


class ErasureInterpretation(Enum):
    """The four interpretations, with their strictness rank as value."""

    REVERSIBLY_INACCESSIBLE = 1
    DELETED = 2
    STRONGLY_DELETED = 3
    PERMANENTLY_DELETED = 4

    @property
    def strictness(self) -> int:
        return self.value

    def implies(self, other: "ErasureInterpretation") -> bool:
        """Strictness order: strong delete ⟹ delete ⟹ inaccessible."""
        return self.value >= other.value

    @property
    def label(self) -> str:
        return _LABELS[self]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label


_LABELS = {
    ErasureInterpretation.REVERSIBLY_INACCESSIBLE: "reversibly inaccessible",
    ErasureInterpretation.DELETED: "delete",
    ErasureInterpretation.STRONGLY_DELETED: "strong delete",
    ErasureInterpretation.PERMANENTLY_DELETED: "permanently delete",
}


@dataclass(frozen=True)
class ErasureCharacterization:
    """One Table-1 row: the property profile of an interpretation.

    ``illegal_read`` / ``illegal_inference`` / ``invertible`` say whether the
    property is *feasible* (may occur) under the interpretation — the paper
    marks feasibility ✓ and impossibility ×.
    """

    interpretation: ErasureInterpretation
    illegal_read: bool
    illegal_inference: bool
    invertible: bool
    system_actions: Tuple[str, ...]
    supported: bool = True

    def row(self) -> Tuple[str, str, str, str, str]:
        def mark(b: bool) -> str:
            return "✓" if b else "×"

        actions = (
            " + ".join(self.system_actions) if self.supported else "Not supported"
        )
        return (
            self.interpretation.label,
            mark(self.illegal_read),
            mark(self.illegal_inference),
            mark(self.invertible),
            actions,
        )


#: The paper's Table 1, as ground truth the implementation must reproduce.
PAPER_TABLE1: Dict[ErasureInterpretation, ErasureCharacterization] = {
    ErasureInterpretation.REVERSIBLY_INACCESSIBLE: ErasureCharacterization(
        ErasureInterpretation.REVERSIBLY_INACCESSIBLE,
        illegal_read=False,
        illegal_inference=True,
        invertible=True,
        system_actions=("Add new attribute",),
    ),
    ErasureInterpretation.DELETED: ErasureCharacterization(
        ErasureInterpretation.DELETED,
        illegal_read=False,
        illegal_inference=True,
        invertible=False,
        system_actions=("DELETE", "VACUUM"),
    ),
    ErasureInterpretation.STRONGLY_DELETED: ErasureCharacterization(
        ErasureInterpretation.STRONGLY_DELETED,
        illegal_read=False,
        illegal_inference=False,
        invertible=False,
        system_actions=("DELETE", "VACUUM FULL"),
    ),
    ErasureInterpretation.PERMANENTLY_DELETED: ErasureCharacterization(
        ErasureInterpretation.PERMANENTLY_DELETED,
        illegal_read=False,
        illegal_inference=False,
        invertible=False,
        system_actions=(),
        supported=False,
    ),
}


def paper_table1() -> List[ErasureCharacterization]:
    """The four rows in the paper's order."""
    return [PAPER_TABLE1[i] for i in ErasureInterpretation]


#: System-actions per backend, keyed by engine name — the Figure-2 step-3
#: mapping that :func:`register_erasure` records in the registry.  The
#: boolean marks whether the engine supports the interpretation at all.
BACKEND_SYSTEM_ACTIONS: Dict[str, Dict[ErasureInterpretation, Tuple[Tuple[str, ...], bool]]] = {
    "psql": {
        ErasureInterpretation.REVERSIBLY_INACCESSIBLE: (("Add new attribute",), True),
        ErasureInterpretation.DELETED: (("DELETE", "VACUUM"), True),
        ErasureInterpretation.STRONGLY_DELETED: (("DELETE", "VACUUM FULL"), True),
        ErasureInterpretation.PERMANENTLY_DELETED: ((), False),
    },
    "lsm": {
        ErasureInterpretation.REVERSIBLY_INACCESSIBLE: (("flag write",), True),
        ErasureInterpretation.DELETED: (("tombstone", "victim compaction"), True),
        ErasureInterpretation.STRONGLY_DELETED: (
            ("tombstone cascade", "full compaction"),
            True,
        ),
        ErasureInterpretation.PERMANENTLY_DELETED: ((), False),
    },
    "crypto-shred": {
        ErasureInterpretation.REVERSIBLY_INACCESSIBLE: (("flag entry",), True),
        ErasureInterpretation.DELETED: (("logical delete", "key shred"), True),
        ErasureInterpretation.STRONGLY_DELETED: (
            ("logical delete cascade", "key shred"),
            True,
        ),
        ErasureInterpretation.PERMANENTLY_DELETED: (
            ("key shred", "sector sanitize"),
            True,
        ),
    },
}


def backend_table1(backend: str) -> List[ErasureCharacterization]:
    """The Table-1 matrix a backend actually achieves.

    Property profiles are the paper's (they characterize the interpretation,
    not the engine); system-actions and supportedness are the backend's.
    Crypto-shredding is the only backend whose fourth row is supported.
    """
    try:
        actions = BACKEND_SYSTEM_ACTIONS[backend]
    except KeyError:
        raise KeyError(f"unknown backend {backend!r}") from None
    rows = []
    for interpretation in ErasureInterpretation:
        paper = PAPER_TABLE1[interpretation]
        system_actions, supported = actions[interpretation]
        rows.append(
            ErasureCharacterization(
                interpretation=interpretation,
                illegal_read=paper.illegal_read,
                illegal_inference=paper.illegal_inference,
                invertible=paper.invertible,
                system_actions=system_actions,
                supported=supported,
            )
        )
    return rows


# --------------------------------------------------------------------------
# Property checks — the formal groundings of IR / II / Inv.
# --------------------------------------------------------------------------

def has_erasure_inconsistent_read(unit: DataUnit, history: ActionHistory) -> bool:
    """IR: a read of X at a time when ``P(t) = ∅``.

    "X was read although there were no policies authorizing it."
    """
    for entry in history.of(unit.unit_id):
        if entry.is_read and not unit.policies.active_at(entry.timestamp):
            return True
    return False


def has_erasure_inconsistent_inference(
    unit: DataUnit,
    history: ActionHistory,
    provenance: ProvenanceGraph,
    database: Database,
) -> bool:
    """II: X has an erase tuple, yet surviving units can reconstruct it."""
    erase = history.last_of_type(unit.unit_id, ActionType.ERASE)
    if erase is None:
        return False
    surviving = [
        u.unit_id for u in database if not u.is_erased and u.unit_id != unit.unit_id
    ]
    return bool(provenance.reconstruction_witnesses(unit.unit_id, surviving))


def erase_transformation_is_invertible(
    unit: DataUnit, history: ActionHistory
) -> bool:
    """Inv: whether the applied erase transformation is recoverable.

    An erase realized as "reversibly inaccessible" records a RESTORE-capable
    transformation; physical deletes are non-invertible by construction.  We
    detect invertibility structurally: an erase whose action detail declares
    ``reversible`` (the flag set by the flag-column system-action) or a
    subsequent RESTORE action in the history.
    """
    erase = history.last_of_type(unit.unit_id, ActionType.ERASE)
    if erase is None:
        return False
    if erase.action.detail is not None and "reversible" in erase.action.detail:
        return True
    restore = history.last_of_type(unit.unit_id, ActionType.RESTORE)
    return restore is not None and restore.timestamp >= erase.timestamp


# --------------------------------------------------------------------------
# Timeline — Figure 3.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ErasureTimeline:
    """Figure 3: collection → reversibly inaccessible → deleted → strongly
    deleted → permanently deleted, with the Time-To-X durations between the
    milestones.

    Milestones are absolute model times; ``None`` means the milestone is
    never reached under the deployment's grounding (e.g., PSQL never reaches
    permanent deletion).
    """

    collected_at: int
    inaccessible_at: Optional[int] = None
    deleted_at: Optional[int] = None
    strongly_deleted_at: Optional[int] = None
    permanently_deleted_at: Optional[int] = None

    def __post_init__(self) -> None:
        milestones = [
            self.collected_at,
            self.inaccessible_at,
            self.deleted_at,
            self.strongly_deleted_at,
            self.permanently_deleted_at,
        ]
        previous = self.collected_at
        for value in milestones[1:]:
            if value is None:
                continue
            if value < previous:
                raise ValueError(
                    "erasure milestones must be non-decreasing in time"
                )
            previous = value

    @property
    def time_to_live(self) -> Optional[int]:
        """TT-Live: collection until the data first becomes inaccessible."""
        if self.inaccessible_at is None:
            return None
        return self.inaccessible_at - self.collected_at

    @property
    def time_to_delete(self) -> Optional[int]:
        if self.deleted_at is None:
            return None
        return self.deleted_at - self.collected_at

    @property
    def time_to_strong_delete(self) -> Optional[int]:
        if self.strongly_deleted_at is None:
            return None
        return self.strongly_deleted_at - self.collected_at

    @property
    def time_to_permanent_delete(self) -> Optional[int]:
        if self.permanently_deleted_at is None:
            return None
        return self.permanently_deleted_at - self.collected_at

    def reached(self, interpretation: ErasureInterpretation) -> bool:
        """Whether the milestone for ``interpretation`` has been reached."""
        return self.milestone(interpretation) is not None

    def milestone(self, interpretation: ErasureInterpretation) -> Optional[int]:
        return {
            ErasureInterpretation.REVERSIBLY_INACCESSIBLE: self.inaccessible_at,
            ErasureInterpretation.DELETED: self.deleted_at,
            ErasureInterpretation.STRONGLY_DELETED: self.strongly_deleted_at,
            ErasureInterpretation.PERMANENTLY_DELETED: self.permanently_deleted_at,
        }[interpretation]

    def render(self) -> str:
        """ASCII rendering of Figure 3."""
        stages = [
            ("Collection and storage", self.collected_at, ""),
            ("Reversibly inaccessible", self.inaccessible_at, "TT Live"),
            ("Deleted", self.deleted_at, "TT Delete"),
            ("Strongly deleted", self.strongly_deleted_at, "TT Strong Delete"),
            ("Permanently deleted", self.permanently_deleted_at, "TT Permanent Delete"),
        ]
        lines = []
        for name, at, label in stages:
            if at is None:
                lines.append(f"  {name:<24} —  (never reached)")
            else:
                suffix = f"  [{label} = {at - self.collected_at}us]" if label else ""
                lines.append(f"  {name:<24} @ t={at}{suffix}")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# Observed characterization — Table 1 computed from system behaviour.
# --------------------------------------------------------------------------

def characterize(
    interpretation: ErasureInterpretation,
    unit: DataUnit,
    history: ActionHistory,
    provenance: ProvenanceGraph,
    database: Database,
    system_actions: Sequence[str],
    supported: bool = True,
) -> ErasureCharacterization:
    """Compute a Table-1 row from an *observed* erase scenario.

    The benchmarks run each interpretation's system-actions on the simulated
    engine, then call this to verify the implementation exhibits exactly the
    property profile the paper claims (``tests/integration/test_table1.py``).
    """
    return ErasureCharacterization(
        interpretation=interpretation,
        illegal_read=has_erasure_inconsistent_read(unit, history),
        illegal_inference=has_erasure_inconsistent_inference(
            unit, history, provenance, database
        ),
        invertible=erase_transformation_is_invertible(unit, history),
        system_actions=tuple(system_actions),
        supported=supported,
    )


# --------------------------------------------------------------------------
# Registry wiring — the standard erasure concept for a deployment.
# --------------------------------------------------------------------------

ERASURE_CONCEPT = Concept(
    "erasure",
    "Removal of personal data required by e.g. GDPR Article 17",
)


#: Human detail for selected system-actions, keyed by (engine, action name).
_ACTION_DETAILS = {
    ("psql", "Add new attribute"): "visibility flag column",
    ("lsm", "flag write"): "overwrite with flagged value",
    ("crypto-shred", "flag entry"): "visibility flag beside the key slot",
    ("crypto-shred", "key shred"): "destroy the per-unit volume master key",
    ("crypto-shred", "sector sanitize"): (
        "multi-pass overwrite of the ciphertext sectors"
    ),
}


def register_erasure(registry: GroundingRegistry) -> Dict[ErasureInterpretation, Interpretation]:
    """Register the erasure concept, its four interpretations, and the PSQL,
    LSM, and crypto-shred groundings used throughout the evaluation."""
    registry.register_concept(ERASURE_CONCEPT)
    interps: Dict[ErasureInterpretation, Interpretation] = {}
    descriptions = {
        ErasureInterpretation.REVERSIBLY_INACCESSIBLE: (
            "unreadable by data-subjects, restorable by controller"
        ),
        ErasureInterpretation.DELETED: "data and all copies physically erased",
        ErasureInterpretation.STRONGLY_DELETED: (
            "deleted, plus all identifying dependent data deleted"
        ),
        ErasureInterpretation.PERMANENTLY_DELETED: (
            "strongly deleted, plus advanced drive sanitization"
        ),
    }
    for member in ErasureInterpretation:
        interps[member] = registry.register_interpretation(
            Interpretation(
                ERASURE_CONCEPT,
                member.label,
                member.strictness,
                descriptions[member],
            )
        )

    for engine, table in BACKEND_SYSTEM_ACTIONS.items():
        for member, (names, supported) in table.items():
            if supported:
                actions = [
                    SystemAction(
                        engine, n, True, _ACTION_DETAILS.get((engine, n), "")
                    )
                    for n in names
                ]
            else:
                actions = [
                    SystemAction(
                        engine,
                        "drive sanitization",
                        False,
                        f"not supported by {engine}",
                    )
                ]
            registry.register_grounding(interps[member], actions)
    return interps
