"""CompliantDatabase — the grounded, end-to-end public API.

This facade is what the paper envisions a service provider building with
Data-CASE (§4.1): every stored value is a modelled
:class:`~repro.core.dataunit.DataUnit`; every access is policy-checked and
recorded in the formal action history; erasure dispatches to the
system-actions of the *selected grounding* (Figure 2's step 3); and
compliance is demonstrable — :meth:`check_compliance` evaluates the formal
invariants over the actual history.

Storage is **engine-pluggable**: the facade drives a
:class:`~repro.systems.backends.StorageBackend` and selects the erasure
grounding registered for that backend's engine in the
:class:`~repro.core.grounding.GroundingRegistry`.  With the default
``backend="psql"`` the Table-1 semantics hold literally: "reversibly
inaccessible" flips the retrofit flag column, "delete" runs DELETE+VACUUM,
"strong delete" runs DELETE+VACUUM FULL and cascades over the provenance
graph.  With ``backend="lsm"`` the same interpretations ground as a flag
write, tombstone + victim compaction, and tombstone cascade + full compaction.
On both native engines "permanently delete" raises — neither has a
system-action for drive sanitization.  ``backend="crypto-shred"`` is the
retrofit the paper's §1 calls for: per-unit key volumes make "permanently
delete" executable as key shred + sector sanitize, so the facade dispatches
it like any other interpretation (strong-delete cascade, then per-victim
sanitization recorded as SANITIZE actions).

Batch entry points (:meth:`collect_many`, :meth:`read_many`,
:meth:`erase_many`) keep the same policy/history semantics per unit while
amortizing engine-level per-call overhead — the path the bench harness uses
to drive high-volume workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence, Tuple, Union

from repro import codec
from repro.access.errors import AccessDenied
from repro.audit.log import ActionLog
from repro.config import BackendConfig
from repro.core.actions import ActionType
from repro.core.consistency import regulation_requires_any_of
from repro.core.dataunit import Database, DataUnit, derive
from repro.core.entities import Entity, EntityRegistry
from repro.core.erasure import (
    ErasureInterpretation,
    ErasureTimeline,
    register_erasure,
)
from repro.core.grounding import GroundingRegistry
from repro.core.invariants import (
    ComplianceReport,
    Invariant,
    World,
    check_invariants,
    g17_erasure_deadline,
    g6_policy_consistency,
)
from repro.core.policy import Policy, PolicySet, Purpose
from repro.core.provenance import Dependency, DependencyKind, ProvenanceGraph
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.systems.backends import StorageBackend, make_backend

#: Purpose recorded for GDPR Art. 15 subject-access reads — lawful by
#: regulation, no stored policy required.
SUBJECT_ACCESS_PURPOSE = "subject-access"

#: Purpose recorded for grounded shard-migration MOVE actions: operational
#: processing the controller performs on its own infrastructure (moving a
#: value between physical sites is processing the audit trail must show —
#: the *Data Capsule* accountability requirement).
REBALANCE_PURPOSE = "shard-rebalance"

#: Purpose recorded for read-repair REPAIR actions: converging a lagging
#: replica re-copies a value the controller already lawfully holds, and the
#: audit trail must show that the copy happened (and that it could never
#: resurrect an erased value — repairs replay the scrubbed replication log).
REPAIR_PURPOSE = "replica-repair"


@dataclass(frozen=True)
class SubjectAccessResult:
    """The Art. 15 response package for one data subject."""

    subject: Entity
    requested_at: int
    units: Tuple["SubjectAccessUnit", ...]

    def render(self) -> str:
        lines = [
            f"Subject access request for {self.subject.name} "
            f"@ t={self.requested_at}: {len(self.units)} data unit(s)"
        ]
        for unit in self.units:
            state = "inaccessible" if unit.inaccessible else f"erased={unit.erased}"
            lines.append(
                f"  {unit.unit_id}: value={unit.value!r} "
                f"({state}, origin={','.join(sorted(unit.origins))})"
            )
            for purpose, entity, t_begin, t_final in unit.policies:
                lines.append(
                    f"    policy ⟨{purpose}, {entity}, {t_begin}, {t_final}⟩"
                )
            lines.append(f"    {unit.action_count} recorded action(s)")
        return "\n".join(lines)


@dataclass(frozen=True)
class SubjectAccessUnit:
    """One unit's disclosure within a subject-access response.

    ``inaccessible`` marks a reversibly-inaccessible unit: §3.1 hides such
    values from data subjects, so an Art. 15 response must report the unit's
    existence without disclosing the value.
    """

    unit_id: str
    value: Any
    erased: bool
    origins: Tuple[str, ...]
    policies: Tuple[Tuple[str, str, int, int], ...]
    action_count: int
    inaccessible: bool = False


class UnsupportedGroundingError(RuntimeError):
    """The selected interpretation has no implementable system-action on
    this engine — the system must be retrofitted (paper §1)."""


@dataclass(frozen=True)
class EraseOutcome:
    """What an erase call actually did."""

    unit_id: str
    interpretation: ErasureInterpretation
    system_actions: Tuple[str, ...]
    cascaded_units: Tuple[str, ...] = ()
    timestamp: int = 0


class CompliantDatabase:
    """A policy-enforcing, history-keeping data store over a pluggable
    storage backend ("psql" by default, or "lsm")."""

    def __init__(
        self,
        controller: Entity,
        default_erasure: ErasureInterpretation = ErasureInterpretation.DELETED,
        row_bytes: int = 70,
        cost_book: Optional[CostBook] = None,
        backend: Union[str, StorageBackend, BackendConfig] = "psql",
    ) -> None:
        if not controller.is_controller:
            raise ValueError("the owning entity must hold the controller role")
        self.controller = controller
        self.clock = SimClock()
        self.cost = CostModel(self.clock, cost_book or CostBook())
        if isinstance(backend, str):
            backend = BackendConfig(backend=backend)
        if isinstance(backend, BackendConfig):
            backend = make_backend(
                backend.backend,
                self.cost,
                row_bytes=row_bytes,
                **backend.backend_kwargs(),
            )
        self.backend = backend
        #: The raw engine object (RelationalEngine or LSMEngine) — exposed
        #: for forensics, fault injection, and engine-level statistics.
        #: Backends that are their own engine (crypto-shred) expose
        #: themselves.
        self.engine = getattr(backend, "engine", backend)
        # LSM engines announce every compaction merge; the facade grounds
        # each GC'd tombstone as a system-action in the audit timeline so
        # the physical completion of "delete" is demonstrable (§3.1).
        subscribe = getattr(self.engine, "add_compaction_listener", None)
        if callable(subscribe):
            subscribe(self._record_compaction)
        self.model = Database()
        self.provenance = ProvenanceGraph()
        self.log = ActionLog(self.cost)
        self.entities = EntityRegistry([controller])
        self.groundings = GroundingRegistry()
        self._interpretations = register_erasure(self.groundings)
        self._select_erasure(default_erasure)
        # Lawful without an explicit stored policy: the collection contract
        # itself (GDPR Art. 6(1)(b) — processing necessary for a contract),
        # compliance-mandated erasure (Art. 17), subject access (Art. 15),
        # and grounded shard migration (Art. 6(1)(f) — operating the
        # controller's own infrastructure, lawful precisely because every
        # move is tracked and its source grounded; see _record_move).
        self._regulation_requires = regulation_requires_any_of(
            Purpose.COMPLIANCE_ERASE,
            Purpose.CONTRACT,
            SUBJECT_ACCESS_PURPOSE,
            REBALANCE_PURPOSE,
            REPAIR_PURPOSE,
        )

    # -------------------------------------------------------------- grounding
    def _select_erasure(self, interpretation: ErasureInterpretation) -> None:
        grounding = self.groundings.grounding(
            "erasure", interpretation.label, self.backend.name
        )
        if not grounding.is_implementable:
            raise UnsupportedGroundingError(
                f"{self.backend.name} has no system-action for "
                f"{interpretation.label!r} (Table 1: 'Not supported'); "
                "retrofit the engine or choose a weaker interpretation"
            )
        self.groundings.select(grounding, self.backend.name)
        self.default_erasure = interpretation

    def _grounding_actions(
        self, interpretation: ErasureInterpretation
    ) -> Tuple[str, ...]:
        """The backend's registered system-action names for an interpretation."""
        grounding = self.groundings.grounding(
            "erasure", interpretation.label, self.backend.name
        )
        return tuple(a.name for a in grounding.system_actions)

    @property
    def selected_erasure(self) -> ErasureInterpretation:
        return self.default_erasure

    # ------------------------------------------------------------ collection
    def collect(
        self,
        unit_id: str,
        subject: Entity,
        origin: str,
        value: Any,
        policies: Iterable[Policy],
        erase_deadline: Optional[int] = None,
    ) -> DataUnit:
        """Collect a base data unit with consent.

        Records the CONTRACT (disclosure/consent, Figure 1 category I)
        before the CREATE; attaches the given policies plus a
        compliance-erase policy if ``erase_deadline`` is set (G17).
        """
        # Guard before touching the engine: LSM inserts are upserts, so a
        # duplicate id would silently overwrite the stored value while the
        # model still holds the old one.
        if unit_id in self.model:
            raise ValueError(f"unit {unit_id!r} already collected")
        # A value outside the codec's domain (``CodecError``) is refused
        # before the CONTRACT, which would otherwise attest a collection
        # that never happened.
        codec.encode(value)
        self.entities.register(subject)
        unit = self._contracted_unit(
            unit_id, subject, origin, policies, erase_deadline
        )
        self.backend.insert(unit_id, value)
        self._admit(unit, value)
        return unit

    def collect_many(
        self,
        records: Iterable[Tuple[str, Entity, str, Any, Iterable[Policy]]],
        erase_deadline: Optional[int] = None,
    ) -> List[DataUnit]:
        """Bulk collection: ``(unit_id, subject, origin, value, policies)``
        records, loaded through the backend's COPY-style batch path.

        Per-unit semantics are preserved — a CONTRACT record precedes every
        CREATE, and each unit gets the same policy treatment as
        :meth:`collect` — but catalog resolution and uniqueness probing are
        amortized over the batch.
        """
        materialized = list(records)
        # Validate every id and value before logging any CONTRACT:
        # duplicates are checked against the model *and* the batch itself
        # (the COPY-style engine path skips uniqueness probes), values
        # against the codec's domain, and a rejected batch must not leave
        # audit records attesting contracts for uncollected data.
        staged_ids: set = set()
        for unit_id, *_rest in materialized:
            if unit_id in self.model or unit_id in staged_ids:
                raise ValueError(f"unit {unit_id!r} already collected")
            staged_ids.add(unit_id)
        codec.encode_many([record[3] for record in materialized])
        staged: List[Tuple[DataUnit, Any]] = []
        for unit_id, subject, origin, value, policies in materialized:
            self.entities.register(subject)
            unit = self._contracted_unit(
                unit_id, subject, origin, policies, erase_deadline
            )
            staged.append((unit, value))
        self.backend.insert_many((u.unit_id, v) for u, v in staged)
        for unit, value in staged:
            self._admit(unit, value)
        return [unit for unit, _value in staged]

    def _contracted_unit(
        self,
        unit_id: str,
        subject: Entity,
        origin: str,
        policies: Iterable[Policy],
        erase_deadline: Optional[int],
    ) -> DataUnit:
        """Build the modelled unit and record its CONTRACT action."""
        policy_set = PolicySet(policies)
        if erase_deadline is not None:
            policy_set.add(
                Policy(
                    Purpose.COMPLIANCE_ERASE,
                    self.controller,
                    self.clock.now,
                    erase_deadline,
                )
            )
        unit = DataUnit(unit_id, subject, origin, policies=policy_set)
        self.log.record(
            unit_id, Purpose.CONTRACT, subject, ActionType.CONTRACT, self.clock.now
        )
        return unit

    def _admit(self, unit: DataUnit, value: Any) -> None:
        """Register a freshly stored unit in the model, provenance, history."""
        now = self.clock.now
        unit.write(value, now)
        self.model.add(unit)
        self.provenance.add_unit(unit.unit_id)
        self.log.record(
            unit.unit_id, Purpose.CONTRACT, self.controller, ActionType.CREATE, now
        )

    # ----------------------------------------------------------------- access
    def _authorize(self, unit_id: str, entity: Entity, purpose: str) -> DataUnit:
        """G6 enforcement at the gate: policy check plus §3.1 visibility
        (reversibly-inaccessible values are hidden from data subjects)."""
        unit = self.model.get(unit_id)
        if unit.policies.authorizing(purpose, entity, self.clock.now) is None:
            raise AccessDenied(entity.name, purpose, unit_id)
        if entity.is_data_subject and self.backend.is_inaccessible(unit_id):
            raise AccessDenied(entity.name, purpose, unit_id)
        return unit

    def read(self, unit_id: str, entity: Entity, purpose: str) -> Any:
        """Policy-checked read; raises :class:`AccessDenied` when no policy
        authorizes (entity, purpose) now — G6 enforcement at the gate."""
        self._authorize(unit_id, entity, purpose)
        value = self.backend.read(unit_id)
        self.log.record(unit_id, purpose, entity, ActionType.READ, self.clock.now)
        return value

    def read_many(
        self, unit_ids: Sequence[str], entity: Entity, purpose: str
    ) -> List[Any]:
        """Batch policy-checked reads: every unit is authorized exactly as
        in :meth:`read`, the values come back through the backend's batch
        path, and one READ action is recorded per unit."""
        for unit_id in unit_ids:
            self._authorize(unit_id, entity, purpose)
        values = self.backend.read_many(unit_ids)
        now = self.clock.now
        for unit_id in unit_ids:
            self.log.record(unit_id, purpose, entity, ActionType.READ, now)
        return values

    def update(
        self, unit_id: str, entity: Entity, purpose: str, value: Any
    ) -> None:
        unit = self.model.get(unit_id)
        now = self.clock.now
        if unit.policies.authorizing(purpose, entity, now) is None:
            raise AccessDenied(entity.name, purpose, unit_id)
        self.backend.update(unit_id, value)
        now = self.clock.now
        unit.write(value, now)
        self.log.record(unit_id, purpose, entity, ActionType.UPDATE, now)

    def derive_unit(
        self,
        new_id: str,
        base_ids: Sequence[str],
        value: Any,
        entity: Entity,
        purpose: str,
        kind: DependencyKind = DependencyKind.AGGREGATE,
        invertible: bool = False,
        identifying: bool = True,
    ) -> DataUnit:
        """Produce derived data (§2.1) and record its provenance."""
        if new_id in self.model:
            raise ValueError(f"unit {new_id!r} already collected")
        bases = [self.model.get(b) for b in base_ids]
        now = self.clock.now
        for base in bases:
            if base.policies.authorizing(purpose, entity, now) is None:
                raise AccessDenied(entity.name, purpose, base.unit_id)
        unit = derive(new_id, bases, value, now)
        self.backend.insert(new_id, value)
        self.model.add(unit)
        self.provenance.add_unit(new_id)
        for base in bases:
            self.provenance.record(
                Dependency(base.unit_id, new_id, kind, invertible, identifying)
            )
            self.log.record(
                base.unit_id, purpose, entity, ActionType.DERIVE, self.clock.now
            )
        self.log.record(new_id, purpose, entity, ActionType.CREATE, self.clock.now)
        return unit

    # ----------------------------------------------------------------- erase
    def erase(
        self,
        unit_id: str,
        entity: Optional[Entity] = None,
        interpretation: Optional[ErasureInterpretation] = None,
    ) -> EraseOutcome:
        """Erase under the selected (or an explicit) interpretation."""
        return self.erase_many([unit_id], entity, interpretation)[0]

    def erase_many(
        self,
        unit_ids: Sequence[str],
        entity: Optional[Entity] = None,
        interpretation: Optional[ErasureInterpretation] = None,
    ) -> List[EraseOutcome]:
        """Batch erasure under one interpretation.

        Physical interpretations batch their reclamation: every victim is
        logically deleted first, then the backend reclaims once (one VACUUM
        / compaction pass for the whole batch) — how a real deployment
        grounds high-volume Art. 17 streams without per-request rewrites.
        """
        interpretation = interpretation or self.default_erasure
        entity = entity or self.controller
        if interpretation is ErasureInterpretation.REVERSIBLY_INACCESSIBLE:
            return [
                self._erase_reversible(self.model.get(u), entity)
                for u in unit_ids
            ]
        if interpretation is ErasureInterpretation.PERMANENTLY_DELETED:
            self._require_sanitization()
        return self._erase_physical(list(unit_ids), interpretation, entity)

    def _require_sanitization(self) -> None:
        """Permanent deletion needs an implementable grounding — i.e. a
        backend with a sanitization system-action (crypto-shred)."""
        grounding = self.groundings.grounding(
            "erasure",
            ErasureInterpretation.PERMANENTLY_DELETED.label,
            self.backend.name,
        )
        if not (grounding.is_implementable and self.backend.supports_sanitize):
            raise UnsupportedGroundingError(
                f"permanent deletion is not supported on {self.backend.name} "
                "(Table 1); retrofit the engine (e.g. crypto-shred) or "
                "choose a weaker interpretation"
            )

    def _erase_physical(
        self,
        unit_ids: Sequence[str],
        interpretation: ErasureInterpretation,
        entity: Entity,
    ) -> List[EraseOutcome]:
        """Physically erase units (and, for strong/permanent delete, their
        identifying descendants per §3.1): logically delete every victim,
        then reclaim once for the whole batch.  Permanent deletion
        additionally sanitizes every victim's physical footprint and records
        the SANITIZE actions."""
        strong = interpretation.implies(ErasureInterpretation.STRONGLY_DELETED)
        permanent = interpretation is ErasureInterpretation.PERMANENTLY_DELETED
        actions = self._grounding_actions(interpretation)
        detail = "+".join(actions) + (" (strong cascade)" if strong else "")
        # Reject double-erasure of any *target* up front (a retry must not
        # yield an EraseOutcome for system-actions that never ran); cascade
        # victims reached twice are skipped below, which is legitimate.
        for unit_id in unit_ids:
            if self.model.get(unit_id).is_erased:
                raise ValueError(f"data unit {unit_id!r} already erased")
        outcomes: List[EraseOutcome] = []
        for unit_id in unit_ids:
            cascade: List[str] = []
            if strong:
                cascade = sorted(self.provenance.identifying_descendants(unit_id))
            for victim_id in [unit_id] + cascade:
                victim = self.model.get(victim_id)
                if victim.is_erased:
                    continue
                self.backend.delete(victim_id)
                now = self.clock.now
                victim.mark_erased(now)
                self.log.record(
                    victim_id,
                    Purpose.COMPLIANCE_ERASE,
                    entity,
                    ActionType.ERASE,
                    now,
                    detail=detail,
                )
                if permanent:
                    # The extra Table-1 step: advanced sanitization of the
                    # victim's footprint, demonstrable via SANITIZE records.
                    self.backend.sanitize(victim_id)
                    self.log.record(
                        victim_id,
                        Purpose.COMPLIANCE_ERASE,
                        entity,
                        ActionType.SANITIZE,
                        self.clock.now,
                        detail=detail,
                    )
            outcomes.append(
                EraseOutcome(
                    unit_id,
                    interpretation,
                    actions,
                    cascaded_units=tuple(cascade),
                    timestamp=self.clock.now,
                )
            )
        if strong:
            self.backend.reclaim_full()
        else:
            self.backend.reclaim()
        return outcomes

    def _erase_reversible(self, unit: DataUnit, entity: Entity) -> EraseOutcome:
        actions = self._grounding_actions(
            ErasureInterpretation.REVERSIBLY_INACCESSIBLE
        )
        self.backend.make_inaccessible(unit.unit_id)
        now = self.clock.now
        self.log.record(
            unit.unit_id,
            Purpose.COMPLIANCE_ERASE,
            entity,
            ActionType.ERASE,
            now,
            detail=f"reversible-flag ({' + '.join(actions)})",
        )
        return EraseOutcome(
            unit.unit_id,
            ErasureInterpretation.REVERSIBLY_INACCESSIBLE,
            actions,
            timestamp=now,
        )

    def _record_compaction(self, event: Any) -> None:
        """Audit hook for LSM compaction events (the erasure-aware GC).

        Each key whose tombstone the merge garbage-collected gets a COMPACT
        action in its history: the grounded record that the physical half of
        its "delete" completed at this instant.  Keys unknown to the model
        (engine-level traffic below the facade) are skipped — the audit
        timeline only speaks about modelled data units.
        """
        for key in event.dropped_keys:
            if not isinstance(key, str) or key not in self.model:
                continue
            self.log.record(
                key,
                Purpose.COMPLIANCE_ERASE,
                self.controller,
                ActionType.COMPACT,
                self.clock.now,
                detail=(
                    f"{event.policy} compaction: tombstone GC at "
                    f"L{event.target_level} ({event.reason})"
                ),
            )

    def attach_replicated_store(self, store: Any) -> None:
        """Subscribe to a :class:`~repro.distributed.store.ReplicatedStore`'s
        grounded key moves so each one lands in the audit timeline.

        A rebalance copies values between shards; the copy is compliant
        only because it is tracked (``CopyLocation.MIGRATION``) and the
        source is ground-erased — this hook makes that demonstrable: every
        completed move is a MOVE action in the unit's history, exactly like
        COMPACT records the physical completion of an LSM delete.  Read
        repairs land the same way: a quorum read that observed divergence
        triggers an asynchronous replica re-sync, and each completed repair
        is a REPAIR action — the audit trail shows the copy, and shows it
        could never resurrect an erased value.
        """
        store.add_move_listener(self._record_move)
        store.add_repair_listener(self._record_repair)

    def _record_move(self, event: Any) -> None:
        """Audit hook for grounded shard migrations (see
        :meth:`attach_replicated_store`).  Keys unknown to the model are
        skipped — the audit timeline only speaks about modelled units."""
        if not isinstance(event.key, str) or event.key not in self.model:
            return
        self.log.record(
            event.key,
            REBALANCE_PURPOSE,
            self.controller,
            ActionType.MOVE,
            self.clock.now,
            detail=(
                f"shard-{event.source}→shard-{event.dest} "
                f"(source grounded erase verified at store t={event.at})"
            ),
        )

    def _record_repair(self, event: Any) -> None:
        """Audit hook for completed read repairs (see
        :meth:`attach_replicated_store`).  Keys unknown to the model are
        skipped — the audit timeline only speaks about modelled units."""
        if not isinstance(event.key, str) or event.key not in self.model:
            return
        self.log.record(
            event.key,
            REPAIR_PURPOSE,
            self.controller,
            ActionType.REPAIR,
            self.clock.now,
            detail=(
                f"read repair on shard-{event.shard}: "
                f"{event.replicas_repaired} replica(s) re-synced, "
                f"{event.entries_applied} log entry(ies) applied "
                f"(store t={event.at})"
            ),
        )

    def restore(self, unit_id: str, entity: Optional[Entity] = None) -> None:
        """Undo reversible inaccessibility (the transformation is invertible)."""
        entity = entity or self.controller
        if not self.backend.is_inaccessible(unit_id):
            raise ValueError(f"unit {unit_id!r} is not flagged inaccessible")
        self.backend.restore(unit_id)
        self.log.record(
            unit_id,
            Purpose.COMPLIANCE_ERASE,
            entity,
            ActionType.RESTORE,
            self.clock.now,
            detail="flag cleared",
        )

    # -------------------------------------------------------- subject access
    def subject_access_request(self, subject: Entity) -> SubjectAccessResult:
        """GDPR Art. 15: everything held about ``subject``, with policies
        and processing-history counts.  The reads are lawful by regulation
        (no stored policy needed) and are themselves recorded in the action
        history — an auditor can see that the right was honoured.

        Reversibly-inaccessible units are disclosed as existing but their
        values are withheld: §3.1 hides such values from data subjects, and
        an Art. 15 response to the subject must not become a side channel
        around that grounding.
        """
        units: List[SubjectAccessUnit] = []
        for unit in self.model.units_of_subject(subject):
            value = None
            inaccessible = False
            if not unit.is_erased:
                try:
                    inaccessible = self.backend.is_inaccessible(unit.unit_id)
                    if not inaccessible:
                        value = self.backend.read(unit.unit_id)
                except Exception:  # engine-level hole
                    value = None
            self.log.record(
                unit.unit_id,
                SUBJECT_ACCESS_PURPOSE,
                subject,
                ActionType.READ,
                self.clock.now,
            )
            units.append(
                SubjectAccessUnit(
                    unit_id=unit.unit_id,
                    value=value,
                    erased=unit.is_erased,
                    origins=tuple(sorted(unit.origins)),
                    policies=tuple(
                        (p.purpose, p.entity.name, p.t_begin, p.t_final)
                        for p in unit.policies
                    ),
                    action_count=len(self.history.of(unit.unit_id)),
                    inaccessible=inaccessible,
                )
            )
        return SubjectAccessResult(
            subject=subject, requested_at=self.clock.now, units=tuple(units)
        )

    # ------------------------------------------------------------ compliance
    def check_compliance(
        self,
        invariants: Optional[Sequence[Invariant]] = None,
        now: Optional[int] = None,
    ) -> ComplianceReport:
        if invariants is None:
            invariants = [
                g6_policy_consistency(self._regulation_requires),
                g17_erasure_deadline(),
            ]
        world = World(
            database=self.model,
            history=self.log.history,
            now=now if now is not None else self.clock.now,
        )
        return check_invariants(world, invariants)

    def timeline(self, unit_id: str) -> ErasureTimeline:
        """The unit's Figure-3 erasure timeline, from the action history.

        Detail strings are backend-specific ("DELETE+VACUUM" on psql,
        "tombstone+victim compaction" on lsm, "logical delete+key shred" on
        crypto-shred); milestones are detected by the physical-delete
        markers any backend records.
        """
        entries = self.log.history.of(unit_id)
        collected = next(
            (e.timestamp for e in entries if e.action.type == ActionType.CREATE),
            0,
        )
        inaccessible: Optional[int] = None
        deleted: Optional[int] = None
        strong: Optional[int] = None
        permanent: Optional[int] = None
        for e in entries:
            if e.action.type == ActionType.ERASE:
                detail = e.action.detail or ""
                physical = any(
                    marker in detail
                    for marker in ("DELETE", "tombstone", "key shred")
                )
                if inaccessible is None:
                    inaccessible = e.timestamp
                if physical and deleted is None:
                    deleted = e.timestamp
                if (
                    ("VACUUM FULL" in detail or "strong cascade" in detail)
                    and strong is None
                ):
                    strong = e.timestamp
            if e.action.type == ActionType.SANITIZE and permanent is None:
                permanent = e.timestamp
        return ErasureTimeline(
            collected_at=collected,
            inaccessible_at=inaccessible,
            deleted_at=deleted,
            strongly_deleted_at=strong,
            permanently_deleted_at=permanent,
        )

    # ------------------------------------------------------------- forensics
    def physically_present(self, unit_id: str) -> bool:
        """Whether any physical copy (live or dead) of the unit remains."""
        return self.backend.physically_present(unit_id)

    @property
    def history(self):
        return self.log.history
