"""Invariants — one checking vocabulary (paper §2.2, Figure 1).

Data-CASE states a regulation as invariants over grounded concepts.  Each
is an :class:`Invariant` ``(name, article, check)`` whose ``check`` reads a
:class:`World` — the database model, action history and time the paper's
invariants need, and the live store the invariants of
:mod:`repro.analysis.invariants` probe.  :func:`check_invariants` is the
one evaluator: its :class:`ComplianceReport` holds a verdict and violation
witnesses per invariant — *demonstrable* compliance or a concrete
counter-example.

Two invariants are fully formal, straight from §2.2:

* :func:`g6_policy_consistency` — every action on every data unit is
  policy-consistent;
* :func:`g17_erasure_deadline` — every data unit carries a
  compliance-erase policy, and its last action is an erase performed
  before that deadline.

The remaining nine are the informal category invariants of Figure 1, each
formalized here as far as the model allows (the paper leaves them informal;
we choose checkable readings and document them in the docstrings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.actions import ActionHistory, ActionHistoryTuple, ActionType
from repro.core.consistency import (
    RegulationRequires,
    _never_required,
    policy_violations,
)
from repro.core.dataunit import Database, DataCategory, DataUnit

#: Bounded per-check sample so a store check stays O(sample) per step,
#: not O(keyspace); deterministic (sorted prefix) for replayability.
SAMPLE_LIMIT = 32

#: The deployment unit a privacy impact assessment is recorded against
#: (Figure 1, III).
PIA_UNIT = "__deployment__"

#: The purpose of the SHARE that notifies a data subject of a breach
#: (Figure 1, VIII).
NOTIFY_PURPOSE = "breach-notification"


@dataclass(frozen=True)
class Violation:
    """One witness of an invariant breach."""

    invariant: str
    unit_id: Optional[str]
    message: str
    witness: Optional[ActionHistoryTuple] = None

    def __str__(self) -> str:
        where = f" [{self.unit_id}]" if self.unit_id else ""
        return f"{self.invariant}{where}: {self.message}"


@dataclass(frozen=True)
class ComplianceVerdict:
    """The outcome of evaluating one invariant."""

    invariant: str
    holds: bool
    violations: Tuple[Violation, ...] = ()
    checked_units: int = 0

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class ComplianceReport:
    """The outcome of a full compliance evaluation."""

    verdicts: Tuple[ComplianceVerdict, ...]
    evaluated_at: int

    @property
    def compliant(self) -> bool:
        return all(v.holds for v in self.verdicts)

    @property
    def violations(self) -> Tuple[Violation, ...]:
        out: List[Violation] = []
        for verdict in self.verdicts:
            out.extend(verdict.violations)
        return tuple(out)

    def verdict(self, invariant_name: str) -> ComplianceVerdict:
        for v in self.verdicts:
            if v.invariant == invariant_name:
                return v
        raise KeyError(f"no verdict for invariant {invariant_name!r}")

    def __contains__(self, invariant_name: str) -> bool:
        return any(v.invariant == invariant_name for v in self.verdicts)

    def summary(self) -> Dict[str, bool]:
        return {v.invariant: v.holds for v in self.verdicts}

    def render(self, max_violations: int = 5) -> str:
        """Human-readable report used by examples and the audit CLI."""
        lines = [
            f"Compliance report @ t={self.evaluated_at} — "
            f"{'COMPLIANT' if self.compliant else 'NON-COMPLIANT'}"
        ]
        for verdict in self.verdicts:
            status = "PASS" if verdict.holds else "FAIL"
            lines.append(
                f"  [{status}] {verdict.invariant} "
                f"({verdict.checked_units} units checked, "
                f"{len(verdict.violations)} violations)"
            )
            for violation in verdict.violations[:max_violations]:
                lines.append(f"         - {violation}")
            hidden = len(verdict.violations) - max_violations
            if hidden > 0:
                lines.append(f"         … and {hidden} more")
        return "\n".join(lines)


@dataclass
class World:
    """Everything a check may read.

    ``database``, ``history`` and ``now`` are the Data-CASE model a
    regulation invariant is stated over.  ``store`` is a live store under
    test, and the rest is a harness's ground truth about it: which keys it
    believes live, which it grounded-erased, plus the audit events the
    store emitted along the way.  ``attach`` subscribes the event
    collectors to the store's listener seams; ``erase_reports`` keeps the
    report of each grounded erase (latest wins — a key can be erased,
    re-created, and erased again).
    """

    store: Any = None
    driver: Optional[Any] = None
    database: Database = field(default_factory=Database)
    history: ActionHistory = field(default_factory=ActionHistory)
    now: int = 0
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


#: One breach a check found: the data unit it concerns (``None`` for a
#: deployment- or store-wide breach), what is wrong, and the history tuple
#: that witnesses it, if one does.
Breach = Tuple[Optional[str], str, Optional[ActionHistoryTuple]]
Check = Callable[[World], Tuple[int, List[Breach]]]


@dataclass(frozen=True)
class Invariant:
    """One requirement and the regulation article it grounds.

    ``check`` reads the :class:`World` and returns how many data units it
    examined and the breaches it found (none when the invariant holds).
    Checks are read-only; the store checks also run between live-traffic
    steps, so they sample rather than enumerate the keyspace.
    """

    name: str
    article: str
    check: Check


def check_invariants(
    world: World, invariants: Iterable[Invariant]
) -> ComplianceReport:
    """Evaluate every invariant against ``world``, in order."""
    verdicts = []
    for invariant in invariants:
        checked, breaches = invariant.check(world)
        violations = tuple(
            Violation(invariant.name, unit_id, message, witness)
            for unit_id, message, witness in breaches
        )
        verdicts.append(
            ComplianceVerdict(invariant.name, not violations, violations, checked)
        )
    return ComplianceReport(verdicts=tuple(verdicts), evaluated_at=world.now)


# --------------------------------------------------------------------------
# Per-unit checks: the scaffolding every unit-scoped invariant shares.
# --------------------------------------------------------------------------

UnitBreaches = Iterator[Tuple[str, Optional[ActionHistoryTuple]]]
UnitCheck = Callable[[DataUnit, World], UnitBreaches]
_PERSONAL = frozenset(DataCategory) - {DataCategory.METADATA}


def _per_unit(
    categories: AbstractSet[DataCategory] = frozenset(DataCategory),
) -> Callable[[UnitCheck], Check]:
    """Lift a check of one data unit, yielding ``(message, witness)``
    pairs, to a :data:`Check` over every unit of ``categories``."""

    def lift(breaches_of: UnitCheck) -> Check:
        def check(world: World) -> Tuple[int, List[Breach]]:
            units = [u for u in world.database if u.category in categories]
            return len(units), [
                (unit.unit_id, message, witness)
                for unit in units
                for message, witness in breaches_of(unit, world)
            ]

        return check

    return lift


def g6_policy_consistency(
    required_by_regulation: RegulationRequires = _never_required,
) -> Invariant:
    """GDPR Article 6 — lawfulness of processing.

    "For all data units X, and for all actions τ on X, it holds that τ is
    policy-consistent."
    """

    @_per_unit()
    def check(unit: DataUnit, world: World) -> UnitBreaches:
        for entry in policy_violations(
            unit, world.history, required_by_regulation
        ):
            yield (
                f"action {entry.action} by {entry.entity.name} for "
                f"purpose {entry.purpose!r} at t={entry.timestamp} "
                "has no authorizing policy",
                entry,
            )

    return Invariant("G6-policy-consistency", "GDPR Art. 6", check)


@_per_unit(_PERSONAL)
def _erasure_deadline(unit: DataUnit, world: World) -> UnitBreaches:
    deadline = unit.policies.erasure_deadline()
    if deadline is None:
        yield (
            "no compliance-erase policy: data would be retained eternally",
            None,
        )
        return
    erase = world.history.last_of_type(unit.unit_id, ActionType.ERASE)
    if erase is None:
        if world.now > deadline:
            yield (
                f"deadline t={deadline} has passed without an erase "
                f"(now t={world.now})",
                None,
            )
    elif erase.timestamp > deadline:
        yield (
            f"erase happened at t={erase.timestamp}, after the deadline "
            f"t={deadline}",
            erase,
        )
    else:
        last = world.history.last(unit.unit_id)
        if last is not None and not last.is_erase and last.timestamp > erase.timestamp:
            yield (
                f"action {last.action} at t={last.timestamp} post-dates the "
                "erase",
                last,
            )


def g17_erasure_deadline() -> Invariant:
    """GDPR Article 17 — right to erasure / storage limitation.

    "Every data unit X has a compliance-erase policy
    ⟨compliance-erase, e, t_b, t_f⟩, and the last action on X is erase(X) at
    a time t ≤ t_f."

    Units whose deadline lies in the future are not yet in violation; units
    with no compliance-erase policy at all violate the invariant immediately
    ("do not store data eternally", Figure 1 category V).
    """
    return Invariant("G17-erasure-deadline", "GDPR Art. 17", _erasure_deadline)


# --------------------------------------------------------------------------
# Figure 1 — the nine informal category invariants, given checkable readings.
# --------------------------------------------------------------------------

def disclosure() -> Invariant:
    """Figure 1, I (Disclosure): keep data subjects informed when collecting.

    Reading: every base data unit's history contains a CONTRACT action (the
    consent/notice event) at or before its first CREATE.
    """

    @_per_unit({DataCategory.BASE})
    def check(unit: DataUnit, world: World) -> UnitBreaches:
        create_t: Optional[int] = None
        contract_t: Optional[int] = None
        for e in world.history.of(unit.unit_id):
            if e.action.type == ActionType.CREATE and create_t is None:
                create_t = e.timestamp
            if e.action.type == ActionType.CONTRACT and contract_t is None:
                contract_t = e.timestamp
        if create_t is not None and (contract_t is None or contract_t > create_t):
            yield "collected without a prior disclosure/consent contract", None

    return Invariant("I-disclosure", "GDPR Arts. 13–14", check)


def storage_rights() -> Invariant:
    """Figure 1, II (Storage): store data such that subjects can exercise
    their rights.

    Reading: every base/derived unit has a non-empty subject set and at least
    one policy naming an entity — otherwise no right (access, erasure,
    rectification) can even be addressed.
    """

    @_per_unit(_PERSONAL)
    def check(unit: DataUnit, world: World) -> UnitBreaches:
        if unit.is_erased:
            return
        if not unit.subjects:
            yield "no data-subject recorded", None
        if len(unit.policies) == 0:
            yield "no policy attached: rights cannot be exercised", None

    return Invariant("II-storage-rights", "GDPR Arts. 12, 15–18, 20–21, 23", check)


def pre_processing() -> Invariant:
    """Figure 1, III (Pre-processing): consult and assess prior to processing.

    Reading: the deployment performed a privacy impact assessment —
    modelled as a CONTRACT action recorded against :data:`PIA_UNIT`
    before the first non-CONTRACT action in the whole history.
    """

    def check(world: World) -> Tuple[int, List[Breach]]:
        first: Optional[ActionHistoryTuple] = None
        for entry in world.history.all_tuples():
            if entry.unit_id == PIA_UNIT or entry.action.type == ActionType.CONTRACT:
                continue
            if first is None or entry.timestamp < first.timestamp:
                first = entry
        if first is None:
            return 1, []
        pia = world.history.last_of_type(PIA_UNIT, ActionType.CONTRACT)
        if pia is None:
            return 1, [(None, "no privacy impact assessment on record", None)]
        if pia.timestamp > first.timestamp:
            return 1, [
                (
                    first.unit_id,
                    "processing started before the impact assessment",
                    first,
                )
            ]
        return 1, []

    return Invariant("III-pre-processing", "GDPR Arts. 35–36", check)


def sharing_processing(
    required_by_regulation: RegulationRequires = _never_required,
) -> Invariant:
    """Figure 1, IV (Sharing and Processing): do not process indiscriminately.

    Reading: every SHARE or DERIVE action is policy-consistent (a sharper
    subset of G6 focused on propagation of data to other entities).
    """

    @_per_unit()
    def check(unit: DataUnit, world: World) -> UnitBreaches:
        for entry in world.history.of(unit.unit_id):
            if entry.action.type not in (ActionType.SHARE, ActionType.DERIVE):
                continue
            if required_by_regulation(entry):
                continue
            if unit.policies.authorizing(
                entry.purpose, entry.entity, entry.timestamp
            ) is None:
                yield (
                    f"{entry.action} by {entry.entity.name} without an "
                    "authorizing policy",
                    entry,
                )

    return Invariant(
        "IV-sharing-processing", "GDPR Arts. 5–11, 22, 26–29, 44–45", check
    )


def erasure() -> Invariant:
    """Figure 1, V (Erasure): do not store data eternally — G17's check
    under Figure 1's name."""
    return Invariant("V-erasure", "GDPR Art. 17", _erasure_deadline)


def design_security(
    encrypted_at_rest: Callable[[], bool] = lambda: False,
) -> Invariant:
    """Figure 1, VI (Design and Security): build data-protective systems.

    Reading: the deployment declares an at-rest encryption scheme, checked
    via a deployment attribute the system profiles set.  A pure-model
    evaluation cannot inspect an engine, so the check consults a
    declaration callback supplied by the deployment.
    """

    def check(world: World) -> Tuple[int, List[Breach]]:
        if encrypted_at_rest():
            return 1, []
        return 1, [(None, "personal data is not protected at rest", None)]

    return Invariant("VI-design-security", "GDPR Arts. 25, 32", check)


def record_keeping() -> Invariant:
    """Figure 1, VII (Record keeping): keep records of all data-operations.

    Reading: every non-metadata unit present in the database appears in the
    action history (at minimum its CREATE must be on record).
    """

    @_per_unit(_PERSONAL)
    def check(unit: DataUnit, world: World) -> UnitBreaches:
        if unit.unit_id not in world.history:
            yield "unit exists but no operation on it is on record", None

    return Invariant("VII-record-keeping", "GDPR Art. 30", check)


def obligations(
    required_by_regulation: RegulationRequires = _never_required,
) -> Invariant:
    """Figure 1, VIII (Obligations): inform the user of changes and
    unauthorized access to their data.

    Reading: for every policy-inconsistent access on a unit (a breach), the
    history contains a later SHARE action to the data subject with purpose
    :data:`NOTIFY_PURPOSE`.
    """

    @_per_unit()
    def check(unit: DataUnit, world: World) -> UnitBreaches:
        breaches = policy_violations(unit, world.history, required_by_regulation)
        if not breaches:
            return
        notices = [
            e.timestamp
            for e in world.history.of(unit.unit_id)
            if e.action.type == ActionType.SHARE and e.purpose == NOTIFY_PURPOSE
        ]
        for breach in breaches:
            if breach.purpose == NOTIFY_PURPOSE:
                continue
            if not any(t >= breach.timestamp for t in notices):
                yield (
                    "unauthorized access was never notified to the data "
                    "subject",
                    breach,
                )

    return Invariant("VIII-obligations", "GDPR Arts. 19, 33–34", check)


def demonstrability() -> Invariant:
    """Figure 1, IX (Accountability): demonstrate compliance.

    Reading: the action history itself must be demonstrably complete — every
    mutation recorded in the database model (value versions, erasures) has a
    matching history tuple.  This is the invariant that makes "demonstrable
    compliance" more than a slogan: evidence, not assertion.
    """

    @_per_unit(_PERSONAL)
    def check(unit: DataUnit, world: World) -> UnitBreaches:
        mutations = sum(
            1
            for e in world.history.of(unit.unit_id)
            if e.action.type
            in (ActionType.CREATE, ActionType.UPDATE, ActionType.ERASE)
        )
        expected = len(unit.versions) + (1 if unit.is_erased else 0)
        if mutations < expected:
            yield (
                f"{expected} recorded mutations in the model but only "
                f"{mutations} in the action history",
                None,
            )

    return Invariant("IX-demonstrability", "GDPR Arts. 24, 31", check)


def figure1_invariants(
    required_by_regulation: RegulationRequires = _never_required,
    encrypted_at_rest: Callable[[], bool] = lambda: True,
) -> List[Invariant]:
    """The nine Figure-1 invariants, in the paper's order."""
    return [
        disclosure(),
        storage_rights(),
        pre_processing(),
        sharing_processing(required_by_regulation),
        erasure(),
        design_security(encrypted_at_rest),
        record_keeping(),
        obligations(required_by_regulation),
        demonstrability(),
    ]
