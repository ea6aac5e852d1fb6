"""Shared fixtures for the integration suites.

Two failure-injection suites live in this directory and split the fault
space between them:

* ``test_failure_injection.py`` corrupts *compliance* state — the
  Figure-1 policy/consent/audit layer — and asserts the right invariant
  names the misbehaviour;
* ``test_distributed_faults.py`` injects *infrastructure* faults —
  replica crashes, shard partitions (``repro.distributed.faults``) — and
  asserts no invariant trips at all.

The Figure-1 deployment helpers below are the shared substrate of the
compliance-layer tests (and any suite that needs a known-healthy
deployment to corrupt).
"""

from repro.core.actions import ActionType
from repro.core.consistency import regulation_requires_any_of
from repro.core.entities import controller, data_subject
from repro.core.invariants import PIA_UNIT, figure1_invariants
from repro.core.policy import Policy, Purpose
from repro.systems.database import CompliantDatabase

METASPACE = controller("MetaSpace")
USER = data_subject("user-1")
WINDOW = (0, 10**12)

REQUIRED = regulation_requires_any_of(
    Purpose.COMPLIANCE_ERASE, Purpose.CONTRACT, "subject-access"
)


def healthy_db(with_pia=True):
    """A fully compliant single-unit deployment (the corruption target)."""
    db = CompliantDatabase(METASPACE)
    if with_pia:
        db.log.record(
            PIA_UNIT,
            Purpose.AUDIT,
            METASPACE,
            ActionType.CONTRACT,
            0,
        )
    db.collect(
        "u1",
        USER,
        "app",
        {"v": 1},
        policies=[Policy(Purpose.SERVICE, METASPACE, *WINDOW)],
        erase_deadline=10**12,
    )
    return db


def run_invariants(db, encrypted=True):
    invariants = figure1_invariants(
        required_by_regulation=REQUIRED,
        encrypted_at_rest=lambda: encrypted,
    )
    return db.check_compliance(invariants)


def failing_names(report):
    return {v.invariant for v in report.verdicts if not v.holds}
