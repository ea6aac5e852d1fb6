"""Static + runtime compliance checking for the grounding discipline.

Two halves, one discipline:

* :mod:`repro.analysis.engine` / :mod:`repro.analysis.rules` — the
  AST-based grounding linter (rules G01–G06); any finding fails it;
* :mod:`repro.analysis.invariants` — the declarative runtime invariant
  registry the interleaved workload driver executes after every
  background-rebalance step.

Entry point: ``python -m repro.cli analyze [--path PATH]``.  The
interleaved driver (:func:`repro.workloads.driver.run_interleaved`) and
``python -m repro chaos`` run the invariant registry.
"""

from repro.analysis.engine import (
    ERROR,
    WARNING,
    Finding,
    Module,
    Rule,
    package_root,
    render_report,
    run_rules,
)
from repro.analysis.invariants import (
    InvariantViolation,
    RuntimeInvariant,
    World,
    check_invariants,
    store_invariants,
)
from repro.analysis.rules import default_rules, rule_catalogue

__all__ = [
    "ERROR",
    "WARNING",
    "Finding",
    "InvariantViolation",
    "Module",
    "Rule",
    "RuntimeInvariant",
    "World",
    "check_invariants",
    "default_rules",
    "package_root",
    "render_report",
    "rule_catalogue",
    "run_rules",
    "store_invariants",
]
