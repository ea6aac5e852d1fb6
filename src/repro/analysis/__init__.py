"""Static + runtime compliance checking for the grounding discipline.

Two halves, one discipline:

* :mod:`repro.analysis.engine` / :mod:`repro.analysis.rules` — the
  AST-based grounding linter (rules G01–G07); any finding fails it;
* :mod:`repro.analysis.invariants` — the store invariants the
  interleaved workload driver evaluates after every background-rebalance
  step, in the one vocabulary of :mod:`repro.core.invariants`.

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
from repro.analysis.invariants import store_invariants
from repro.analysis.rules import default_rules, rule_catalogue

__all__ = [
    "ERROR",
    "WARNING",
    "Finding",
    "Module",
    "Rule",
    "default_rules",
    "package_root",
    "render_report",
    "rule_catalogue",
    "run_rules",
    "store_invariants",
]
