"""Static + runtime compliance checking for the grounding discipline.

Two halves, one discipline:

* :mod:`repro.analysis.engine` / :mod:`repro.analysis.rules` — the
  AST-based grounding linter (rules G01–G06) with a committed,
  line-independent baseline ratchet;
* :mod:`repro.analysis.invariants` — the declarative runtime invariant
  registry the interleaved workload driver executes after every
  background-rebalance step.

Entry point: ``python -m repro.cli analyze [--baseline] [--invariants]``.
"""

from repro.analysis.engine import (
    ERROR,
    WARNING,
    BaselineEntry,
    Finding,
    Module,
    Rule,
    baseline_path,
    classify,
    load_baseline,
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
    "BaselineEntry",
    "Finding",
    "InvariantViolation",
    "Module",
    "Rule",
    "RuntimeInvariant",
    "World",
    "baseline_path",
    "check_invariants",
    "classify",
    "default_rules",
    "load_baseline",
    "package_root",
    "render_report",
    "rule_catalogue",
    "run_rules",
    "store_invariants",
]
