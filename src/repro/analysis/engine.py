"""Rule engine for the grounding linter — AST walks, findings, baseline.

The paper's §1 claim is that erasure grounding is a *system-wide* property:
every location that can physically hold a copy of a unit's value (WAL,
replication log, SSTable, cache, migration batch) must be tracked, and
every destructive action must leave an audit record.  PRs 1–4 each fixed a
silent erasure leak that only a test tripping over residue revealed; this
module turns the discipline those fixes established into *checkable
objects* at the source level.  Each :class:`Rule` walks a module's ``ast``
tree and yields :class:`Finding`\\ s (``file:line``, rule id, message,
severity); :func:`run_rules` applies the registered rule set over a whole
package.

**Baseline ratchet.**  Pre-existing debt is not asserted away: a committed
baseline file (``src/repro/analysis/baseline.json``) lists the findings the
codebase is allowed to keep, each with a tracking note explaining the
design change that would retire it.  :func:`classify` splits a fresh run
into *new* findings (CI-blocking), *matched* findings (baselined), and
*stale* baseline entries (debt that was paid off — the entry must be
deleted, which is what makes the baseline a ratchet rather than a
suppression list).  Baseline keys are ``rule:file:symbol`` — line-number
free, so unrelated edits cannot invalidate them.

The rule set itself lives in :mod:`repro.analysis.rules`; the runtime
(declarative) half of the invariant story is
:mod:`repro.analysis.invariants`.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Severity vocabulary, mirrored after the compatibility auditor's levels.
ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    ``symbol`` is the enclosing ``Class.method`` (or ``<module>``) — the
    stable half of the baseline key, so a baseline entry survives line
    drift but dies with the code it describes.
    """

    rule: str
    file: str
    line: int
    symbol: str
    message: str
    severity: str = ERROR

    @property
    def key(self) -> str:
        """Line-independent identity used for baseline matching."""
        return f"{self.rule}:{self.file}:{self.symbol}"

    def __str__(self) -> str:
        return (
            f"{self.file}:{self.line}: {self.rule} [{self.severity}] "
            f"{self.message} ({self.symbol})"
        )


@dataclass
class Module:
    """One parsed source module, with the lookups rules keep needing."""

    path: Path
    relpath: str  # posix path relative to the scan root's parent
    tree: ast.AST
    source: str
    _parents: Dict[ast.AST, ast.AST] = field(default_factory=dict, repr=False)

    @classmethod
    def parse(cls, path: Path, relpath: str) -> "Module":
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
        module = cls(path=path, relpath=relpath, tree=tree, source=source)
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                module._parents[child] = parent
        return module

    # ------------------------------------------------------------ navigation
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def enclosing_scopes(self, node: ast.AST) -> List[ast.AST]:
        """Enclosing def/class nodes, innermost first."""
        scopes: List[ast.AST] = []
        cursor = self.parent(node)
        while cursor is not None:
            if isinstance(
                cursor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                scopes.append(cursor)
            cursor = self.parent(cursor)
        return scopes

    def enclosing_function(
        self, node: ast.AST
    ) -> Optional[ast.FunctionDef]:
        for scope in self.enclosing_scopes(node):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return scope
        return None

    def symbol_for(self, node: ast.AST) -> str:
        """``Class.method`` / ``Class`` / ``function`` / ``<module>``."""
        names = [
            scope.name
            for scope in reversed(self.enclosing_scopes(node))
        ]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        return ".".join(names) if names else "<module>"

    def walk(self) -> Iterator[ast.AST]:
        return ast.walk(self.tree)


class Rule:
    """One statically checkable grounding invariant.

    Subclasses set ``id``/``title``/``severity`` and implement
    :meth:`check`, yielding findings for one module at a time.  Rules see
    one module per call by design: the write-site half of the grounding
    discipline requires the tracking to live *next to* the copy-producing
    code, which keeps the pass fast and the failure locations exact.  The
    rare invariant that is deliberately *cross*-module — "every declared
    ``CopyLocation`` member is reported somewhere in the package" — goes
    in :meth:`check_package`, which runs once over the full module list
    after the per-module pass.
    """

    id: str = "G00"
    title: str = "abstract rule"
    severity: str = ERROR

    def check(self, module: Module) -> Iterable[Finding]:  # pragma: no cover
        raise NotImplementedError

    def check_package(self, modules: Sequence[Module]) -> Iterable[Finding]:
        """Package-scope pass (default: no findings)."""
        return ()

    def finding(self, module: Module, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            file=module.relpath,
            line=getattr(node, "lineno", 0),
            symbol=module.symbol_for(node),
            message=message,
            severity=self.severity,
        )


# --------------------------------------------------------------------- runner
def iter_modules(root: Path) -> Iterator[Module]:
    """Parse every ``*.py`` under ``root`` (or ``root`` itself, if a file).

    ``relpath`` is computed against the root's parent so a default scan of
    ``src/repro`` yields the ``repro/...`` paths the baseline is keyed by.
    """
    root = root.resolve()
    paths = [root] if root.is_file() else sorted(root.rglob("*.py"))
    for path in paths:
        try:
            rel = path.relative_to(root.parent if root.is_file() else root.parent)
            relpath = rel.as_posix()
        except ValueError:  # scanning outside any package root
            relpath = path.name
        yield Module.parse(path, relpath)


def run_rules(
    root: Path, rules: Optional[Sequence[Rule]] = None
) -> List[Finding]:
    """Apply ``rules`` (default: the registered set) over the tree at
    ``root``; findings come back sorted by location for stable output."""
    if rules is None:
        from repro.analysis.rules import default_rules

        rules = default_rules()
    findings: List[Finding] = []
    modules = list(iter_modules(root))
    for module in modules:
        for rule in rules:
            findings.extend(rule.check(module))
    for rule in rules:
        findings.extend(rule.check_package(modules))
    return sorted(findings, key=lambda f: (f.file, f.line, f.rule))


def package_root() -> Path:
    """The installed ``repro`` package directory — the default scan root."""
    import repro

    return Path(repro.__file__).resolve().parent


# ------------------------------------------------------------------- baseline
BASELINE_FILE = "baseline.json"


def baseline_path() -> Path:
    """The committed baseline beside this module."""
    return Path(__file__).resolve().parent / BASELINE_FILE


@dataclass(frozen=True)
class BaselineEntry:
    """One tolerated finding, with the note that tracks why it stays."""

    rule: str
    file: str
    symbol: str
    note: str

    @property
    def key(self) -> str:
        return f"{self.rule}:{self.file}:{self.symbol}"


#: Rules whose baseline debt has been fully paid off.  The ratchet may
#: never regrow silently: a baseline entry for a retired rule is a load
#: error, not tolerated debt.  G01 (untyped copy-location sites) retired
#: with the engine-level WAL CopyLocation unification — every engine now
#: reports its log/cache sites typed.
RETIRED_RULES = frozenset({"G01"})


def load_baseline(path: Optional[Path] = None) -> List[BaselineEntry]:
    path = path or baseline_path()
    if not path.exists():
        return []
    payload = json.loads(path.read_text())
    entries = [
        BaselineEntry(
            rule=entry["rule"],
            file=entry["file"],
            symbol=entry["symbol"],
            note=entry.get("note", ""),
        )
        for entry in payload.get("entries", [])
    ]
    regrown = [e.key for e in entries if e.rule in RETIRED_RULES]
    if regrown:
        raise ValueError(
            "baseline entries for retired rule(s) — the ratchet may not "
            f"regrow: {', '.join(sorted(regrown))}"
        )
    return entries


def classify(
    findings: Sequence[Finding], baseline: Sequence[BaselineEntry]
) -> Tuple[List[Finding], List[Finding], List[BaselineEntry]]:
    """Split a fresh run against the baseline.

    Returns ``(new, matched, stale)``: findings with no baseline entry
    (CI-blocking), findings the baseline tolerates, and baseline entries no
    fresh finding matches (paid-off debt whose entry must be removed — the
    ratchet direction).
    """
    allowed = {entry.key: entry for entry in baseline}
    matched_keys = set()
    new: List[Finding] = []
    matched: List[Finding] = []
    for finding in findings:
        if finding.key in allowed:
            matched.append(finding)
            matched_keys.add(finding.key)
        else:
            new.append(finding)
    stale = [entry for entry in baseline if entry.key not in matched_keys]
    return new, matched, stale


def render_report(
    findings: Sequence[Finding],
    baseline: Optional[Sequence[BaselineEntry]] = None,
) -> str:
    """Human-readable report; with a baseline, new/matched/stale sections."""
    lines: List[str] = []
    if baseline is None:
        for finding in findings:
            lines.append(str(finding))
        lines.append(f"{len(findings)} finding(s)")
        return "\n".join(lines)
    new, matched, stale = classify(findings, baseline)
    for finding in new:
        lines.append(f"NEW   {finding}")
    for finding in matched:
        lines.append(f"KNOWN {finding}")
    for entry in stale:
        lines.append(
            f"STALE baseline entry {entry.key} no longer fires — "
            "remove it (ratchet)"
        )
    lines.append(
        f"{len(new)} new, {len(matched)} baselined, {len(stale)} stale "
        f"baseline entr{'y' if len(stale) == 1 else 'ies'}"
    )
    return "\n".join(lines)
