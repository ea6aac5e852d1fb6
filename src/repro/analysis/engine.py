"""Rule engine for the grounding linter — AST walks and findings.

The paper's §1 claim is that erasure grounding is a *system-wide* property:
every location that can physically hold a copy of a unit's value (WAL,
replication log, SSTable, cache, migration batch) must be tracked, and
every destructive action must leave an audit record.  PRs 1–4 each fixed a
silent erasure leak that only a test tripping over residue revealed; this
module turns the discipline those fixes established into *checkable
objects* at the source level.  Each :class:`Rule` walks a module's ``ast``
tree and yields :class:`Finding`\\ s (``file:line``, rule id, message,
severity); :func:`run_rules` applies the registered rule set over a whole
package.  There is no tolerated debt: any finding fails
``python -m repro.cli analyze``.

The rule set itself lives in :mod:`repro.analysis.rules`; the runtime
(declarative) half of the invariant story is
:mod:`repro.analysis.invariants`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

#: Severity vocabulary, mirrored after the compatibility auditor's levels.
ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    ``symbol`` is the enclosing ``Class.method`` (or ``<module>``).
    """

    rule: str
    file: str
    line: int
    symbol: str
    message: str
    severity: str = ERROR

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
    ``src/repro`` reports ``repro/...`` paths.
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


def render_report(findings: Sequence[Finding]) -> str:
    """Human-readable report: one line per finding, then the count."""
    lines = [str(finding) for finding in findings]
    lines.append(f"{len(findings)} finding(s)")
    return "\n".join(lines)
