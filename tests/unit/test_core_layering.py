"""``repro.core`` is pure model code: it never imports the layers above it.

The invariant vocabulary (``Invariant``, ``World``, ``check_invariants``)
lives in ``repro.core`` so the paper's invariants and the store invariants
share it; that placement is only simpler while ``core`` stays free of the
store, the service, the analysis package and the system backends.  A
runtime ``sys.modules`` probe cannot tell, because ``import repro`` loads
the whole package, so every module is parsed and every ``import`` in it —
at module level or inside a function — is checked.
"""

import ast
from pathlib import Path

CORE = Path(__file__).resolve().parents[2] / "src" / "repro" / "core"
FORBIDDEN = ("repro.distributed", "repro.service", "repro.analysis", "repro.systems")


def imported_modules(source, package="repro.core"):
    """Every module an ``import`` statement in ``source`` names."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            if "." in base:
                yield base
            else:  # ``from repro import distributed`` names the submodule
                yield from (f"{base}.{alias.name}" for alias in node.names)


def forbidden_imports(source):
    return sorted(
        name
        for name in set(imported_modules(source))
        if any(name == f or name.startswith(f + ".") for f in FORBIDDEN)
    )


def test_core_imports_no_upper_layer():
    modules = sorted(CORE.glob("*.py"))
    assert len(modules) > 5
    found = {
        path.name: hits
        for path in modules
        if (hits := forbidden_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_the_guard_sees_every_import_shape():
    source = (
        "import repro.systems.backends\n"
        "from repro import distributed\n"
        "from ..service import server\n"
        "def late():\n"
        "    from repro.analysis.invariants import store_invariants\n"
        "from repro.core.actions import Action\n"
    )
    assert forbidden_imports(source) == [
        "repro.analysis.invariants",
        "repro.distributed",
        "repro.service",
        "repro.systems.backends",
    ]
