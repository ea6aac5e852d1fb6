"""Documentation integrity — link checking, CLI-reference drift, and
docstring cross-references.

The docs layer is only useful if it cannot rot: every relative link in
``README.md`` and ``docs/*.md`` must resolve to a real file,
``docs/CLI.md`` must cover every subcommand and flag the argparse tree in
``repro.cli`` actually exposes (and name no subcommand that no longer
exists), and every ``:mod:`` / ``:class:`` / ``:meth:`` … role in a
``src/repro`` docstring must name something that exists.  These tests run
in the CI docs job on every push.
"""

import argparse
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_ROOT = REPO_ROOT / "src"
CLI_DOC = REPO_ROOT / "docs" / "CLI.md"

#: ``[text](target)`` — good enough for the hand-written markdown here.
LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")

DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")]
)


def _subcommands(parser: argparse.ArgumentParser):
    """Name → subparser for every registered subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def _long_options(parser: argparse.ArgumentParser):
    """Every ``--flag`` option string the subparser accepts (sans --help)."""
    options = []
    for action in parser._actions:
        for opt in action.option_strings:
            if opt.startswith("--") and opt != "--help":
                options.append(opt)
    return options


class TestDocsExist:
    def test_required_docs_present(self):
        for path in ("README.md", "docs/ARCHITECTURE.md", "docs/CLI.md"):
            assert (REPO_ROOT / path).is_file(), f"missing {path}"


class TestLinks:
    @pytest.mark.parametrize(
        "doc", DOC_FILES, ids=[d.relative_to(REPO_ROOT).as_posix() for d in DOC_FILES]
    )
    def test_relative_links_resolve(self, doc):
        """Every relative link target exists (external URLs are skipped —
        the CI docs job runs without network access)."""
        broken = []
        for target in LINK.findall(doc.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = (doc.parent / target.split("#", 1)[0]).resolve()
            if not path.exists():
                broken.append(target)
        assert not broken, f"{doc.name}: broken relative link(s) {broken}"


class TestCliReferenceDrift:
    """docs/CLI.md is generated-or-checked against the argparse tree."""

    def setup_method(self):
        self.doc = CLI_DOC.read_text()
        self.subcommands = _subcommands(build_parser())
        # Section bodies keyed by the subcommand their heading names.
        self.sections = {}
        for chunk in self.doc.split("\n## ")[1:]:
            heading, _, body = chunk.partition("\n")
            name = heading.strip().strip("`")
            self.sections[name] = body

    def test_every_subcommand_has_a_section(self):
        missing = sorted(set(self.subcommands) - set(self.sections))
        assert not missing, f"docs/CLI.md lacks section(s) for {missing}"

    def test_no_section_for_unknown_subcommand(self):
        unknown = sorted(set(self.sections) - set(self.subcommands))
        assert not unknown, (
            f"docs/CLI.md documents nonexistent subcommand(s) {unknown}"
        )

    def test_every_flag_documented_in_its_section(self):
        undocumented = []
        for name, subparser in self.subcommands.items():
            body = self.sections.get(name, "")
            for opt in _long_options(subparser):
                if f"`{opt}`" not in body:
                    undocumented.append(f"{name} {opt}")
        assert not undocumented, (
            "docs/CLI.md is missing flag documentation for: "
            + ", ".join(undocumented)
        )

    def test_documented_flags_exist(self):
        """No section documents a flag its subcommand does not accept."""
        stale = []
        for name, body in self.sections.items():
            accepted = set(_long_options(self.subcommands[name]))
            for opt in set(re.findall(r"`(--[a-z][a-z-]*)`", body)):
                if opt not in accepted:
                    stale.append(f"{name} {opt}")
        assert not stale, f"docs/CLI.md documents unknown flag(s): {stale}"


#: A Sphinx cross-reference role; the target may wrap across lines.
XREF = re.compile(r":(?:mod|class|func|meth|attr|exc|data):`([^`]+)`")
#: Third-party namespaces docstrings may name without importing them.
EXTERNAL_PREFIXES = ("concurrent.", "networkx.")


def _has_path(obj, parts):
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


class TestDocstringCrossReferences:
    """A docstring naming a deleted method, class or module fails here."""

    @classmethod
    def setup_class(cls):
        cls.modules = {"repro": repro}
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                cls.modules[info.name] = importlib.import_module(info.name)

    def _resolves(self, module, target):
        target = re.sub(r"\s+", "", target).lstrip("~").removesuffix("()")
        if target.startswith(EXTERNAL_PREFIXES):
            return True
        parts = target.split(".")
        if parts[0] == "repro":
            # Longest importable module prefix, then attribute lookups.
            for cut in range(len(parts), 0, -1):
                name = ".".join(parts[:cut])
                if name in self.modules:
                    return _has_path(self.modules[name], parts[cut:])
            return False
        scopes = [module]
        scopes += [c for _n, c in inspect.getmembers(module, inspect.isclass)]
        scopes += self.modules.values()
        return any(_has_path(scope, parts) for scope in scopes)

    def test_every_role_target_resolves(self):
        stale = []
        checked = 0
        for path in sorted((SRC_ROOT / "repro").rglob("*.py")):
            parts = path.relative_to(SRC_ROOT).with_suffix("").parts
            name = ".".join(p for p in parts if p != "__init__")
            if name not in self.modules:
                continue  # __main__: importing it would run the CLI
            for match in XREF.finditer(path.read_text()):
                checked += 1
                if not self._resolves(self.modules[name], match.group(1)):
                    rel = path.relative_to(REPO_ROOT).as_posix()
                    stale.append(f"{rel}: {match.group(0)}")
        assert checked > 100, f"only {checked} roles found — regex drifted?"
        assert not stale, "docstring role(s) naming nothing: " + "; ".join(stale)
