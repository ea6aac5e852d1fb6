"""The grounding rule set — the paper's copy-site model, statically checked.

Each rule encodes one clause of the erasure-grounding discipline the
previous PRs enforced by convention (and fixed leaks against, after the
fact).  The catalogue, with the §1 rationale per rule, is documented in
``docs/ANALYSIS.md``; the short form:

* **G01 copy-site-tracked** — code that writes a value into a secondary
  location (replication log, WAL, cache, migration batch) must live in a
  module that registers the matching :class:`CopyLocation` site, and the
  module *declaring* ``CopyLocation`` must consume every member it
  declares.  Removing a ``copies_of`` reporting line while the write path
  remains is exactly the silent-leak shape of the PR-1/PR-2 bugs.
* **G02 destructive-audited** — destructive operations must emit audit
  actions: facade-layer erase/sanitize/shred methods must (transitively)
  record an :class:`ActionType`, and every ``add_X_listener`` seam must
  have a matching ``_emit_X`` call — an event subscribers can never
  receive is an audit trail with a hole in it.
* **G03 backend-registry** — no direct ``RelationalEngine`` /
  ``LSMEngine`` construction outside the backend registry and the engine's
  own layer; ad-hoc engines bypass copy tracking and grounding selection.
* **G04 serializer-containment** — ``marshal`` imports only inside
  ``repro/codec.py``, ``pickle`` imports nowhere; a raw-serialized unit
  value anywhere else is an untracked copy (and an unscrubbable one), and
  a pickled one is opaque to every check.  Everyone else goes through
  ``codec.encode``/``decode``.
* **G05 no-swallowed-exceptions** — no bare ``except``, no
  ``except: pass`` over broad exception types, and no silenced handlers
  at all on erase/migration paths: a swallowed failure there converts
  "verified clean" into a lie.
* **G06 rebalance-seam** — the store's shared rebalance state may only be
  mutated inside the driver-step seam; any other mutation races the
  dual-routing invariant.
* **G07 codec-boundary** — storage seams (``put``/``write_*``/``read_*``/
  ``flush``/``seal``…) must serialize through the codec, never by calling
  ``pickle`` (anywhere) or ``marshal`` (outside the codec) directly: bytes
  outside the codec's self-describing format cannot be streamed between
  blocks, sectors, and migration batches or recognized by ``decode``.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import Finding, Module, Rule

# --------------------------------------------------------------------- helpers


def _call_name(node: ast.Call) -> Optional[str]:
    """The called name: ``foo(...)`` → foo, ``a.b.foo(...)`` → foo."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _attr_base_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` → ``b`` (the attribute the method hangs off), ``a.b`` → a."""
    if isinstance(node, ast.Attribute):
        value = node.value
        if isinstance(value, ast.Attribute):
            return value.attr
        if isinstance(value, ast.Name):
            return value.id
    return None


def _attribute_refs(module: Module, owner: str) -> Set[str]:
    """Every ``owner.X`` attribute name referenced in the module."""
    refs: Set[str] = set()
    for node in module.walk():
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == owner
        ):
            refs.add(node.attr)
    return refs


# ----------------------------------------------------------------------- G01
#: Write-site pattern → the CopyLocation member whose tracking it requires.
_CACHE_ATTR = re.compile(r"cache$")
_LOG_ATTRS = frozenset({"_log", "log", "replication_log"})
#: The log as a class of its own: its ``append`` method *is* the write.
_LOG_CLASS = re.compile(r"ReplicationLog$")
_WAL_ATTRS = frozenset({"wal", "_wal"})
_IMPORT_CALLS = frozenset({"import_encoded_batch", "import_items_encoded"})


class CopySiteRule(Rule):
    """G01: secondary-location writes must register a ``CopyLocation`` site.

    Two halves:

    1. **Write sites need tracking** (module-local).  A module containing
       a secondary write — a cache-entry assignment (``*.cache[k] = v``),
       a replication-log append (``_append_log`` / ``*._log.append`` / the
       ``append`` method a ``*ReplicationLog`` class defines), a
       value-carrying WAL append (``*.wal.append(..., payload=...)``) or
       a migration import (``import_encoded_batch`` /
       ``import_items_encoded``) — must reference the matching ``CopyLocation`` member (``CACHE`` /
       ``LOG`` / ``WAL`` / ``MIGRATION``) somewhere in the same module,
       i.e. the tracking lives next to the copy-producing code.
    2. **Declared members need consumers** (package-scope).  Every member
       the ``CopyLocation`` enum declares must be referenced outside the
       enum body *somewhere in the package* — a declared-but-never-
       reported location is a copy site ``copies_of`` is blind to.  The
       enum lives in the pure-declaration module
       ``repro/core/locations.py`` precisely so every storage layer can
       import it without cycles, so the consumers are in other modules by
       design and this half runs over the whole module list.
    """

    id = "G01"
    title = "secondary-location write without a tracked CopyLocation site"

    def check(self, module: Module) -> Iterable[Finding]:
        tracked = _attribute_refs(module, "CopyLocation")
        for node, member, what in self._write_sites(module):
            if member not in tracked:
                yield self.finding(
                    module,
                    node,
                    f"{what} but the module never registers a "
                    f"CopyLocation.{member} site — the copy is invisible "
                    "to copies_of and unreachable by a grounded erase",
                )

    def check_package(self, modules: Sequence[Module]) -> Iterable[Finding]:
        tracked: Set[str] = set()
        for module in modules:
            tracked |= _attribute_refs(module, "CopyLocation")
        for module in modules:
            yield from self._check_declared_members(module, tracked)

    # ------------------------------------------------------------ write sites
    def _write_sites(
        self, module: Module
    ) -> Iterable[Tuple[ast.AST, str, str]]:
        for node in module.walk():
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if self._is_cache_subscript(target):
                        yield node, "CACHE", (
                            "cache-entry assignment writes a value copy"
                        )
            elif isinstance(node, ast.ClassDef) and _LOG_CLASS.search(node.name):
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef) and stmt.name == "append":
                        yield stmt, "LOG", "replication-log append writes a value copy"
            elif isinstance(node, ast.Call):
                name = _call_name(node)
                base = _attr_base_name(node.func)
                if name == "_append_log":
                    yield node, "LOG", "replication-log append writes a value copy"
                elif name == "append" and base in _LOG_ATTRS:
                    yield node, "LOG", "replication-log append writes a value copy"
                elif (
                    name == "append"
                    and base in _WAL_ATTRS
                    and any(kw.arg == "payload" for kw in node.keywords)
                ):
                    yield node, "WAL", "value-carrying WAL append writes a value copy"
                elif name in _IMPORT_CALLS:
                    yield node, "MIGRATION", "migration batch import writes a value copy"

    @staticmethod
    def _is_cache_subscript(target: ast.expr) -> bool:
        if not isinstance(target, ast.Subscript):
            return False
        value = target.value
        if isinstance(value, ast.Attribute):
            return bool(_CACHE_ATTR.search(value.attr))
        if isinstance(value, ast.Name):
            return bool(_CACHE_ATTR.search(value.id))
        return False

    # ------------------------------------------------------- declared members
    def _check_declared_members(
        self, module: Module, tracked: Set[str]
    ) -> Iterable[Finding]:
        for node in module.walk():
            if not isinstance(node, ast.ClassDef) or node.name != "CopyLocation":
                continue
            declared = [
                (stmt, stmt.targets[0].id)
                for stmt in node.body
                if isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id.isupper()
            ]
            for stmt, member in declared:
                if member not in tracked:
                    yield self.finding(
                        module,
                        stmt,
                        f"CopyLocation.{member} is declared but never "
                        "reported — a copy location no forensic query "
                        "speaks about cannot be verified erased",
                    )


# ----------------------------------------------------------------------- G02
_DESTRUCTIVE_DEF = re.compile(
    r"^(erase|sanitize|shred)(_[a-z_]+)?$"
)
_LISTENER_DEF = re.compile(r"^add_([a-z_]+)_listener$")


class DestructiveAuditRule(Rule):
    """G02: destructive operations must emit an audit action.

    * In modules that import :class:`ActionType` (the facade layer),
      every ``erase*`` / ``sanitize*`` / ``shred*`` method must reference
      ``ActionType`` or call ``.record(...)`` — directly or through
      same-class helpers (transitively): a grounded erase the audit
      timeline never saw is indistinguishable from a leak.
    * In any module, a listener seam ``add_X_listener`` requires at least
      one ``_emit_X(...)`` call: an event that can be subscribed to but is
      never emitted is an audit hole (the facade records MOVE/REPAIR
      actions from exactly these emissions).
    """

    id = "G02"
    title = "destructive operation without an audit action"

    def check(self, module: Module) -> Iterable[Finding]:
        if self._imports_action_type(module):
            yield from self._check_destructive_defs(module)
        yield from self._check_listener_seams(module)

    @staticmethod
    def _imports_action_type(module: Module) -> bool:
        for node in module.walk():
            if isinstance(node, ast.ImportFrom):
                if any(alias.name == "ActionType" for alias in node.names):
                    return True
        return False

    # -------------------------------------------------------- destructive defs
    def _check_destructive_defs(self, module: Module) -> Iterable[Finding]:
        for cls in [n for n in module.walk() if isinstance(n, ast.ClassDef)]:
            methods: Dict[str, ast.FunctionDef] = {
                stmt.name: stmt
                for stmt in cls.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            audited = {
                name
                for name, fn in methods.items()
                if self._records_audit(fn)
            }
            calls = {
                name: self._local_calls(fn, set(methods))
                for name, fn in methods.items()
            }
            # Transitive closure: a method audits if anything it (or its
            # same-class callees, to any depth) calls records an action.
            changed = True
            while changed:
                changed = False
                for name, callees in calls.items():
                    if name not in audited and callees & audited:
                        audited.add(name)
                        changed = True
            for name, fn in methods.items():
                if _DESTRUCTIVE_DEF.match(name) and name not in audited:
                    yield self.finding(
                        module,
                        fn,
                        f"destructive method {cls.name}.{name} never "
                        "records an ActionType audit action (directly or "
                        "via a helper) — the erase would be invisible to "
                        "the action history",
                    )

    @staticmethod
    def _records_audit(fn: ast.FunctionDef) -> bool:
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "ActionType"
            ):
                return True
            if isinstance(node, ast.Call) and _call_name(node) == "record":
                return True
        return False

    @staticmethod
    def _local_calls(fn: ast.FunctionDef, names: Set[str]) -> Set[str]:
        called: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name in names:
                    called.add(name)
        return called

    # ---------------------------------------------------------- listener seams
    def _check_listener_seams(self, module: Module) -> Iterable[Finding]:
        emitted: Set[str] = set()
        for node in module.walk():
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name and name.startswith("_emit_"):
                    emitted.add(name[len("_emit_"):])
        for node in module.walk():
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            match = _LISTENER_DEF.match(node.name)
            if match and match.group(1) not in emitted:
                yield self.finding(
                    module,
                    node,
                    f"{node.name} registers subscribers but the module "
                    f"never calls _emit_{match.group(1)} — the audit "
                    "event can be subscribed to but never arrives",
                )


# ----------------------------------------------------------------------- G03
_ENGINE_NAMES = frozenset({"RelationalEngine", "LSMEngine"})
#: Module paths allowed to construct engines directly: the backend registry
#: and the engines' own layers.
_ENGINE_ALLOWED = ("repro/systems/backends.py", "repro/lsm/", "repro/storage/")


class BackendRegistryRule(Rule):
    """G03: engines are constructed through the backend registry only.

    A raw ``RelationalEngine()`` / ``LSMEngine()`` anywhere else bypasses
    :func:`repro.systems.backends.make_backend` — no grounding selection,
    no copy-site protocol, no Table-1 semantics — so an erase against it
    can never be verified.
    """

    id = "G03"
    title = "direct engine construction outside the backend registry"

    def check(self, module: Module) -> Iterable[Finding]:
        if module.relpath.startswith(_ENGINE_ALLOWED):
            return
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name in _ENGINE_NAMES:
                yield self.finding(
                    module,
                    node,
                    f"direct {name}(...) construction — go through "
                    "make_backend()/BACKENDS so grounding selection and "
                    "copy tracking apply",
                )


# ----------------------------------------------------------------------- G04
#: The raw serializer modules, each with the files allowed to use it:
#: ``marshal`` is the codec's fast path; ``pickle`` has no home, because a
#: pickled value is opaque to every check and unpickling runs code.
_SERIALIZER_HOMES: Dict[str, Tuple[str, ...]] = {
    "marshal": ("repro/codec.py",),
    "pickle": (),
}


def _serializer_outside_home(name: str, module: Module) -> bool:
    """Whether ``name`` is a raw serializer ``module`` may not use."""
    homes = _SERIALIZER_HOMES.get(name)
    return homes is not None and not module.relpath.startswith(homes)


class PickleContainmentRule(Rule):
    """G04: ``marshal`` only inside the codec, ``pickle`` nowhere.

    Serialized unit values are physical copies; outside
    :mod:`repro.codec` nothing tracks, scrubs, or format-checks them, so a
    stray ``marshal.dumps`` is an untracked retention site whose bytes the
    codec's first-byte discrimination can mis-decode.  A pickled value is
    opaque to every check in the codec too, so ``pickle`` has no home.
    """

    id = "G04"
    title = "raw serializer import outside its home"

    def check(self, module: Module) -> Iterable[Finding]:
        for node in module.walk():
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module.split(".")[0]]
            else:
                continue
            for name in names:
                if _serializer_outside_home(name, module):
                    yield self.finding(
                        module,
                        node,
                        f"{name} import (allowed in: "
                        f"{', '.join(_SERIALIZER_HOMES[name]) or 'no file'}) — "
                        "serialized unit values are untracked copies",
                    )


# ----------------------------------------------------------------------- G05
_ERASE_PATH_DEF = re.compile(
    r"erase|migrat|shred|sanitize|reclaim|decommission|scrub|vacuum"
    r"|export_|import_"
)
_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


class SwallowedExceptionRule(Rule):
    """G05: no swallowed exceptions, least of all on erase/migration paths.

    Three shapes fire:

    * a bare ``except:`` anywhere — it eats ``KeyboardInterrupt`` and
      every programming error;
    * ``except Exception: pass`` (or broader) anywhere — a silent sink;
    * any ``except ...: pass`` inside a function on an erase or migration
      path (name matching erase/migrate/shred/sanitize/reclaim/
      decommission/scrub/vacuum/export/import) — a failure swallowed there
      turns "verified clean" into an unverified claim.
    """

    id = "G05"
    title = "swallowed exception"

    def check(self, module: Module) -> Iterable[Finding]:
        for node in module.walk():
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare except: swallows every failure, "
                    "KeyboardInterrupt included",
                )
                continue
            if not self._is_pass_body(node):
                continue
            caught = self._caught_names(node.type)
            if caught & _BROAD_EXCEPTIONS:
                yield self.finding(
                    module,
                    node,
                    f"except {'/'.join(sorted(caught))}: pass silently "
                    "swallows arbitrary failures",
                )
                continue
            fn = module.enclosing_function(node)
            if fn is not None and _ERASE_PATH_DEF.search(fn.name):
                yield self.finding(
                    module,
                    node,
                    f"silenced {'/'.join(sorted(caught))} on the "
                    f"erase/migration path {fn.name}() — a swallowed "
                    "failure here fakes a clean verification",
                )

    @staticmethod
    def _is_pass_body(node: ast.ExceptHandler) -> bool:
        return len(node.body) == 1 and isinstance(node.body[0], ast.Pass)

    @staticmethod
    def _caught_names(node: ast.expr) -> Set[str]:
        if isinstance(node, ast.Name):
            return {node.id}
        if isinstance(node, ast.Attribute):
            return {node.attr}
        if isinstance(node, ast.Tuple):
            names: Set[str] = set()
            for elt in node.elts:
                names |= SwallowedExceptionRule._caught_names(elt)
            return names
        return set()


# ----------------------------------------------------------------------- G06
#: The store attributes every live request path reads concurrently with a
#: background rebalance.
_SHARED_STATE = frozenset(
    {"_rebalance", "_ring", "_shards", "_pending_repairs"}
)
#: The driver-step seam: the only methods allowed to mutate that state.
_SEAM_METHODS = frozenset(
    {
        "__init__",
        "_begin",
        "_finalize",
        "_spawn_shard",
        "_queue_repair",
        "flush_repairs",
    }
)


class RebalanceSeamRule(Rule):
    """G06: shared rebalance state mutates only inside the driver-step seam.

    ``ReplicatedStore._rebalance`` / ``_ring`` / ``_shards`` /
    ``_pending_repairs`` are read by every live request while a background
    :class:`RebalanceDriver` advances the migration; the dual-routing
    invariant only holds because mutation is confined to the step seam
    (``__init__`` / ``_begin`` / ``_finalize`` / ``_spawn_shard`` /
    ``_queue_repair`` / ``flush_repairs``).  A mutation anywhere else is a
    race with in-flight reads, writes, and grounded erases.
    """

    id = "G06"
    title = "shared rebalance state mutated outside the driver-step seam"

    def check(self, module: Module) -> Iterable[Finding]:
        for node in module.walk():
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            else:
                continue
            for target in targets:
                attr = self._shared_target(target)
                if attr is None:
                    continue
                fn = module.enclosing_function(node)
                fn_name = fn.name if fn is not None else "<module>"
                if fn_name not in _SEAM_METHODS:
                    yield self.finding(
                        module,
                        node,
                        f"{attr} mutated in {fn_name}(), outside the "
                        "driver-step seam — this races live dual-routed "
                        "reads/writes/erases",
                    )

    @staticmethod
    def _shared_target(target: ast.expr) -> Optional[str]:
        """The watched attribute a target mutates, if any.

        Covers ``x._ring = ...``, ``x._shards[i] = ...``,
        ``del x._shards[i]``, and tuple-unpacking targets.
        """
        if isinstance(target, ast.Tuple):
            for elt in target.elts:
                attr = RebalanceSeamRule._shared_target(elt)
                if attr is not None:
                    return attr
            return None
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute) and target.attr in _SHARED_STATE:
            return target.attr
        return None


# ----------------------------------------------------------------------- G07
#: Storage read/write seam names: functions whose job is moving values
#: across the at-rest boundary.  Raw serializer calls inside one of these
#: bypass the codec's self-describing format.
_STORAGE_SEAM_DEF = re.compile(
    r"^(put|insert|update|write|read|get|flush|seal|open_?|load"
    r"|pack|unpack|encode|decode)(_[a-z_]+)?$"
)
_SERIALIZER_CALLS = frozenset({"dumps", "loads", "dump", "load"})


class CodecBoundaryRule(Rule):
    """G07: storage seams serialize through :mod:`repro.codec` only.

    G04 contains the *imports*; this rule contains the *call sites*: a
    ``pickle.dumps``/``marshal.loads`` (or kin) inside a storage seam —
    a function named like ``put``/``write_*``/``read_*``/``flush``/
    ``seal`` — produces bytes outside the codec's self-describing format.
    Those bytes cannot be handed between backends, streamed through a
    packed block, or recognized by ``decode``'s first-byte discrimination,
    so every SSTable/memtable/sector write must go through
    ``codec.encode``/``encode_many``/``pack_block`` instead.
    """

    id = "G07"
    title = "raw serializer call on a storage seam (bypasses the codec)"

    def check(self, module: Module) -> Iterable[Finding]:
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in _SERIALIZER_CALLS
                and isinstance(func.value, ast.Name)
                and _serializer_outside_home(func.value.id, module)
            ):
                continue
            fn = module.enclosing_function(node)
            if fn is None or not _STORAGE_SEAM_DEF.match(fn.name):
                continue
            yield self.finding(
                module,
                node,
                f"{func.value.id}.{func.attr} on the storage seam "
                f"{fn.name}() — bytes outside the codec's self-describing "
                "format; serialize with codec.encode/encode_many/"
                "pack_block so blocks, sectors, and migration batches "
                "stay interchangeable",
            )


# ------------------------------------------------------------------- registry
def default_rules() -> List[Rule]:
    """The registered rule set, in catalogue order."""
    return [
        CopySiteRule(),
        DestructiveAuditRule(),
        BackendRegistryRule(),
        PickleContainmentRule(),
        SwallowedExceptionRule(),
        RebalanceSeamRule(),
        CodecBoundaryRule(),
    ]


def rule_catalogue() -> List[Tuple[str, str, str]]:
    """``(id, title, severity)`` rows — the docs/CLI listing."""
    return [(r.id, r.title, r.severity) for r in default_rules()]
