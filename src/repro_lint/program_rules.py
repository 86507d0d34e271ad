"""Whole-program rules R006-R010 over a :class:`~.project.Project`.

These rules need more than one file's AST: reachability over the call
graph (R006, R008, R009), lock-order facts joined across functions
(R007), and the module import graph (R010).  Each rule is a
:class:`ProgramRule` with the same ``code``/``title``/``check``
surface as the per-file :class:`~.rules.Rule`, except ``check`` takes
the whole :class:`Project`.  Findings go through the owning module's
pragma index, so ``# lint: allow R00X — reason`` works identically.

The rules (see ``docs/DEVELOPMENT.md`` for the full catalog):

* **R006** — no blocking call (``time.sleep``, ``subprocess.*``,
  socket resolution/connection, ``open``, ``Future.result``) in code
  reachable from an ``async def`` without an executor hop;
* **R007** — lock discipline: locks are held via ``with`` only, no
  ``await`` while a sync lock is held, and the inter-procedural
  lock-acquisition order is cycle-free;
* **R008** — no unsynchronized writes to shared mutable state
  (module-level containers, or instance state of objects stored in
  module-level globals) from thread-reachable code;
* **R009** — every raise of a project exception resolves into the
  mapped :mod:`repro.errors` hierarchy, and serve's thread entry
  points catch broadly so nothing raw escapes the transport;
* **R010** — the declared layer DAG: eager imports only point
  downward (or sideways) in the layer table, and the eager import
  graph is cycle-free.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from . import Finding
from .graph import DiGraph
from .project import FunctionInfo, Project, dotted_text, iter_own_nodes

__all__ = [
    "LAYERS",
    "PROGRAM_RULES",
    "ProgramRule",
    "BlockingInAsync",
    "LockDiscipline",
    "SharedStateSync",
    "ExceptionFlow",
    "LayerContract",
]


class ProgramRule:
    """Base class for whole-program rules."""

    code: str = "R000"
    title: str = ""

    def check(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def _emit(
        self,
        project: Project,
        module: str,
        node: ast.AST,
        message: str,
    ) -> Finding | None:
        return project.modules[module].finding(self.code, node, message)


# ----------------------------------------------------------------------
# R006
# ----------------------------------------------------------------------

#: Canonical dotted names of callables that block the calling thread.
#: Deliberately excludes metadata-only syscalls (``os.unlink``,
#: ``os.stat``): they are effectively instantaneous on local
#: filesystems and the serve daemon uses them on the loop for unix
#: socket setup.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.create_connection",
        "socket.getaddrinfo",
        "socket.gethostbyname",
        "open",
    }
)

#: Attribute calls that block: ``Future.result`` parks the caller
#: until the work completes (a deadlock recipe on the event loop).
BLOCKING_METHODS = frozenset({"result"})


class BlockingInAsync(ProgramRule):
    code = "R006"
    title = "no blocking calls reachable from async code"

    def check(self, project: Project) -> Iterator[Finding]:
        loop = project.loop_closure()
        for qualname in sorted(loop.reached):
            info = project.functions[qualname]
            root = loop.root_of(qualname)
            for node in iter_own_nodes(info.node):
                if not isinstance(node, ast.Call):
                    continue
                blocked: str | None = None
                _, external = project.resolve_call(
                    info.module, info.cls, node.func
                )
                if external in BLOCKING_CALLS:
                    blocked = external
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in BLOCKING_METHODS
                ):
                    blocked = f"{dotted_text(node.func) or node.func.attr}()"
                if blocked is None:
                    continue
                where = (
                    "inside async function"
                    if qualname == root
                    else f"reachable from async '{root}'"
                )
                finding = self._emit(
                    project,
                    info.module,
                    node,
                    f"blocking call '{blocked}' in '{qualname}' "
                    f"{where}; route it through run_in_executor/"
                    "to_thread",
                )
                if finding is not None:
                    yield finding


# ----------------------------------------------------------------------
# R007
# ----------------------------------------------------------------------


class LockDiscipline(ProgramRule):
    code = "R007"
    title = "locks via 'with' only, no await under a sync lock, stable order"

    def check(self, project: Project) -> Iterator[Finding]:
        order = _LockOrderFacts(project)
        for qualname in sorted(project.functions):
            info = project.functions[qualname]
            yield from self._check_acquire_calls(project, info)
            if info.is_async:
                yield from self._check_await_under_lock(project, info)
            order.scan(info)
        yield from order.findings(self)

    def _check_acquire_calls(
        self, project: Project, info: FunctionInfo
    ) -> Iterator[Finding]:
        for node in iter_own_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr != "acquire":
                continue
            if not project.is_lock_like(info.module, func.value):
                continue
            dotted = dotted_text(func.value) or "<lock>"
            finding = self._emit(
                project,
                info.module,
                node,
                f"'{dotted}.acquire()' in '{info.qualname}'; hold locks "
                "with a 'with' statement so every exit path releases",
            )
            if finding is not None:
                yield finding

    def _check_await_under_lock(
        self, project: Project, info: FunctionInfo
    ) -> Iterator[Finding]:
        for node in iter_own_nodes(info.node):
            if not isinstance(node, ast.With):
                continue
            lock_items = [
                item
                for item in node.items
                if project.is_lock_like(info.module, item.context_expr)
            ]
            if not lock_items:
                continue
            if any(
                isinstance(inner, ast.Await)
                for inner in iter_own_nodes(node)
            ):
                dotted = (
                    dotted_text(lock_items[0].context_expr) or "<lock>"
                )
                finding = self._emit(
                    project,
                    info.module,
                    node,
                    f"'await' while holding sync lock '{dotted}' in "
                    f"'{info.qualname}'; the loop stalls every other "
                    "task until the lock is released",
                )
                if finding is not None:
                    yield finding


class _LockOrderFacts:
    """Per-function lock facts joined into a global acquisition order."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.direct_locks: dict[str, set[str]] = {}
        self.direct_edges: list[tuple[str, str]] = []
        self.held_calls: dict[str, list[tuple[frozenset[str], str]]] = {}
        self.sites: dict[str, tuple[str, ast.AST]] = {}

    def scan(self, info: FunctionInfo) -> None:
        project = self.project
        locks: set[str] = set()
        held_calls: list[tuple[frozenset[str], str]] = []

        def walk(node: ast.AST, held: tuple[str, ...]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    continue
                if isinstance(child, (ast.With, ast.AsyncWith)):
                    acquired: list[str] = []
                    for item in child.items:
                        if project.is_lock_like(
                            info.module, item.context_expr
                        ):
                            lock = project.lock_id(
                                info.module, info.cls, item.context_expr
                            )
                            acquired.append(lock)
                            locks.add(lock)
                            self.sites.setdefault(
                                lock, (info.module, child)
                            )
                            for holder in held:
                                self.direct_edges.append((holder, lock))
                    walk(child, held + tuple(acquired))
                    continue
                if isinstance(child, ast.Call) and held:
                    targets, _ = project.resolve_call(
                        info.module, info.cls, child.func
                    )
                    for target in targets:
                        held_calls.append((frozenset(held), target))
                walk(child, held)

        walk(info.node, ())
        self.direct_locks[info.qualname] = locks
        self.held_calls[info.qualname] = held_calls

    def findings(self, rule: ProgramRule) -> Iterator[Finding]:
        project = self.project
        # Transitive lock sets: locks a call to f may end up acquiring.
        transitive = {q: set(v) for q, v in self.direct_locks.items()}
        changed = True
        while changed:
            changed = False
            for qualname in transitive:
                for callee in project.call_graph.successors(qualname):
                    extra = transitive.get(callee, set()) - transitive[
                        qualname
                    ]
                    if extra:
                        transitive[qualname].update(extra)
                        changed = True
        from .graph import DiGraph

        order = DiGraph()
        for src, dst in self.direct_edges:
            if src != dst:
                order.add_edge(src, dst)
        for qualname, calls in self.held_calls.items():
            for held, callee in calls:
                for lock in transitive.get(callee, ()):  # noqa: B007
                    for holder in held:
                        if holder != lock:
                            order.add_edge(holder, lock)
        for component in order.cycles():
            if len(component) < 2:
                continue
            anchor = component[0]
            module, node = self.sites.get(anchor, (None, None))
            if module is None or node is None:
                continue
            chain = " -> ".join([*component, component[0]])
            finding = rule._emit(
                self.project,
                module,
                node,
                f"inconsistent lock acquisition order: {chain}; pick "
                "one order and hold to it everywhere",
            )
            if finding is not None:
                yield finding


# ----------------------------------------------------------------------
# R008
# ----------------------------------------------------------------------

#: Container constructors whose module-level result is shared state.
MUTABLE_FACTORIES = frozenset(
    {
        "dict",
        "list",
        "set",
        "OrderedDict",
        "defaultdict",
        "Counter",
        "deque",
    }
)

#: Methods that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)

#: Methods that never see concurrent callers by construction.
_CONSTRUCTION_METHODS = frozenset({"__init__", "__post_init__", "__new__"})


def _is_mutable_initializer(value: ast.expr) -> bool:
    if isinstance(
        value,
        (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp),
    ):
        return True
    if isinstance(value, ast.Call):
        dotted = dotted_text(value.func)
        if dotted and dotted.split(".")[-1] in MUTABLE_FACTORIES:
            return True
    return False


class SharedStateSync(ProgramRule):
    code = "R008"
    title = "shared mutable state is written under a lock"

    def check(self, project: Project) -> Iterator[Finding]:
        shared_globals = self._module_globals(project)
        shared_classes = self._shared_classes(project, shared_globals)
        thread = project.thread_closure()
        for qualname in sorted(thread.reached):
            info = project.functions[qualname]
            if info.name in _CONSTRUCTION_METHODS:
                continue
            guarded = self._guarded_nodes(project, info)
            globals_here = shared_globals.get(info.module, set())
            in_shared_class = (
                info.cls is not None
                and f"{info.module}:{info.cls}" in shared_classes
            )
            for node in iter_own_nodes(info.node):
                message = self._write_message(
                    project, info, node, globals_here, in_shared_class
                )
                if message is None or id(node) in guarded:
                    continue
                finding = self._emit(project, info.module, node, message)
                if finding is not None:
                    yield finding

    # -- what counts as shared ----------------------------------------

    def _module_globals(self, project: Project) -> dict[str, set[str]]:
        """Module -> names of module-level mutable containers."""
        result: dict[str, set[str]] = {}
        for name, parsed in project.modules.items():
            found: set[str] = set()
            for node in parsed.tree.body:
                if isinstance(node, ast.Assign) and _is_mutable_initializer(
                    node.value
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            found.add(target.id)
                elif (
                    isinstance(node, ast.AnnAssign)
                    and node.value is not None
                    and _is_mutable_initializer(node.value)
                    and isinstance(node.target, ast.Name)
                ):
                    found.add(node.target.id)
            result[name] = found
        return result

    def _shared_classes(
        self, project: Project, shared_globals: dict[str, set[str]]
    ) -> set[str]:
        """Class qualnames whose instances land in module globals."""
        shared: set[str] = set()

        def classes_of(module: str, value: ast.expr) -> list[str]:
            # A module-level container literal of instances shares every
            # element the same way a bare ``X = Cls()`` does, so look
            # one level inside dict/list/set/tuple displays too.
            candidates: list[ast.expr] = [value]
            if isinstance(value, ast.Dict):
                candidates.extend(v for v in value.values if v is not None)
            elif isinstance(value, (ast.List, ast.Set, ast.Tuple)):
                candidates.extend(value.elts)
            found: list[str] = []
            for expr in candidates:
                if not isinstance(expr, ast.Call):
                    continue
                dotted = dotted_text(expr.func)
                if dotted is None:
                    continue
                found.extend(
                    qual
                    for qual in project._resolve_dotted(module, dotted)
                    if qual in project.classes
                )
            return found

        for name, parsed in project.modules.items():
            for node in parsed.tree.body:
                if isinstance(node, ast.Assign):
                    shared.update(classes_of(name, node.value))
                elif isinstance(node, ast.AnnAssign) and node.value:
                    shared.update(classes_of(name, node.value))
            for node in ast.walk(parsed.tree):
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                global_names = {
                    g
                    for stmt in iter_own_nodes(node)
                    if isinstance(stmt, ast.Global)
                    for g in stmt.names
                }
                for stmt in iter_own_nodes(node):
                    if not isinstance(stmt, ast.Assign):
                        continue
                    for target in stmt.targets:
                        stored_globally = (
                            isinstance(target, ast.Name)
                            and target.id in global_names
                        ) or (
                            isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)
                            and target.value.id
                            in shared_globals.get(name, set())
                        )
                        if stored_globally:
                            shared.update(classes_of(name, stmt.value))
        return shared

    # -- what counts as a write ---------------------------------------

    def _write_message(
        self,
        project: Project,
        info: FunctionInfo,
        node: ast.AST,
        globals_here: set[str],
        in_shared_class: bool,
    ) -> str | None:
        def names_global(expr: ast.expr) -> str | None:
            if isinstance(expr, ast.Name) and expr.id in globals_here:
                return expr.id
            return None

        def is_self_attr(expr: ast.expr) -> str | None:
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
            ):
                return expr.attr
            return None

        declared_global = {
            g
            for stmt in iter_own_nodes(info.node)
            if isinstance(stmt, ast.Global)
            for g in stmt.names
        }

        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript):
                    owner = names_global(target.value)
                    if owner is not None:
                        return (
                            f"unsynchronized write to module-level "
                            f"'{owner}' in thread-reachable "
                            f"'{info.qualname}'; guard it with a lock"
                        )
                    if in_shared_class and is_self_attr(target.value):
                        return (
                            f"unsynchronized write to shared instance "
                            f"state 'self.{is_self_attr(target.value)}' "
                            f"in thread-reachable '{info.qualname}'; "
                            "guard it with a lock"
                        )
                if isinstance(target, ast.Name) and (
                    target.id in declared_global
                    and target.id in globals_here
                    or target.id in declared_global
                    and isinstance(node, ast.Assign)
                ):
                    return (
                        f"unsynchronized rebind of module global "
                        f"'{target.id}' in thread-reachable "
                        f"'{info.qualname}'; guard it with a lock"
                    )
                attr = is_self_attr(target)
                if in_shared_class and attr is not None:
                    return (
                        f"unsynchronized write to shared instance state "
                        f"'self.{attr}' in thread-reachable "
                        f"'{info.qualname}'; guard it with a lock"
                    )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and names_global(
                    target.value
                ):
                    owner = names_global(target.value)
                    return (
                        f"unsynchronized delete from module-level "
                        f"'{owner}' in thread-reachable "
                        f"'{info.qualname}'; guard it with a lock"
                    )
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr not in MUTATING_METHODS:
                return None
            receiver = node.func.value
            owner = names_global(receiver)
            if owner is not None:
                return (
                    f"unsynchronized '{owner}.{node.func.attr}()' in "
                    f"thread-reachable '{info.qualname}'; guard it with "
                    "a lock"
                )
            if in_shared_class:
                attr = is_self_attr(receiver)
                if attr is not None:
                    return (
                        f"unsynchronized 'self.{attr}."
                        f"{node.func.attr}()' in thread-reachable "
                        f"'{info.qualname}'; guard it with a lock"
                    )
        return None

    # -- lock guards --------------------------------------------------

    def _guarded_nodes(
        self, project: Project, info: FunctionInfo
    ) -> set[int]:
        """ids of nodes lexically inside a ``with <lock>`` block."""
        guarded: set[int] = set()

        def walk(node: ast.AST, under_lock: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    continue
                inside = under_lock
                if isinstance(child, (ast.With, ast.AsyncWith)):
                    if any(
                        project.is_lock_like(info.module, item.context_expr)
                        for item in child.items
                    ):
                        inside = True
                if under_lock:
                    guarded.add(id(child))
                walk(child, inside)

        walk(info.node, False)
        return guarded


# ----------------------------------------------------------------------
# R009
# ----------------------------------------------------------------------

#: Builtins whose raise is control flow, not an error report.
ALLOWED_BUILTIN_RAISES = frozenset(
    {
        "StopIteration",
        "StopAsyncIteration",
        "GeneratorExit",
        "NotImplementedError",
        "SystemExit",
        "KeyboardInterrupt",
        "CancelledError",
        "TimeoutError",
        "AssertionError",
    }
)

_ERRORS_MODULE = "repro.errors"
_MAPPED_ROOTS = (
    f"{_ERRORS_MODULE}:UsageError",
    f"{_ERRORS_MODULE}:CorpusError",
    f"{_ERRORS_MODULE}:InternalError",
)


class ExceptionFlow(ProgramRule):
    code = "R009"
    title = "raises resolve through repro.errors; serve entries catch broadly"

    def check(self, project: Project) -> Iterator[Finding]:
        mapped = project.subclasses_of(_MAPPED_ROOTS)
        repro_rooted = project.subclasses_of(
            [f"{_ERRORS_MODULE}:ReproError"]
        )
        if not repro_rooted:
            # Fixture projects without an errors module: hierarchy
            # checks cannot apply, only the handler audit below can.
            mapped = set(project.classes)
        for name, parsed in sorted(project.modules.items()):
            if name == _ERRORS_MODULE:
                continue
            for node in ast.walk(parsed.tree):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                yield from self._check_raise(
                    project, name, node, mapped, repro_rooted
                )
        yield from self._check_serve_entries(project)

    def _check_raise(
        self,
        project: Project,
        module: str,
        node: ast.Raise,
        mapped: set[str],
        repro_rooted: set[str],
    ) -> Iterator[Finding]:
        exc = node.exc
        assert exc is not None
        target = exc.func if isinstance(exc, ast.Call) else exc
        dotted = dotted_text(target)
        if dotted is None:
            return
        quals = [
            qual
            for qual in project._resolve_dotted(module, dotted)
            if qual in project.classes
        ]
        if not quals:
            return  # externals are R002's per-file territory
        qual = quals[0]
        if qual in mapped:
            return
        if qual.rsplit(".", 1)[-1].split(":")[-1].startswith("_"):
            # Private sentinel exceptions are module-internal control
            # flow (raised and caught within one algorithm); they can
            # never cross the API surface, so no exit-code mapping.
            return
        if qual in repro_rooted:
            message = (
                f"'{qual}' subclasses ReproError directly and has no "
                "exit-code mapping; derive it from UsageError, "
                "CorpusError or InternalError"
            )
        else:
            message = (
                f"raise of '{qual}' bypasses the repro.errors "
                "hierarchy; exit_code_for() cannot map it"
            )
        finding = self._emit(project, module, node, message)
        if finding is not None:
            yield finding

    def _check_serve_entries(self, project: Project) -> Iterator[Finding]:
        for qualname in sorted(set(project.thread_roots)):
            info = project.functions.get(qualname)
            if info is None or not info.module.startswith("repro.serve"):
                continue
            if self._has_broad_handler(info.node):
                continue
            finding = self._emit(
                project,
                info.module,
                info.node,
                f"thread entry '{qualname}' has no broad 'except "
                "Exception' guard; a raw exception would escape the "
                "worker and never reach the transport error mapping",
            )
            if finding is not None:
                yield finding

    @staticmethod
    def _has_broad_handler(
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> bool:
        for child in iter_own_nodes(node):
            if not isinstance(child, ast.ExceptHandler):
                continue
            if child.type is None:
                return True
            names = (
                [dotted_text(e) for e in child.type.elts]
                if isinstance(child.type, ast.Tuple)
                else [dotted_text(child.type)]
            )
            if any(
                n is not None
                and n.split(".")[-1] in {"Exception", "BaseException"}
                for n in names
            ):
                return True
        return False


# ----------------------------------------------------------------------
# R010
# ----------------------------------------------------------------------

#: The declared layer table: module prefix -> level.  An eager import
#: may only point at the same or a lower level.  ``repro.core`` and
#: ``repro.learning`` share a level: the inference driver and the
#: learner substrate are mutually recursive by design (evidence folds
#: into incremental learner states; the driver consumes both).
#: Upward references must be lazy (function-level import) or
#: ``TYPE_CHECKING``-gated — those kinds are exempt here.
LAYERS: dict[str, int] = {
    "repro.errors": 0,
    "repro.fsio": 1,
    "repro.obs": 1,
    "repro.regex": 2,
    "repro.automata": 3,
    "repro.xmlio": 4,
    "repro.contracts": 5,
    "repro.learning": 6,
    "repro.core": 6,
    "repro.datagen": 7,
    "repro.runtime": 7,
    "repro.ckpt": 7,
    "repro.baselines": 8,
    "repro.evaluation": 8,
    "repro.api": 9,
    "repro.serve": 10,
    "repro.cli": 11,
    "repro": 12,
}


def layer_of(module: str) -> tuple[str, int] | None:
    """Longest-prefix match of ``module`` in :data:`LAYERS`."""
    best: tuple[str, int] | None = None
    for prefix, level in LAYERS.items():
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, level)
    return best


class LayerContract(ProgramRule):
    code = "R010"
    title = "eager imports respect the declared layer DAG, no cycles"

    def check(self, project: Project) -> Iterator[Finding]:
        for edge in project.import_edges:
            if edge.kind != "eager":
                continue
            src, dst = layer_of(edge.src), layer_of(edge.dst)
            if src is None or dst is None:
                continue
            if src[1] >= dst[1]:
                continue
            anchor = self._node_at(project, edge.src, edge.line)
            finding = self._emit(
                project,
                edge.src,
                anchor,
                f"layer violation: '{edge.src}' (layer {src[1]}, "
                f"{src[0]}) eagerly imports '{edge.dst}' (layer "
                f"{dst[1]}, {dst[0]}); upward references must be "
                "lazy or TYPE_CHECKING-gated",
            )
            if finding is not None:
                yield finding
        yield from self._check_cycles(project)

    def _check_cycles(self, project: Project) -> Iterator[Finding]:
        graph = project.eager_import_graph()
        for component in graph.cycles():
            anchor_module = component[0]
            line = 1
            for edge in project.import_edges:
                if (
                    edge.kind == "eager"
                    and edge.src == anchor_module
                    and edge.dst in component
                ):
                    line = edge.line
                    break
            chain = " -> ".join([*component, component[0]])
            finding = self._emit(
                project,
                anchor_module,
                self._node_at(project, anchor_module, line),
                f"eager import cycle: {chain}; break it with a lazy "
                "import or an inversion",
            )
            if finding is not None:
                yield finding

    @staticmethod
    def _node_at(project: Project, module: str, line: int) -> ast.AST:
        anchor = ast.Pass()
        anchor.lineno = line
        anchor.col_offset = 0
        return anchor


PROGRAM_RULES: tuple[ProgramRule, ...] = (
    BlockingInAsync(),
    LockDiscipline(),
    SharedStateSync(),
    ExceptionFlow(),
    LayerContract(),
)
