"""Whole-program model: import graph, call graph, execution domains.

:class:`Project` parses a set of modules once and derives the shared
indexes every program-level rule (R006-R010) consumes:

* a **module import graph** with per-edge kind — ``eager`` (module
  scope), ``lazy`` (inside a function body) or ``type_checking``
  (under ``if TYPE_CHECKING:``).  Only *explicit* module-to-module
  edges are recorded: ``from ..xmlio.dtd import X`` produces an edge
  to ``repro.xmlio.dtd`` only, never an implicit edge to the package
  ``__init__``.  Python tolerates partially-initialised package
  cycles, so implicit ``__init__`` edges would flag import orders
  that work fine at runtime;
* a **conservative call graph** over function qualnames of the form
  ``module:func`` / ``module:Class.method``.  A ``Name`` call
  resolves through the module's import aliases, then local
  definitions, then (fallback) any same-name top-level function in
  the project; an ``Attribute`` call resolves module aliases and
  ``self`` before falling back to every method of that name.  Over-
  approximation is deliberate — the safety rules must not miss a
  path because resolution was too clever;
* **execution domains**: ``async_roots`` (every ``async def``) and
  ``thread_roots`` (callables handed to ``run_in_executor``,
  ``Executor.submit``/``map``, ``asyncio.to_thread`` or
  ``threading.Thread(target=...)``, with ``functools.partial``
  unwrapped).  Executor hand-offs are recorded as thread roots and
  *excluded* from the caller's call edges, so async reachability
  stops at the hop — work routed through an executor is exactly what
  R006 must not flag.  Loop-callback registrations
  (``add_done_callback``, ``call_soon*``, ``call_later``) stay
  ordinary call edges: those callbacks run on the event loop.

The model is purely syntactic (no imports are executed) and fully
deterministic: all indexes iterate in sorted order.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from pathlib import Path

from . import ParsedModule, iter_python_files
from .graph import DiGraph, Reachability

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ImportEdge",
    "Project",
    "dotted_text",
    "module_name_for_path",
]

EAGER = "eager"
LAZY = "lazy"
TYPE_CHECKING_KIND = "type_checking"

#: Lock constructors; assignments of these mark the target as a lock.
LOCK_FACTORIES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "asyncio.Lock",
        "asyncio.Condition",
        "asyncio.Semaphore",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
    }
)


#: Method names owned by builtin containers, strings and futures.
#: Unresolved attribute calls with these names never fall back to
#: same-name project methods: ``self._tasks.append(...)`` must not
#: produce an edge to every project method called ``append``.  Calls
#: through ``self.<method>`` resolve precisely and are unaffected.
_BUILTIN_METHOD_NAMES = frozenset(
    name
    for builtin_type in (list, dict, set, frozenset, str, bytes, tuple)
    for name in dir(builtin_type)
    if not name.startswith("__")
) | frozenset(
    {
        "acquire",
        "add_done_callback",
        "cancel",
        "close",
        "done",
        "exception",
        "flush",
        "is_set",
        "read",
        "readline",
        "readlines",
        "release",
        "result",
        "set",
        "shutdown",
        "wait",
        "write",
    }
)


@dataclass(frozen=True, slots=True)
class ImportEdge:
    """One explicit import of a project module by another."""

    src: str
    dst: str
    kind: str  # eager | lazy | type_checking
    line: int


@dataclass(slots=True)
class FunctionInfo:
    """One function or method, addressed as ``module:qualpath``."""

    qualname: str
    module: str
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    is_async: bool

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass(slots=True)
class ClassInfo:
    """One class definition plus its *resolved* base references."""

    qualname: str
    module: str
    node: ast.ClassDef
    bases: tuple[str, ...]  # project qualnames or external dotted names


def dotted_text(expr: ast.AST) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def module_name_for_path(path: Path) -> str:
    """Dotted module name for a source path, anchored at ``src``."""
    parts = list(path.with_suffix("").parts)
    if "src" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("src")
        parts = parts[anchor + 1 :]
    elif "repro" in parts:
        anchor = parts.index("repro")
        parts = parts[anchor:]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else path.stem


def _unwrap_partial(expr: ast.expr) -> ast.expr:
    """``partial(f, ...)`` -> ``f`` (one level is all the repo uses)."""
    if isinstance(expr, ast.Call):
        dotted = dotted_text(expr.func)
        if dotted and dotted.split(".")[-1] == "partial" and expr.args:
            return expr.args[0]
    return expr


def iter_own_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """Descendants of ``root`` that belong to *its* body — nested
    function and class definitions are yielded but not entered."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_type_checking_test(test: ast.expr) -> bool:
    dotted = dotted_text(test)
    return dotted is not None and dotted.split(".")[-1] == "TYPE_CHECKING"


class Project:
    """A parsed module set plus the derived whole-program indexes."""

    def __init__(
        self,
        modules: Mapping[str, ParsedModule],
        is_package: Mapping[str, bool],
    ) -> None:
        self.modules: dict[str, ParsedModule] = dict(sorted(modules.items()))
        self.is_package: dict[str, bool] = dict(is_package)
        self.import_edges: list[ImportEdge] = []
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.lock_names: dict[str, set[str]] = {}
        self.call_graph = DiGraph()
        self.async_roots: list[str] = []
        self.thread_roots: list[str] = []
        # name -> target; target is ("module", dotted) or
        # ("object", module_dotted, object_name)
        self._aliases: dict[str, dict[str, tuple[str, ...]]] = {}
        self._seen_edges: set[tuple[str, str, str]] = set()
        self._by_function_name: dict[str, list[str]] = {}
        self._by_method_name: dict[str, list[str]] = {}
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_paths(cls, paths: Iterable[str | Path]) -> "Project":
        modules: dict[str, ParsedModule] = {}
        is_package: dict[str, bool] = {}
        for path in iter_python_files(paths):
            name = module_name_for_path(path)
            modules[name] = ParsedModule(
                str(path), path.read_text(encoding="utf-8")
            )
            is_package[name] = path.stem == "__init__"
        return cls(modules, is_package)

    @classmethod
    def from_sources(cls, sources: Mapping[str, str]) -> "Project":
        """Build from ``{dotted_name: source}`` (fixture tests).

        A name is treated as a package when another name nests under
        it, so relative imports resolve the same way they would from
        a real tree.
        """
        names = set(sources)
        modules = {
            name: ParsedModule(name.replace(".", "/") + ".py", text)
            for name, text in sources.items()
        }
        is_package = {
            name: any(other.startswith(name + ".") for other in names)
            for name in names
        }
        return cls(modules, is_package)

    def _build(self) -> None:
        for name, parsed in self.modules.items():
            self._scan_imports(name, parsed)
            self._index_definitions(name, parsed)
            self._collect_lock_names(name, parsed)
        self._resolve_class_bases()
        for info in sorted(self.functions.values(), key=lambda i: i.qualname):
            self.call_graph.add_node(info.qualname)
        for info in sorted(self.functions.values(), key=lambda i: i.qualname):
            self._scan_calls(info)
        self.async_roots = sorted(
            q for q, info in self.functions.items() if info.is_async
        )
        self.thread_roots = sorted(set(self.thread_roots))

    # -- imports -------------------------------------------------------

    def _resolve_relative(
        self, module: str, level: int, target: str | None
    ) -> str | None:
        if level == 0:
            return target
        base = module if self.is_package.get(module) else (
            module.rsplit(".", 1)[0] if "." in module else ""
        )
        parts = base.split(".") if base else []
        strip = level - 1
        if strip > len(parts):
            return None
        if strip:
            parts = parts[:-strip]
        if target:
            parts.extend(target.split("."))
        return ".".join(parts) if parts else None

    def _record_edge(
        self, src: str, dst: str | None, kind: str, line: int
    ) -> None:
        if dst is None or dst == src:
            return
        if dst not in self.modules:
            return
        key = (src, dst, kind)
        if key in self._seen_edges:
            return
        self._seen_edges.add(key)
        self.import_edges.append(ImportEdge(src, dst, kind, line))

    def _scan_imports(self, name: str, parsed: ParsedModule) -> None:
        aliases: dict[str, tuple[str, ...]] = {}
        self._aliases[name] = aliases

        def visit(node: ast.AST, kind: str) -> None:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    target = alias.name
                    # Deepest project-known prefix gets the edge.
                    probe = target
                    while probe and probe not in self.modules:
                        probe = probe.rpartition(".")[0]
                    if probe:
                        self._record_edge(name, probe, kind, node.lineno)
                    bound = alias.asname or target.split(".")[0]
                    bound_to = target if alias.asname else target.split(".")[0]
                    aliases[bound] = ("module", bound_to)
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_relative(name, node.level, node.module)
                if base is None:
                    return
                for alias in node.names:
                    if alias.name == "*":
                        self._record_edge(name, base, kind, node.lineno)
                        continue
                    submodule = f"{base}.{alias.name}"
                    bound = alias.asname or alias.name
                    if submodule in self.modules:
                        self._record_edge(name, submodule, kind, node.lineno)
                        aliases[bound] = ("module", submodule)
                    else:
                        self._record_edge(name, base, kind, node.lineno)
                        aliases[bound] = ("object", base, alias.name)
            elif isinstance(node, ast.If) and _is_type_checking_test(
                node.test
            ):
                for child in node.body:
                    visit(child, TYPE_CHECKING_KIND)
                for child in node.orelse:
                    visit(child, kind)
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                for child in ast.walk(node):
                    if isinstance(child, (ast.Import, ast.ImportFrom)):
                        visit(child, LAZY)
            else:
                for child in ast.iter_child_nodes(node):
                    visit(child, kind)

        visit(parsed.tree, EAGER)

    # -- definitions ---------------------------------------------------

    def _index_definitions(self, name: str, parsed: ParsedModule) -> None:
        def index_function(
            node: ast.FunctionDef | ast.AsyncFunctionDef,
            qualpath: str,
            cls: str | None,
        ) -> None:
            qualname = f"{name}:{qualpath}"
            info = FunctionInfo(
                qualname=qualname,
                module=name,
                cls=cls,
                node=node,
                is_async=isinstance(node, ast.AsyncFunctionDef),
            )
            self.functions[qualname] = info
            if cls is None and "." not in qualpath:
                self._by_function_name.setdefault(node.name, []).append(
                    qualname
                )
            if cls is not None:
                self._by_method_name.setdefault(node.name, []).append(
                    qualname
                )
            for child in iter_own_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    index_function(child, f"{qualpath}.{child.name}", cls)
                elif isinstance(child, ast.ClassDef):
                    index_class(child, f"{qualpath}.{child.name}")

        def index_class(node: ast.ClassDef, qualpath: str) -> None:
            qualname = f"{name}:{qualpath}"
            bases = tuple(
                dotted for base in node.bases
                if (dotted := dotted_text(base)) is not None
            )
            self.classes[qualname] = ClassInfo(
                qualname=qualname, module=name, node=node, bases=bases
            )
            for child in iter_own_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    index_function(child, f"{qualpath}.{child.name}", qualpath)
                elif isinstance(child, ast.ClassDef):
                    index_class(child, f"{qualpath}.{child.name}")

        for node in parsed.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                index_function(node, node.name, None)
            elif isinstance(node, ast.ClassDef):
                index_class(node, node.name)

    def _collect_lock_names(self, name: str, parsed: ParsedModule) -> None:
        names: set[str] = set()
        for node in ast.walk(parsed.tree):
            value: ast.expr | None = None
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, list(node.targets)
            elif isinstance(node, ast.AnnAssign):
                value, targets = node.value, [node.target]
                annotation = dotted_text(node.annotation)
                if annotation and annotation in LOCK_FACTORIES:
                    value = value or node.annotation
                    # annotated as a lock type: mark even without value
                    for target in targets:
                        terminal = self._terminal_name(target)
                        if terminal:
                            names.add(terminal)
                    continue
            if value is None:
                continue
            if not self._is_lock_factory_call(value):
                continue
            for target in targets:
                terminal = self._terminal_name(target)
                if terminal:
                    names.add(terminal)
        self.lock_names[name] = names

    @staticmethod
    def _terminal_name(target: ast.expr) -> str | None:
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Attribute):
            return target.attr
        return None

    @staticmethod
    def _is_lock_factory_call(value: ast.expr) -> bool:
        if not isinstance(value, ast.Call):
            return False
        dotted = dotted_text(value.func)
        if dotted is None:
            return False
        if dotted in LOCK_FACTORIES or dotted.split(".")[-1] in {
            "Lock",
            "RLock",
        }:
            return True
        # dataclasses.field(default_factory=threading.Lock)
        if dotted.split(".")[-1] == "field":
            for keyword in value.keywords:
                if keyword.arg == "default_factory":
                    factory = dotted_text(keyword.value)
                    if factory and (
                        factory in LOCK_FACTORIES
                        or factory.split(".")[-1] in {"Lock", "RLock"}
                    ):
                        return True
        return False

    def _resolve_class_bases(self) -> None:
        for info in self.classes.values():
            resolved: list[str] = []
            for base in info.bases:
                targets = self._resolve_dotted(info.module, base)
                qualnames = [t for t in targets if t in self.classes]
                resolved.append(qualnames[0] if qualnames else base)
            info.bases = tuple(resolved)

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------

    def _resolve_dotted(self, module: str, dotted: str) -> list[str]:
        """Project qualnames a dotted reference *may* denote."""
        parts = dotted.split(".")
        aliases = self._aliases.get(module, {})
        head, rest = parts[0], parts[1:]
        candidates: list[str] = []

        def try_qual(mod: str, path: list[str]) -> None:
            if not path:
                return
            qual = f"{mod}:{'.'.join(path)}"
            if qual in self.functions or qual in self.classes:
                candidates.append(qual)

        alias = aliases.get(head)
        if alias is not None:
            if alias[0] == "module":
                target = alias[1]
                # `import a` then `a.b.f()` — extend to deepest module.
                path = rest
                while len(path) > 1 and f"{target}.{path[0]}" in self.modules:
                    target = f"{target}.{path[0]}"
                    path = path[1:]
                try_qual(target, path)
            else:
                base, objname = alias[1], alias[2]
                try_qual(base, [objname, *rest])
        try_qual(module, parts)
        return candidates

    def resolve_call(
        self, module: str, cls: str | None, func: ast.expr
    ) -> tuple[list[str], str | None]:
        """Resolve a call expression to project targets.

        Returns ``(targets, external)``: ``targets`` is a sorted list
        of function qualnames (class targets become ``__init__`` when
        one exists), and ``external`` is the canonical dotted name of
        a non-project callee (``time.sleep`` for both ``time.sleep``
        and ``from time import sleep``) or ``None``.
        """
        dotted = dotted_text(func)
        targets: set[str] = set()
        external: str | None = None
        if dotted is not None:
            parts = dotted.split(".")
            head = parts[0]
            aliases = self._aliases.get(module, {})
            if head == "self" and cls is not None and len(parts) >= 2:
                method = f"{module}:{cls}.{parts[1]}"
                if len(parts) == 2 and method in self.functions:
                    targets.add(method)
            resolved = self._resolve_dotted(module, dotted)
            for qual in resolved:
                if qual in self.functions:
                    targets.add(qual)
                elif qual in self.classes:
                    init = f"{qual}.__init__"
                    if init in self.functions:
                        targets.add(init)
            alias = aliases.get(head)
            if alias is not None and not resolved:
                if alias[0] == "module":
                    external = ".".join([alias[1], *parts[1:]])
                else:
                    external = ".".join([alias[1], alias[2], *parts[1:]])
                    # canonical form drops the project-module prefix
                    # for stdlib objects: ("object", "time", "sleep")
                    # -> "time.sleep" already; nothing more to do.
            elif alias is None and len(parts) > 1 and not resolved:
                external = dotted
        if not targets:
            # Method-name fallback: works for dotted receivers and for
            # complex ones alike (``pools[kind].heal()``) — the
            # receiver expression carries no type either way, only the
            # method name does.
            if (
                isinstance(func, ast.Attribute)
                and func.attr not in _BUILTIN_METHOD_NAMES
            ):
                for qual in self._by_method_name.get(func.attr, ()):
                    targets.add(qual)
            elif isinstance(func, ast.Name):
                for qual in self._by_function_name.get(func.id, ()):
                    targets.add(qual)
                if not targets and func.id == "open":
                    external = "open"
        return sorted(targets), external

    # -- call-graph construction --------------------------------------

    #: ``name(callable, ...)`` shapes that hop execution onto a thread:
    #: maps terminal callee name -> positional index of the callable.
    _THREAD_HOPS = {
        "run_in_executor": 1,
        "submit": 0,
        "map": 0,
        "to_thread": 0,
    }
    #: loop-side callback registrations: stay ordinary call edges.
    _LOOP_CALLBACKS = {
        "add_done_callback": 0,
        "call_soon": 0,
        "call_soon_threadsafe": 0,
        "call_later": 1,
    }

    def _scan_calls(self, info: FunctionInfo) -> None:
        module, cls, source = info.module, info.cls, info.qualname
        for child in iter_own_nodes(info.node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = f"{source.split(':', 1)[1]}.{child.name}"
                qual = f"{info.module}:{nested}"
                if qual in self.functions:
                    self.call_graph.add_edge(source, qual)
                continue
            if not isinstance(child, ast.Call):
                continue
            dotted = dotted_text(child.func)
            terminal = dotted.split(".")[-1] if dotted else None
            if terminal in self._THREAD_HOPS:
                index = self._THREAD_HOPS[terminal]
                if len(child.args) > index:
                    entry = _unwrap_partial(child.args[index])
                    hops, _ = self.resolve_call(module, cls, entry)
                    # `.map` is too common a name to trust unresolved.
                    self.thread_roots.extend(hops)
                    if terminal != "map":
                        continue
                    if hops:
                        continue
            if terminal == "Thread" or (
                dotted is not None and dotted.endswith("threading.Thread")
            ):
                for keyword in child.keywords:
                    if keyword.arg == "target":
                        entry = _unwrap_partial(keyword.value)
                        hops, _ = self.resolve_call(module, cls, entry)
                        self.thread_roots.extend(hops)
                continue
            if terminal in self._LOOP_CALLBACKS:
                index = self._LOOP_CALLBACKS[terminal]
                if len(child.args) > index:
                    entry = _unwrap_partial(child.args[index])
                    callbacks, _ = self.resolve_call(module, cls, entry)
                    for target in callbacks:
                        self.call_graph.add_edge(source, target)
                continue
            targets, _ = self.resolve_call(module, cls, child.func)
            for target in targets:
                self.call_graph.add_edge(source, target)

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------

    def import_graph(self, kinds: frozenset[str] | None = None) -> DiGraph:
        """The module import graph, optionally restricted by edge kind."""
        graph = DiGraph()
        for name in self.modules:
            graph.add_node(name)
        for edge in self.import_edges:
            if kinds is None or edge.kind in kinds:
                graph.add_edge(edge.src, edge.dst)
        return graph

    def eager_import_graph(self) -> DiGraph:
        return self.import_graph(frozenset({EAGER}))

    def loop_closure(self) -> Reachability:
        """Functions reachable from async roots without an executor hop."""
        return self.call_graph.reachable_from(self.async_roots)

    def thread_closure(self) -> Reachability:
        """Functions reachable from worker-thread entry points."""
        return self.call_graph.reachable_from(self.thread_roots)

    def is_lock_like(self, module: str, expr: ast.expr) -> bool:
        """Whether an expression plausibly denotes a lock object."""
        terminal = self._terminal_name(expr)
        if terminal is None:
            return False
        if "lock" in terminal.lower():
            return True
        return terminal in self.lock_names.get(module, set())

    def lock_id(self, module: str, cls: str | None, expr: ast.expr) -> str:
        """A cross-function identity for a lock expression.

        ``self._lock`` in class ``Cls`` of module ``m`` becomes
        ``m:Cls._lock`` so every method of the class agrees on the
        identity; other expressions use their dotted text.
        """
        dotted = dotted_text(expr) or f"<expr@{getattr(expr, 'lineno', 0)}>"
        if cls is not None and dotted.startswith("self."):
            return f"{module}:{cls}.{dotted[len('self.'):]}"
        return f"{module}:{dotted}"

    def subclasses_of(self, roots: Iterable[str]) -> set[str]:
        """All project classes descending from any of ``roots``
        (roots included when they are project classes)."""
        wanted = set(roots)
        result = {root for root in wanted if root in self.classes}
        changed = True
        while changed:
            changed = False
            for qual, info in self.classes.items():
                if qual in result:
                    continue
                for base in info.bases:
                    if base in result or base in wanted:
                        result.add(qual)
                        changed = True
                        break
        return result

    def stats(self) -> dict[str, int]:
        eager = sum(1 for e in self.import_edges if e.kind == EAGER)
        lazy = sum(1 for e in self.import_edges if e.kind == LAZY)
        gated = sum(
            1 for e in self.import_edges if e.kind == TYPE_CHECKING_KIND
        )
        return {
            "modules": len(self.modules),
            "import_edges_eager": eager,
            "import_edges_lazy": lazy,
            "import_edges_type_checking": gated,
            "functions": len(self.functions),
            "classes": len(self.classes),
            "call_edges": self.call_graph.edge_count,
            "async_roots": len(self.async_roots),
            "thread_roots": len(self.thread_roots),
        }
