"""The rule implementations of :mod:`repro.analysis`.

Each rule is a stateless object with a ``code``, a ``title`` and a
``check(module)`` generator.  Rules work purely on the AST plus the
shared pragma index in :class:`~repro.analysis.ParsedModule`; none of
them import the modules they inspect.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from . import Finding, ParsedModule

#: The daemon speaks only the public façade (R001): a serve module reaching into repro.core/runtime/xmlio directly would
#: let the HTTP surface drift from the library's semantics.
SERVE_PACKAGE_MARKER = "repro/serve/"
SERVE_ALLOWED_PACKAGES = frozenset({"api", "errors", "obs", "serve"})

#: Builtin exceptions that must not be raised directly (R002); the
#: repro.errors hierarchy (or a subclass) carries the exit-code
#: contract.  Control-flow and protocol exceptions stay allowed.
FORBIDDEN_RAISES = frozenset(
    {
        "ArithmeticError",
        "AssertionError",
        "AttributeError",
        "BaseException",
        "Exception",
        "IOError",
        "IndexError",
        "KeyError",
        "LookupError",
        "OSError",
        "RuntimeError",
        "TypeError",
        "ValueError",
    }
)

#: Packages forming the deterministic core pipeline (R005).  datagen,
#: evaluation, baselines and the CLI legitimately use randomness or
#: wall clocks; repro.obs owns all timing.
CORE_PACKAGE_MARKERS = (
    "repro/automata/",
    "repro/core/",
    "repro/learning/",
    "repro/regex/",
    "repro/runtime/",
    "repro/xmlio/",
)

#: ``random`` module functions that are fine to call anywhere: seeded
#: constructors create injected generators rather than using hidden
#: global state.
ALLOWED_RANDOM_ATTRIBUTES = frozenset({"Random", "SystemRandom"})

WALL_CLOCK_NAMES = frozenset(
    {"time", "perf_counter", "monotonic", "process_time", "time_ns"}
)


def _function_stack(tree: ast.AST) -> dict[ast.AST, ast.FunctionDef | ast.AsyncFunctionDef | None]:
    """Map every node to its innermost enclosing function definition."""
    enclosing: dict[ast.AST, ast.FunctionDef | ast.AsyncFunctionDef | None] = {}

    def visit(
        node: ast.AST, function: ast.FunctionDef | ast.AsyncFunctionDef | None
    ) -> None:
        enclosing[node] = function
        inner = (
            node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            else function
        )
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(tree, None)
    return enclosing


class Rule:
    """Base class: a code, a human title, and an AST check."""

    code: str = ""
    title: str = ""

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        raise NotImplementedError  # lint: allow R002 — abstract-method protocol

    def _emit(
        self, module: ParsedModule, node: ast.AST, message: str
    ) -> Iterator[Finding]:
        finding = module.finding(self.code, node, message)
        if finding is not None:
            yield finding


class ServeImportsFacade(Rule):
    """R001: the daemon reaches the engine only through the façade.

    Inside ``repro/serve/`` *all* internal imports are confined to the
    public façade surface (:data:`SERVE_ALLOWED_PACKAGES`): the daemon
    is a transport, and any inference logic it grew by importing
    ``repro.core``/``repro.runtime``/``repro.xmlio`` directly would
    drift from what library callers get.
    """

    code = "R001"
    title = "repro.serve imports only the façade surface"

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        if SERVE_PACKAGE_MARKER not in module.path.replace("\\", "/"):
            return

        def complain(node: ast.AST, imported: str) -> Iterator[Finding]:
            yield from self._emit(
                module,
                node,
                f"repro.serve may only import the façade surface "
                f"({', '.join(sorted('repro.' + p for p in SERVE_ALLOWED_PACKAGES - {'serve'}))} "
                f"and serve-internal modules), not {imported}",
            )

        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                if node.level == 1:
                    continue  # serve-internal relative import
                if node.level >= 2:
                    if node.module is None:
                        for alias in node.names:
                            top = alias.name.split(".")[0]
                            if top not in SERVE_ALLOWED_PACKAGES:
                                yield from complain(node, f"repro.{alias.name}")
                    else:
                        top = node.module.split(".")[0]
                        if top not in SERVE_ALLOWED_PACKAGES:
                            yield from complain(node, f"repro.{node.module}")
                elif node.module == "repro" or (
                    node.module is not None
                    and node.module.startswith("repro.")
                ):
                    parts = node.module.split(".")
                    if len(parts) == 1:
                        for alias in node.names:
                            if alias.name not in SERVE_ALLOWED_PACKAGES:
                                yield from complain(node, f"repro.{alias.name}")
                    elif parts[1] not in SERVE_ALLOWED_PACKAGES:
                        yield from complain(node, node.module)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "repro":
                        yield from complain(node, "the whole repro package")
                    elif (
                        alias.name.startswith("repro.")
                        and alias.name.split(".")[1]
                        not in SERVE_ALLOWED_PACKAGES
                    ):
                        yield from complain(node, alias.name)


class TypedRaises(Rule):
    """R002: raised exceptions carry the repro.errors exit-code contract."""

    code = "R002"
    title = "raise repro.errors exceptions, not bare builtins"

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id in FORBIDDEN_RAISES:
                yield from self._emit(
                    module,
                    node,
                    f"raises builtin {exc.id}; use the repro.errors "
                    "hierarchy (UsageError / CorpusError / InternalError) "
                    "or a subclass so the exit-code mapping applies",
                )


#: Lookup exceptions that, inside :mod:`repro.runtime`, almost always
#: signal shard/pool *bookkeeping* bugs (a shard index or pool kind
#: missing from a dict the runtime itself maintains).  Swallowing one
#: there hides an engine bug; R003 requires the handler to re-raise
#: (typically as InternalError naming the missing key) or count.
RUNTIME_LOOKUP_NAMES = frozenset({"KeyError", "IndexError", "LookupError"})

RUNTIME_PACKAGE_MARKER = "repro/runtime/"


class NoSilentSwallow(Rule):
    """R003: broad handlers must re-raise or count what they swallow.

    Inside ``repro/runtime/`` the same requirement extends to lookup
    exceptions (:data:`RUNTIME_LOOKUP_NAMES`): the runtime's dicts are
    its own shard/pool bookkeeping, so a swallowed ``KeyError`` there
    is a silently-ignored engine bug, not input handling.
    """

    code = "R003"
    title = "no bare/broad except that silently swallows"

    @staticmethod
    def _handler_names(handler: ast.ExceptHandler) -> list[ast.expr]:
        if handler.type is None:
            return []
        if isinstance(handler.type, ast.Tuple):
            return list(handler.type.elts)
        return [handler.type]

    @classmethod
    def _is_broad(cls, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        return any(
            isinstance(name, ast.Name)
            and name.id in ("Exception", "BaseException")
            for name in cls._handler_names(handler)
        )

    @classmethod
    def _caught_lookups(cls, handler: ast.ExceptHandler) -> list[str]:
        return [
            name.id
            for name in cls._handler_names(handler)
            if isinstance(name, ast.Name) and name.id in RUNTIME_LOOKUP_NAMES
        ]

    @staticmethod
    def _handles_visibly(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "count"
            ):
                return True
        return False

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        in_runtime = RUNTIME_PACKAGE_MARKER in module.path.replace("\\", "/")
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if self._handles_visibly(node):
                continue
            if self._is_broad(node):
                label = "bare except" if node.type is None else "except Exception"
                yield from self._emit(
                    module,
                    node,
                    f"{label} swallows without re-raising or bumping a "
                    "recorder counter; narrow the exception type, re-raise, "
                    "or record the swallow",
                )
            elif in_runtime and (lookups := self._caught_lookups(node)):
                yield from self._emit(
                    module,
                    node,
                    f"except {'/'.join(sorted(lookups))} in repro/runtime/ "
                    "swallows what is almost certainly a shard/pool "
                    "bookkeeping bug; re-raise it as InternalError naming "
                    "the missing key, or record the swallow",
                )


class NoFrozenMutation(Rule):
    """R004: frozen dataclasses stay frozen outside __post_init__."""

    code = "R004"
    title = "no object.__setattr__ outside __post_init__"

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        enclosing = _function_stack(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr == "__setattr__"
                and isinstance(func.value, ast.Name)
                and func.value.id == "object"
            ):
                continue
            function = enclosing.get(node)
            if function is not None and function.name == "__post_init__":
                continue
            yield from self._emit(
                module,
                node,
                "object.__setattr__ mutates a frozen dataclass outside "
                "__post_init__; construct a new instance instead",
            )


class DeterministicCore(Rule):
    """R005: the core pipeline is deterministic and clock-free."""

    code = "R005"
    title = "no hidden randomness or wall clocks in the core pipeline"

    @staticmethod
    def _in_core(module: ParsedModule) -> bool:
        normalized = module.path.replace("\\", "/")
        return any(marker in normalized for marker in CORE_PACKAGE_MARKERS)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        in_core = self._in_core(module)
        for node in ast.walk(module.tree):
            # Global-state randomness is wrong everywhere in src: even
            # datagen seeds explicit random.Random instances.
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "random"
                and node.func.attr not in ALLOWED_RANDOM_ATTRIBUTES
            ):
                yield from self._emit(
                    module,
                    node,
                    f"random.{node.func.attr}() uses the shared global RNG; "
                    "inject a seeded random.Random instead",
                )
            if not in_core:
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        yield from self._emit(
                            module,
                            node,
                            "core module imports the time module; timing "
                            "belongs in repro.obs",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                clocks = [
                    alias.name
                    for alias in node.names
                    if alias.name in WALL_CLOCK_NAMES
                ]
                if clocks:
                    yield from self._emit(
                        module,
                        node,
                        f"core module imports wall-clock function(s) "
                        f"{', '.join(clocks)} from time; timing belongs in "
                        "repro.obs",
                    )


ALL_RULES: tuple[Rule, ...] = (
    ServeImportsFacade(),
    TypedRaises(),
    NoSilentSwallow(),
    NoFrozenMutation(),
    DeterministicCore(),
)
