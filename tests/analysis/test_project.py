"""Tests for the whole-program model (:mod:`repro_lint.project`).

Covers module naming, import-edge classification, alias-aware call
resolution (including the builtin-method denylist that keeps
``self._items.append`` from resolving to an unrelated project method),
thread/async root discovery, and — against the live tree — a golden
package-level import-graph snapshot that pins the layering the R010
table declares.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro_lint.project import (
    Project,
    dotted_text,
    module_name_for_path,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestModuleNaming:
    def test_src_anchor(self):
        path = Path("src/repro/core/inference.py")
        assert module_name_for_path(path) == "repro.core.inference"

    def test_repro_anchor_without_src(self):
        path = Path("checkout/repro/xmlio/parser.py")
        assert module_name_for_path(path) == "repro.xmlio.parser"

    def test_package_init_names_the_package(self):
        assert module_name_for_path(Path("src/repro/serve/__init__.py")) == (
            "repro.serve"
        )

    def test_bare_file_uses_the_stem(self):
        assert module_name_for_path(Path("/tmp/scratch.py")) == "scratch"


class TestDottedText:
    def test_name_and_attribute_chains(self):
        assert dotted_text(ast.parse("a", mode="eval").body) == "a"
        assert dotted_text(ast.parse("a.b.c", mode="eval").body) == "a.b.c"

    def test_non_chains_are_none(self):
        assert dotted_text(ast.parse("f().x", mode="eval").body) is None
        assert dotted_text(ast.parse("(a or b).x", mode="eval").body) is None


class TestImportEdges:
    def test_kind_classification(self):
        project = Project.from_sources(
            {
                "repro.a": "X = 1\n",
                "repro.b": "Y = 2\n",
                "repro.c": "Z = 3\n",
                "repro.top": (
                    "from typing import TYPE_CHECKING\n"
                    "import repro.a\n"
                    "if TYPE_CHECKING:\n"
                    "    import repro.b\n"
                    "def f():\n"
                    "    import repro.c\n"
                ),
            }
        )
        kinds = {
            (e.src, e.dst): e.kind
            for e in project.import_edges
            if e.src == "repro.top"
        }
        assert kinds[("repro.top", "repro.a")] == "eager"
        assert kinds[("repro.top", "repro.b")] == "type_checking"
        assert kinds[("repro.top", "repro.c")] == "lazy"

    def test_relative_imports_resolve(self):
        project = Project.from_sources(
            {
                "repro.pkg.mod": "VALUE = 1\n",
                "repro.pkg.user": "from .mod import VALUE\n",
                "repro.other": "from .pkg import mod\n"
                if False
                else "from .pkg.mod import VALUE\n",
            }
        )
        pairs = {(e.src, e.dst) for e in project.import_edges}
        assert ("repro.pkg.user", "repro.pkg.mod") in pairs
        assert ("repro.other", "repro.pkg.mod") in pairs

    def test_duplicate_imports_record_one_edge(self):
        project = Project.from_sources(
            {
                "repro.a": "X = 1\nY = 2\n",
                "repro.b": "from repro.a import X, Y\n",
            }
        )
        edges = [
            e
            for e in project.import_edges
            if (e.src, e.dst) == ("repro.b", "repro.a")
        ]
        assert len(edges) == 1


class TestCallResolution:
    def test_alias_resolves_to_definition(self):
        project = Project.from_sources(
            {
                "repro.lib": "def work():\n    pass\n",
                "repro.use": (
                    "from repro.lib import work as w\n"
                    "def caller():\n    w()\n"
                ),
            }
        )
        assert "repro.lib:work" in project.call_graph.successors(
            "repro.use:caller"
        )

    def test_self_method_resolves_within_class(self):
        project = Project.from_sources(
            {
                "repro.m": (
                    "class A:\n"
                    "    def outer(self):\n"
                    "        self.inner()\n"
                    "    def inner(self):\n"
                    "        pass\n"
                    "class B:\n"
                    "    def inner(self):\n"
                    "        pass\n"
                ),
            }
        )
        succ = project.call_graph.successors("repro.m:A.outer")
        assert succ == ["repro.m:A.inner"]

    def test_builtin_method_names_never_fall_back(self):
        # `self._items.append(...)` is a list append, not a call to the
        # unrelated project method named `append`; the denylist keeps
        # that false edge (and the async/lock findings it would drag
        # in) out of the graph.
        project = Project.from_sources(
            {
                "repro.m": (
                    "class Store:\n"
                    "    def append(self, item):\n"
                    "        pass\n"
                    "class User:\n"
                    "    def __init__(self):\n"
                    "        self._items = []\n"
                    "    def push(self, item):\n"
                    "        self._items.append(item)\n"
                ),
            }
        )
        assert project.call_graph.successors("repro.m:User.push") == []

    def test_unique_method_name_falls_back(self):
        project = Project.from_sources(
            {
                "repro.m": (
                    "class Pool:\n"
                    "    def heal(self):\n"
                    "        pass\n"
                    "def use(pool):\n"
                    "    pool.heal()\n"
                ),
            }
        )
        assert project.call_graph.successors("repro.m:use") == [
            "repro.m:Pool.heal"
        ]


class TestExecutionDomains:
    def test_async_defs_are_async_roots(self):
        project = Project.from_sources(
            {
                "repro.m": (
                    "async def handler():\n    pass\n"
                    "def plain():\n    pass\n"
                ),
            }
        )
        assert project.async_roots == ["repro.m:handler"]

    def test_thread_target_becomes_thread_root(self):
        project = Project.from_sources(
            {
                "repro.m": (
                    "import threading\n"
                    "def worker():\n    pass\n"
                    "def start():\n"
                    "    threading.Thread(target=worker).start()\n"
                ),
            }
        )
        assert "repro.m:worker" in project.thread_roots

    def test_executor_hop_breaks_the_call_edge(self):
        # run_in_executor moves `blocking` off the loop: it becomes a
        # thread root and must NOT appear as a call-graph successor of
        # the async caller (otherwise R006 would flag code that was
        # correctly moved off the loop).
        project = Project.from_sources(
            {
                "repro.m": (
                    "import asyncio\n"
                    "def blocking():\n    pass\n"
                    "async def handler():\n"
                    "    loop = asyncio.get_running_loop()\n"
                    "    await loop.run_in_executor(None, blocking)\n"
                ),
            }
        )
        assert "repro.m:blocking" in project.thread_roots
        assert project.call_graph.successors("repro.m:handler") == []
        assert "repro.m:blocking" not in project.loop_closure()

    def test_loop_callbacks_stay_call_edges(self):
        project = Project.from_sources(
            {
                "repro.m": (
                    "def on_done(fut):\n    pass\n"
                    "async def handler(fut):\n"
                    "    fut.add_done_callback(on_done)\n"
                ),
            }
        )
        assert "repro.m:on_done" in project.call_graph.successors(
            "repro.m:handler"
        )
        assert "repro.m:on_done" in project.loop_closure()


class TestSubclasses:
    def test_closure_over_intermediate_bases(self):
        project = Project.from_sources(
            {
                "repro.e": (
                    "class Root(Exception):\n    pass\n"
                    "class Mid(Root):\n    pass\n"
                    "class Leaf(Mid):\n    pass\n"
                    "class Other(Exception):\n    pass\n"
                ),
            }
        )
        closure = project.subclasses_of(["repro.e:Root"])
        assert closure == {"repro.e:Root", "repro.e:Mid", "repro.e:Leaf"}


@pytest.fixture(scope="module")
def live_project() -> Project:
    return Project.from_paths([REPO_ROOT / "src" / "repro"])


def top_package(module: str) -> str:
    parts = module.split(".")
    return ".".join(parts[:2]) if len(parts) > 1 else parts[0]


#: Golden snapshot: every cross-package *eager* import edge the live
#: tree is allowed to have, condensed to top-level packages.  A new
#: cross-package dependency must be added here deliberately (and must
#: satisfy the R010 layer table, which the analyzer enforces).
GOLDEN_PACKAGE_EDGES = frozenset(
    {
        ("repro", "repro.api"),
        ("repro", "repro.automata"),
        ("repro", "repro.core"),
        ("repro", "repro.learning"),
        ("repro", "repro.regex"),
        ("repro", "repro.xmlio"),
        ("repro.__main__", "repro.cli"),
        ("repro.ckpt", "repro.contracts"),
        ("repro.ckpt", "repro.errors"),
        ("repro.ckpt", "repro.fsio"),
        ("repro.ckpt", "repro.learning"),
        ("repro.ckpt", "repro.obs"),
        ("repro.ckpt", "repro.runtime"),
        ("repro.api", "repro.contracts"),
        ("repro.api", "repro.core"),
        ("repro.api", "repro.errors"),
        ("repro.api", "repro.learning"),
        ("repro.api", "repro.obs"),
        ("repro.api", "repro.xmlio"),
        ("repro.automata", "repro.errors"),
        ("repro.automata", "repro.obs"),
        ("repro.automata", "repro.regex"),
        ("repro.baselines", "repro.automata"),
        ("repro.baselines", "repro.errors"),
        ("repro.baselines", "repro.learning"),
        ("repro.baselines", "repro.regex"),
        ("repro.cli", "repro.api"),
        ("repro.cli", "repro.contracts"),
        ("repro.cli", "repro.core"),
        ("repro.cli", "repro.errors"),
        ("repro.cli", "repro.obs"),
        ("repro.cli", "repro.regex"),
        ("repro.cli", "repro.xmlio"),
        ("repro.contracts", "repro.errors"),
        ("repro.core", "repro.automata"),
        ("repro.core", "repro.contracts"),
        ("repro.core", "repro.errors"),
        ("repro.core", "repro.learning"),
        ("repro.core", "repro.obs"),
        ("repro.core", "repro.regex"),
        ("repro.core", "repro.xmlio"),
        ("repro.datagen", "repro.errors"),
        ("repro.datagen", "repro.regex"),
        ("repro.datagen", "repro.xmlio"),
        ("repro.evaluation", "repro.core"),
        ("repro.evaluation", "repro.datagen"),
        ("repro.evaluation", "repro.learning"),
        ("repro.evaluation", "repro.regex"),
        ("repro.learning", "repro.automata"),
        ("repro.learning", "repro.contracts"),
        ("repro.learning", "repro.core"),
        ("repro.learning", "repro.errors"),
        ("repro.learning", "repro.obs"),
        ("repro.learning", "repro.regex"),
        ("repro.learning", "repro.xmlio"),
        ("repro.regex", "repro.errors"),
        ("repro.runtime", "repro.contracts"),
        ("repro.runtime", "repro.errors"),
        ("repro.runtime", "repro.learning"),
        ("repro.runtime", "repro.obs"),
        ("repro.runtime", "repro.regex"),
        ("repro.runtime", "repro.xmlio"),
        ("repro.serve", "repro.api"),
        ("repro.serve", "repro.errors"),
        ("repro.serve", "repro.obs"),
        ("repro.xmlio", "repro.errors"),
        ("repro.xmlio", "repro.obs"),
        ("repro.xmlio", "repro.regex"),
    }
)


class TestLiveTreeSnapshot:
    def test_package_level_import_graph_matches_golden(self, live_project):
        actual = {
            (top_package(e.src), top_package(e.dst))
            for e in live_project.import_edges
            if e.kind == "eager"
            and top_package(e.src) != top_package(e.dst)
        }
        added = actual - GOLDEN_PACKAGE_EDGES
        removed = GOLDEN_PACKAGE_EDGES - actual
        assert not added, f"new cross-package eager imports: {sorted(added)}"
        assert not removed, f"stale golden edges: {sorted(removed)}"

    def test_no_eager_xmlio_to_learning_edge(self, live_project):
        # The evidence move's whole point: the XML substrate does not
        # import the learning layer.
        offending = [
            (e.src, e.dst)
            for e in live_project.import_edges
            if e.kind == "eager"
            and e.src.startswith("repro.xmlio")
            and e.dst.startswith("repro.learning")
        ]
        assert offending == []

    def test_serve_eagerly_imports_only_the_facade(self, live_project):
        allowed = ("repro.api", "repro.errors", "repro.obs", "repro.serve")
        offending = [
            (e.src, e.dst)
            for e in live_project.import_edges
            if e.kind == "eager"
            and e.src.startswith("repro.serve")
            and not e.dst.startswith(allowed)
        ]
        assert offending == []

    def test_eager_import_graph_is_acyclic(self, live_project):
        assert live_project.eager_import_graph().cycles() == []

    def test_stats_shape(self, live_project):
        stats = live_project.stats()
        assert stats["modules"] > 50
        assert stats["functions"] > 500
        assert stats["call_edges"] > 1000
        assert stats["async_roots"] >= 1
        assert stats["thread_roots"] >= 1
