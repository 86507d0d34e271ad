"""Fixture and mutation tests for the whole-program rules (R006-R010).

Mirrors ``test_rules.py``: every registered program rule gets a firing
multi-file fixture project and a clean counterexample, enforced by a
meta-test.  On top of that, *seeded mutation* tests re-analyze the live
tree with one realistic bug injected (a ``time.sleep`` in an async
handler, a dropped ``with lock``, ...) and assert the matching rule
catches it — the analyzer equivalent of mutation-testing a test suite.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro_lint import Finding, analyze_project
from repro_lint.program_rules import PROGRAM_RULES, ProgramRule
from repro_lint.project import Project, module_name_for_path
from repro_lint.rules import ALL_RULES

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Exception hierarchy stub shared by the R009 fixtures; mirrors the
#: real :mod:`repro.errors` shape (mapped roots under ReproError).
ERRORS_STUB = (
    "class ReproError(Exception):\n    pass\n"
    "class UsageError(ReproError):\n    pass\n"
    "class CorpusError(ReproError):\n    pass\n"
    "class InternalError(ReproError):\n    pass\n"
)

#: rule code -> {"firing": sources, "clean": sources}; each ``sources``
#: is a ``{dotted_module: text}`` fixture project.
PROGRAM_FIXTURES: dict[str, dict[str, dict[str, str]]] = {
    "R006": {
        "firing": {
            "repro.serve.handler": (
                "import time\n"
                "async def handle(request):\n"
                "    prepare()\n"
                "def prepare():\n"
                "    time.sleep(0.1)\n"
            ),
        },
        "clean": {
            "repro.serve.handler": (
                "import asyncio\n"
                "import time\n"
                "async def handle(request):\n"
                "    await asyncio.sleep(0)\n"
                "    loop = asyncio.get_running_loop()\n"
                "    await loop.run_in_executor(None, heavy)\n"
                "def heavy():\n"
                "    time.sleep(0.1)\n"
            ),
        },
    },
    "R007": {
        "firing": {
            "repro.serve.state": (
                "import asyncio\n"
                "import threading\n"
                "_LOCK = threading.Lock()\n"
                "async def refresh():\n"
                "    with _LOCK:\n"
                "        await asyncio.sleep(0)\n"
                "def manual():\n"
                "    _LOCK.acquire()\n"
            ),
        },
        "clean": {
            "repro.serve.state": (
                "import asyncio\n"
                "import threading\n"
                "_LOCK = threading.Lock()\n"
                "STATE = {}\n"
                "async def refresh():\n"
                "    with _LOCK:\n"
                "        STATE['x'] = 1\n"
                "    await asyncio.sleep(0)\n"
            ),
        },
    },
    "R008": {
        "firing": {
            "repro.runtime.registry": (
                "import threading\n"
                "_REGISTRY = {}\n"
                "def worker():\n"
                "    _REGISTRY['k'] = 1\n"
                "def start():\n"
                "    threading.Thread(target=worker).start()\n"
            ),
        },
        "clean": {
            "repro.runtime.registry": (
                "import threading\n"
                "_REGISTRY = {}\n"
                "_LOCK = threading.Lock()\n"
                "def worker():\n"
                "    with _LOCK:\n"
                "        _REGISTRY['k'] = 1\n"
                "def start():\n"
                "    threading.Thread(target=worker).start()\n"
            ),
        },
    },
    "R009": {
        "firing": {
            "repro.errors": ERRORS_STUB,
            "repro.core.thing": (
                "from ..errors import ReproError\n"
                "class OddError(ReproError):\n"
                "    pass\n"
                "def f():\n"
                "    raise OddError('unmapped')\n"
            ),
        },
        "clean": {
            "repro.errors": ERRORS_STUB,
            "repro.core.thing": (
                "from ..errors import CorpusError\n"
                "class BadSample(CorpusError):\n"
                "    pass\n"
                "def f():\n"
                "    raise BadSample('mapped fine')\n"
            ),
        },
    },
    "R010": {
        "firing": {
            "repro.xmlio.parser": "from repro.learning import folds\n",
            "repro.learning.folds": "X = 1\n",
        },
        "clean": {
            "repro.xmlio.parser": "X = 1\n",
            "repro.learning.folds": "from repro.xmlio import parser\n",
        },
    },
}


def run_rule(code: str, sources: dict[str, str]) -> list[Finding]:
    project = Project.from_sources(sources)
    (rule,) = [r for r in PROGRAM_RULES if r.code == code]
    return [f for f in rule.check(project) if f.rule == code]


class TestFixtureCoverage:
    def test_every_program_rule_has_fixtures(self):
        codes = {rule.code for rule in PROGRAM_RULES}
        assert codes == set(PROGRAM_FIXTURES), (
            "every program rule needs a firing and a clean fixture"
        )

    def test_registries_are_disjoint_and_contiguous(self):
        file_codes = {rule.code for rule in ALL_RULES}
        program_codes = {rule.code for rule in PROGRAM_RULES}
        assert not file_codes & program_codes
        expected = {f"R{n:03d}" for n in range(1, 11)}
        assert file_codes | program_codes == expected

    def test_program_rules_have_codes_and_titles(self):
        for rule in PROGRAM_RULES:
            assert isinstance(rule, ProgramRule)
            assert rule.code.startswith("R") and len(rule.code) == 4
            assert rule.title


class TestFiringFixtures:
    @pytest.mark.parametrize("code", sorted(PROGRAM_FIXTURES))
    def test_firing_projects_fire(self, code):
        findings = run_rule(code, PROGRAM_FIXTURES[code]["firing"])
        assert findings, f"{code} fixture did not fire"

    @pytest.mark.parametrize("code", sorted(PROGRAM_FIXTURES))
    def test_clean_projects_stay_clean(self, code):
        findings = run_rule(code, PROGRAM_FIXTURES[code]["clean"])
        assert findings == [], f"{code} counterexample fired: {findings}"


class TestRuleDetails:
    def test_r006_names_the_async_root(self):
        (finding, *_) = run_rule("R006", PROGRAM_FIXTURES["R006"]["firing"])
        assert "repro.serve.handler:handle" in finding.message

    def test_r006_future_result_blocks(self):
        findings = run_rule(
            "R006",
            {
                "repro.serve.h": (
                    "async def handle(fut):\n"
                    "    return fut.result()\n"
                ),
            },
        )
        assert any("result" in f.message for f in findings)

    def test_r007_lock_order_cycle(self):
        findings = run_rule(
            "R007",
            {
                "repro.m": (
                    "import threading\n"
                    "A = threading.Lock()\n"
                    "B = threading.Lock()\n"
                    "def f():\n"
                    "    with A:\n"
                    "        with B:\n"
                    "            pass\n"
                    "def g():\n"
                    "    with B:\n"
                    "        with A:\n"
                    "            pass\n"
                ),
            },
        )
        assert any("acquisition order" in f.message for f in findings)

    def test_r007_consistent_order_is_clean(self):
        findings = run_rule(
            "R007",
            {
                "repro.m": (
                    "import threading\n"
                    "A = threading.Lock()\n"
                    "B = threading.Lock()\n"
                    "def f():\n"
                    "    with A:\n"
                    "        with B:\n"
                    "            pass\n"
                    "def g():\n"
                    "    with A:\n"
                    "        with B:\n"
                    "            pass\n"
                ),
            },
        )
        assert findings == []

    def test_r008_sees_instances_inside_container_literals(self):
        # The `POOLS = {"thread": Pool()}` shape:
        # a module-level dict literal shares its element instances just
        # as much as a bare `POOL = WorkerPool()` does.
        findings = run_rule(
            "R008",
            {
                "repro.runtime.pools": (
                    "import threading\n"
                    "class Pool:\n"
                    "    def __init__(self):\n"
                    "        self._executor = None\n"
                    "    def heal(self):\n"
                    "        self._executor = object()\n"
                    "POOLS = {'thread': Pool()}\n"
                    "def worker():\n"
                    "    POOLS['thread'].heal()\n"
                    "def start():\n"
                    "    threading.Thread(target=worker).start()\n"
                ),
            },
        )
        assert any("self._executor" in f.message for f in findings)

    def test_r008_construction_methods_are_exempt(self):
        findings = run_rule(
            "R008",
            {
                "repro.runtime.pools": (
                    "import threading\n"
                    "class Pool:\n"
                    "    def __init__(self):\n"
                    "        self._executor = None\n"
                    "POOL = Pool()\n"
                    "def worker():\n"
                    "    Pool()\n"
                    "def start():\n"
                    "    threading.Thread(target=worker).start()\n"
                ),
            },
        )
        assert findings == []

    def test_r009_private_sentinels_are_exempt(self):
        findings = run_rule(
            "R009",
            {
                "repro.errors": ERRORS_STUB,
                "repro.core.algo": (
                    "class _NoMatch(Exception):\n"
                    "    pass\n"
                    "def f():\n"
                    "    raise _NoMatch()\n"
                ),
            },
        )
        assert findings == []

    def test_r009_serve_thread_entry_needs_broad_except(self):
        sources = {
            "repro.errors": ERRORS_STUB,
            "repro.serve.worker": (
                "import threading\n"
                "class Runner:\n"
                "    def start(self):\n"
                "        threading.Thread(target=self._run).start()\n"
                "    def _run(self):\n"
                "        work()\n"
            ),
        }
        findings = run_rule("R009", sources)
        assert any("thread entry" in f.message for f in findings)
        guarded = dict(sources)
        guarded["repro.serve.worker"] = (
            "import threading\n"
            "class Runner:\n"
            "    def start(self):\n"
            "        threading.Thread(target=self._run).start()\n"
            "    def _run(self):\n"
            "        try:\n"
            "            work()\n"
            "        except Exception:\n"
            "            self.record_failure()\n"
            "    def record_failure(self):\n"
            "        pass\n"
        )
        assert run_rule("R009", guarded) == []

    def test_r010_cycle_detection(self):
        findings = run_rule(
            "R010",
            {
                "repro.regex.a": "from repro.regex import b\n",
                "repro.regex.b": "from repro.regex import a\n",
            },
        )
        assert any("cycle" in f.message for f in findings)

    def test_r010_lazy_upward_import_is_exempt(self):
        findings = run_rule(
            "R010",
            {
                "repro.xmlio.parser": (
                    "def convert():\n"
                    "    from repro.learning import folds\n"
                    "    return folds\n"
                ),
                "repro.learning.folds": "X = 1\n",
            },
        )
        assert findings == []

    def test_pragma_suppresses_program_findings(self):
        sources = dict(PROGRAM_FIXTURES["R006"]["firing"])
        sources["repro.serve.handler"] = sources[
            "repro.serve.handler"
        ].replace(
            "    time.sleep(0.1)\n",
            "    time.sleep(0.1)  # lint: allow R006 — fixture\n",
        )
        assert run_rule("R006", sources) == []


# ----------------------------------------------------------------------
# Seeded mutations over the live tree
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def live_sources() -> dict[str, str]:
    sources: dict[str, str] = {}
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        sources[module_name_for_path(path)] = path.read_text(
            encoding="utf-8"
        )
    return sources


def mutate(
    sources: dict[str, str], module: str, old: str, new: str
) -> dict[str, str]:
    assert old in sources[module], (
        f"mutation anchor vanished from {module}: {old!r}"
    )
    mutated = dict(sources)
    mutated[module] = mutated[module].replace(old, new)
    return mutated


class TestSeededMutations:
    """Each mutation plants one realistic bug; the rule must catch it."""

    def test_live_tree_is_clean_baseline(self, live_sources):
        project = Project.from_sources(live_sources)
        findings = [
            f for rule in PROGRAM_RULES for f in rule.check(project)
        ]
        assert findings == [], findings

    def test_sleep_in_async_handler_fires_r006(self, live_sources):
        mutated = mutate(
            live_sources,
            "repro.serve.daemon",
            "    async def _respond(self, request: Request) -> Response:\n",
            "    async def _respond(self, request: Request) -> Response:\n"
            "        import time\n"
            "        time.sleep(0.05)\n",
        )
        findings = run_rule_over("R006", mutated)
        assert any(
            "time.sleep" in f.message and "_respond" in f.message
            for f in findings
        )

    def test_await_under_sync_lock_fires_r007(self, live_sources):
        mutated = mutate(
            live_sources,
            "repro.serve.daemon",
            "    async def _respond(self, request: Request) -> Response:\n",
            "    async def _respond(self, request: Request) -> Response:\n"
            "        with _MUTATION_LOCK:\n"
            "            await _mutation_nap()\n",
        )
        mutated["repro.serve.daemon"] += (
            "\n\n_MUTATION_LOCK = threading.Lock()\n\n\n"
            "async def _mutation_nap():\n"
            "    pass\n"
        )
        findings = run_rule_over("R007", mutated)
        assert any("holding sync lock" in f.message for f in findings)

    def test_dropped_cache_lock_fires_r008(self, live_sources):
        mutated = mutate(
            live_sources,
            "repro.runtime.cache",
            "with self._lock:",
            "if True:",
        )
        findings = run_rule_over("R008", mutated)
        assert any("repro/runtime/cache.py" in f.path for f in findings)

    def test_unguarded_thread_entry_fires_r009(self, live_sources):
        mutated = mutate(
            live_sources,
            "repro.serve.daemon",
            "except Exception as exc:  # lint: allow R003",
            "except ValueError as exc:  # lint: allow R003",
        )
        findings = run_rule_over("R009", mutated)
        assert any(
            "thread entry" in f.message and "ServerThread._run" in f.message
            for f in findings
        )

    def test_eager_upward_import_fires_r010(self, live_sources):
        mutated = dict(live_sources)
        mutated["repro.xmlio.dtd"] += (
            "\nfrom repro.learning import evidence as _mutation_evidence\n"
        )
        findings = run_rule_over("R010", mutated)
        assert any("layer violation" in f.message for f in findings)


def run_rule_over(code: str, sources: dict[str, str]) -> list[Finding]:
    project = Project.from_sources(sources)
    (rule,) = [r for r in PROGRAM_RULES if r.code == code]
    return [f for f in rule.check(project) if f.rule == code]


class TestAnalyzeProject:
    def test_analyze_project_runs_all_program_rules(self, tmp_path):
        target = tmp_path / "src" / "repro" / "serve" / "h.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "import time\n"
            "async def handle():\n"
            "    time.sleep(1)\n"
        )
        findings = analyze_project([tmp_path / "src"])
        assert any(f.rule == "R006" for f in findings)
