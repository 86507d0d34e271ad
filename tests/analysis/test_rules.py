"""Fixture tests for the repo linter (:mod:`repro_lint`).

Every registered rule gets (at least) one snippet that fires it and one
clean counterexample; a meta-test enforces that coverage so a new rule
cannot land without fixtures.  The final test runs the linter over the
live ``src/repro`` tree — the acceptance criterion that CI replays via
``python -m repro_lint src/repro``.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro_lint import analyze_paths, analyze_source
from repro_lint.__main__ import main
from repro_lint.rules import ALL_RULES

REPO_ROOT = Path(__file__).resolve().parents[2]

#: rule code -> (firing snippet, clean counterexample).  Paths matter
#: for R001 (only serve modules are confined to the façade) and R005
#: (wall clocks are only banned in core packages), so each fixture
#: carries the virtual path it is analyzed under.
FIXTURES: dict[str, dict[str, tuple[str, str]]] = {
    "R001": {
        "firing": (
            "src/repro/serve/something.py",
            "from repro.core.inference import DTDInferencer\n"
            "result = DTDInferencer().finalize(evidence)\n",
        ),
        "clean": (
            "src/repro/serve/something.py",
            "from repro.api import infer\n"
            "result = infer(docs)\n",
        ),
    },
    "R002": {
        "firing": (
            "src/repro/core/something.py",
            "def f(x):\n"
            "    if x < 0:\n"
            "        raise ValueError('negative')\n",
        ),
        "clean": (
            "src/repro/core/something.py",
            "from repro.errors import UsageError\n"
            "def f(x):\n"
            "    if x < 0:\n"
            "        raise UsageError('negative')\n",
        ),
    },
    "R003": {
        "firing": (
            "src/repro/core/something.py",
            "try:\n"
            "    work()\n"
            "except Exception:\n"
            "    pass\n",
        ),
        "clean": (
            "src/repro/core/something.py",
            "try:\n"
            "    work()\n"
            "except Exception:\n"
            "    recorder.count('swallowed')\n",
        ),
    },
    "R004": {
        "firing": (
            "src/repro/core/something.py",
            "def tweak(self, value):\n"
            "    object.__setattr__(self, 'field', value)\n",
        ),
        "clean": (
            "src/repro/core/something.py",
            "def __post_init__(self):\n"
            "    object.__setattr__(self, 'field', 1)\n",
        ),
    },
    "R005": {
        "firing": (
            "src/repro/core/something.py",
            "import random\n"
            "def pick(items):\n"
            "    return random.choice(items)\n",
        ),
        "clean": (
            "src/repro/core/something.py",
            "import random\n"
            "def pick(items, rng: random.Random):\n"
            "    return rng.choice(items)\n",
        ),
    },
}


class TestFixtureCoverage:
    def test_every_rule_has_fixtures(self):
        codes = {rule.code for rule in ALL_RULES}
        assert codes == set(FIXTURES), (
            "every registered rule needs a firing and a clean fixture"
        )

    def test_rule_codes_and_titles(self):
        for rule in ALL_RULES:
            assert rule.code.startswith("R") and len(rule.code) == 4
            assert rule.title


class TestFiringFixtures:
    def test_firing_snippets_fire(self):
        for code, cases in FIXTURES.items():
            path, source = cases["firing"]
            findings = analyze_source(path, source)
            assert any(f.rule == code for f in findings), (
                f"{code} fixture did not fire: {findings}"
            )

    def test_clean_snippets_stay_clean(self):
        for code, cases in FIXTURES.items():
            path, source = cases["clean"]
            findings = [f for f in analyze_source(path, source) if f.rule == code]
            assert findings == [], f"{code} counterexample fired: {findings}"


class TestRuleDetails:
    def test_r001_serve_may_not_import_the_engine(self):
        for source in (
            "from ..core.inference import DTDInferencer\n",
            "from ..xmlio.parser import parse_file\n",
            "from repro.runtime.parallel import parallel_evidence\n",
            "import repro.xmlio.parser\n",
            "from .. import xmlio\n",
            "import repro\n",
        ):
            findings = analyze_source("src/repro/serve/app.py", source)
            assert any(f.rule == "R001" for f in findings), source

    def test_r001_serve_facade_imports_are_clean(self):
        source = (
            "from .. import api\n"
            "from ..api import InferenceConfig\n"
            "from ..errors import UsageError\n"
            "from ..obs.recorder import StatsRecorder\n"
            "from .http import Request\n"
            "from . import app\n"
            "import repro.api\n"
        )
        findings = analyze_source("src/repro/serve/daemon.py", source)
        assert not any(f.rule == "R001" for f in findings)

    def test_r001_engine_imports_fine_outside_serve(self):
        source = "from ..xmlio.parser import parse_file\n"
        findings = analyze_source("src/repro/runtime/m.py", source)
        assert not any(f.rule == "R001" for f in findings)

    def test_r002_allows_hierarchy_subclasses(self):
        source = (
            "from repro.errors import CorpusError\n"
            "class BadSample(CorpusError):\n"
            "    pass\n"
            "def f():\n"
            "    raise BadSample('x')\n"
        )
        findings = analyze_source("src/repro/core/m.py", source)
        assert not any(f.rule == "R002" for f in findings)

    def test_r002_allows_bare_reraise(self):
        source = (
            "try:\n"
            "    work()\n"
            "except KeyError:\n"
            "    raise\n"
        )
        findings = analyze_source("src/repro/core/m.py", source)
        assert not any(f.rule == "R002" for f in findings)

    def test_r003_reraise_is_visible_handling(self):
        source = (
            "try:\n"
            "    work()\n"
            "except Exception as exc:\n"
            "    raise RuntimeError('wrapped') from exc\n"
        )
        findings = analyze_source("src/repro/core/m.py", source)
        assert not any(f.rule == "R003" for f in findings)

    def test_r003_runtime_lookup_swallow_fires(self):
        source = (
            "try:\n"
            "    shard = futures[index]\n"
            "except KeyError:\n"
            "    pass\n"
        )
        findings = analyze_source("src/repro/runtime/m.py", source)
        (finding,) = [f for f in findings if f.rule == "R003"]
        assert "bookkeeping" in finding.message

    def test_r003_lookup_swallow_fires_for_index_and_lookup_error(self):
        source = (
            "try:\n"
            "    shard = shards[0]\n"
            "except (IndexError, LookupError):\n"
            "    pass\n"
        )
        findings = analyze_source("src/repro/runtime/m.py", source)
        assert any(f.rule == "R003" for f in findings)

    def test_r003_lookup_swallow_allowed_outside_runtime(self):
        source = (
            "try:\n"
            "    shard = futures[index]\n"
            "except KeyError:\n"
            "    pass\n"
        )
        findings = analyze_source("src/repro/core/m.py", source)
        assert not any(f.rule == "R003" for f in findings)

    def test_r003_runtime_lookup_reraise_is_clean(self):
        source = (
            "from repro.errors import InternalError\n"
            "try:\n"
            "    shard = futures[index]\n"
            "except KeyError:\n"
            "    raise InternalError(f'no future for shard {index}')\n"
        )
        findings = analyze_source("src/repro/runtime/m.py", source)
        assert not any(f.rule == "R003" for f in findings)

    def test_r003_runtime_lookup_counted_is_clean(self):
        source = (
            "try:\n"
            "    shard = futures[index]\n"
            "except KeyError:\n"
            "    recorder.count('resilience.missing_shard')\n"
        )
        findings = analyze_source("src/repro/runtime/m.py", source)
        assert not any(f.rule == "R003" for f in findings)

    def test_r005_wall_clock_only_flagged_in_core(self):
        source = "from time import perf_counter\n"
        core = analyze_source("src/repro/core/m.py", source)
        assert any(f.rule == "R005" for f in core)
        obs = analyze_source("src/repro/obs/m.py", source)
        assert not any(f.rule == "R005" for f in obs)

    def test_r005_seeded_random_constructor_allowed(self):
        source = "import random\nrng = random.Random(7)\n"
        findings = analyze_source("src/repro/datagen/m.py", source)
        assert not any(f.rule == "R005" for f in findings)


class TestAllowlistPragma:
    def test_same_line_pragma_suppresses(self):
        source = "raise ValueError('x')  # lint: allow R002 — fixture\n"
        findings = analyze_source("src/repro/core/m.py", source)
        assert not any(f.rule == "R002" for f in findings)

    def test_previous_line_pragma_suppresses(self):
        source = (
            "# lint: allow R002 — fixture\n"
            "raise ValueError('x')\n"
        )
        findings = analyze_source("src/repro/core/m.py", source)
        assert not any(f.rule == "R002" for f in findings)

    def test_pragma_is_rule_specific(self):
        source = "raise ValueError('x')  # lint: allow R001\n"
        findings = analyze_source("src/repro/core/m.py", source)
        assert any(f.rule == "R002" for f in findings)

    def test_bare_pragma_leaves_the_finding_standing(self):
        # A pragma must name the codes it suppresses; one that names
        # none suppresses nothing, on its own line or the next.
        for source in (
            "raise ValueError('x')  # lint: allow\n",
            "# lint: allow — reviewed\nraise ValueError('x')\n",
        ):
            findings = analyze_source("src/repro/core/m.py", source)
            assert [f.rule for f in findings] == ["R002"], source

    def test_pragma_inside_string_literal_does_not_register(self):
        # Only real comment tokens count: pragma text in a docstring or
        # string constant (e.g. the analyzer documenting its own
        # syntax) must not allowlist the surrounding line.
        source = (
            'DOC = "append # lint: allow to the offending line"\n'
            "raise ValueError('x')\n"
        )
        findings = analyze_source("src/repro/core/m.py", source)
        assert any(f.rule == "R002" for f in findings)


class TestCli:
    def test_live_tree_is_clean(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro_lint", "src/repro"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_sarif_output_is_machine_readable(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("raise ValueError('x')\nx = 1\nraise KeyError('y')\n")
        result = subprocess.run(
            [sys.executable, "-m", "repro_lint", "--format", "sarif", str(bad)],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        (run,) = json.loads(result.stdout)["runs"]
        assert [
            (
                finding["ruleId"],
                finding["locations"][0]["physicalLocation"]["region"]["startLine"],
            )
            for finding in run["results"]
        ] == [("R002", 1), ("R002", 3)]

    def test_rules_filter(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("raise ValueError('x')\n")
        result = subprocess.run(
            [sys.executable, "-m", "repro_lint", "--rules", "R003", str(bad)],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0

    def test_unknown_rule_code_is_usage_error(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro_lint", "--rules", "R999"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "unknown rule" in result.stderr

    def test_analyze_paths_accepts_single_file(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("x = 1\n")
        assert analyze_paths([target]) == []

    def _bad_tree(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("raise ValueError('x')\n")
        return bad

    def test_sarif_output_shape(self, tmp_path):
        bad = self._bad_tree(tmp_path)
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro_lint",
                "--format",
                "sarif",
                str(bad),
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        sarif = json.loads(result.stdout)
        assert sarif["version"] == "2.1.0"
        (run,) = sarif["runs"]
        assert run["tool"]["driver"]["name"] == "repro_lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"R001", "R010"} <= rule_ids
        (finding,) = run["results"]
        assert finding["ruleId"] == "R002"
        location = finding["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] == 1

    def test_stats_prints_rule_counts_and_graph_sizes(self):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro_lint",
                "--stats",
                "src/repro",
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "per-rule findings:" in result.stderr
        for code in ("R001", "R006", "R010"):
            assert f"{code}: 0" in result.stderr
        assert "program model:" in result.stderr
        assert "call_edges:" in result.stderr

    def test_list_rules_covers_both_registries(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro_lint", "--list-rules"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.splitlines() == [
            "R001  repro.serve imports only the façade surface",
            "R002  raise repro.errors exceptions, not bare builtins",
            "R003  no bare/broad except that silently swallows",
            "R004  no object.__setattr__ outside __post_init__",
            "R005  no hidden randomness or wall clocks in the core pipeline",
            "R006  no blocking calls reachable from async code",
            "R007  locks via 'with' only, no await under a sync lock, stable order",
            "R008  shared mutable state is written under a lock",
            "R009  raises resolve through repro.errors; serve entries catch broadly",
            "R010  eager imports respect the declared layer DAG, no cycles",
        ]

    @pytest.mark.parametrize(
        "flags",
        [["--json"], ["--format", "json"], ["--baseline", "b.json"], ["--output", "r"]],
    )
    def test_removed_options_are_usage_errors(self, flags):
        # One suppression path (pragmas) and one machine format (SARIF
        # on stdout): the baseline file, JSON output and --output are gone.
        with pytest.raises(SystemExit) as exit_info:
            main([*flags, "src/repro/errors.py"])
        assert exit_info.value.code == 2

    def test_the_linter_is_not_part_of_the_product(self):
        # The linter lives in src/repro_lint, a development tool outside
        # the installed distribution; the repro package carries no copy.
        assert importlib.util.find_spec("repro.analysis") is None
        assert importlib.util.find_spec("repro_lint") is not None
        pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        assert 'include = ["repro", "repro.*"]' in pyproject
