"""The error budget, pinned on all three surfaces: library, CLI, daemon.

Each row is one corpus and one ``max_quarantine`` budget.  The library
call must raise the row's exception type with its message prefix (or
succeed with the row's degradation), the CLI must exit with the row's
code and the daemon must answer with the row's HTTP status.  Budget 0,
the default, is strict; ``None`` (``all`` on the CLI) has no cap.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any

import pytest

from repro.api import InferenceConfig, infer
from repro.cli import main
from repro.datagen.xmlgen import XmlGenerator, serialize
from repro.errors import CorpusError, QuarantineExceeded, ShardTimeout
from repro.runtime.resilience import FaultPlan
from repro.serve.app import ReproApp
from repro.xmlio.dtd import parse_dtd
from repro.xmlio.parser import XmlSyntaxError

DTD_SOURCE = (
    "<!ELEMENT r (item+)><!ELEMENT item (name, price?)>"
    "<!ELEMENT name (#PCDATA)><!ELEMENT price (#PCDATA)>"
)
TIMEOUTS = {"shard_timeouts": [0], "attempts": 3}


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    # The rows name their own fault plans; an ambient one must not compose.
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


@dataclass(frozen=True)
class Row:
    """One policy over one corpus, and what each surface must report."""

    policy: dict[str, Any]  # the budget, as config keys
    bad: tuple[int, ...] = ()  # corpus positions holding malformed XML
    faults: dict[str, Any] = field(default_factory=dict)
    error: type[Exception] | None = None
    prefix: str = ""  # "{bad}" stands for the first bad document's path
    exit_code: int = 0
    status: int = 200
    quarantined: int = 0
    retried: int = 0


ROWS = {
    "strict": Row(
        {}, bad=(2,), error=XmlSyntaxError, prefix="{bad}: ", exit_code=1, status=422
    ),
    "uncapped": Row({"max_quarantine": None}, bad=(2,), quarantined=1),
    "cap-n": Row({"max_quarantine": 2}, bad=(1, 2), quarantined=2),
    "cap-exceeded": Row(
        {"max_quarantine": 1},
        bad=(1, 2),
        error=QuarantineExceeded,
        prefix="quarantined 2 documents, more than max_quarantine=1",
        exit_code=1,
        status=422,
    ),
    "cap-zero-is-strict": Row(
        {"max_quarantine": 0},
        bad=(2,),
        error=XmlSyntaxError,
        prefix="{bad}: ",
        exit_code=1,
        status=422,
    ),
    "all-quarantined": Row(
        {"max_quarantine": None},
        bad=(0, 1, 2, 3),
        error=CorpusError,
        prefix="all 4 documents were quarantined",
        exit_code=1,
        status=422,
    ),
    "strict-timeout": Row(
        {},
        faults=TIMEOUTS,
        error=ShardTimeout,
        prefix="shard 0 exceeded its deadline after 3 attempts",
        exit_code=1,
        status=503,
    ),
    "uncapped-timeout": Row({"max_quarantine": None}, faults=TIMEOUTS, retried=1),
}


@pytest.fixture(params=sorted(ROWS))
def case(request, tmp_path):
    """``(row, corpus paths)`` with the row's bad documents malformed."""
    row = ROWS[request.param]
    generator = XmlGenerator(parse_dtd(DTD_SOURCE), random.Random(11))
    paths = []
    for index, document in enumerate(generator.corpus(4)):
        path = tmp_path / f"doc{index}.xml"
        text = "<r><item>" if index in row.bad else serialize(document)
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return row, paths


def prefix(row: Row, paths: list[str]) -> str:
    return row.prefix.format(bad=paths[row.bad[0]] if row.bad else "")


def test_library(case):
    row, paths = case
    config = InferenceConfig(jobs=2, faults=FaultPlan.from_mapping(row.faults), **row.policy)
    if row.error is not None:
        with pytest.raises(row.error) as raised:
            infer(paths, config=config)
        assert type(raised.value) is row.error
        assert str(raised.value).startswith(prefix(row, paths)), raised.value
        return
    degradation = infer(paths, config=config).degradation
    assert len(degradation.quarantined) == row.quarantined
    assert len(degradation.retried_shards) == row.retried


def cli_flags(policy: dict[str, Any]) -> list[str]:
    if "max_quarantine" not in policy:
        return []
    budget = policy["max_quarantine"]
    return ["--max-quarantine", "all" if budget is None else str(budget)]


def test_cli(case, capsys):
    row, paths = case
    flags = ["--jobs", "2", "--fault-plan", json.dumps(row.faults)]
    assert main(["infer", *paths, *flags, *cli_flags(row.policy)]) == row.exit_code
    if row.error is not None:
        assert f": {prefix(row, paths)}" in capsys.readouterr().err


def test_daemon(case):
    row, paths = case
    body = {"paths": paths, "config": {"jobs": 2, "faults": row.faults, **row.policy}}
    response = ReproApp().handle("POST", "/infer", json.dumps(body).encode())
    assert response.status == row.status, response.payload
    if row.error is not None:
        assert response.payload["error"]["type"] == row.error.__name__
        assert response.payload["error"]["message"].startswith(prefix(row, paths))


def test_on_error_is_gone_from_every_surface(tmp_path, capsys):
    with pytest.raises(TypeError, match="on_error"):
        InferenceConfig(on_error="skip")
    path = tmp_path / "doc.xml"
    path.write_text("<r/>", encoding="utf-8")
    with pytest.raises(SystemExit) as exited:
        main(["infer", str(path), "--on-error", "skip"])
    assert exited.value.code == 1
    assert "unrecognized arguments: --on-error" in capsys.readouterr().err
    body = {"documents": ["<r/>"], "config": {"on_error": "skip"}}
    response = ReproApp().handle("POST", "/infer", json.dumps(body).encode())
    assert response.status == 400
    assert "on_error" in response.payload["error"]["message"]
