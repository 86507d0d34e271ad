"""Command-line interface: ``repro-infer`` / ``python -m repro``.

Subcommands:

* ``infer FILE...``       — infer a DTD (or XSD) from XML documents;
* ``validate -d DTD FILE...`` — validate documents against a DTD;
* ``expr STRINGS...``     — infer an expression from child-name words
  given directly on the command line (whitespace-separated names,
  one word per argument), handy for experimentation;
* ``sample -d DTD -o DIR`` — generate random XML documents conforming
  to a DTD (the ToXgene-substitute as a tool).

Exit codes are uniform across subcommands: ``0`` success, ``1`` usage
or input error (bad flags, missing files, malformed XML/DTD — and, for
``validate``/``diff``, "the documents/schemas disagree"), ``2``
internal error (a bug in the inference engine, never the user's data).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from typing import NoReturn

from . import api
from .api import METHODS, InferenceConfig, infer
from .contracts import set_contracts
from .core.crx import crx
from .core.idtd import idtd
from .errors import EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, ReproError, UsageError, exit_code_for
from .obs.recorder import NULL_RECORDER, StatsRecorder
from .obs.report import format_stats, write_trace_path
from .regex.printer import to_dtd_syntax, to_paper_syntax
from .xmlio.dtd import parse_dtd


def _cmd_infer(args: argparse.Namespace) -> int:
    if args.check:
        import os

        # Exported as well as set in-process so that --jobs worker
        # processes (fresh interpreters) also run with contracts on.
        os.environ["REPRO_CHECKS"] = "1"
        set_contracts(True)
    wants_stats = args.stats or args.trace is not None
    recorder = StatsRecorder() if wants_stats else NULL_RECORDER
    faults = None
    if args.fault_plan is not None:
        from .runtime.resilience import FaultPlan

        faults = FaultPlan.from_cli(args.fault_plan)
    config = InferenceConfig(
        method=args.method,
        streaming=args.streaming,
        jobs=args.jobs,
        numeric=args.numeric,
        support_threshold=args.support_threshold,
        infer_attributes=not args.no_attributes,
        cache=not args.no_cache,
        backend=args.backend,
        recorder=recorder,
        on_error=args.on_error,
        max_quarantine=args.max_quarantine,
        shard_deadline=args.shard_deadline,
        faults=faults,
        state_dir=args.state_dir,
        resume=args.resume,
    )
    result = infer(args.files, config=config)
    if args.format == "dtd":
        sys.stdout.write(result.render())
    else:
        sys.stdout.write(result.to_xsd())
    if result.degradation is not None and result.degradation.degraded:
        from .obs.report import format_degradation

        print(format_degradation(result.degradation.to_dict()), file=sys.stderr)
    if wants_stats:
        snapshot = recorder.snapshot()
        if args.trace is not None:
            write_trace_path(snapshot, args.trace)
        if args.stats:
            print(format_stats(snapshot), file=sys.stderr)
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    import os
    import random

    from .datagen.xmlgen import XmlGenerator, serialize

    with open(args.dtd, encoding="utf-8") as handle:
        dtd = parse_dtd(handle.read())
    generator = XmlGenerator(dtd, random.Random(args.seed))
    os.makedirs(args.output, exist_ok=True)
    for index in range(args.count):
        path = os.path.join(args.output, f"sample{index:04d}.xml")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(serialize(generator.document()))
    print(f"wrote {args.count} documents to {args.output}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    result = api.validate(
        args.files,
        args.dtd,
        api.ValidationConfig(max_violations=args.max_violations),
    )
    for document in result.documents:
        if document.valid:
            print(f"{document.source}: valid")
        else:
            print(
                f"{document.source}: INVALID "
                f"({document.violation_count} violations)"
            )
            for violation in document.violations:
                print(f"  {violation}")
    return EXIT_OK if result.valid else EXIT_USAGE


def _cmd_diff(args: argparse.Namespace) -> int:
    new: api.DtdSource
    if args.new is not None:
        new = args.new
    else:
        if not args.files:
            raise UsageError("diff: need --new DTD or XML files to infer one from")
        new = infer(
            args.files, config=InferenceConfig(method=args.method)
        ).dtd
    result = api.diff(args.old, new)
    if result.equivalent:
        print("schemas are equivalent element-by-element")
        return EXIT_OK
    for entry in result.entries:
        print(entry)
    return EXIT_USAGE


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import DEFAULT_PORT, ServeConfig, run_blocking

    if args.check:
        import os

        os.environ["REPRO_CHECKS"] = "1"
        set_contracts(True)
    port = args.port
    if port is None and args.unix is None:
        port = DEFAULT_PORT
    config = ServeConfig(
        host=args.host,
        port=port,
        unix_path=args.unix,
        max_concurrency=args.max_concurrency,
        default_deadline=args.deadline,
        drain_timeout=args.drain_timeout,
        allow_remote_shutdown=not args.no_remote_shutdown,
    )
    return run_blocking(config, announce=print)


def _cmd_expr(args: argparse.Namespace) -> int:
    words = [tuple(word.split()) for word in args.words]
    if args.method in ("kore", "sire"):
        from .learning.kore import IncrementalKore
        from .learning.sire import IncrementalSire

        learner_state: IncrementalKore | IncrementalSire = (
            IncrementalKore() if args.method == "kore" else IncrementalSire()
        )
        learner_state.add_all(words)
        regex = learner_state.infer()
    elif args.method in ("idtd", "crx"):
        regex = (crx if args.method == "crx" else idtd)(words)
    else:
        # ``auto`` included: it is a per-element corpus policy, not a
        # word-list learner, so expr rejects it alongside the unknowns.
        supported = ", ".join(repr(name) for name in ("idtd", "crx", "kore", "sire"))
        raise UsageError(
            f"unknown method {args.method!r}: expected one of {supported}"
        )
    renderer = to_dtd_syntax if args.format == "dtd" else to_paper_syntax
    print(renderer(regex))
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; here 2 is reserved for internal
    errors, so usage problems exit 1 like every other input error."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="repro-infer",
        description="Infer concise DTDs from XML data (iDTD / CRX, VLDB 2006).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    infer = commands.add_parser(
        "infer", aliases=["dtd"], help="infer a DTD from XML files"
    )
    infer.add_argument("files", nargs="+", help="XML documents")
    # Free-form on purpose: InferenceConfig validates through the one
    # canonical UsageError message, so an unknown method is reported
    # identically here, through the api facade, and by serve /infer.
    infer.add_argument(
        "--method",
        default="auto",
        metavar="{" + ",".join(METHODS) + "}",
        help="learner per element (default: auto)",
    )
    infer.add_argument(
        "--format", choices=("dtd", "xsd"), default="dtd", help="output syntax"
    )
    infer.add_argument(
        "--numeric",
        action="store_true",
        help="tighten +/* to numerical bounds from the data (Section 9)",
    )
    infer.add_argument(
        "--no-attributes", action="store_true", help="skip ATTLIST inference"
    )
    infer.add_argument(
        "--support-threshold",
        type=int,
        default=0,
        metavar="N",
        help="noise handling: ignore element names occurring in fewer "
        "than N parent sequences (Section 9)",
    )
    infer.add_argument(
        "--streaming",
        action="store_true",
        help="bound each element's bag of distinct child words, spilling "
        "past the cap into mergeable learner states (memory bounded by the "
        "schema, not the corpus); --numeric and --support-threshold then "
        "fail on an element that spilled",
    )
    infer.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help="shard the corpus across N worker processes and merge their "
        "evidence (map-reduce; implies --streaming)",
    )
    infer.add_argument(
        "--backend",
        choices=("auto", "serial", "thread", "process"),
        default="auto",
        help="worker-pool choice for sharded extraction: auto (cost "
        "model picks from corpus size and CPU count), or force "
        "serial/thread/process; only meaningful with --streaming/--jobs",
    )
    infer.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the fingerprint-keyed content-model cache and "
        "derive every expression fresh",
    )
    infer.add_argument(
        "--on-error",
        choices=("strict", "skip"),
        default="strict",
        help="strict (default): abort on the first unreadable document; "
        "skip: quarantine it, infer a partial DTD from the rest, and "
        "report the degradation on stderr",
    )
    infer.add_argument(
        "--max-quarantine",
        type=int,
        default=None,
        metavar="N",
        help="with --on-error skip: abort (QuarantineExceeded, exit 1) "
        "once more than N documents have been quarantined",
    )
    infer.add_argument(
        "--shard-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-shard processing deadline for pooled extraction; "
        "breaches are retried, then raise ShardTimeout (strict) or "
        "reshard serially (skip)",
    )
    infer.add_argument(
        "--fault-plan",
        metavar="JSON|@FILE",
        default=None,
        help="deterministic fault injection for testing the resilient "
        "runtime: inline JSON or @path to a JSON file with "
        "worker_crashes/shard_timeouts/corrupt_docs/element_failures "
        "(see repro.runtime.resilience.FaultPlan; REPRO_FAULTS env "
        "works too)",
    )
    infer.add_argument(
        "--state-dir",
        metavar="DIR",
        default=None,
        help="checkpoint the run into DIR: per-shard evidence is "
        "committed durably as they complete, with a content-hash manifest "
        "of the corpus (implies --streaming; requires file paths)",
    )
    infer.add_argument(
        "--resume",
        action="store_true",
        help="with --state-dir: reuse every shard of the previous run in "
        "DIR whose documents are unchanged (crash recovery and "
        "incremental re-runs); output is byte-identical to a fresh run",
    )
    infer.add_argument(
        "--check",
        action="store_true",
        help="enable debug-mode invariant contracts (repro.contracts) for "
        "this run; equivalent to REPRO_CHECKS=1",
    )
    infer.add_argument(
        "--stats",
        action="store_true",
        help="print a per-phase timing/counter table to stderr",
    )
    infer.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write spans and counters as JSON lines to FILE "
        "(validate with python -m repro.obs.check_trace)",
    )
    infer.set_defaults(handler=_cmd_infer)

    sample = commands.add_parser(
        "sample", help="generate random XML documents from a DTD"
    )
    sample.add_argument("-d", "--dtd", required=True, help="DTD file")
    sample.add_argument(
        "-o", "--output", required=True, help="output directory"
    )
    sample.add_argument("-n", "--count", type=int, default=10)
    sample.add_argument("--seed", type=int, default=0)
    sample.set_defaults(handler=_cmd_sample)

    check = commands.add_parser("validate", help="validate XML against a DTD")
    check.add_argument("-d", "--dtd", required=True, help="DTD file")
    check.add_argument("files", nargs="+", help="XML documents")
    check.add_argument(
        "--max-violations", type=int, default=20, help="violations shown per file"
    )
    check.set_defaults(handler=_cmd_validate)

    diff = commands.add_parser(
        "diff",
        help="compare a DTD against another DTD or against one inferred "
        "from XML files (schema cleaning / noise analysis)",
    )
    diff.add_argument("--old", required=True, help="baseline DTD file")
    diff.add_argument("--new", help="other DTD file (or give XML files)")
    diff.add_argument("files", nargs="*", help="XML documents to infer from")
    diff.add_argument(
        "--method",
        default="auto",
        metavar="{" + ",".join(METHODS) + "}",
        help="learner per element for the inferred side (default: auto)",
    )
    diff.set_defaults(handler=_cmd_diff)

    serve = commands.add_parser(
        "serve",
        help="run the long-lived inference daemon (HTTP over TCP and/or a "
        "unix socket); see docs/API.md for endpoints",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="TCP bind address"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help="TCP port (0 picks an ephemeral port); omit for unix-only",
    )
    serve.add_argument(
        "--unix",
        default=None,
        metavar="PATH",
        help="also (or only) listen on this unix socket path",
    )
    serve.add_argument(
        "--max-concurrency",
        type=_positive_int,
        default=8,
        metavar="N",
        help="requests processed at once; excess answered 429 (default: 8)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request deadline (X-Repro-Deadline overrides); "
        "overruns answer 503",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="how long graceful shutdown waits for in-flight requests",
    )
    serve.add_argument(
        "--no-remote-shutdown",
        action="store_true",
        help="disable POST /shutdown (signals still work)",
    )
    serve.add_argument(
        "--check",
        action="store_true",
        help="enable debug-mode invariant contracts for the daemon",
    )
    serve.set_defaults(handler=_cmd_serve)

    expr = commands.add_parser(
        "expr", help="infer an expression from words on the command line"
    )
    expr.add_argument(
        "words", nargs="+", help="words: whitespace-separated element names"
    )
    expr.add_argument(
        "--method",
        default="idtd",
        metavar="{idtd,crx,kore,sire}",
        help="learner (default: idtd)",
    )
    expr.add_argument(
        "--format", choices=("paper", "dtd"), default="paper", help="output syntax"
    )
    expr.set_defaults(handler=_cmd_expr)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (KeyboardInterrupt, BrokenPipeError, SystemExit):
        raise
    except (ReproError, OSError, UnicodeDecodeError, ValueError) as exc:
        # The typed hierarchy (UsageError, CorpusError, InternalError)
        # plus the untyped input errors it replaced: every exception
        # maps onto the uniform exit codes in exactly one place.
        code = exit_code_for(exc)
        prefix = "internal error" if code == EXIT_INTERNAL else "error"
        print(f"repro-infer: {prefix}: {exc}", file=sys.stderr)
        return code
    # lint: allow R003 — last-resort handler: reports the error and exits 2
    except Exception as exc:
        print(
            f"repro-infer: internal error: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
