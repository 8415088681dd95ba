"""Command-line entry point.

Subcommands: ``import`` (raw annotations -> canonical corpus), ``prompt``
(dump a rendered prompt), ``extract`` (run the dialogue for one document),
``evaluate`` (score a saved world model), ``run-suite`` (all documents x
settings plus the result table).

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 backend
error, 130 interrupted (Ctrl-C). An interrupted command prints one line and no
traceback; under ``--record`` the answers recorded so far stay in the cache,
so re-running the same command resumes. A backend error part-way through a
dialogue prints one line too, naming the document, setting and activity
source it stopped at, and for ``run-suite`` where the finished jobs' models
are.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import closing
from pathlib import Path

from . import corpus, evaluation, pipeline, prompting
from .backend import LiveBackend, OracleBackend, TranscriptCache
from .errors import BackendError, CorpusError, ModelError, PexError
from .evaluation import MatchConfig
from .suite import atomic_write, run_suite
from .worldmodel import WorldModel

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a command Ctrl-C ended


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(PexError):
    pass


def _load_entries(path):
    return corpus.load_corpus(path) if path else corpus.default_corpus()


def _find_doc(entries, doc_id):
    index = corpus.corpus_index(entries)
    if doc_id not in index:
        raise CorpusError(f"document {doc_id} not in corpus")
    return index[doc_id]


def _shots(entries, setting):
    return prompting.build_shots(entries) if prompting.setting_has_shots(setting) else None


def _match_config(args) -> MatchConfig:
    kwargs = {}
    if args.threshold is not None:
        kwargs["jaccard_threshold"] = args.threshold
    if args.aliases:
        return MatchConfig.with_aliases(args.aliases, **kwargs)
    return MatchConfig(**kwargs)


def _check_backend_flags(args) -> None:
    """Reject a usage error in the backend flags, before any file is read."""
    if args.backend == "replay":
        if args.record:
            raise UsageError("--record does not apply to the replay backend")
        if not args.cache:
            raise UsageError("replay backend requires --cache")
    elif args.record and not args.cache:
        raise UsageError("--record requires --cache")
    elif args.cache and not args.record:
        raise UsageError(f"--cache with the {args.backend} backend requires --record")


def _make_backend(args, entries):
    """The backend of flags that ``_check_backend_flags`` accepted, bare but
    for a replay or ``--record``; the command closes it when it ends."""
    if args.backend == "replay":
        return TranscriptCache(args.cache)
    inner = (OracleBackend(corpus.corpus_index(entries)) if args.backend == "oracle"
             else LiveBackend(args.endpoint, args.model_name))
    return TranscriptCache(args.cache, inner) if args.record else inner


def _add_backend_flags(parser):
    parser.add_argument("--backend", default="oracle",
                        choices=["oracle", "replay", "live"])
    parser.add_argument("--cache", help="transcript cache path (JSON lines)")
    parser.add_argument("--record", action="store_true",
                        help="serve hits from --cache and record the misses")
    parser.add_argument("--endpoint", default="https://api.openai.com/v1",
                        help="live backend base URL")
    parser.add_argument("--model-name", default="davinci",
                        help="live backend model name")


def _threshold(text: str) -> float:
    """A Jaccard match threshold: a number in (0, 1]. At 0 or below every
    pair of phrases would match, since a pair matches at ``score >= threshold``."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not 0 < value <= 1:  # also NaN
        raise argparse.ArgumentTypeError(f"must be a number in (0, 1], got {text!r}")
    return value


def _settings(text: str) -> list[str]:
    """Comma-separated settings, each known and given once, or ``all``."""
    if text == "all":
        return list(prompting.SETTINGS)
    settings = [s.strip() for s in text.split(",")]
    for i, s in enumerate(settings):
        if s not in prompting.SETTINGS:
            raise argparse.ArgumentTypeError(f"unknown setting: {s}")
        if s in settings[:i]:
            raise argparse.ArgumentTypeError(f"setting given twice: {s}")
    return settings


def _add_match_flags(parser):
    parser.add_argument("--threshold", type=_threshold,
                        help="Jaccard match threshold in (0, 1] (default 0.5)")
    parser.add_argument("--aliases", help="reviewed alias map (JSON file)")


def build_parser() -> _Parser:
    parser = _Parser(prog="pex", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("import", help="convert raw annotations to canonical corpus")
    p.add_argument("--raw", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("prompt", help="print one rendered prompt")
    p.add_argument("--question", required=True, choices=list(prompting.QUESTION_KINDS))
    p.add_argument("--setting", required=True, choices=list(prompting.SETTINGS))
    p.add_argument("--doc", required=True)
    p.add_argument("--corpus")
    p.add_argument("--x", help="binding for placeholder X")
    p.add_argument("--y", help="binding for placeholder Y")

    p = sub.add_parser("extract", help="run the question dialogue for one document")
    p.add_argument("--corpus")
    p.add_argument("--doc", required=True)
    p.add_argument("--setting", required=True, choices=list(prompting.SETTINGS))
    p.add_argument("--activity-source", default=pipeline.EXTRACTED,
                   choices=[pipeline.EXTRACTED, pipeline.GOLD_INJECTED])
    p.add_argument("--out", required=True, help="world model output path")
    p.add_argument("--dot", help="optional dot export path")
    _add_backend_flags(p)

    p = sub.add_parser("evaluate", help="score a saved world model")
    p.add_argument("--corpus")
    p.add_argument("--doc", required=True)
    p.add_argument("--model", required=True, help="world model JSON path")
    p.add_argument("--mode", default=evaluation.EX,
                   choices=[evaluation.GS, evaluation.EX])
    p.add_argument("--out-csv")
    p.add_argument("--out-json")
    _add_match_flags(p)

    p = sub.add_parser("run-suite", help="extract+evaluate all documents x settings")
    p.add_argument("--corpus")
    p.add_argument("--settings", type=_settings, default="all",
                   help="comma-separated settings, or 'all'")
    p.add_argument("--outdir", required=True)
    _add_backend_flags(p)
    _add_match_flags(p)
    return parser


def cmd_import(args) -> int:
    records = corpus.import_raw(args.raw)
    atomic_write(args.out, json.dumps(records, indent=2) + "\n")
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def cmd_prompt(args) -> int:
    entries = _load_entries(args.corpus)
    doc, _ = _find_doc(entries, args.doc)
    prompt = prompting.render(args.question, args.setting, doc,
                              x=args.x, y=args.y, shots=_shots(entries, args.setting))
    sys.stdout.write(prompt.text)
    return EXIT_OK


def cmd_extract(args) -> int:
    _check_backend_flags(args)
    entries = _load_entries(args.corpus)
    doc, gold = _find_doc(entries, args.doc)
    with closing(_make_backend(args, entries)) as backend:
        run = pipeline.extract(doc, args.setting, backend, gold=gold,
                               activity_source=args.activity_source,
                               shots=_shots(entries, args.setting))
    atomic_write(args.out, run.model.to_json())
    if args.dot:
        atomic_write(args.dot, run.model.to_dot())
    print(f"extracted {len(run.model.activities)} activities, "
          f"{len(run.model.participants)} participants, "
          f"{len(run.model.follows)} follows, {len(run.model.performs)} performs "
          f"({run.counters['q1']} Q1 / {run.counters['q2']} Q2 / "
          f"{run.counters['q3']} Q3 queries, {run.unknown_q3} unknown Q3 answers)")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    entries = _load_entries(args.corpus)
    _, gold = _find_doc(entries, args.doc)
    model = WorldModel.from_dict(corpus.read_json(args.model, "world model", ModelError))
    if model.doc_id != args.doc:
        raise ModelError(f"world model {args.model} is of document {model.doc_id}, "
                         f"not {args.doc}")
    cfg = _match_config(args)
    kwargs = {"ex_model": model} if args.mode == evaluation.EX else {"gs_model": model}
    rows = evaluation.evaluate_document(gold, cfg=cfg, **kwargs)
    report = {"-": {args.doc: rows}}
    table = evaluation.report_rows(report, ["-"])
    sys.stdout.write(evaluation.render_table(table, "text"))
    if args.out_csv:
        atomic_write(args.out_csv, evaluation.render_table(table, "csv"))
    if args.out_json:
        atomic_write(args.out_json, evaluation.report_json(report, ["-"]))
    return EXIT_OK


def cmd_run_suite(args) -> int:
    _check_backend_flags(args)
    entries = _load_entries(args.corpus)
    with closing(_make_backend(args, entries)) as backend:
        cfg = _match_config(args)
        rows = run_suite(entries, args.settings, backend, args.outdir, cfg=cfg)
    sys.stdout.write(evaluation.render_table(rows, "text"))
    return EXIT_OK


COMMANDS = {
    "import": cmd_import,
    "prompt": cmd_prompt,
    "extract": cmd_extract,
    "evaluate": cmd_evaluate,
    "run-suite": cmd_run_suite,
}


def _resumes(args) -> str:
    return (f"the answers recorded so far stay in {args.cache}; "
            f"re-running the same command resumes")


def _aborted(args, exc: pipeline.ExtractionAborted) -> str:
    """The one line of a command that ``exc`` ended."""
    run = exc.run
    line = (f"backend error: {exc}; stopped at document {run.doc_id}, setting "
            f"{run.setting}, activity source {run.activity_source}")
    if args.command == "run-suite":
        line += (f"; the models of any jobs before it are in "
                 f"{Path(args.outdir, 'models')}, and no report was written")
    return f"{line}; {_resumes(args)}" if args.record else line


def main(argv=None) -> int:
    args = None  # until parsed: a usage error or Ctrl-C may come first
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                            format="%(levelname)s %(name)s: %(message)s")
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except pipeline.ExtractionAborted as exc:
        print(_aborted(args, exc), file=sys.stderr)
        return EXIT_BACKEND
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except KeyboardInterrupt:
        record = getattr(args, "record", False)
        print(f"interrupted: {_resumes(args)}" if record else "interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except PexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
