"""Command-line entry point.

Subcommands: ``import`` (raw annotations -> canonical corpus), ``prompt``
(dump a rendered prompt), ``extract`` (run the dialogue for one document),
``evaluate`` (score a saved world model), ``run-suite`` (all documents x
settings plus the result table).

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 backend error.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import corpus, evaluation, pipeline, prompting
from .backend import CachedBackend, LiveBackend, OracleBackend, TranscriptCache
from .errors import BackendError, CorpusError, ModelError, PexError, PromptError
from .evaluation import MatchConfig
from .suite import atomic_write, run_suite
from .worldmodel import WorldModel

log = logging.getLogger("pexkit")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3


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


def _make_backend(args, entries):
    if args.backend == "replay":
        if not args.cache:
            raise UsageError("replay backend requires --cache")
        return CachedBackend(TranscriptCache(args.cache))
    if args.record and not args.cache:
        raise UsageError("--record requires --cache")
    if args.cache and not args.record:
        raise UsageError(f"--cache with the {args.backend} backend requires --record")
    if args.backend == "oracle":
        backend = OracleBackend(corpus.corpus_index(entries))
    else:
        backend = LiveBackend(args.endpoint, args.model_name)
    if args.record:
        backend = CachedBackend(TranscriptCache(args.cache), backend)
    return backend


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


def _add_match_flags(parser):
    parser.add_argument("--threshold", type=float,
                        help="Jaccard match threshold (default 0.5)")
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
    p.add_argument("--settings", default="all",
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
    entries = _load_entries(args.corpus)
    doc, gold = _find_doc(entries, args.doc)
    backend = _make_backend(args, entries)
    run = pipeline.extract(doc, args.setting, backend, gold=gold,
                           activity_source=args.activity_source,
                           shots=_shots(entries, args.setting))
    for t in run.transcripts:
        log.debug("issued %s prompt %s", t["question"], t["digest"])
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
    try:
        text = Path(args.model).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelError(f"cannot read world model {args.model}: {exc}") from exc
    model = WorldModel.from_json(text)
    cfg = _match_config(args)
    kwargs = {"ex_model": model} if args.mode == evaluation.EX else {"gs_model": model}
    rows = evaluation.evaluate_document(gold, cfg=cfg, **kwargs)
    report = {"-": {args.doc: rows}}
    text = evaluation.render_table(report, ["-"], "text")
    sys.stdout.write(text)
    if args.out_csv:
        atomic_write(args.out_csv, evaluation.render_table(report, ["-"], "csv"))
    if args.out_json:
        atomic_write(args.out_json,
                     json.dumps(evaluation.report_to_dict(report, ["-"]),
                                indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_run_suite(args) -> int:
    entries = _load_entries(args.corpus)
    settings = (list(prompting.SETTINGS) if args.settings == "all"
                else [s.strip() for s in args.settings.split(",")])
    for s in settings:
        if s not in prompting.SETTINGS:
            raise UsageError(f"unknown setting: {s}")
    backend = _make_backend(args, entries)
    cfg = _match_config(args)
    report = run_suite(entries, settings, backend, args.outdir, cfg=cfg)
    sys.stdout.write(evaluation.render_table(report, settings, "text"))
    return EXIT_OK


COMMANDS = {
    "import": cmd_import,
    "prompt": cmd_prompt,
    "extract": cmd_extract,
    "evaluate": cmd_evaluate,
    "run-suite": cmd_run_suite,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (CorpusError, ModelError, PromptError, PexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
