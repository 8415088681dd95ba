"""Drive extract + evaluate for all evaluation documents and settings."""
from __future__ import annotations

import os
import threading
from contextlib import closing, suppress
from pathlib import Path

from . import corpus, evaluation, pipeline, prompting
from .errors import PexError
from .evaluation import MatchConfig


def atomic_write(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, whole or not at all: it is written
    to a temp file beside ``path``, named for this process and thread, so two
    writers of one path never share one, then moved over ``path``. The
    parent directory is made only when the first write finds it missing, so
    a suite's many files into one directory cost no ``mkdir`` each. Any
    exception removes the temp file; an ``OSError`` becomes ``PexError``."""
    path = Path(path)
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        try:
            file = open(tmp, "w", encoding="utf-8")
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            file = open(tmp, "w", encoding="utf-8")
        with file:
            file.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise PexError(f"cannot write {path}: {exc.strerror}") from exc
        raise


def run_suite(entries, settings, backend, outdir,
              cfg: MatchConfig = MatchConfig()) -> list[list[str]]:
    """Extract every document under every setting (both activity sources),
    score the six report rows, and write models plus CSV/JSON reports.

    Each (setting, document) pair is one job of ``pipeline.schedule``: its
    ex run, then its gs run, given only the gold activities. Jobs overlap up
    to ``backend.max_concurrency``, and their results are scored and written
    in job order, so every file equals a sequential run's.
    ``pipeline.schedule`` keeps the answers of the whole suite and asks
    ``backend`` each distinct prompt once, so the gs run reuses the ex run's
    answers wherever their questions agree. A job also keeps one render memo
    for its two dialogues: the ex run stores its prompts there, and the gs
    run takes the ex run's prompt, head and digest included, for each
    question they share and stores nothing, so each job renders and hashes
    each distinct question once. The memo dies with its job.

    Each file goes through ``atomic_write``, which makes ``outdir`` and
    ``outdir/models`` on their first write. ``report.json`` is written by
    ``evaluation.report_json`` (the bytes of ``json.dumps`` at ``indent=2``
    with sorted keys), and ``report.csv`` by ``render_table``.

    Returns the report's table, as ``evaluation.report_rows`` builds it once
    for ``report.csv``, for ``render_table`` to lay out again.
    """
    docs = corpus.evaluation_documents(entries)
    # Known defect: shots come from the bundled corpus, not from ``entries``;
    # fixing it changes every shot prompt of a ``--corpus`` run, so it waits.
    shots = prompting.build_shots(corpus.default_corpus())
    outdir = Path(outdir)
    models_dir = outdir / "models"

    def both_runs(doc, setting, gold):
        prompts: dict = {}  # the job's render memo, which dies with it
        ex_run = yield from pipeline.dialogue(doc, setting, shots, gold_activities=None,
                                              prompts=prompts)
        gs_run = yield from pipeline.dialogue(doc, setting, shots,
                                              gold_activities=gold.activities, prompts=prompts)
        return ex_run, gs_run

    jobs = [(setting, doc, gold) for setting in settings for doc, gold in docs]
    report: dict = {setting: {} for setting in settings}
    results = pipeline.schedule((both_runs(doc, setting, gold) for setting, doc, gold in jobs),
                                backend)
    with closing(results):
        for (setting, doc, gold), (ex_run, gs_run) in zip(jobs, results):
            for run in (ex_run, gs_run):
                name = f"{doc.id}_{setting}_{run.activity_source}.json"
                atomic_write(models_dir / name, run.model.to_json())
            report[setting][doc.id] = evaluation.evaluate_document(
                gold, ex_model=ex_run.model, gs_model=gs_run.model, cfg=cfg)

    rows = evaluation.report_rows(report)
    atomic_write(outdir / "report.csv", evaluation.render_table(rows, "csv"))
    atomic_write(outdir / "report.json", evaluation.report_json(report))
    return rows
