"""Drive extract + evaluate for all evaluation documents and settings."""
from __future__ import annotations

import json
import os
from contextlib import closing, suppress
from pathlib import Path

from . import corpus, evaluation, pipeline, prompting
from .errors import PexError
from .evaluation import MatchConfig


def atomic_write(path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as exc:
        with suppress(OSError):
            tmp.unlink()
        raise PexError(f"cannot write {path}: {exc.strerror}") from exc


def run_suite(entries, settings, backend, outdir,
              cfg: MatchConfig = MatchConfig()) -> dict:
    """Extract every document under every setting (both activity sources),
    score the six report rows, and write models plus CSV/JSON reports.

    Each (setting, document) pair is one job of ``pipeline.schedule``: its
    ex run, then its gs run. Jobs overlap up to ``backend.max_concurrency``,
    and their results are scored and written in job order, so every file
    equals a sequential run's. ``pipeline.schedule`` keeps the answers of
    the whole suite and asks ``backend`` each distinct prompt once, so the
    gs run reuses the ex run's answers wherever their questions agree.

    Returns the report mapping setting -> doc_id -> row -> ElementScores.
    """
    docs = corpus.evaluation_documents(entries)
    # Known defect: shots come from the bundled corpus, not from ``entries``;
    # fixing it changes every shot prompt of a ``--corpus`` run, so it waits.
    shots = prompting.build_shots(corpus.default_corpus())
    outdir = Path(outdir)
    models_dir = outdir / "models"

    def both_runs(doc, setting, gold):
        ex_run = yield from pipeline.dialogue(doc, setting, gold, pipeline.EXTRACTED, shots)
        gs_run = yield from pipeline.dialogue(doc, setting, gold, pipeline.GOLD_INJECTED, shots)
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

    atomic_write(outdir / "report.csv",
                 evaluation.render_table(report, list(settings), "csv"))
    atomic_write(outdir / "report.json",
                 json.dumps(evaluation.report_to_dict(report, list(settings)),
                            indent=2, sort_keys=True) + "\n")
    return report
