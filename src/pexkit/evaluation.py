"""Scoring of world models against gold standards.

Implements semantic phrase matching (normalization + containment/Jaccard +
reviewed aliases), greedy one-to-one alignment, per-element precision /
recall / F1, relation scoring in gold-seeded (gs) and extracted (ex)
modes, and macro averaging across documents.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from .corpus import GoldStandard
from .errors import PexError
from .worldmodel import WorldModel

GS = "gs"
EX = "ex"

ROWS = ("Activity", "Participant", "Follows (gs)", "Follows (ex)",
        "Performs (gs)", "Performs (ex)")

STOPWORDS = frozenset({"the", "a", "an", "to", "of", "its", "their", "is", "be"})

_PUNCT = re.compile(r"[^\w\s]")


@dataclass(frozen=True)
class MatchConfig:
    jaccard_threshold: float = 0.5
    aliases: dict = field(default_factory=dict)  # extracted phrase -> [gold phrases]

    @classmethod
    def with_aliases(cls, path, **kwargs) -> "MatchConfig":
        """Load the reviewed alias map from a JSON file."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise PexError(f"cannot read alias map {path}: {exc.strerror}") from exc
        except (ValueError, RecursionError) as exc:  # also a UnicodeDecodeError
            raise PexError(f"alias map {path} is not valid JSON: {exc}") from exc
        if not (isinstance(data, dict) and all(
                isinstance(golds, list) and all(isinstance(g, str) for g in golds)
                for golds in data.values())):
            raise PexError(f"alias map {path} must map phrases to lists of gold phrases")
        return cls(aliases=data, **kwargs)


def normalize(phrase: str) -> frozenset:
    """Token set: lowercased, punctuation-free, free of ``STOPWORDS``, and
    de-pluralized (a final ``s`` cut off a token of four or more letters)."""
    tokens = _PUNCT.sub(" ", phrase.lower()).split()
    return frozenset(t[:-1] if len(t) > 3 and t.endswith("s") else t
                     for t in tokens if t not in STOPWORDS)


def _jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def match_phrase(extracted: str, gold: str,
                 cfg: MatchConfig = MatchConfig()) -> tuple[bool, float]:
    """Semantic match verdict and score for one extracted/gold phrase pair."""
    return _judge(extracted, gold, normalize(extracted), normalize(gold), cfg)


def _judge(extracted: str, gold: str, ea: frozenset, ga: frozenset,
           cfg: MatchConfig) -> tuple[bool, float]:
    """``match_phrase``'s verdict, given both phrases' normalized token sets."""
    if gold in cfg.aliases.get(extracted, ()):
        return True, 1.0
    score = _jaccard(ea, ga)
    if ea and ga and (ea <= ga or ga <= ea):
        return True, score
    return score >= cfg.jaccard_threshold, score


def align(extracted: list, gold: list,
          cfg: MatchConfig = MatchConfig()) -> dict[int, int]:
    """Greedy highest-score-first one-to-one pairing, extracted index -> gold index.

    Each pair is judged as ``match_phrase`` judges it; each phrase is
    normalized once.
    """
    extracted_tokens = [normalize(e) for e in extracted]
    candidates = []
    for gi, g in enumerate(gold):
        ga = normalize(g)
        for ei, e in enumerate(extracted):
            matched, score = _judge(e, g, extracted_tokens[ei], ga, cfg)
            if matched:
                candidates.append((-score, gi, ei))
    candidates.sort()
    pairing: dict[int, int] = {}
    used_gold: set[int] = set()
    for _neg, gi, ei in candidates:
        if gi in used_gold or ei in pairing:
            continue
        pairing[ei] = gi
        used_gold.add(gi)
    return pairing


@dataclass(frozen=True)
class ElementScores:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "ElementScores":
        if tp + fp == 0:
            precision = 1.0 if fn == 0 else 0.0
        else:
            precision = tp / (tp + fp)
        if tp + fn == 0:
            recall = 1.0 if fp == 0 else 0.0
        else:
            recall = tp / (tp + fn)
        f1 = f1_score(precision, recall)
        return cls(tp, fp, fn, precision, recall, f1)


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def score_elements(extracted: list, gold: list,
                   cfg: MatchConfig = MatchConfig()) -> ElementScores:
    pairing = align(extracted, gold, cfg)
    tp = len(pairing)
    return ElementScores.from_counts(tp, len(extracted) - tp, len(gold) - tp)


def _score_edges(predicted, gold_edges, src_map, dst_map) -> ElementScores:
    """Generic edge scorer: endpoints mapped to gold space, orientation kept."""
    matched_gold = set()
    tp = 0
    for a, b in predicted:
        if a in src_map and b in dst_map:
            edge = (src_map[a], dst_map[b])
            if edge in gold_edges:
                tp += 1
                matched_gold.add(edge)
                continue
        # unmatched endpoint or edge absent from gold: false positive
    fp = len(predicted) - tp
    fn = len(gold_edges - matched_gold)
    return ElementScores.from_counts(tp, fp, fn)


def _activity_map(model: WorldModel, gold: GoldStandard, mode: str,
                  cfg: MatchConfig) -> dict[int, int]:
    if mode == GS:
        if len(model.activities) != len(gold.activities):
            raise PexError(
                f"gs-mode scoring for {gold.doc_id} requires a gold-injected run "
                f"({len(model.activities)} model activities, "
                f"{len(gold.activities)} gold)")
        return {i: i for i in range(len(gold.activities))}
    if mode == EX:
        return align(model.activities, gold.activities, cfg)
    raise PexError(f"unknown relation mode: {mode}")


def score_follows(model: WorldModel, gold: GoldStandard, mode: str,
                  cfg: MatchConfig = MatchConfig()) -> ElementScores:
    amap = _activity_map(model, gold, mode, cfg)
    return _score_edges(model.follows, set(gold.follows), amap, amap)


def score_performs(model: WorldModel, gold: GoldStandard, mode: str,
                   cfg: MatchConfig = MatchConfig()) -> ElementScores:
    amap = _activity_map(model, gold, mode, cfg)
    pmap = align(model.participants, list(gold.participants), cfg)
    return _score_edges(model.performs, set(gold.performs), pmap, amap)


def evaluate_document(gold: GoldStandard, ex_model: WorldModel | None = None,
                      gs_model: WorldModel | None = None,
                      cfg: MatchConfig = MatchConfig()) -> dict[str, ElementScores]:
    """Score the six report rows for one document.

    Activity, Participant, and the (ex) relation rows come from the
    extracted-activities run; the (gs) rows from the gold-injected run.
    Rows whose source model is absent are omitted.
    """
    rows: dict[str, ElementScores] = {}
    if ex_model is not None:
        rows["Activity"] = score_elements(
            ex_model.activities, gold.activities, cfg)
        rows["Participant"] = score_elements(
            ex_model.participants, list(gold.participants), cfg)
        rows["Follows (ex)"] = score_follows(ex_model, gold, EX, cfg)
        rows["Performs (ex)"] = score_performs(ex_model, gold, EX, cfg)
    if gs_model is not None:
        rows["Follows (gs)"] = score_follows(gs_model, gold, GS, cfg)
        rows["Performs (gs)"] = score_performs(gs_model, gold, GS, cfg)
    return rows


def macro_average(per_doc: list[dict[str, ElementScores]]) -> dict[str, tuple]:
    """Arithmetic mean of P, R, F1 per row across documents."""
    if not per_doc:
        raise PexError("macro average of an empty report")
    out = {}
    for row in per_doc[0]:
        scores = [d[row] for d in per_doc if row in d]
        out[row] = (
            sum(s.precision for s in scores) / len(scores),
            sum(s.recall for s in scores) / len(scores),
            sum(s.f1 for s in scores) / len(scores),
        )
    return out


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def round2(value: float) -> float:
    """Half-up rounding to two decimals, applied only at render time."""
    return float(Decimal(repr(value)).quantize(Decimal("0.01"), ROUND_HALF_UP))


def fmt2(value: float) -> str:
    return f"{round2(value):.2f}"


def report_rows(report: dict, settings: list[str]) -> list[list[str]]:
    """Flatten a suite report into CSV-shaped rows.

    ``report`` maps setting -> doc_id -> row -> ElementScores; the Average
    block averages the 2-decimal rendered per-document values, matching how
    the reference result table is assembled.
    """
    header = ["doc", "element"]
    for setting in settings:
        header += [f"{setting}_prec", f"{setting}_rec", f"{setting}_f1"]
    lines = [header]
    doc_ids = list(next(iter(report.values())).keys())
    present = [row for row in ROWS
               if all(row in report[s][d] for s in settings for d in doc_ids)]
    for doc_id in doc_ids:
        for row in present:
            line = [doc_id, row]
            for setting in settings:
                s = report[setting][doc_id][row]
                line += [fmt2(s.precision), fmt2(s.recall), fmt2(s.f1)]
            lines.append(line)
    for row in present:
        line = ["Average", row]
        for setting in settings:
            scores = [report[setting][d][row] for d in doc_ids]
            line += [fmt2(mean(round2(s.precision) for s in scores)),
                     fmt2(mean(round2(s.recall) for s in scores)),
                     fmt2(mean(round2(s.f1) for s in scores))]
        lines.append(line)
    return lines


def render_table(report: dict, settings: list[str], layout: str = "text") -> str:
    rows = report_rows(report, settings)
    if layout == "csv":
        return "\n".join(",".join(line) for line in rows) + "\n"
    if layout == "text":
        widths = [max(len(line[i]) for line in rows) for i in range(len(rows[0]))]
        return "\n".join(
            "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
            for line in rows) + "\n"
    raise PexError(f"unknown table layout: {layout}")


def report_to_dict(report: dict, settings: list[str]) -> dict:
    """JSON-ready structure with full-precision scores."""
    out = {}
    for setting in settings:
        out[setting] = {}
        for doc_id, rows in report[setting].items():
            out[setting][doc_id] = {
                row: {"tp": s.tp, "fp": s.fp, "fn": s.fn,
                      "precision": s.precision, "recall": s.recall, "f1": s.f1}
                for row, s in rows.items()}
        avg = macro_average(list(report[setting].values()))
        out[setting]["macro_average"] = {
            row: {"precision": p, "recall": r, "f1": f}
            for row, (p, r, f) in avg.items()}
    return out
