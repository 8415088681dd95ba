"""Scoring of world models against gold standards.

Implements semantic phrase matching (normalization + containment/Jaccard +
reviewed aliases), greedy one-to-one alignment, per-element precision /
recall / F1, relation scoring in gold-seeded (gs) and extracted (ex)
modes, and macro averaging across documents.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from json.encoder import encode_basestring_ascii as _json_string

from .corpus import GoldStandard, read_json
from .errors import PexError
from .worldmodel import WorldModel, _json_block, normalize_key

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
        data = read_json(path, "alias map", PexError)
        if not (isinstance(data, dict) and all(
                isinstance(golds, list) and all(isinstance(g, str) for g in golds)
                for golds in data.values())):
            raise PexError(f"alias map {path} must map phrases to lists of gold phrases")
        return cls(aliases=data, **kwargs)


@functools.lru_cache(maxsize=4096)
def normalize(phrase: str) -> frozenset:
    """Token set: lowercased, punctuation-free, free of ``STOPWORDS``, and
    de-pluralized (a final ``s`` cut off a token of four or more letters).

    Memoized, bounded, as ``normalize_key`` is: a suite scores each gold
    phrase list once per setting and activity source, so most phrases are
    met again. ``__wrapped__`` is the function unmemoized."""
    tokens = _PUNCT.sub(" ", phrase.lower()).split()
    return frozenset(t[:-1] if len(t) > 3 and t.endswith("s") else t
                     for t in tokens if t not in STOPWORDS)


def match_phrase(extracted: str, gold: str,
                 cfg: MatchConfig = MatchConfig()) -> tuple[bool, float]:
    """Semantic match verdict and score for one extracted/gold phrase pair."""
    return _judge(extracted, gold, normalize(extracted), normalize(gold), cfg)


def _judge(extracted: str, gold: str, ea: frozenset, ga: frozenset,
           cfg: MatchConfig) -> tuple[bool, float]:
    """``match_phrase``'s verdict, given both phrases' normalized token sets."""
    if gold in cfg.aliases.get(extracted, ()):
        return True, 1.0
    shared = len(ea & ga)
    # Jaccard: |ea & ga| / |ea | ga|, 0 for two empty sets.
    score = shared / (len(ea) + len(ga) - shared) if ea or ga else 0.0
    if shared and (shared == len(ea) or shared == len(ga)):  # one set holds the other
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


def evaluate_document(gold: GoldStandard, ex_model: WorldModel | None = None,
                      gs_model: WorldModel | None = None,
                      cfg: MatchConfig = MatchConfig()) -> dict[str, ElementScores]:
    """Score the six report rows for one document.

    Each phrase list is aligned to its gold list once, and every row is
    built from those alignments. The extracted-activities run gives
    Activity, Participant and the (ex) relation rows; the gold-injected
    run, whose activities must be the gold ones (by ``normalize_key``) in
    gold order, gives the (gs) rows. Rows whose source model is absent are
    omitted.
    """
    if gs_model is not None:
        if len(gs_model.activities) != len(gold.activities):
            raise PexError(
                f"gs-mode scoring for {gold.doc_id} requires a gold-injected run "
                f"({len(gs_model.activities)} model activities, "
                f"{len(gold.activities)} gold)")
        for i, (surface, gold_surface) in enumerate(zip(gs_model.activities,
                                                        gold.activities)):
            if normalize_key(surface) != normalize_key(gold_surface):
                raise PexError(
                    f"gs-mode scoring for {gold.doc_id} requires the gold activities "
                    f"in gold order: model activity {i} is {surface!r}, "
                    f"gold {gold_surface!r}")
    follows, performs = set(gold.follows), set(gold.performs)
    rows: dict[str, ElementScores] = {}
    if ex_model is not None:
        amap = align(ex_model.activities, gold.activities, cfg)
        pmap = align(ex_model.participants, gold.participants, cfg)
        for row, pairing, extracted, golds in (
                ("Activity", amap, ex_model.activities, gold.activities),
                ("Participant", pmap, ex_model.participants, gold.participants)):
            tp = len(pairing)
            rows[row] = ElementScores.from_counts(tp, len(extracted) - tp, len(golds) - tp)
        rows["Follows (ex)"] = _score_edges(ex_model.follows, follows, amap, amap)
        rows["Performs (ex)"] = _score_edges(ex_model.performs, performs, pmap, amap)
    if gs_model is not None:
        amap = {i: i for i in range(len(gold.activities))}
        pmap = align(gs_model.participants, gold.participants, cfg)
        rows["Follows (gs)"] = _score_edges(gs_model.follows, follows, amap, amap)
        rows["Performs (gs)"] = _score_edges(gs_model.performs, performs, pmap, amap)
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
    return _round2(repr(value))


@functools.lru_cache(maxsize=4096)
def _round2(text: str) -> float:
    """``round2`` of the number ``text`` spells, memoized by that text (so
    ``0.0`` and ``-0.0`` stay apart): a report renders a few distinct scores
    many times."""
    return float(Decimal(text).quantize(Decimal("0.01"), ROUND_HALF_UP))


def fmt2(value: float) -> str:
    return f"{round2(value):.2f}"


def report_rows(report: dict) -> list[list[str]]:
    """Flatten a suite report into CSV-shaped rows.

    ``report`` maps setting -> doc_id -> row -> ElementScores, in column and
    row order; the Average block averages the 2-decimal rendered per-document
    values, matching how the reference result table is assembled.
    """
    header = ["doc", "element"]
    for setting in report:
        header += [f"{setting}_prec", f"{setting}_rec", f"{setting}_f1"]
    lines = [header]
    doc_ids = list(next(iter(report.values())).keys())
    present = [row for row in ROWS
               if all(row in report[s][d] for s in report for d in doc_ids)]
    for doc_id in doc_ids:
        for row in present:
            line = [doc_id, row]
            for setting in report:
                s = report[setting][doc_id][row]
                line += [fmt2(s.precision), fmt2(s.recall), fmt2(s.f1)]
            lines.append(line)
    for row in present:
        line = ["Average", row]
        for setting in report:
            scores = [report[setting][d][row] for d in doc_ids]
            line += [fmt2(mean(round2(s.precision) for s in scores)),
                     fmt2(mean(round2(s.recall) for s in scores)),
                     fmt2(mean(round2(s.f1) for s in scores))]
        lines.append(line)
    return lines


def render_table(rows: list[list[str]], layout: str = "text") -> str:
    """A report's ``report_rows`` as a table in ``layout``: ``"csv"`` or
    ``"text"``."""
    if layout == "csv":
        return "\n".join(",".join(line) for line in rows) + "\n"
    if layout == "text":
        widths = [max(len(line[i]) for line in rows) for i in range(len(rows[0]))]
        return "\n".join(
            "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
            for line in rows) + "\n"
    raise PexError(f"unknown table layout: {layout}")


def report_to_dict(report: dict) -> dict:
    """``report`` as a JSON-ready structure with full-precision scores."""
    out = {}
    for setting, per_doc in report.items():
        out[setting] = {}
        for doc_id, rows in per_doc.items():
            out[setting][doc_id] = {
                row: {"tp": s.tp, "fp": s.fp, "fn": s.fn,
                      "precision": s.precision, "recall": s.recall, "f1": s.f1}
                for row, s in rows.items()}
        avg = macro_average(list(per_doc.values()))
        out[setting]["macro_average"] = {
            row: {"precision": p, "recall": r, "f1": f}
            for row, (p, r, f) in avg.items()}
    return out


# One row's scores, and one macro-average row, as ``json.dumps`` lays them
# out at ``indent=2`` with sorted keys, at the depth ``report_json`` puts them.
_SCORES = ('{{\n        "f1": {},\n        "fn": {},\n        "fp": {},\n'
           '        "precision": {},\n        "recall": {},\n        "tp": {}\n      }}').format
_AVERAGES = ('{{\n        "f1": {},\n        "precision": {},\n'
             '        "recall": {}\n      }}').format


def report_json(report: dict) -> str:
    """``json.dumps(report_to_dict(report), indent=2, sort_keys=True) +
    "\\n"``, byte for byte, written for the report's fixed shape, as
    ``WorldModel.to_json`` writes a model's: with ``indent``, ``json.dumps``
    takes CPython's pure-Python encoder. Keys sort as strings, so
    ``macro_average`` sorts among the document ids; strings are escaped by the
    C function ``json.dumps`` uses, scores written by ``float.__repr__`` and
    counts by ``int.__repr__``, as ``json.dumps`` writes finite floats and
    ints."""
    def block(items: dict, indent: str) -> str:
        return _json_block("{}", [f"{_json_string(key)}: {text}"
                                  for key, text in sorted(items.items())], indent)

    score, count = float.__repr__, int.__repr__
    out = {}
    for setting, per_doc in report.items():
        docs = {doc_id: block({row: _SCORES(score(s.f1), count(s.fn), count(s.fp),
                                            score(s.precision), score(s.recall),
                                            count(s.tp))
                               for row, s in rows.items()}, "    ")
                for doc_id, rows in per_doc.items()}
        average = macro_average(list(per_doc.values()))
        docs["macro_average"] = block({row: _AVERAGES(score(f1), score(p), score(r))
                                       for row, (p, r, f1) in average.items()}, "    ")
        out[setting] = block(docs, "  ")
    return block(out, "") + "\n"
