"""Documents, gold standards, and the bundled fixture corpus.

A corpus file is a JSON list of records::

    {"id": "...", "body": "...",
     "gold": {"activities": [{"surface": "...", "index": 0}],
              "participants": ["..."],
              "performs": [[p, a]],
              "follows": [[a1, a2]]}}

An activity's ``index`` is where its surface starts in the body; the
loader reads only the ``surface``. The bundled fixture holds the seven
evaluation documents plus the two shot documents used for few-shot
prompting.
"""
from __future__ import annotations

import json
from collections import defaultdict
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .errors import CorpusError, ModelError, PexError
from .worldmodel import follows_pairs, index_pairs, phrases

EVALUATION_IDS = ("1.2", "1.3", "3.3", "5.2", "10.1", "10.6", "10.13")
SHOT_IDS = ("2.2", "10.9")


class Document(NamedTuple):
    id: str
    body: str


class GoldStandard(NamedTuple):
    doc_id: str
    activities: tuple[str, ...]
    participants: tuple[str, ...]
    performs: frozenset[tuple[int, int]]
    follows: frozenset[tuple[int, int]]

    def validate(self) -> None:
        """Check each field, as the list a file holds, with the ``worldmodel``
        function that keeps its rule for a ``WorldModel`` too (``phrases``,
        ``index_pairs``, ``follows_pairs``); a break is a ``CorpusError`` naming the document."""
        na = len(self.activities)
        try:
            phrases(list(self.activities), "activity")
            phrases(list(self.participants), "participant")
            index_pairs(list(self.performs), "performs",
                        ("participant", len(self.participants)), ("activity", na))
            follows_pairs(list(self.follows), na)
        except ModelError as exc:
            raise CorpusError(f"document {self.doc_id}: {exc}") from exc

    def performers(self, activity: int) -> list[str]:
        """The participants performing activity index ``activity``, in
        participant order."""
        return [self.participants[p] for p, a in sorted(self.performs) if a == activity]


class RawBehaviorGraph(NamedTuple):
    """Behavioral annotation before gateway elision: nodes tagged by kind."""

    kinds: dict  # node id -> kind; "activity" or anything else (gateway, condition, ...)
    edges: tuple  # directed (src, dst) node-id pairs

    def validate(self) -> None:
        for src, dst in self.edges:
            if src not in self.kinds or dst not in self.kinds:
                raise CorpusError(f"behavior graph edge ({src}, {dst}) has unknown endpoint")


def derive_follows(graph: RawBehaviorGraph) -> set[tuple[object, object]]:
    """Directly-follows pairs between activity nodes, eliding non-activity nodes.

    (a, b) is emitted iff a directed path a -> ... -> b exists whose interior
    nodes are all non-activity; cycles through non-activity nodes terminate via
    the visited set. The result is irreflexive.
    """
    graph.validate()
    succ = defaultdict(list)
    for src, dst in graph.edges:
        succ[src].append(dst)
    result = set()
    for node, kind in graph.kinds.items():
        if kind != "activity":
            continue
        stack = list(succ[node])
        seen = set()
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            if graph.kinds[cur] == "activity":
                if cur != node:
                    result.add((node, cur))
            else:
                stack.extend(succ[cur])
    return result


def _gold_list(gold: dict, name: str) -> list:
    value = gold[name]
    if not isinstance(value, list):
        raise CorpusError(f"malformed corpus record: gold {name} is a "
                          f"{type(value).__name__}, not a list")
    return value


def _parse_record(rec: dict) -> tuple[Document, GoldStandard]:
    try:
        doc_id = rec["id"]
        body = rec["body"]
        gold = rec["gold"]
        activities = tuple(a["surface"] for a in _gold_list(gold, "activities"))
        participants = tuple(_gold_list(gold, "participants"))
        performs = frozenset(map(tuple, _gold_list(gold, "performs")))
        follows = frozenset(map(tuple, _gold_list(gold, "follows")))
    except (KeyError, TypeError) as exc:
        raise CorpusError(f"malformed corpus record: {exc}") from exc
    for text in (doc_id, body, *participants, *activities):
        if not isinstance(text, str):
            raise CorpusError(f"malformed corpus record: {text!r} is not a string")
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate, which json.loads accepts
            raise CorpusError(f"malformed corpus record: {text!r} is not UTF-8 text") from exc
    if not doc_id.strip():
        raise CorpusError(f"malformed corpus record: blank document id {doc_id!r}")
    if not body.strip():
        raise CorpusError(f"document {doc_id}: blank body")
    gs = GoldStandard(doc_id, activities, participants, performs, follows)
    gs.validate()
    return Document(doc_id, body), gs


def read_json(path, what: str, error: type[PexError]):
    """Parse the JSON file at ``path``, named ``what`` in the ``error`` raised
    when it is missing, unreadable, not UTF-8, not JSON or nested too deep."""
    path = Path(path)
    if not path.exists():
        raise error(f"{what} not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:  # also a UnicodeDecodeError
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


def load_corpus(path) -> list[tuple[Document, GoldStandard]]:
    """Load and validate a canonical corpus file."""
    return _parse_records(read_json(path, "corpus file", CorpusError))


def _parse_records(records) -> list[tuple[Document, GoldStandard]]:
    if not isinstance(records, list):
        raise CorpusError("corpus file must hold a JSON list of records")
    out = []
    seen = set()
    for rec in records:
        doc, gs = _parse_record(rec)
        if doc.id in seen:
            raise CorpusError(f"duplicate document id {doc.id}")
        seen.add(doc.id)
        out.append((doc, gs))
    return out


def default_corpus() -> list[tuple[Document, GoldStandard]]:
    """The bundled fixture corpus (seven evaluation documents + two shots)."""
    text = resources.files("pexkit.data").joinpath("corpus.json").read_text("utf-8")
    return _parse_records(json.loads(text))


def corpus_index(entries) -> dict[str, tuple[Document, GoldStandard]]:
    return {doc.id: (doc, gs) for doc, gs in entries}


def _select(entries, ids, kind: str) -> list[tuple[Document, GoldStandard]]:
    """The entries of the documents ``ids``, in that order."""
    index = corpus_index(entries)
    missing = [i for i in ids if i not in index]
    if missing:
        raise CorpusError(f"{kind} documents missing from corpus: {missing}")
    return [index[i] for i in ids]


def shot_documents(entries) -> list[tuple[Document, GoldStandard]]:
    """The two few-shot sample documents, in prompt order."""
    return _select(entries, SHOT_IDS, "shot")


def evaluation_documents(entries) -> list[tuple[Document, GoldStandard]]:
    """The seven evaluation documents, in fixed report order."""
    return _select(entries, EVALUATION_IDS, "evaluation")


def import_raw(path) -> list[dict]:
    """Convert a raw annotation export into canonical corpus records.

    The raw file is a JSON list of records shaped like the canonical format
    except that ``follows`` is replaced by a behavior graph::

        {"id", "body", "gold": {activities, participants, performs},
         "graph": {"nodes": [{"id", "kind", "activity": <index, activity nodes only>}],
                   "edges": [[src, dst]]}}

    The directly-follows relation is derived by eliding non-activity nodes.
    """
    records = read_json(path, "raw annotation file", CorpusError)
    if not isinstance(records, list):
        raise CorpusError("raw annotation file must hold a JSON list of records")
    out = []
    for rec in records:
        try:
            graph_spec = rec["graph"]
            kinds = {n["id"]: n["kind"] for n in graph_spec["nodes"]}
            act_index = {n["id"]: n["activity"] for n in graph_spec["nodes"]
                         if n["kind"] == "activity"}
            graph = RawBehaviorGraph(kinds, tuple((s, d) for s, d in graph_spec["edges"]))
            follows = sorted((act_index[a], act_index[b]) for a, b in derive_follows(graph))
            canonical = {
                "id": rec["id"],
                "body": rec["body"],
                "gold": {**rec["gold"], "follows": [list(p) for p in follows]},
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"malformed raw record: {exc}") from exc
        _parse_record(canonical)  # validate before emitting
        out.append(canonical)
    return out
