import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pexkit import corpus
from pexkit.corpus import RawBehaviorGraph, derive_follows
from pexkit.errors import CorpusError

# word#, activity#, participant#, follow#, perform# per evaluation document
TABLE1 = {
    "1.2": (100, 10, 2, 10, 10),
    "1.3": (162, 11, 5, 11, 12),
    "3.3": (71, 7, 2, 6, 4),
    "5.2": (83, 7, 3, 6, 4),
    "10.1": (29, 4, 2, 4, 4),
    "10.6": (30, 4, 2, 4, 4),
    "10.13": (39, 3, 2, 2, 3),
}


def test_fixture_counts_match_reference_table(index):
    for doc_id, (words, acts, parts, follows, performs) in TABLE1.items():
        doc, gold = index[doc_id]
        assert len(doc.body.split()) == words, doc_id
        assert len(gold.activities) == acts, doc_id
        assert len(gold.participants) == parts, doc_id
        assert len(gold.follows) == follows, doc_id
        assert len(gold.performs) == performs, doc_id


def test_shot_documents(entries):
    shots = corpus.shot_documents(entries)
    assert [doc.id for doc, _ in shots] == ["2.2", "10.9"]
    for _, gold in shots:
        gold.validate()
    assert not set(corpus.SHOT_IDS) & set(TABLE1)


def test_missing_documents_are_named(entries):
    """Each selector names the documents of its kind that a corpus lacks."""
    kept = [(doc, gold) for doc, gold in entries if doc.id not in ("10.9", "1.3", "5.2")]
    with pytest.raises(CorpusError, match=r"^shot documents missing from corpus: \['10.9'\]$"):
        corpus.shot_documents(kept)
    with pytest.raises(CorpusError,
                       match=r"^evaluation documents missing from corpus: \['1.3', '5.2'\]$"):
        corpus.evaluation_documents(kept)


def test_gold_standards_validate(entries):
    for _, gold in entries:
        gold.validate()


def test_load_corpus_roundtrip(tmp_path, entries):
    path = tmp_path / "corpus.json"
    records = json.loads(
        (corpus.resources.files("pexkit.data") / "corpus.json").read_text("utf-8"))
    path.write_text(json.dumps(records))
    loaded = corpus.load_corpus(path)
    assert [d.id for d, _ in loaded] == [d.id for d, _ in entries]


def test_load_corpus_missing_file(tmp_path):
    with pytest.raises(CorpusError, match="not found"):
        corpus.load_corpus(tmp_path / "nope.json")


def test_load_corpus_empty_list(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("[]")
    assert corpus.load_corpus(path) == []


def test_reflexive_follows_rejected(tmp_path):
    rec = [{"id": "x", "body": "a b", "gold": {
        "activities": [{"surface": "a", "index": 0}],
        "participants": [], "performs": [], "follows": [[0, 0]]}}]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(rec))
    with pytest.raises(CorpusError, match="reflexive"):
        corpus.load_corpus(path)


def test_dangling_follows_rejected(tmp_path):
    rec = [{"id": "x", "body": "a b", "gold": {
        "activities": [{"surface": "a", "index": 0}],
        "participants": [], "performs": [], "follows": [[0, 5]]}}]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(rec))
    with pytest.raises(CorpusError, match="undeclared"):
        corpus.load_corpus(path)


# -- derive_follows ---------------------------------------------------------


def graph(kinds, edges):
    return RawBehaviorGraph(kinds, tuple(edges))


def test_single_gateway_elision():
    g = graph({"A": "activity", "g": "gateway", "B": "activity"},
              [("A", "g"), ("g", "B")])
    assert derive_follows(g) == {("A", "B")}


def test_gateway_split():
    g = graph({"A": "activity", "g": "gateway", "B": "activity", "C": "activity"},
              [("A", "g"), ("g", "B"), ("g", "C")])
    assert derive_follows(g) == {("A", "B"), ("A", "C")}


def test_direct_edge():
    g = graph({"A": "activity", "B": "activity"}, [("A", "B")])
    assert derive_follows(g) == {("A", "B")}


def test_gateway_cycle_terminates():
    g = graph({"A": "activity", "g1": "gateway", "g2": "gateway", "B": "activity"},
              [("A", "g1"), ("g1", "g2"), ("g2", "g1"), ("g2", "B")])
    assert derive_follows(g) == {("A", "B")}


def brute_force_follows(g: RawBehaviorGraph):
    """Oracle: enumerate all simple paths, keep activity->activity paths with
    non-activity interiors."""
    succ = {}
    for s, d in g.edges:
        succ.setdefault(s, []).append(d)
    activities = [n for n, k in g.kinds.items() if k == "activity"]
    result = set()

    def walk(start, node, path):
        for nxt in succ.get(node, []):
            if g.kinds[nxt] == "activity":
                if nxt != start:
                    result.add((start, nxt))
            elif nxt not in path:
                walk(start, nxt, path | {nxt})

    for a in activities:
        walk(a, a, frozenset())
    return result


@st.composite
def random_graphs(draw):
    n = draw(st.integers(2, 8))
    kinds = {i: draw(st.sampled_from(["activity", "gateway", "condition"]))
             for i in range(n)}
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=16, unique=True))
    return graph(kinds, edges)


@settings(max_examples=200, deadline=None)
@given(random_graphs())
def test_derive_follows_matches_brute_force(g):
    got = derive_follows(g)
    assert got == brute_force_follows(g)
    for a, b in got:
        assert g.kinds[a] == "activity" and g.kinds[b] == "activity"
        assert a != b


# -- importer ---------------------------------------------------------------


def test_import_raw(tmp_path):
    raw = [{
        "id": "x", "body": "one does two then three",
        "gold": {
            "activities": [{"surface": "does two", "index": 4},
                           {"surface": "three", "index": 18}],
            "participants": ["one"],
            "performs": [[0, 0]],
        },
        "graph": {
            "nodes": [{"id": "n0", "kind": "activity", "activity": 0},
                      {"id": "gw", "kind": "gateway"},
                      {"id": "n1", "kind": "activity", "activity": 1}],
            "edges": [["n0", "gw"], ["gw", "n1"]],
        },
    }]
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(raw))
    records = corpus.import_raw(path)
    assert records[0]["gold"]["follows"] == [[0, 1]]


GOLD = {"activities": [{"surface": "files it", "index": 0}],
        "participants": ["a clerk"], "performs": [[0, 0]], "follows": []}


# Changes to a good record's gold, or to its id or body.
BAD_RECORD = {
    "id-empty": ({"id": ""}, "blank document id ''"),
    "body-spaces": ({"body": "   "}, "document x: blank body"),
    "participants-str": ({"participants": "the customer"}, "participants is a str, not a list"),
    "activities-dict": ({"activities": {}}, "activities is a dict, not a list"),
    "performs-dict": ({"performs": {}}, "performs is a dict, not a list"),
    "follows-dict": ({"follows": {}}, "follows is a dict, not a list"),
    "participant-space": ({"participants": [" "]},
                          "document x: participant phrase ' ' is not a non-empty string"),
    "participant-empty": ({"participants": [""]},
                          "document x: participant phrase '' is not a non-empty string"),
    "activity-whitespace": ({"activities": [{"surface": "\t\n", "index": 0}]},
                            r"document x: activity phrase '\\t\\n' is not a non-empty string"),
    # Phrases that ``WorldModel`` would take for one (one ``normalize_key``).
    "activity-case": ({"activities": [{"surface": "files it", "index": 0},
                                      {"surface": "Files It", "index": 0}]},
                      "document x: duplicate activity phrases 'files it' and 'Files It'"),
    "activity-spacing": ({"activities": [{"surface": "files it", "index": 0},
                                         {"surface": " files  it", "index": 0}]},
                         "document x: duplicate activity phrases 'files it' and ' files  it'"),
    "participant-case": ({"participants": ["a clerk", "the boss", "A CLERK"]},
                         "document x: duplicate participant phrases 'a clerk' and 'A CLERK'"),
}


# A raw record's follows come from its graph, so only the canonical one has them.
@pytest.mark.parametrize("raw, case", [
    pytest.param(raw, case, id=f"{'raw' if raw else 'corpus'}-{case}")
    for raw in (False, True) for case in BAD_RECORD if not (raw and case == "follows-dict")])
def test_gold_fields_must_be_lists_of_non_blank_phrases(tmp_path, raw, case):
    """A blank id or body, a gold field that is not a JSON list, a blank
    phrase, or two phrases of one kind with one ``normalize_key`` is a
    ``CorpusError``, through ``load_corpus`` and ``import_raw`` alike."""
    changes, message = BAD_RECORD[case]
    rec = {"id": "x", "body": "files it", "gold": dict(GOLD)}
    for key, value in changes.items():
        (rec if key in rec else rec["gold"])[key] = value
    if raw:
        del rec["gold"]["follows"]
        rec["graph"] = {"nodes": [{"id": 0, "kind": "activity", "activity": 0}],
                        "edges": []}
    path = tmp_path / "c.json"
    path.write_text(json.dumps([rec]))
    with pytest.raises(CorpusError, match=message):
        (corpus.import_raw if raw else corpus.load_corpus)(path)


def test_a_gold_activity_may_share_its_phrase_with_a_participant(tmp_path):
    rec = {"id": "x", "body": "files it",
           "gold": {**GOLD, "participants": ["files it"]}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps([rec]))
    assert corpus.load_corpus(path)[0][1].participants == ("files it",)
