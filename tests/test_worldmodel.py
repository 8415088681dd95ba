import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pexkit import corpus
from pexkit.errors import CorpusError, ModelError
from pexkit.worldmodel import _PROVENANCE_KINDS, WorldModel, normalize_key

PROV = ("q1", "deadbeef")
PLURAL = {"activity": "activities", "participant": "participants"}


def model_with(activities=(), participants=()):
    m = WorldModel("t")
    for a in activities:
        m.add_activity(a, PROV)
    for p in participants:
        m.add_participant(p, PROV)
    return m


def test_add_activity_idempotent():
    m = model_with()
    assert m.add_activity("send invoice", PROV) == 0
    assert m.add_activity("send invoice", PROV) == 0
    assert m.activities == ["send invoice"]


def test_add_activity_normalized_duplicate():
    m = model_with(["send invoice"])
    assert m.add_activity("Send  invoice", PROV) == 0
    assert len(m.activities) == 1


def test_add_activity_empty_rejected():
    with pytest.raises(ModelError):
        model_with().add_activity("", PROV)


@pytest.mark.parametrize("kind", ["activity", "participant"])
@pytest.mark.parametrize("surface", [" ", "", "\t\n", 5, None, ["a"], {"a": 1}])
def test_add_phrase_checks_a_phrase_as_phrases_does(kind, surface):
    """``add_activity`` and ``add_participant`` refuse what ``from_dict``
    and the corpus loader refuse, in their wording: also a surface that is
    not a string, hashable or not."""
    message = f"{kind} phrase {surface!r} is not a non-empty string"
    with pytest.raises(ModelError, match=re.escape(message)):
        getattr(model_with(), f"add_{kind}")(surface, PROV)
    with pytest.raises(ModelError, match=re.escape(message)):
        WorldModel.from_dict({**model_with().to_dict(), PLURAL[kind]: [surface]})


def test_add_follows_set_semantics():
    m = model_with(["a", "b"])
    m.add_follows(0, 1, PROV)
    m.add_follows(0, 1, PROV)
    assert m.follows == {(0, 1)}


def test_add_follows_self_loop_rejected():
    m = model_with(["a", "b", "c"])
    with pytest.raises(ModelError):
        m.add_follows(2, 2, PROV)


def test_add_follows_out_of_range():
    m = model_with(["a"])
    with pytest.raises(ModelError):
        m.add_follows(0, 3, PROV)


def test_mutual_follows_allowed():
    # cycles are representable; nothing forbids (0,1) together with (1,0)
    m = model_with(["a", "b"])
    m.add_follows(0, 1, PROV)
    m.add_follows(1, 0, PROV)
    assert m.follows == {(0, 1), (1, 0)}


def test_every_element_has_provenance():
    m = model_with(["a", "b"], ["p"])
    m.add_performs(0, 1, PROV)
    m.add_follows(0, 1, PROV)
    assert set(m.provenance) == {
        "activity:0", "activity:1", "participant:0",
        "performs:0,1", "follows:0,1"}


def test_empty_model_dot():
    dot = WorldModel("t").to_dot()
    assert dot.startswith('digraph "t" {')
    assert "->" not in dot


def test_dot_edge_count():
    m = model_with(["a", "b"])
    m.add_follows(0, 1, PROV)
    assert m.to_dot().count("->") == 1


def test_json_roundtrip():
    m = model_with(["a", "b"], ["p"])
    m.add_performs(0, 0, PROV)
    m.add_follows(0, 1, PROV)
    assert WorldModel.from_dict(json.loads(m.to_json())) == m


def test_export_deterministic():
    def build(order):
        m = model_with(["a", "b", "c"])
        for e in order:
            m.add_follows(*e, PROV)
        return m

    a = build([(0, 1), (1, 2), (0, 2)])
    b = build([(0, 2), (0, 1), (1, 2)])
    assert a.to_json() == b.to_json()
    assert a.to_dot() == b.to_dot()


phrases = st.text(
    alphabet=st.characters(whitelist_categories=["Ll", "Lu", "Zs"]),
    min_size=1).filter(lambda s: s.strip())


@given(st.lists(phrases, min_size=1, max_size=8))
def test_roundtrip_property(surfaces):
    m = WorldModel("t")
    for s in surfaces:
        m.add_activity(s, PROV)
    n = len(m.activities)
    if n > 1:
        m.add_follows(0, n - 1, PROV)
    back = WorldModel.from_dict(json.loads(m.to_json()))
    assert back == m
    assert {normalize_key(a) for a in back.activities} == \
        {normalize_key(s) for s in surfaces}


@pytest.mark.parametrize("key, pairs, message", [
    ("follows", [[0, 5]], "follows activity index 5 out of range"),
    ("follows", [[-1, 0]], "follows activity index -1 out of range"),
    ("follows", [[0]], "not a pair"),
    ("follows", [[0, "1"]], "follows activity index '1' out of range"),
    ("performs", [[0, 0, 1]], "not a pair"),
    ("performs", [[1, 0]], "performs participant index 1 out of range"),
    ("performs", [[0, 2]], "performs activity index 2 out of range"),
    ("performs", [7], "not a pair"),
    ("activities", "abcd", "activity phrases must be a list"),
    ("activities", [5, "x"], "activity phrase 5 is not a non-empty string"),
    ("activities", ["a", " "], "activity phrase ' ' is not a non-empty string"),
    ("activities", ["Send  invoice", "send invoice"], "duplicate activity phrase"),
    ("participants", ("p",), "participant phrases must be a list"),
    ("participants", ["p", None], "participant phrase None is not a non-empty string"),
    ("participants", ["the clerk", "The Clerk"], "duplicate participant phrase"),
    ("provenance", [], "provenance must be an object"),
    ("provenance", None, "provenance must be an object"),
    ("provenance", {"activity:0": "ab"}, "provenance of activity:0 must be a list of strings"),
    ("provenance", {"activity:0": ["q1", 5]}, "must be a list of strings"),
    ("provenance", {"follows:0,99": ["q3", "ab"]}, "key 'follows:0,99' names no element"),
    ("provenance", {"bogus": ["q1", "ab"]}, "key 'bogus' names no element"),
    ("provenance", {"activity:2": ["q1", "ab"]}, "key 'activity:2' names no element"),
    ("provenance", {"participant:1": ["q2", "ab"]}, "key 'participant:1' names no element"),
    ("provenance", {"performs:0,0": ["q2", "ab"]}, "key 'performs:0,0' names no element"),
    ("provenance", {"follows:0,1": ["q3", "ab"]}, "key 'follows:0,1' names no element"),
    ("doc_id", 5, "doc_id 5 is not a non-blank string"),
    ("doc_id", " ", "doc_id ' ' is not a non-blank string"),
    ("doc_id", None, "doc_id None is not a non-blank string"),
    # A provenance value of the shape ``add_*`` writes: [kind, digest].
    ("provenance", {"activity:0": []}, r"must be \[kind, digest\].*not \[\]"),
    ("provenance", {"activity:0": ["q1"]}, r"must be \[kind, digest\]"),
    ("provenance", {"activity:0": ["q9", "-"]}, r"a kind of q1, q2, q3, gold"),
    ("provenance", {"activity:0": ["q9", "not a digest", "extra"]}, r"\[kind, digest\]"),
    ("provenance", {"activity:0": ["q1", " "]}, "a non-blank digest"),
    # The shapes a corpus's gold rejects.
    ("performs", {}, "performs is a dict, not a list"),
    ("follows", "", "follows is a str, not a list"),
])
def test_from_dict_checks_edge_indices(key, pairs, message):
    data = model_with(["a", "b"], ["p"]).to_dict()
    data[key] = pairs
    with pytest.raises(ModelError, match=message):
        WorldModel.from_dict(data)


def test_from_dict_takes_a_model_with_no_provenance():
    m = model_with(["a", "b"], ["p"])
    m.add_performs(0, 1, PROV)
    m.add_follows(0, 1, PROV)
    data = {**m.to_dict(), "provenance": {}}
    assert WorldModel.from_dict(data).follows == {(0, 1)}
    assert WorldModel.from_dict(m.to_dict()) == m


@pytest.mark.parametrize("key, value, message", [
    ("follows", [[1, 1]], r"follows pair \(1, 1\) is reflexive"),
    ("performs", [[1, 0]],
     r"performs participant index 1 out of range \(undeclared participant\)"),
    ("activities", ["a", " A"], "duplicate activity phrases 'a' and ' A'"),
], ids=["self-loop", "undeclared-participant", "duplicate-phrases"])
def test_a_model_and_a_gold_standard_break_a_rule_in_one_wording(tmp_path, key, value, message):
    """``add_*``, ``from_dict`` and the corpus loader share one check per
    rule, so one break reads the same through each."""
    model = model_with(["a", "b"], ["p"])
    if key != "activities":
        with pytest.raises(ModelError, match=message):
            getattr(model, f"add_{key}")(*value[0], PROV)
    with pytest.raises(ModelError, match=message):
        WorldModel.from_dict({**model.to_dict(), key: value})
    gold = {"activities": [{"surface": s, "index": 0} for s in model.activities],
            "participants": model.participants, "performs": [], "follows": []}
    gold[key] = [{"surface": s, "index": 0} for s in value] if key == "activities" else value
    path = tmp_path / "c.json"
    path.write_text(json.dumps([{"id": "t", "body": "a b", "gold": gold}]))
    with pytest.raises(CorpusError, match="document t: " + message):
        corpus.load_corpus(path)


# Text with what JSON must escape or spell out: quotes, backslashes,
# control characters, non-ASCII characters of each width and lone surrogates.
_json_text = st.text(st.one_of(
    st.characters(),
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028", "é", "活",
                     "\U0001f600", "\ud800", "\udfff", " ", "\t", "/"])), max_size=12)
_non_blank = _json_text.filter(str.strip)
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")
_prov = st.tuples(st.sampled_from(_PROVENANCE_KINDS), _non_blank)


@st.composite
def _models(draw):
    """A model built through ``add_*``, of any size from empty, its
    provenance sometimes dropped, as ``from_dict`` allows."""
    model = WorldModel(draw(_non_blank))
    for surface in draw(st.lists(_non_blank, max_size=5)):
        model.add_activity(surface, draw(_prov))
    for surface in draw(st.lists(_non_blank, max_size=3)):
        model.add_participant(surface, draw(_prov))
    n_acts, n_parts = len(model.activities), len(model.participants)
    if n_acts and n_parts:
        for p, a in draw(st.lists(st.tuples(st.integers(0, n_parts - 1),
                                            st.integers(0, n_acts - 1)), max_size=4)):
            model.add_performs(p, a, draw(_prov))
    if n_acts > 1:
        for s, d in draw(st.lists(st.tuples(st.integers(0, n_acts - 1),
                                            st.integers(0, n_acts - 1)), max_size=6)):
            if s != d:
                model.add_follows(s, d, draw(_prov))
    if draw(st.booleans()):
        model.provenance = {}
    return model


@settings(max_examples=300, deadline=None)
@given(_models())
def test_to_json_is_json_dumps_at_indent_2(model):
    """``to_json`` writes the bytes ``json.dumps`` writes at ``indent=2``
    with sorted keys, and ``from_dict`` reads them back to the same model,
    unless a high surrogate is followed by a low one: JSON reads those two
    escapes as one character, whoever wrote them."""
    assert model.to_json() == json.dumps(model.to_dict(), indent=2, sort_keys=True) + "\n"
    if not _SURROGATE_PAIR.search(json.dumps(model.to_dict(), ensure_ascii=False)):
        assert WorldModel.from_dict(json.loads(model.to_json())) == model


@given(st.lists(_json_text, max_size=6))
def test_normalize_key_memo_agrees_with_the_function(surfaces):
    """The memoized key is the key the function computes, for a phrase met
    for the first time or again."""
    for surface in surfaces + surfaces:
        assert normalize_key(surface) == normalize_key.__wrapped__(surface)
