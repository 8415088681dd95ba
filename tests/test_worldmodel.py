import pytest
from hypothesis import given
from hypothesis import strategies as st

from pexkit.errors import ModelError
from pexkit.worldmodel import WorldModel, normalize_key

PROV = ("q1", "deadbeef")


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
    assert WorldModel.from_json(m.to_json()) == m


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
    back = WorldModel.from_json(m.to_json())
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
])
def test_from_dict_checks_edge_indices(key, pairs, message):
    data = model_with(["a", "b"], ["p"]).to_dict()
    data[key] = pairs
    with pytest.raises(ModelError, match=message):
        WorldModel.from_dict(data)
