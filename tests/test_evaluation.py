import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import table2
from pexkit import evaluation as ev
from pexkit.corpus import GoldStandard
from pexkit.evaluation import (ElementScores, MatchConfig, align, f1_score,
                               macro_average, match_phrase, normalize, round2,
                               score_elements)
from pexkit.worldmodel import WorldModel

CFG = MatchConfig()


# -- normalize / match ------------------------------------------------------


def test_normalize_basic():
    assert normalize("Send the Invoice.") == {"send", "invoice"}


def test_normalize_plural_stripping():
    assert normalize("sends invoice") == {"send", "invoice"}


def test_normalize_empty():
    assert normalize("") == frozenset()


def test_normalize_short_tokens_keep_s():
    assert "gas" in normalize("the gas")


def test_match_same_after_normalization():
    matched, score = match_phrase("send the invoice", "sends invoice")
    assert matched and score == 1.0


def test_match_disjoint():
    matched, score = match_phrase("pay bill", "send invoice")
    assert not matched and score == 0.0


def test_match_containment():
    matched, _ = match_phrase("ships the parcel", "ships the parcel quickly")
    assert matched


def test_match_alias():
    cfg = MatchConfig(aliases={
        "check and repair the computer": ["check the computer"]})
    matched, score = match_phrase(
        "check and repair the computer", "check the computer", cfg)
    assert matched and score == 1.0
    # aliases apply only when listed
    matched, _ = match_phrase(
        "check and repair the computer", "repair the printer", cfg)
    assert not matched


def test_match_threshold():
    cfg = MatchConfig(jaccard_threshold=0.9)
    matched, score = match_phrase("send customer invoice", "send invoice", cfg)
    # 2/3 overlap: below 0.9 threshold, but containment still matches
    assert matched and score == pytest.approx(2 / 3)


# -- align ------------------------------------------------------------------


def test_align_identity():
    items = ["send invoice", "pay bill"]
    assert align(items, items) == {0: 0, 1: 1}


def test_align_subset():
    pairing = align(["pay bill"], ["send invoice", "pay bill"])
    assert pairing == {0: 1}


def test_align_one_to_one():
    pairing = align(["send invoice", "sends the invoice"], ["send invoice"])
    assert len(pairing) == 1


# -- scores -----------------------------------------------------------------


def test_score_elements_table_cell():
    # 12 predictions, 10 gold, 9 correct: the published 0.75 / 0.90 / 0.82 cell
    s = ElementScores.from_counts(tp=9, fp=3, fn=1)
    assert round2(s.precision) == 0.75
    assert round2(s.recall) == 0.90
    assert round2(s.f1) == 0.82


def test_f1_from_published_pair():
    assert round2(f1_score(0.67, 0.20)) == 0.31


def test_zero_predictions_nonempty_gold():
    s = ElementScores.from_counts(tp=0, fp=0, fn=5)
    assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)


def test_empty_predictions_empty_gold():
    s = ElementScores.from_counts(tp=0, fp=0, fn=0)
    assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)


def test_score_elements_end_to_end():
    gold = [f"gold activity {i}" for i in range(10)]
    extracted = gold[:9] + ["bogus one", "bogus two", "bogus three"]
    s = score_elements(extracted, gold)
    assert (s.tp, s.fp, s.fn) == (9, 3, 1)


def test_symmetry_swapping_prediction_and_gold():
    extracted = ["send invoice", "pay bill", "unmatched thing"]
    gold = ["sends the invoice", "pay the bill"]
    fwd = score_elements(extracted, gold)
    rev = score_elements(gold, extracted)
    assert fwd.precision == pytest.approx(rev.recall)
    assert fwd.recall == pytest.approx(rev.precision)
    assert fwd.f1 == pytest.approx(rev.f1)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_score_monotonicity(tp, fp, fn):
    base = ElementScores.from_counts(tp, fp, fn)
    with_correct = ElementScores.from_counts(tp + 1, fp, fn)
    with_wrong = ElementScores.from_counts(tp, fp + 1, fn)
    assert with_correct.recall >= base.recall
    assert with_wrong.precision <= base.precision


# -- relations --------------------------------------------------------------


def small_gold():
    return GoldStandard(
        "t",
        ("alpha step", "beta step", "gamma step"),
        ("the worker",),
        frozenset({(0, 0), (0, 1)}),
        frozenset({(0, 1), (1, 2)}),
    )


def gs_model(follows, performs=()):
    m = WorldModel("t")
    for s in ("alpha step", "beta step", "gamma step"):
        m.add_activity(s, ("gold", "-"))
    m.add_participant("the worker", ("q2", "-"))
    for p, a in performs:
        m.add_performs(p, a, ("q2", "-"))
    for s, d in follows:
        m.add_follows(s, d, ("q3", "-"))
    return m


def test_follows_gs_perfect():
    s = ev.score_follows(gs_model({(0, 1), (1, 2)}), small_gold(), ev.GS)
    assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)


def test_follows_gs_orientation_matters():
    s = ev.score_follows(gs_model({(1, 0), (2, 1)}), small_gold(), ev.GS)
    assert s.tp == 0


def test_follows_gs_overprediction():
    # supersets of gold: 4 predictions, 2 gold correct
    s = ev.score_follows(gs_model({(0, 1), (1, 2), (0, 2), (2, 0)}),
                         small_gold(), ev.GS)
    assert s.precision == pytest.approx(0.5)
    assert s.recall == pytest.approx(1.0)


def test_follows_gs_published_cell(index, oracle):
    # 8 predictions covering all 4 gold edges: 0.50 / 1.00 / 0.67
    from pexkit import pipeline, prompting
    doc, gold = index["10.1"]
    run = pipeline.extract(doc, prompting.RAW, oracle, gold=gold,
                           activity_source=pipeline.GOLD_INJECTED)
    extra = [(0, 2), (0, 3), (2, 1), (3, 2)]
    for e in extra:
        run.model.add_follows(*e, ("q3", "-"))
    assert len(run.model.follows) == 8
    s = ev.score_follows(run.model, gold, ev.GS)
    assert round2(s.precision) == 0.50
    assert round2(s.recall) == 1.00
    assert round2(s.f1) == 0.67


def test_follows_ex_unmatched_endpoint_is_fp():
    m = WorldModel("t")
    m.add_activity("alpha step", ("q1", "-"))
    m.add_activity("totally unrelated", ("q1", "-"))
    m.add_follows(0, 1, ("q3", "-"))
    s = ev.score_follows(m, small_gold(), ev.EX)
    assert (s.tp, s.fp) == (0, 1)


def test_gs_mode_requires_gold_injected_run():
    m = WorldModel("t")
    m.add_activity("alpha step", ("q1", "-"))
    with pytest.raises(ev.PexError):
        ev.score_follows(m, small_gold(), ev.GS)


def test_performs_gs():
    s = ev.score_performs(gs_model(set(), performs=[(0, 0), (0, 1)]),
                          small_gold(), ev.GS)
    assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)


def test_performs_participant_matched_by_phrase():
    m = gs_model(set())
    m.participants = ["worker"]  # matches "the worker" after normalization
    m.performs = {(0, 0), (0, 1)}
    s = ev.score_performs(m, small_gold(), ev.GS)
    assert s.recall == 1.0


# -- macro averages and rendering ------------------------------------------


def test_macro_average_published_activity_row():
    precisions = [0.75, 1, 1, 1, 1, 1, 1]
    f1s = [0.82, 0.93, 0.92, 0.92, 1, 1, 1]
    assert round2(ev.mean(precisions)) == 0.96
    assert round2(ev.mean(f1s)) == 0.94


def test_macro_average_single_document():
    rows = [{"Activity": ElementScores.from_counts(3, 1, 1)}]
    avg = macro_average(rows)
    s = rows[0]["Activity"]
    assert avg["Activity"] == (s.precision, s.recall, s.f1)


def test_macro_average_empty():
    with pytest.raises(ev.PexError):
        macro_average([])


def test_round2_half_up():
    assert round2(2 / 3) == 0.67
    assert round2(0.825) == 0.83
    assert round2(0.005) == 0.01


def test_render_table_layouts():
    scores = {row: ElementScores.from_counts(1, 0, 0) for row in ev.ROWS}
    report = {"raw": {"d1": scores}}
    csv = ev.render_table(report, ["raw"], "csv")
    assert csv.splitlines()[0] == "doc,element,raw_prec,raw_rec,raw_f1"
    assert "d1,Activity,1.00,1.00,1.00" in csv
    assert "Average,Activity,1.00,1.00,1.00" in csv
    text = ev.render_table(report, ["raw"], "text")
    assert "Activity" in text


def test_table2_f1_recomputes(index):
    """Every transcribed per-document (P, R, F1) triple is internally
    consistent within +/-0.01, bar the one documented misprint."""
    for doc, element, setting, (p, r, f1) in table2.all_cells():
        if (doc, element, setting) in table2.INCONSISTENT_CELLS:
            continue
        assert abs(f1_score(p, r) - f1) <= 0.01 + 1e-9, (doc, element, setting)


def test_table2_inconsistent_cell_is_real():
    (p, r, f1) = table2.TABLE2["3.3"]["Performs (ex)"]["defs+2shots"]
    assert abs(f1_score(p, r) - f1) > 0.01
