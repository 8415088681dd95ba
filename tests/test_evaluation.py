import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import table2
from pexkit import evaluation as ev
from pexkit.corpus import GoldStandard
from pexkit.evaluation import (ElementScores, MatchConfig, align, evaluate_document,
                               f1_score, macro_average, match_phrase, normalize,
                               round2)
from pexkit.worldmodel import WorldModel

CFG = MatchConfig()


# -- normalize / match ------------------------------------------------------


def test_normalize_basic():
    assert normalize("Send the Invoice.") == {"send", "invoice"}


def test_normalize_plural_stripping():
    assert normalize("sends invoice") == {"send", "invoice"}


def test_normalize_empty():
    assert normalize("") == frozenset()


@given(st.lists(st.text(st.sampled_from("Sends the a invoices,. Ivé\u0130ß\t")
                        | st.characters(), max_size=12), max_size=6))
def test_normalize_memo_agrees_with_the_function(phrases):
    """The memoized token set is the one the function computes, for a phrase
    met for the first time or again."""
    for phrase in phrases + phrases:
        assert normalize(phrase) == normalize.__wrapped__(phrase)


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


def ref_match_phrase(extracted, gold, cfg):
    """The matcher as first written: Jaccard from the union, containment as
    subset tests."""
    if gold in cfg.aliases.get(extracted, ()):
        return True, 1.0
    a, b = normalize(extracted), normalize(gold)
    score = len(a & b) / len(a | b) if a or b else 0.0
    if a and b and (a <= b or b <= a):
        return True, score
    return score >= cfg.jaccard_threshold, score


_short_phrase = st.lists(st.sampled_from(("send", "sends", "invoice", "the", "a", "pay",
                                          "order", "clerk", "", ".")),
                         max_size=4).map(" ".join)


@given(_short_phrase, _short_phrase, st.sampled_from((0.5, 1.0, 1e-9)) | st.floats(0, 1),
       st.booleans())
def test_match_phrase_equals_the_first_matcher(extracted, gold, threshold, alias):
    cfg = MatchConfig(jaccard_threshold=threshold,
                      aliases={extracted: [gold]} if alias else {})
    assert match_phrase(extracted, gold, cfg) == ref_match_phrase(extracted, gold, cfg)


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


def activity_row(extracted, gold):
    """The Activity row of a model holding just the ``extracted`` activities."""
    m = WorldModel("t")
    for surface in extracted:
        m.add_activity(surface, ("q1", "-"))
    gs = GoldStandard("t", tuple(gold), (), frozenset(), frozenset())
    return evaluate_document(gs, ex_model=m)["Activity"]


def test_activity_row_end_to_end():
    gold = [f"gold activity {i}" for i in range(10)]
    extracted = gold[:9] + ["bogus one", "bogus two", "bogus three"]
    s = activity_row(extracted, gold)
    assert (s.tp, s.fp, s.fn) == (9, 3, 1)


def test_symmetry_swapping_prediction_and_gold():
    extracted = ["send invoice", "pay bill", "unmatched thing"]
    gold = ["sends the invoice", "pay the bill"]
    fwd = activity_row(extracted, gold)
    rev = activity_row(gold, extracted)
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


def gs_row(row, model, gold=None):
    return evaluate_document(gold or small_gold(), gs_model=model)[row]


def test_follows_gs_perfect():
    s = gs_row("Follows (gs)", gs_model({(0, 1), (1, 2)}))
    assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)


def test_follows_gs_orientation_matters():
    s = gs_row("Follows (gs)", gs_model({(1, 0), (2, 1)}))
    assert s.tp == 0


def test_follows_gs_overprediction():
    # supersets of gold: 4 predictions, 2 gold correct
    s = gs_row("Follows (gs)", gs_model({(0, 1), (1, 2), (0, 2), (2, 0)}))
    assert s.precision == pytest.approx(0.5)
    assert s.recall == pytest.approx(1.0)


def test_follows_gs_published_cell(index, oracle):
    # 8 predictions covering all 4 gold edges: 0.50 / 1.00 / 0.67
    from pexkit import pipeline, prompting
    doc, gold = index["10.1"]
    run = pipeline.extract(doc, prompting.RAW, oracle, gold_activities=gold.activities)
    extra = [(0, 2), (0, 3), (2, 1), (3, 2)]
    for e in extra:
        run.model.add_follows(*e, ("q3", "-"))
    assert len(run.model.follows) == 8
    s = gs_row("Follows (gs)", run.model, gold)
    assert round2(s.precision) == 0.50
    assert round2(s.recall) == 1.00
    assert round2(s.f1) == 0.67


def test_follows_ex_unmatched_endpoint_is_fp():
    m = WorldModel("t")
    m.add_activity("alpha step", ("q1", "-"))
    m.add_activity("totally unrelated", ("q1", "-"))
    m.add_follows(0, 1, ("q3", "-"))
    s = evaluate_document(small_gold(), ex_model=m)["Follows (ex)"]
    assert (s.tp, s.fp) == (0, 1)


def test_gs_mode_requires_gold_injected_run():
    m = WorldModel("t")
    m.add_activity("alpha step", ("q1", "-"))
    with pytest.raises(ev.PexError, match="requires a gold-injected run"):
        evaluate_document(small_gold(), gs_model=m)
    # As many activities as gold, but not the gold ones in gold order.
    for activities, wrong in ((["gamma step", "beta step", "alpha step"], "0 is 'gamma step'"),
                              (["alpha", "beta", "gamma"], "0 is 'alpha'"),
                              (["alpha step", "beta step", "delta step"], "2 is 'delta step'")):
        m = gs_model({(0, 1), (1, 2)})
        m.activities = activities
        with pytest.raises(ev.PexError, match=f"gold activities in gold order: "
                                              f"model activity {wrong}"):
            evaluate_document(small_gold(), gs_model=m)
    m = gs_model({(0, 1), (1, 2)})
    m.activities = ["Alpha  step", "beta step", "GAMMA STEP"]  # one normalize_key each
    assert evaluate_document(small_gold(), gs_model=m)["Follows (gs)"].f1 == 1.0


def test_performs_gs():
    s = gs_row("Performs (gs)", gs_model(set(), performs=[(0, 0), (0, 1)]))
    assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)


def test_performs_participant_matched_by_phrase():
    m = gs_model(set())
    m.participants = ["worker"]  # matches "the worker" after normalization
    m.performs = {(0, 0), (0, 1)}
    s = gs_row("Performs (gs)", m)
    assert s.recall == 1.0


# -- one alignment per phrase list -----------------------------------------


@pytest.mark.parametrize("sources, calls", [
    (("ex", "gs"), 3), (("ex",), 2), (("gs",), 1)])
def test_each_phrase_list_is_aligned_once(monkeypatch, index, oracle, sources, calls):
    """ex aligns its activities and its participants, gs its participants."""
    from pexkit import pipeline, prompting
    doc, gold = index["10.1"]
    models = {
        f"{source}_model": pipeline.extract(doc, prompting.RAW, oracle,
                                            gold_activities=activities).model
        for source, activities in (("ex", None), ("gs", gold.activities))
        if source in sources}
    aligned = []

    def counting_align(extracted, gold_phrases, cfg):
        aligned.append(list(extracted))
        return align(extracted, gold_phrases, cfg)

    monkeypatch.setattr(ev, "align", counting_align)
    rows = evaluate_document(gold, **models)
    assert len(aligned) == calls
    assert all(s.f1 == 1.0 for s in rows.values())


# The per-row scorers evaluate_document replaced, kept as they were: each
# aligns its own phrase lists again.

def ref_score_edges(predicted, gold_edges, src_map, dst_map):
    matched_gold = set()
    tp = 0
    for a, b in predicted:
        if a in src_map and b in dst_map:
            edge = (src_map[a], dst_map[b])
            if edge in gold_edges:
                tp += 1
                matched_gold.add(edge)
    return ElementScores.from_counts(tp, len(predicted) - tp,
                                     len(gold_edges - matched_gold))


def ref_score_elements(extracted, gold, cfg):
    tp = len(align(extracted, gold, cfg))
    return ElementScores.from_counts(tp, len(extracted) - tp, len(gold) - tp)


def ref_activity_map(model, gold, mode, cfg):
    if mode == ev.GS:
        if len(model.activities) != len(gold.activities):
            raise ev.PexError(
                f"gs-mode scoring for {gold.doc_id} requires a gold-injected run "
                f"({len(model.activities)} model activities, "
                f"{len(gold.activities)} gold)")
        return {i: i for i in range(len(gold.activities))}
    return align(model.activities, gold.activities, cfg)


def ref_score_follows(model, gold, mode, cfg):
    amap = ref_activity_map(model, gold, mode, cfg)
    return ref_score_edges(model.follows, set(gold.follows), amap, amap)


def ref_score_performs(model, gold, mode, cfg):
    amap = ref_activity_map(model, gold, mode, cfg)
    pmap = align(model.participants, list(gold.participants), cfg)
    return ref_score_edges(model.performs, set(gold.performs), pmap, amap)


def ref_evaluate_document(gold, ex_model, gs_model, cfg):
    rows = {}
    if ex_model is not None:
        rows["Activity"] = ref_score_elements(ex_model.activities, gold.activities, cfg)
        rows["Participant"] = ref_score_elements(
            ex_model.participants, list(gold.participants), cfg)
        rows["Follows (ex)"] = ref_score_follows(ex_model, gold, ev.EX, cfg)
        rows["Performs (ex)"] = ref_score_performs(ex_model, gold, ev.EX, cfg)
    if gs_model is not None:
        rows["Follows (gs)"] = ref_score_follows(gs_model, gold, ev.GS, cfg)
        rows["Performs (gs)"] = ref_score_performs(gs_model, gold, ev.GS, cfg)
    return rows


WORDS = ("send", "invoice", "check", "order", "pay", "bill", "clerk", "stock",
         "ship", "parcel", "manager", "form")
UNRELATED = ("archive the ledger", "calibrate scanner", "the warehouse robot")
NOISE = (str, "the {}".format, "{}s".format, str.upper, "{}.".format,
         lambda s: s.replace(" ", ", "), lambda s: f"{s} {WORDS[0]}")
phrase = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join)


def edges(draw, first, second, mapped, reflexive=True):
    """Some ``mapped`` gold edges, each kept or reversed, plus random pairs."""
    out = set()
    for a, b in mapped:
        kind = draw(st.sampled_from(("keep", "keep", "reverse", "drop")))
        if kind != "drop":
            out.add((a, b) if kind == "keep" else (b, a))
    if first and second:
        out |= draw(st.sets(st.tuples(st.integers(0, first - 1),
                                      st.integers(0, second - 1)), max_size=4))
    return out if reflexive else {(a, b) for a, b in out if a != b}


def noisy_phrases(draw, golds):
    """Model phrases: a noisy rewording of some gold phrases plus unrelated
    ones, shuffled, each as (gold index or None, phrase)."""
    kept = [(i, draw(st.sampled_from(NOISE))(g)) for i, g in enumerate(golds)
            if draw(st.integers(0, 3))]
    extra = draw(st.lists(phrase | st.sampled_from(UNRELATED), max_size=3))
    order = draw(st.permutations(range(len(kept) + len(extra))))
    items = [(i, text) for i, text in kept] + [(None, text) for text in extra]
    return [items[k] for k in order]


def noisy_model(draw, gold, inject):
    """A model of ``gold`` whose activities are gold-injected or noisy."""
    m = WorldModel("t")
    amap, pmap = {}, {}
    if inject:
        m.activities = list(gold.activities)
        amap = {i: i for i in range(len(gold.activities))}
    else:
        for gi, text in noisy_phrases(draw, gold.activities):
            idx = m.add_activity(text, ("q1", "-"))
            if gi is not None:
                amap.setdefault(gi, idx)
    for gi, text in noisy_phrases(draw, gold.participants):
        idx = m.add_participant(text, ("q2", "-"))
        if gi is not None:
            pmap.setdefault(gi, idx)
    na, np_ = len(m.activities), len(m.participants)
    m.follows = edges(draw, na, na, [(amap[a], amap[b]) for a, b in gold.follows
                                     if a in amap and b in amap], reflexive=False)
    m.performs = edges(draw, np_, na, [(pmap[p], amap[a]) for p, a in gold.performs
                                       if p in pmap and a in amap])
    return m


@st.composite
def scoring_cases(draw):
    acts = draw(st.lists(phrase, min_size=1, max_size=6))
    parts = draw(st.lists(phrase | st.sampled_from(UNRELATED), min_size=1, max_size=4))
    na, np_ = len(acts), len(parts)
    follows = frozenset(draw(st.sets(st.tuples(st.integers(0, na - 1),
                                               st.integers(0, na - 1)), max_size=8))
                        if na else ()) - {(i, i) for i in range(na)}
    performs = frozenset(draw(st.sets(st.tuples(st.integers(0, np_ - 1),
                                                st.integers(0, na - 1)), max_size=6))
                         if na and np_ else ())
    gold = GoldStandard("t", tuple(acts), tuple(parts), performs, follows)
    sources = draw(st.sampled_from(("ex", "gs", "both", "both", "both")))
    ex = noisy_model(draw, gold, inject=False) if sources in ("ex", "both") else None
    gs = noisy_model(draw, gold, inject=True) if sources in ("gs", "both") else None
    if gs is not None and draw(st.integers(0, 4)) == 0:  # not a gold-injected run
        gs.activities = gs.activities[:-1] if gs.activities else ["stray step"]
        gs.follows = {e for e in gs.follows if max(e) < len(gs.activities)}
        gs.performs = {e for e in gs.performs if e[1] < len(gs.activities)}
    phrases = [*(ex.activities if ex else ()), *(ex.participants if ex else ()),
               *(gs.participants if gs else ())]
    golds = [*acts, *parts]
    aliases = draw(st.dictionaries(st.sampled_from(phrases),
                                   st.lists(st.sampled_from(golds), max_size=2),
                                   max_size=3)) if phrases and golds else {}
    threshold = draw(st.just(0.5) | st.floats(0.05, 1.0))
    return gold, ex, gs, MatchConfig(jaccard_threshold=threshold, aliases=aliases)


def outcome(score, *args):
    try:
        return list(score(*args).items())
    except ev.PexError as exc:
        return f"PexError: {exc}"


@settings(max_examples=300, deadline=None)
@given(scoring_cases())
def test_evaluate_document_equals_the_per_row_scorers(case):
    gold, ex, gs, cfg = case
    assert outcome(evaluate_document, gold, ex, gs, cfg) == \
        outcome(ref_evaluate_document, gold, ex, gs, cfg)


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
    for _warm in range(2):  # the second pass reads the memo
        assert round2(2 / 3) == 0.67
        assert round2(0.825) == 0.83
        assert round2(0.005) == 0.01
        assert ev.fmt2(0.0) == "0.00" and ev.fmt2(-0.0) == "-0.00"


def test_render_table_layouts():
    scores = {row: ElementScores.from_counts(1, 0, 0) for row in ev.ROWS}
    rows = ev.report_rows({"raw": {"d1": scores}})
    csv = ev.render_table(rows, "csv")
    assert csv.splitlines()[0] == "doc,element,raw_prec,raw_rec,raw_f1"
    assert "d1,Activity,1.00,1.00,1.00" in csv
    assert "Average,Activity,1.00,1.00,1.00" in csv
    text = ev.render_table(rows, "text")
    assert "Activity" in text


# Scores that ``repr`` writes in every form: short and long decimals, an
# exponent, the smallest subnormal, and the ends of the range.
_score = st.sampled_from((2 / 3, 0.1 + 0.2, 1e-05, 5e-324, 0.0, 1.0, 0.5)) | st.floats(0, 1)
_count = st.integers(0, 10**6)


@st.composite
def _reports(draw):
    """A suite report: ids that sort on both sides of
    ``macro_average``, ids, settings and rows in any text, each document
    with its own rows, and ``evaluate``'s single ``-`` setting."""
    settings_ = draw(st.lists(st.sampled_from(("-", "raw", "defs", "2shots", "defs+2shots"))
                              | st.text(max_size=4), min_size=1, max_size=3, unique=True))
    doc_ids = draw(st.lists(st.sampled_from(("10.1", "2", "m", "z", "macro", "macro_b", "é"))
                            | st.text(max_size=4), min_size=1, max_size=4, unique=True))
    rows = st.lists(st.sampled_from(ev.ROWS) | st.text(max_size=3), max_size=6, unique=True)
    scores = st.builds(ElementScores, _count, _count, _count, _score, _score, _score)
    report = {setting: {doc_id: {row: draw(scores) for row in draw(rows)}
                        for doc_id in doc_ids}
              for setting in settings_}
    return report


@settings(max_examples=300, deadline=None)
@given(_reports())
def test_report_json_is_json_dumps_at_indent_2(report):
    assert ev.report_json(report) == json.dumps(
        ev.report_to_dict(report), indent=2, sort_keys=True) + "\n"


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
