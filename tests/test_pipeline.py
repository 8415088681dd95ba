import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pexkit import pipeline, prompting
from pexkit.corpus import Document
from pexkit.pipeline import (EXTRACTED, GOLD_INJECTED, ExtractionAborted,
                             parse_list_answer, parse_participant_answer,
                             parse_yesno)

# -- answer parsers ---------------------------------------------------------


def test_parse_list_numbered():
    assert parse_list_answer("1. send invoice\n2. pay bill") == \
        ["send invoice", "pay bill"]


def test_parse_list_bullets_and_periods():
    assert parse_list_answer("- send invoice.\n* pay bill.") == \
        ["send invoice", "pay bill"]


def test_parse_list_comma_coordination():
    assert parse_list_answer("send invoice, pay bill, and file receipt") == \
        ["send invoice", "pay bill", "file receipt"]


def test_parse_list_empty():
    assert parse_list_answer("") == []
    assert parse_list_answer("\n  \n") == []


def test_parse_list_deduplicates_normalized():
    assert parse_list_answer("send invoice\nSend  Invoice\npay bill") == \
        ["send invoice", "pay bill"]


def test_parse_participant_plain():
    # parser keeps the article; normalization is the eval matcher's job
    assert parse_participant_answer("The customer.") == ["The customer"]


def test_parse_participant_boilerplate():
    answer = "The participant performing this activity is the claims officer."
    assert parse_participant_answer(answer) == ["the claims officer"]


def test_parse_participant_coordination():
    assert parse_participant_answer("Alice and Bob") == ["Alice", "Bob"]


def test_parse_participant_first_sentence_only():
    answer = "The clerk. They also check the stock."
    assert parse_participant_answer(answer) == ["The clerk"]


def test_parse_participant_empty():
    assert parse_participant_answer("") == []


def test_parse_yesno():
    assert parse_yesno("Yes, it immediately follows.") == pipeline.YES
    assert parse_yesno("no") == pipeline.NO
    assert parse_yesno("It depends.") == pipeline.UNKNOWN
    assert parse_yesno("") == pipeline.UNKNOWN
    assert parse_yesno("  YES.") == pipeline.YES


# -- extraction runs --------------------------------------------------------


def test_query_counts_gold_injected(index, oracle):
    doc, gold = index["10.1"]
    run = pipeline.extract(doc, prompting.RAW, oracle, gold=gold,
                           activity_source=GOLD_INJECTED)
    assert run.counters == {"q1": 0, "q2": 4, "q3": 12}


def test_query_counts_extracted(index, oracle):
    doc, gold = index["10.1"]
    run = pipeline.extract(doc, prompting.RAW, oracle, gold=gold,
                           activity_source=EXTRACTED)
    assert run.counters == {"q1": 1, "q2": 4, "q3": 12}


class ScriptedBackend:
    """Fixed Q1 answer; everything else answered 'No' / empty."""

    def __init__(self, q1_answer, q3_answer="No"):
        self.q1_answer = q1_answer
        self.q3_answer = q3_answer

    def complete(self, prompt, params):
        if prompt.question == prompting.Q1:
            return self.q1_answer
        if prompt.question == prompting.Q2:
            return ""
        return self.q3_answer


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10))
def test_query_count_law(n):
    doc = Document("t", "some process text")
    backend = ScriptedBackend("\n".join(f"step number {i}" for i in range(n)))
    run = pipeline.extract(doc, prompting.RAW, backend)
    assert run.counters["q1"] == 1
    assert run.counters["q2"] == n
    assert run.counters["q3"] == n * (n - 1)


def test_empty_q1_answer_yields_empty_model():
    doc = Document("t", "text")
    run = pipeline.extract(doc, prompting.RAW, ScriptedBackend(""))
    assert run.model.activities == []
    assert run.model.follows == set()
    assert run.counters == {"q1": 1, "q2": 0, "q3": 0}


def test_edge_orientation():
    """A Yes for 'does X follow Y' must record Y -> X and nothing else."""

    class OneYes:
        def complete(self, prompt, params):
            if prompt.question == prompting.Q1:
                return "alpha\nbeta"
            if prompt.question == prompting.Q2:
                return ""
            # X follows Y iff X == beta, Y == alpha
            return "Yes" if (prompt.x, prompt.y) == ("beta", "alpha") else "No"

    run = pipeline.extract(Document("t", "text"), prompting.RAW, OneYes())
    assert run.model.follows == {(0, 1)}


def test_oracle_closure_every_document(index, oracle):
    for doc_id, (doc, gold) in index.items():
        run = pipeline.extract(doc, prompting.RAW, oracle, gold=gold,
                               activity_source=GOLD_INJECTED)
        got_performs = {
            (run.model.participants[p], run.model.activities[a])
            for p, a in run.model.performs}
        want_performs = {
            (gold.participants[p], gold.activity_surfaces[a])
            for p, a in gold.performs}
        assert got_performs == want_performs, doc_id
        assert run.model.follows == set(gold.follows), doc_id


def test_unknown_q3_counted_not_edged():
    backend = ScriptedBackend("a\nb", q3_answer="It depends.")
    run = pipeline.extract(Document("t", "text"), prompting.RAW, backend)
    assert run.model.follows == set()
    assert run.unknown_q3 == 2


def test_backend_failure_keeps_partial_transcripts(index, oracle):
    doc, gold = index["10.1"]

    class Flaky:
        def __init__(self):
            self.calls = 0

        def complete(self, prompt, params):
            self.calls += 1
            if self.calls > 3:
                from pexkit.errors import BackendError
                raise BackendError("boom")
            return oracle.complete(prompt, params)

    with pytest.raises(ExtractionAborted) as excinfo:
        pipeline.extract(doc, prompting.RAW, Flaky(), gold=gold,
                         activity_source=GOLD_INJECTED)
    assert len(excinfo.value.run.transcripts) == 3


def test_gold_injected_requires_gold(index, oracle):
    doc, _ = index["10.1"]
    with pytest.raises(ValueError):
        pipeline.extract(doc, prompting.RAW, oracle,
                         activity_source=GOLD_INJECTED)


def test_replay_pair_order_independence(index, oracle, tmp_path):
    """Permuting Q3 pair order does not change the follows set under replay."""
    from pexkit.backend import RecordingBackend, ReplayBackend, TranscriptCache

    doc, gold = index["10.6"]
    cache_path = tmp_path / "c.jsonl"
    recording = RecordingBackend(oracle, TranscriptCache(cache_path))
    first = pipeline.extract(doc, prompting.RAW, recording, gold=gold,
                             activity_source=GOLD_INJECTED)
    replay = ReplayBackend(TranscriptCache(cache_path))
    second = pipeline.extract(doc, prompting.RAW, replay, gold=gold,
                              activity_source=GOLD_INJECTED)
    assert first.model.follows == second.model.follows == set(gold.follows)


def test_provenance_joins_the_transcript_cache(index, oracle, shots, tmp_path):
    """Every Q1/Q2/Q3 provenance digest is the key of its cache entry."""
    from pexkit.backend import RecordingBackend, TranscriptCache

    doc, gold = index["10.1"]
    cache = TranscriptCache(tmp_path / "c.jsonl")
    run = pipeline.extract(doc, prompting.DEFS_SHOTS2,
                           RecordingBackend(oracle, cache), gold=gold,
                           activity_source=EXTRACTED, shots=shots)
    provenance = list(run.model.provenance.values())
    assert {q for q, _ in provenance} == set(prompting.QUESTION_KINDS)
    for question, digest in provenance:
        assert cache.lookup(digest) is not None, (question, digest)
    assert all(cache.lookup(t["digest"]) for t in run.transcripts)
