import hashlib
import json
import random
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import closing
from dataclasses import replace
from datetime import timedelta
from itertools import permutations
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pexkit import pipeline, prompting
from pexkit.backend import OracleBackend, TranscriptCache
from pexkit.corpus import Document
from pexkit.errors import BackendError
from pexkit.pipeline import (EXTRACTED, GOLD_INJECTED, ExtractionAborted,
                             parse_list_answer, parse_participant_answer,
                             parse_yesno)
from pexkit.worldmodel import normalize_key

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


# Completion-like text: letters, digits, bullets, punctuation and spacing,
# plus any other character.
_answer_text = st.text(st.one_of(st.sampled_from(list("yesnoYESNOſ-*•.),;:!? \t\n12")),
                                 st.characters()), max_size=40)


def _first_alphabetic_run(text):
    start = next((k for k, ch in enumerate(text) if ch.isalpha()), len(text))
    end = next((k for k in range(start, len(text)) if not text[k].isalpha()), len(text))
    return text[start:end]


@settings(max_examples=200, deadline=None)
@given(_answer_text)
@example("Àno")  # the first run is "Àno", not "no"
@example("²yes")
@example("yeſ")  # case-folds to "yes"
def test_parse_yesno_reads_the_first_alphabetic_run(completion):
    verdict = parse_yesno(completion)
    assert verdict in (pipeline.YES, pipeline.NO, pipeline.UNKNOWN)
    word = _first_alphabetic_run(completion).casefold()
    assert (verdict == pipeline.YES) == (word == "yes")
    assert (verdict == pipeline.NO) == (word == "no")


@settings(max_examples=200, deadline=None)
@given(st.lists(_answer_text, max_size=4))
def test_parser_memos_agree_with_the_functions(completions):
    """The memoized Q2 and Q3 parsers answer as their functions do, for a
    completion met for the first time or again."""
    for completion in completions + completions:
        assert parse_yesno(completion) == parse_yesno.__wrapped__(completion)
        assert parse_participant_answer(completion) == list(
            pipeline._participants.__wrapped__(completion))


def test_parse_participant_answer_returns_a_new_list_each_call():
    first = parse_participant_answer("Alice and Bob")
    first[0] = "Eve"
    first.append("Mallory")
    second = parse_participant_answer("Alice and Bob")
    assert second == ["Alice", "Bob"] and second is not first


@settings(max_examples=200, deadline=None)
@given(_answer_text)
def test_parse_list_answer_items_are_stripped_and_distinct(completion):
    items = parse_list_answer(completion)
    assert all(item and item == item.strip() for item in items)
    keys = [normalize_key(item) for item in items]
    assert len(set(keys)) == len(keys)


@settings(max_examples=200, deadline=None)
@given(_answer_text)
def test_parse_participant_answer_items_are_stripped(completion):
    assert all(item and item == item.strip() for item in parse_participant_answer(completion))


# -- extraction runs --------------------------------------------------------


def observed(job, sent: list):
    """``job``, a dialogue, that appends each ``(prompt, completion)`` pair
    it takes from the completions it is sent to ``sent``, in order."""
    def taken(batch, completions):
        for prompt, completion in zip(batch, completions):
            sent.append((prompt, completion))
            yield completion

    with closing(job):
        completions = None
        while True:
            try:
                batch = job.send(completions)
            except StopIteration as stop:
                return stop.value
            completions = taken(batch, (yield batch))


def extract_observed(sent: list, doc, setting, backend, **kwargs):
    """``pipeline.extract``, with the pairs its dialogue takes appended to ``sent``."""
    with closing(pipeline.schedule([observed(pipeline.dialogue(doc, setting, **kwargs), sent)],
                                   backend)) as runs:
        [run] = runs
    return run


def test_query_counts_gold_injected(index, oracle):
    doc, gold = index["10.1"]
    run = pipeline.extract(doc, prompting.RAW, oracle, gold_activities=gold.activities)
    assert run.counters == {"q1": 0, "q2": 4, "q3": 12}


def test_query_counts_extracted(index, oracle):
    doc, _ = index["10.1"]
    run = pipeline.extract(doc, prompting.RAW, oracle)
    assert run.counters == {"q1": 1, "q2": 4, "q3": 12}


class ScriptedBackend:
    """Fixed Q1 answer; everything else answered 'No' / empty."""

    def __init__(self, q1_answer, q3_answer="No", max_concurrency=1):
        self.q1_answer = q1_answer
        self.q3_answer = q3_answer
        self.max_concurrency = max_concurrency

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
    for width in (1, 4):
        backend = ScriptedBackend("\n".join(f"step number {i}" for i in range(n)),
                                  max_concurrency=width)
        run = pipeline.extract(doc, prompting.RAW, backend)
        assert run.counters["q1"] == 1
        assert run.counters["q2"] == n
        assert run.counters["q3"] == n * (n - 1)


def test_empty_q1_answer_yields_empty_model():
    doc = Document("t", "text")
    for width in (1, 4):
        run = pipeline.extract(doc, prompting.RAW, ScriptedBackend("", max_concurrency=width))
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
        run = pipeline.extract(doc, prompting.RAW, oracle, gold_activities=gold.activities)
        got_performs = {
            (run.model.participants[p], run.model.activities[a])
            for p, a in run.model.performs}
        want_performs = {
            (gold.participants[p], gold.activities[a])
            for p, a in gold.performs}
        assert got_performs == want_performs, doc_id
        assert run.model.follows == set(gold.follows), doc_id


def test_unknown_q3_counted_not_edged():
    for width in (1, 4):
        backend = ScriptedBackend("a\nb", q3_answer="It depends.", max_concurrency=width)
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
        pipeline.extract(doc, prompting.RAW, Flaky(), gold_activities=gold.activities)
    assert excinfo.value.run.counters == {"q1": 0, "q2": 3, "q3": 0}


def test_replay_pair_order_independence(index, oracle, tmp_path):
    """Permuting Q3 pair order does not change the follows set under replay."""
    doc, gold = index["10.6"]
    cache_path = tmp_path / "c.jsonl"
    recording = TranscriptCache(cache_path, oracle)
    first = pipeline.extract(doc, prompting.RAW, recording, gold_activities=gold.activities)
    replay = TranscriptCache(cache_path)
    second = pipeline.extract(doc, prompting.RAW, replay, gold_activities=gold.activities)
    assert first.model.follows == second.model.follows == set(gold.follows)


def test_provenance_joins_the_transcript_cache(index, oracle, shots, tmp_path):
    """Every Q1/Q2/Q3 provenance digest is the key of its cache entry."""
    doc, _ = index["10.1"]
    cache = TranscriptCache(tmp_path / "c.jsonl", oracle)
    sent = []
    run = extract_observed(sent, doc, prompting.DEFS_SHOTS2, cache, shots=shots)
    provenance = list(run.model.provenance.values())
    assert {q for q, _ in provenance} == set(prompting.QUESTION_KINDS)
    for question, digest in provenance:
        assert cache.lookup(digest) is not None, (question, digest)
    assert len(sent) == sum(run.counters.values())
    assert all(cache.lookup(prompt.digest) for prompt, _ in sent)


@pytest.mark.parametrize("settings", [prompting.SETTINGS,
                                      (prompting.RAW, prompting.DEFS_SHOTS2)])
def test_run_suite_asks_each_distinct_prompt_once(entries, monkeypatch, tmp_path, settings):
    """The gs run asks exactly the Q2/Q3 prompts of the ex run, so a suite
    costs 1 + n^2 completions per (document, setting), not 1 + 2n^2."""
    from pexkit import cli, corpus

    counters = []
    dialogue = pipeline.dialogue

    def counted_dialogue(*args, **kwargs):
        run = yield from dialogue(*args, **kwargs)
        counters.append(run.counters)
        return run

    asked = []
    complete = OracleBackend.complete

    def counted_complete(self, prompt, params):
        asked.append((prompt.text, params))
        return complete(self, prompt, params)

    monkeypatch.setattr(pipeline, "dialogue", counted_dialogue)
    monkeypatch.setattr(OracleBackend, "complete", counted_complete)
    assert cli.main(["run-suite", "--backend", "oracle", "--settings", ",".join(settings),
                     "--outdir", str(tmp_path)]) == 0
    sizes = [len(gold.activities) for _, gold in corpus.evaluation_documents(entries)]
    assert len(asked) == len(set(asked)) == len(settings) * sum(1 + n * n for n in sizes)
    assert len(asked) == {4: 1468, 2: 734}[len(settings)]
    questions = sum(sum(c.values()) for c in counters)
    assert questions == len(settings) * sum(1 + 2 * n * n for n in sizes)
    assert questions == {4: 2908, 2: 1454}[len(settings)]


# -- concurrent dispatch ----------------------------------------------------


class JitteryBackend:
    """Oracle answers, some Q3 answers replaced by a hash of the prompt, each
    after a wait in ``latency`` drawn from a generator seeded by the prompt
    and ``salt``. At width > 1 calls finish out of question order; every
    answer is still a function of its prompt alone."""

    def __init__(self, oracle, max_concurrency, fail=None, salt=b"",
                 latency=(0.0002, 0.002)):
        self.oracle = oracle
        self.max_concurrency = max_concurrency
        self.fail = fail  # (x, y) of the questions that raise
        self.salt = salt
        self.latency = latency
        self.finished = []
        self.asked = Counter()  # prompt text -> calls
        self.threads = set()
        self._lock = threading.Lock()

    def complete(self, prompt, params):
        key = hashlib.sha256(self.salt + prompt.text.encode("utf-8")).digest()
        time.sleep(random.Random(key).uniform(*self.latency))
        if (prompt.x, prompt.y) == self.fail:
            raise BackendError("injected failure")
        answer = self.oracle.complete(prompt, params)
        if prompt.question == prompting.Q3 and key[0] % 4 == 0:
            answer = ("It depends.", "Yes", "No")[key[1] % 3]
        with self._lock:
            self.finished.append((prompt.x, prompt.y))
            self.asked[prompt.text] += 1
            self.threads.add(threading.current_thread().name)
        return answer


def dispatch_threads():
    return [t for t in threading.enumerate() if t.name.startswith("pex-ask")]


def test_concurrent_extract_equals_sequential(index, oracle, shots):
    doc, _ = index["1.3"]
    runs, backends, sent = {}, {}, {}
    for width in (1, 4):
        backends[width] = JitteryBackend(oracle, width)
        sent[width] = []
        runs[width] = extract_observed(sent[width], doc, prompting.DEFS_SHOTS2, backends[width],
                                       shots=shots)
    seq, conc = runs[1], runs[4]
    assert conc.model.to_json() == seq.model.to_json()
    assert sent[4] == sent[1]
    assert conc.counters == seq.counters == {"q1": 1, "q2": 11, "q3": 110}
    assert conc.unknown_q3 == seq.unknown_q3 > 0
    asked = [(prompt.x, prompt.y) for prompt, _ in sent[1]]
    assert backends[1].finished == asked
    assert backends[1].threads == {threading.main_thread().name}
    assert len(backends[4].threads) > 1
    assert sorted(backends[4].finished, key=str) == sorted(asked, key=str)
    assert backends[4].finished != asked
    assert not dispatch_threads()


def test_concurrent_run_suite_equals_sequential(entries, oracle, tmp_path):
    from pexkit.suite import run_suite

    outputs = {}
    for width in (1, 4):
        outdir = tmp_path / f"w{width}"
        run_suite(entries, [prompting.RAW], JitteryBackend(oracle, width), outdir)
        outputs[width] = {p.relative_to(outdir): p.read_bytes()
                          for p in outdir.rglob("*") if p.is_file()}
    assert len(outputs[1]) == 2 + 7 * 2
    assert outputs[4] == outputs[1]
    assert not dispatch_threads()


@pytest.mark.parametrize("k", [0, 37, 109])
def test_concurrent_abort_keeps_the_sequential_partial_run(index, oracle, k):
    doc, gold = index["1.3"]
    n = len(gold.activities)
    i, j = list(permutations(range(n), 2))[k]
    fail = (gold.activities[j], gold.activities[i])
    aborted, sent = {}, {}
    for width in (1, 4):
        backend = JitteryBackend(oracle, width, fail=fail)
        sent[width] = []
        with pytest.raises(ExtractionAborted) as excinfo:
            extract_observed(sent[width], doc, prompting.RAW, backend)
        aborted[width] = excinfo.value.run
    assert sent[4] == sent[1]
    assert aborted[4].counters == aborted[1].counters == {"q1": 1, "q2": n, "q3": k}
    assert not dispatch_threads()


@settings(max_examples=20, deadline=timedelta(seconds=5))
@given(st.data())
def test_schedule_at_any_width_equals_width_1(index, shots, data):
    """Random jobs, a width from 1 to 16, random call latencies and maybe
    one failing question: the results, the answers each job takes, the
    counters and the position of an ``ExtractionAborted`` equal those at
    width 1."""
    doc_ids = sorted(index)
    jobs = data.draw(st.lists(st.tuples(
        st.sampled_from(doc_ids), st.sampled_from([prompting.RAW, prompting.DEFS_SHOTS2]),
        st.sampled_from([EXTRACTED, GOLD_INJECTED])), min_size=1, max_size=4), label="jobs")
    width = data.draw(st.integers(1, 16), label="width")
    salt = data.draw(st.binary(max_size=4), label="salt")
    fail = None
    if data.draw(st.booleans(), label="fails"):
        activities = index[data.draw(st.sampled_from(jobs))[0]][1].activities
        i = data.draw(st.integers(0, len(activities) - 1))
        j = data.draw(st.integers(0, len(activities) - 2))
        j += j >= i
        fail = data.draw(st.sampled_from([(None, None), (activities[i], None),
                                          (activities[j], activities[i])]), label="fail")

    def fields(run, sent):
        return (run.model.doc_id, run.setting, run.activity_source, run.model.to_json(),
                sent, run.counters, run.unknown_q3)

    def dialogue(doc_id, setting, source):
        doc, gold = index[doc_id]
        return pipeline.dialogue(doc, setting, shots,
                                 gold.activities if source == GOLD_INJECTED else None)

    def outcome(width):
        backend = JitteryBackend(OracleBackend(index), width, fail=fail, salt=salt,
                                 latency=(0, 0.0005))
        sent = [[] for _ in jobs]
        dialogues = (observed(dialogue(*job), sent[k]) for k, job in enumerate(jobs))
        results = []
        try:
            for run in pipeline.schedule(dialogues, backend):
                results.append(fields(run, sent[len(results)]))
        except ExtractionAborted as exc:
            return results, fields(exc.run, sent[len(results)])
        return results, None

    assert outcome(width) == outcome(1)
    assert not dispatch_threads()


def test_concurrent_recording_keeps_every_entry(index, oracle, tmp_path):
    """Eight workers, more than the cores, switching threads often, all
    recording into one cache: no entry is lost or written twice."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        recorded = {}
        for width in (1, 8):
            path = tmp_path / f"w{width}.jsonl"
            backend = TranscriptCache(path, JitteryBackend(oracle, width))
            for doc_id in ("1.2", "1.3"):
                doc, _ = index[doc_id]
                pipeline.extract(doc, prompting.RAW, backend)
            lines = [json.loads(line) for line in path.read_text().splitlines()]
            recorded[width] = {e["digest"]: e["completion"] for e in lines}
            assert len(recorded[width]) == len(lines)
    finally:
        sys.setswitchinterval(switch)
    assert recorded[8] == recorded[1]
    assert len(recorded[1]) == 2 * 1 + 10 + 11 + 90 + 110
    assert not dispatch_threads()


def test_unwritable_cache_aborts_a_concurrent_extract(index, oracle, tmp_path):
    """A cache write that fails on a dispatch worker thread stops the run
    with ``ExtractionAborted``, like any other backend failure."""
    (tmp_path / "file").write_text("")
    doc, gold = index["1.3"]
    backend = TranscriptCache(tmp_path / "file" / "c.jsonl", JitteryBackend(oracle, 4))
    with pytest.raises(ExtractionAborted, match="cannot write transcript cache") as excinfo:
        pipeline.extract(doc, prompting.RAW, backend, gold_activities=gold.activities)
    assert excinfo.value.run.counters["q2"] == 0
    assert backend.inner.threads and all(
        name.startswith("pex-ask") for name in backend.inner.threads)
    assert not dispatch_threads()


def test_concurrent_run_suite_asks_each_distinct_prompt_once(entries, oracle, tmp_path):
    """Jobs that overlap still reach the inner backend once per distinct prompt."""
    from pexkit.suite import run_suite

    backend = JitteryBackend(oracle, 4)
    run_suite(entries, [prompting.RAW, prompting.DEFS_SHOTS2], backend, tmp_path)
    asked = backend.asked
    assert len(asked) == sum(asked.values()) == 734
    assert set(asked.values()) == {1}


def count_sha256(monkeypatch):
    """Patch a counting sha256 into ``prompting``: the lists of the states it
    makes fresh (not by ``copy``), the byte counts it is fed and the digests
    it gives."""
    made, fed, digests = [], [], []

    class Sha256:
        """A sha256 state that counts the bytes it is fed and the digests it gives."""

        def __init__(self, data=b"", state=None):
            if state is None:
                made.append(self)
            self.state = state or hashlib.sha256()
            self.update(data)

        def update(self, data):
            fed.append(len(data))
            self.state.update(data)

        def copy(self):
            return Sha256(state=self.state.copy())

        def hexdigest(self):
            digest = self.state.hexdigest()
            digests.append(digest)
            return digest

    monkeypatch.setattr(prompting, "hashlib", SimpleNamespace(sha256=Sha256))
    return made, fed, digests


@pytest.mark.parametrize("width", [1, 8])
def test_run_suite_hashes_each_question_once(entries, oracle, monkeypatch, tmp_path, width):
    """Each question batch hashes its shared head once; the memo, the cache it
    records in and the transcript share one digest per question, which hashes
    only the question's own line, also when the calls run on other threads."""
    from pexkit.suite import run_suite

    made, fed, digests = count_sha256(monkeypatch)
    cache = TranscriptCache(tmp_path / "c.jsonl",
                            oracle if width == 1 else JitteryBackend(oracle, width))
    run_suite(entries, [prompting.RAW, prompting.DEFS_SHOTS2], cache, tmp_path / "out")
    assert len(made) == 42  # one per batch that renders: each ex run's Q1, Q2 and Q3
    assert len(cache) == len(set(digests)) == 734
    assert len(digests) == 734
    assert sum(fed) <= 450_000  # 2,872,062 bytes when each prompt hashed its whole text


def count_prompts(monkeypatch):
    """Patch a counting ``Prompt`` into ``prompting``: the list of the prompts
    it builds."""
    built = []

    class Counted(prompting.Prompt):
        __slots__ = ()

        def __new__(cls, *fields):
            prompt = super().__new__(cls, *fields)
            built.append(prompt)
            return prompt

    monkeypatch.setattr(prompting, "Prompt", Counted)
    return built


@pytest.mark.parametrize("width", [1, 8])
def test_run_suite_builds_each_distinct_prompt_once(entries, oracle, monkeypatch, tmp_path,
                                                    width):
    """An oracle suite's gs runs ask exactly its ex runs' questions, so each
    job's render memo hands the gs run the ex run's prompts: one ``Prompt``
    per distinct digest, where a render per question built 1454."""
    from pexkit.suite import run_suite

    built = count_prompts(monkeypatch)
    backend = oracle if width == 1 else JitteryBackend(oracle, width)
    run_suite(entries, [prompting.RAW, prompting.DEFS_SHOTS2], backend, tmp_path)
    assert len(built) == len({prompt.digest for prompt in built}) == 734


class DropsAndRewords:
    """Oracle answers, except that Q1 lists a document's gold activities
    without the last one and with the first one upper-cased, a surface the
    oracle still knows: the gs run shares only some of the ex run's questions."""

    def __init__(self, oracle, index, max_concurrency):
        self.oracle = oracle
        self.index = index
        self.max_concurrency = max_concurrency

    def complete(self, prompt, params):
        if prompt.question == prompting.Q1:
            surfaces = self.index[prompt.doc_id][1].activities
            return "\n".join([surfaces[0].upper(), *surfaces[1:-1]])
        return self.oracle.complete(prompt, params)


@pytest.mark.parametrize("width", [1, 4])
def test_gs_run_renders_only_the_questions_the_ex_run_did_not(entries, index, oracle, shots,
                                                              monkeypatch, tmp_path, width):
    """Where Q1 drops one gold activity and rewords another, a job's gs run
    takes the ex run's prompts for the questions they share and renders only
    the others, and both runs equal two ``extract`` runs, which keep no memo."""
    from pexkit.suite import run_suite

    runs, memos, sent = {}, {}, {}
    dialogue = pipeline.dialogue

    def kept_dialogue(doc, setting, shots, gold_activities, prompts):
        memos.setdefault((doc.id, setting), []).append(prompts)
        key = doc.id, setting, EXTRACTED if gold_activities is None else GOLD_INJECTED
        run = yield from observed(dialogue(doc, setting, shots, gold_activities, prompts),
                                  sent.setdefault(key, []))
        runs[key] = run
        return run

    monkeypatch.setattr(pipeline, "dialogue", kept_dialogue)
    built = count_prompts(monkeypatch)
    backend = DropsAndRewords(oracle, index, width)
    settings_ = [prompting.RAW, prompting.DEFS_SHOTS2]
    run_suite(entries, settings_, backend, tmp_path)
    monkeypatch.undo()

    def keys(pairs):
        return [(p.doc_id, p.setting, p.question, p.x, p.y) for p, _ in pairs]

    renders = [(p.doc_id, p.setting, p.question, p.x, p.y) for p in built]
    assert len(renders) == len(set(renders))
    assert len(memos) == 14
    partial = 0
    for doc_id, setting in memos:
        [ex_memo, gs_memo] = memos[doc_id, setting]
        assert ex_memo is gs_memo and isinstance(ex_memo, dict)
        ex_keys = keys(sent[doc_id, setting, EXTRACTED])
        gs_keys = keys(sent[doc_id, setting, GOLD_INJECTED])
        # The job's renders, in order: the ex run's questions, then the gs
        # run's that the ex run did not ask.
        assert [r for r in renders if r[:2] == (doc_id, setting)] == (
            ex_keys + [k for k in gs_keys if k not in set(ex_keys)])
        partial += bool(set(ex_keys) & set(gs_keys)) and bool(set(gs_keys) - set(ex_keys))
        doc, gold = index[doc_id]
        for source in (EXTRACTED, GOLD_INJECTED):
            alone_sent = []
            alone = extract_observed(alone_sent, doc, setting, backend, shots=shots,
                                     gold_activities=gold.activities
                                     if source == GOLD_INJECTED else None)
            run = runs[doc_id, setting, source]
            assert run.model.to_json() == alone.model.to_json()
            assert sent[doc_id, setting, source] == alone_sent
            assert run.counters == alone.counters
            assert run.unknown_q3 == alone.unknown_q3
    assert partial == 14


def test_a_jobs_render_memo_holds_only_its_ex_runs_prompts(entries, index, oracle,
                                                          monkeypatch, tmp_path):
    """After a job whose Q1 drops one gold activity and rewords another, its
    render memo holds exactly the ex run's prompts: the gs run, the memo's
    last reader, renders questions of its own and stores none of them."""
    from pexkit.suite import run_suite

    memos, sent = {}, {}
    dialogue = pipeline.dialogue

    def kept_dialogue(doc, setting, shots, gold_activities, prompts):
        memos[doc.id, setting] = prompts
        source = EXTRACTED if gold_activities is None else GOLD_INJECTED
        return (yield from observed(dialogue(doc, setting, shots, gold_activities, prompts),
                                    sent.setdefault((doc.id, setting, source), [])))

    monkeypatch.setattr(pipeline, "dialogue", kept_dialogue)
    run_suite(entries, [prompting.RAW, prompting.DEFS_SHOTS2],
              DropsAndRewords(oracle, index, 1), tmp_path)
    assert len(memos) == 14
    for (doc_id, setting), memo in memos.items():
        ex = {(p.question, p.x, p.y): p for p, _ in sent[doc_id, setting, EXTRACTED]}
        gs = {(p.question, p.x, p.y) for p, _ in sent[doc_id, setting, GOLD_INJECTED]}
        assert gs - set(ex)
        assert memo.keys() == ex.keys()
        assert all(memo[key] is prompt for key, prompt in ex.items())


def test_cache_load_hashes_each_distinct_head_once(entries, oracle, monkeypatch, tmp_path):
    """Loading a recording checks every entry's digest, but hashes each of its
    distinct prompt heads once: after that, an entry hashes only its own
    question line, answer cue and params."""
    from pexkit.suite import run_suite

    path = tmp_path / "c.jsonl"
    run_suite(entries, [prompting.RAW, prompting.DEFS_SHOTS2],
              TranscriptCache(path, oracle), tmp_path / "out")
    made, fed, digests = count_sha256(monkeypatch)
    assert len(TranscriptCache(path)) == len(digests) == 734
    assert len(made) <= 28  # one per distinct head: 7 raw, 21 defs+2shots
    assert sum(fed) <= 250_000  # 1,443,062 bytes when each entry hashed its whole prompt


def test_cache_load_decodes_whole_only_the_lines_with_a_new_head_or_params(
        entries, oracle, monkeypatch, tmp_path):
    """Loading a recording decodes a line whole only when it brings a new
    head or a new params text: every other line, in the layout ``record``
    writes, is read by position. The 734 entries hold one head object per
    distinct head: 7 raw and 21 defs+2shots."""
    from pexkit import backend
    from pexkit.suite import run_suite

    path = tmp_path / "c.jsonl"
    run_suite(entries, [prompting.RAW, prompting.DEFS_SHOTS2],
              TranscriptCache(path, oracle), tmp_path / "out")
    decoded = []
    loads = backend.json.loads
    monkeypatch.setattr(backend.json, "loads", lambda text: decoded.append(text) or loads(text))
    cache = TranscriptCache(path)
    assert len(cache) == 734
    # 28 lines that bring a new head, and 2 that bring only a new params
    # text: the first raw Q2 and Q3 lines, on their document's raw Q1 head.
    assert len(decoded) == 30
    assert len({id(head) for head, _, _ in cache._entries.values()}) == 28


def test_an_answered_prompt_never_enters_the_pool(entries, oracle, monkeypatch, tmp_path):
    """A suite whose gs runs repeat its ex runs' prompts submits one pool
    call per distinct prompt: a prompt already answered gets its answer
    without a call, and so takes no place under the cap on calls."""
    from pexkit.suite import run_suite

    submitted = []
    submit = pipeline.ThreadPoolExecutor.submit

    def counted_submit(pool, fn, *args, **kwargs):
        submitted.append(args)
        return submit(pool, fn, *args, **kwargs)

    monkeypatch.setattr(pipeline.ThreadPoolExecutor, "submit", counted_submit)
    backend = JitteryBackend(oracle, 4)
    run_suite(entries, [prompting.RAW, prompting.DEFS_SHOTS2], backend, tmp_path)
    assert len(submitted) == len(backend.asked) == 734
    assert not dispatch_threads()


def test_duplicate_documents_share_calls_in_flight(entries, tmp_path):
    """Two documents with one body ask the same prompts, at the same time
    when their jobs overlap: each distinct prompt still reaches the inner
    backend once."""
    from pexkit.corpus import corpus_index
    from pexkit.suite import run_suite

    index = corpus_index(entries)
    doc, gold = index["1.2"]
    twin = (replace(doc, id="1.3"), replace(gold, doc_id="1.3"))
    entries = [twin if d.id == "1.3" else (d, g) for d, g in entries]
    inner = JitteryBackend(OracleBackend(corpus_index(entries)), 4)
    run_suite(entries, [prompting.RAW], inner, tmp_path)
    sizes = {d.body: len(g.activities) for d, g in
             (index[doc_id] for doc_id in ("1.2", "3.3", "5.2", "10.1", "10.6", "10.13"))}
    assert sum(inner.asked.values()) == len(inner.asked) == \
        sum(1 + n * n for n in sizes.values()) == 245


class HeldStub:
    """Holds every call until ``release`` is set; the first ``fail_first``
    calls then fail."""

    max_concurrency = 4

    def __init__(self, fail_first=0):
        self.calls = 0
        self.fail_first = fail_first
        self.release = threading.Event()
        self._lock = threading.Lock()

    def complete(self, prompt, params):
        with self._lock:
            self.calls += 1
            call = self.calls
        assert self.release.wait(timeout=10)
        if call <= self.fail_first:
            raise BackendError("injected failure")
        return "answer to " + prompt.text


def text_prompt(text, params=prompting.default_params(prompting.Q1)):
    """A Q1 prompt whose text is ``text``; a text of None does not render."""
    if text is None:
        raise ValueError("does not render")
    return prompting.Prompt("", text, prompting.Q1, prompting.RAW, "10.1", None, None,
                            params, prompting.transcript_digest(text, params))


def ask_each(*texts):
    """A job that asks one prompt of each text, in one batch, and returns
    their completions, or the error a call raised; a text of None does not
    render, so the job fails before its batch is asked."""
    answers = yield [text_prompt(text) for text in texts]
    completions = []
    for _ in texts:
        try:
            completions.append(next(answers))
        except BackendError as exc:
            return exc
    return completions


class CountingStub:
    """Answers each prompt with its own text at width ``max_concurrency``,
    counting the calls per text; the first ``fail_first`` calls for a text
    fail, after a wait, so the scheduler waits for them to end."""

    def __init__(self, max_concurrency, fail_first=0):
        self.max_concurrency = max_concurrency
        self.fail_first = fail_first
        self.calls = Counter()
        self._lock = threading.Lock()

    def complete(self, prompt, params):
        with self._lock:
            self.calls[prompt.text] += 1
            call = self.calls[prompt.text]
        if call <= self.fail_first:
            time.sleep(0.01)
            raise BackendError("injected failure")
        return "answer to " + prompt.text


def ask_in_turn(*batches, params=prompting.default_params(prompting.Q1)):
    """A job that asks each batch of texts in turn, with ``params``, and
    returns each question's completion, or the error its call raised."""
    answers = []
    for texts in batches:
        replies = yield [text_prompt(text, params) for text in texts]
        for _ in texts:
            try:
                completion = next(replies)
            except BackendError as exc:
                completion = exc
            answers.append(completion)
    return answers


@pytest.mark.parametrize("width", [1, 4])
def test_schedule_repeats_get_the_stored_completion(width):
    """A prompt that jobs ask again, in one batch or in later ones, is asked
    of the backend once per run; one text with other params is another
    prompt."""
    inner = CountingStub(width)
    eight = prompting.CompletionParams(max_tokens=8)
    jobs = [ask_in_turn(["a", "b", "a"], ["a"]), ask_in_turn(["b"], ["a", "b"]),
            ask_in_turn(["a"], params=eight)]
    assert list(pipeline.schedule(jobs, inner)) == [
        ["answer to a", "answer to b", "answer to a", "answer to a"],
        ["answer to b", "answer to a", "answer to b"], ["answer to a"]]
    assert inner.calls == {"a": 2, "b": 1}
    assert not dispatch_threads()


@pytest.mark.parametrize("width", [1, 4])
def test_schedule_does_not_store_a_failure(width):
    """A prompt whose call failed is asked again when a later batch draws
    it, and its answer is then stored."""
    inner = CountingStub(width, fail_first=1)
    [answers] = pipeline.schedule([ask_in_turn(["p"], ["p"], ["p"])], inner)
    assert isinstance(answers[0], BackendError)
    assert answers[1:] == ["answer to p", "answer to p"]
    assert inner.calls == {"p": 2}
    assert not dispatch_threads()


@pytest.mark.parametrize("fail", [False, True])
def test_schedule_hands_jobs_that_ask_one_prompt_the_call_in_flight(fail):
    """Four jobs ask one prompt at once, with no memo in front of the
    backend: one call, whose completion or very error each job gets; a
    later ``schedule`` asks the prompt again."""
    inner = HeldStub(fail_first=1 if fail else 0)
    with ThreadPoolExecutor(1) as runner:
        results = runner.submit(lambda: list(pipeline.schedule(
            [ask_each("p") for _ in range(4)], inner)))
        deadline = time.monotonic() + 10
        while inner.calls == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.2)  # the other three jobs draw the prompt
        inner.release.set()
        answers = results.result(timeout=10)
    assert inner.calls == 1
    if fail:
        assert all(isinstance(a, BackendError) for a in answers)
        assert len({id(a) for a in answers}) == 1
    else:
        assert answers == [["answer to p"]] * 4
    assert list(pipeline.schedule([ask_each("p")], inner)) == [["answer to p"]]
    assert inner.calls == 2
    assert not dispatch_threads()


def releasing(stub, job):
    """``job``, which sets ``stub.release`` once it ends or is closed."""
    try:
        return (yield from job)
    finally:
        stub.release.set()


class TextStub:
    """At width ``max_concurrency``, answers ``ok``, fails ``fail`` and holds
    every other text until ``release`` is set, then for ``delay`` seconds;
    records the texts asked."""

    def __init__(self, max_concurrency, delay=0):
        self.max_concurrency = max_concurrency
        self.delay = delay
        self.asked = []
        self.release = threading.Event()
        self._lock = threading.Lock()

    def complete(self, prompt, params):
        with self._lock:
            self.asked.append(prompt.text)
        if prompt.text == "fail":
            raise BackendError("injected failure")
        if prompt.text != "ok":
            assert self.release.wait(timeout=10)
            time.sleep(self.delay)
        return "answer to " + prompt.text


def test_a_failed_call_aborts_its_job_while_later_calls_of_its_batch_are_held():
    """At width 2 a batch's second call fails while its 18 later calls are
    held or waiting: the job aborts without waiting for them, and the
    waiting ones are cancelled, so only the two held calls that were running
    are asked besides the two that ended. The held calls are released when
    the scheduler closes the job after the aborted one."""
    inner = TextStub(2)
    held_when_aborted = []

    def aborting(*texts):
        completions = yield from ask_each(*texts)
        if isinstance(completions, BackendError):
            held_when_aborted.append(not inner.release.is_set())
            raise completions
        return completions

    jobs = [aborting("ok", "fail", *(f"h{i}" for i in range(3, 21))),
            releasing(inner, ask_each("later"))]
    with pytest.raises(BackendError, match="injected failure"):
        list(pipeline.schedule(jobs, inner))
    assert held_when_aborted == [True]
    assert len(inner.asked) <= 4
    assert inner.asked[:2] in (["ok", "fail"], ["fail", "ok"])
    assert not dispatch_threads()


def test_a_job_after_a_failed_one_is_closed_without_its_answers():
    """Two jobs share one held call, which fails once released: the first
    job aborts on it, and the second, whose answers are ready in the same
    pass, is closed without being sent them. The call is released once the
    second job's batch has been given it."""
    inner = HeldStub(fail_first=1)
    sent = []

    def aborting():
        raise (yield from ask_each("p"))

    class Releasing(list):
        """A batch that sets ``inner.release`` once it has been iterated."""

        def __iter__(self):
            yield from super().__iter__()
            inner.release.set()

    def later():
        sent.append((yield Releasing(next(ask_each("p")))))  # the batch ask_each asks

    with pytest.raises(BackendError, match="injected failure"):
        list(pipeline.schedule([aborting(), later()], inner))
    assert sent == []
    assert inner.calls == 1
    assert not dispatch_threads()


def test_a_call_shared_with_a_job_after_a_failed_one_still_answers_the_earlier_job():
    """The first job's call for ``p`` waits in the pool's queue behind four
    held calls when the third job draws ``p`` too, alone or with ``q`` and
    ``r``; then the second job, whose first batch is empty, fails on its
    second. The third job is dropped, and the call it shares still answers
    the first job, before the second job's error is raised; its other
    prompts are never asked. The held calls are released when the third job
    is closed."""
    def after_an_empty_batch(job):
        yield []
        return (yield from job)

    for later in [("p",), ("p", "q", "r")]:
        inner = HeldStub()
        jobs = [ask_each("h1", "h2", "h3", "h4", "p"), after_an_empty_batch(ask_each(None)),
                releasing(inner, ask_each(*later))]
        results = []
        with pytest.raises(ValueError, match="does not render"):
            for result in pipeline.schedule(jobs, inner):
                results.append(result)
        assert results == [["answer to h1", "answer to h2", "answer to h3", "answer to h4",
                            "answer to p"]], later
        assert inner.calls == 5, later
    assert not dispatch_threads()


@pytest.mark.parametrize("width", [2, 4])
@pytest.mark.parametrize("held", [False, True], ids=["sleeping", "held"])
def test_no_job_starts_after_one_that_fails_before_its_first_batch(width, held, monkeypatch):
    """Of three jobs, the second raises before its first batch while the
    first job's calls run, each for 50 ms or held until the scheduler first
    waits. The third job never starts, and none of its prompts is submitted;
    the first job's result is yielded, then the second job's own error is
    raised. The scheduler handles that failure before it waits on any call,
    and its calls and results equal the width-1 run's."""
    started, submitted, waited = [], [], []
    submit = pipeline.ThreadPoolExecutor.submit

    def recording_submit(pool, fn, prompt):
        submitted.append(prompt.text)
        return submit(pool, fn, prompt)

    def recording_wait(calls, return_when):
        waited.append(list(started))
        inner.release.set()
        return wait(calls, return_when=return_when)

    def job(k, *texts):
        started.append(k)
        return (yield from ask_each(*texts))

    def fails_at_once():
        started.append(1)
        raise ValueError("fails before its first batch")
        yield

    def outcome(backend):
        started.clear()
        results = []
        jobs = [job(0, "h1", "h2", "h3", "h4", "p"), fails_at_once(), job(2, "p", "q")]
        with pytest.raises(ValueError, match="fails before its first batch"):
            for result in pipeline.schedule(jobs, backend):
                results.append(result)
        return results, list(started), sorted(backend.asked)

    alone = TextStub(1)
    alone.release.set()
    expected = outcome(alone)
    assert expected == ([[f"answer to {t}" for t in ("h1", "h2", "h3", "h4", "p")]], [0, 1],
                        ["h1", "h2", "h3", "h4", "p"])
    monkeypatch.setattr(pipeline.ThreadPoolExecutor, "submit", recording_submit)
    monkeypatch.setattr(pipeline, "wait", recording_wait)
    inner = TextStub(width, delay=0 if held else 0.05)
    if not held:
        inner.release.set()
    assert outcome(inner) == expected
    assert sorted(submitted) == expected[2]
    assert waited and all(jobs == [0, 1] for jobs in waited)
    assert not dispatch_threads()


def test_duplicate_documents_record_each_prompt_once_under_frequent_thread_switches(
        entries, tmp_path):
    """Eight workers, more than the cores, switching threads often, on a
    corpus with two documents of one body: the memo, which takes no lock,
    still sends each distinct prompt to the inner backend once."""
    from pexkit.corpus import corpus_index
    from pexkit.suite import run_suite

    doc, gold = corpus_index(entries)["1.2"]
    twin = (replace(doc, id="1.3"), replace(gold, doc_id="1.3"))
    entries = [twin if d.id == "1.3" else (d, g) for d, g in entries]
    inner = JitteryBackend(OracleBackend(corpus_index(entries)), 8)
    cache = TranscriptCache(tmp_path / "c.jsonl", inner)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_suite(entries, [prompting.RAW], cache, tmp_path / "out")
    finally:
        sys.setswitchinterval(switch)
    assert sum(inner.asked.values()) == len(inner.asked) == len(cache) == 245
    assert not dispatch_threads()


def test_run_suite_overlaps_jobs(entries, oracle, tmp_path):
    """The second job's Q1 is asked while the first job still waits for its
    last Q3 answer."""
    from pexkit import corpus
    from pexkit.suite import run_suite

    (first, gold), (second, _) = corpus.evaluation_documents(entries)[:2]
    n = len(gold.activities)
    last_q3 = (gold.activities[n - 2], gold.activities[n - 1])
    second_q1_asked = threading.Event()
    overlapped = []

    class Held:
        max_concurrency = 4

        def complete(self, prompt, params):
            if prompt.doc_id == second.id and prompt.question == prompting.Q1:
                second_q1_asked.set()
            if (prompt.doc_id == first.id and prompt.question == prompting.Q3
                    and (prompt.x, prompt.y) == last_q3 and not overlapped):
                overlapped.append(second_q1_asked.wait(timeout=5))
            return oracle.complete(prompt, params)

    run_suite(entries, [prompting.RAW], Held(), tmp_path)
    assert overlapped == [True]
    assert not dispatch_threads()


def test_run_suite_keeps_cpu_work_on_the_calling_thread(entries, oracle, monkeypatch, tmp_path):
    """Rendering and parsing run on the calling thread; the pex-ask threads,
    at most ``max_concurrency`` of them, only call the backend and are gone
    afterwards."""
    from pexkit.suite import run_suite

    seen = {"render": set(), "parse_yesno": set()}
    most = []

    def on_thread(name, fn):
        def wrapped(*args, **kwargs):
            seen[name].add(threading.current_thread().name)
            return fn(*args, **kwargs)
        return wrapped

    def renderer(*args, make=prompting.renderer, **kwargs):
        return on_thread("render", make(*args, **kwargs))  # so each prompt's fill is seen

    monkeypatch.setattr(prompting, "renderer", on_thread("render", renderer))
    monkeypatch.setattr(pipeline, "parse_yesno", on_thread("parse_yesno", pipeline.parse_yesno))

    class Counting(JitteryBackend):
        def complete(self, prompt, params):
            most.append(len(dispatch_threads()))
            return super().complete(prompt, params)

    backend = Counting(oracle, 4)
    run_suite(entries, [prompting.RAW], backend, tmp_path)
    caller = threading.current_thread().name
    assert seen == {"render": {caller}, "parse_yesno": {caller}}
    assert backend.threads and all(name.startswith("pex-ask") for name in backend.threads)
    assert max(most) <= 4
    assert not dispatch_threads()


def test_run_suite_abort_in_a_middle_job_keeps_the_sequential_partial_run(entries, oracle,
                                                                          monkeypatch, tmp_path):
    """A failing Q3 in the fourth job raises the same ``ExtractionAborted``
    at widths 1 and 4, and leaves the same files: the first three jobs'
    models, and no report."""
    from pexkit import corpus
    from pexkit.suite import run_suite

    doc, gold = corpus.evaluation_documents(entries)[3]
    i, j = list(permutations(range(len(gold.activities)), 2))[5]
    fail = (gold.activities[j], gold.activities[i])
    aborted, written, sent = {}, {}, {}
    dialogue = pipeline.dialogue

    def observed_dialogue(doc, setting, shots, gold_activities, prompts):
        source = EXTRACTED if gold_activities is None else GOLD_INJECTED
        return (yield from observed(dialogue(doc, setting, shots, gold_activities, prompts),
                                    taken.setdefault((doc.id, source), [])))

    monkeypatch.setattr(pipeline, "dialogue", observed_dialogue)
    for width in (1, 4):
        taken = sent[width] = {}
        outdir = tmp_path / f"w{width}"
        with pytest.raises(ExtractionAborted, match="injected failure") as excinfo:
            run_suite(entries, [prompting.RAW], JitteryBackend(oracle, width, fail=fail),
                      outdir)
        aborted[width] = excinfo.value.run
        written[width] = {p.relative_to(outdir): p.read_bytes()
                          for p in outdir.rglob("*") if p.is_file()}
    assert aborted[4].model.doc_id == aborted[1].model.doc_id == doc.id
    assert aborted[4].activity_source == aborted[1].activity_source == EXTRACTED
    assert all(sent[4][key] == pairs for key, pairs in sent[1].items())
    assert aborted[4].counters == aborted[1].counters == \
        {"q1": 1, "q2": len(gold.activities), "q3": 5}
    assert aborted[4].model.to_json() == aborted[1].model.to_json()
    assert written[4] == written[1]
    assert sorted(p.name for p in written[1]) == sorted(
        f"{d.id}_raw_{source}.json" for d, _ in corpus.evaluation_documents(entries)[:3]
        for source in (EXTRACTED, GOLD_INJECTED))
    assert not dispatch_threads()
