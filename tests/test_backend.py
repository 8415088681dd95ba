import contextlib
import functools
import hashlib
import http.server
import json
import os
import re
import socket
import ssl
import sys
import tempfile
import threading
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pexkit import backend as bk
from pexkit import pipeline
from pexkit.errors import (BackendError, CacheConflictError, CacheCorruptError,
                           CacheMissError)
from pexkit.prompting import Q1, Q2, Q3, RAW, Prompt, default_params

PARAMS = bk.CompletionParams()

# A prompt head longer than the load's JSON index key, which is its JSON's
# length and its last 64 bytes.
HEAD = "Consider the following process:\n" + "The clerk files the form. " * 8 + "\nQ: "


def make_prompt(text="hello", question=Q1, doc_id="10.1", x=None, y=None, params=PARAMS,
                head=""):
    """A prompt whose text is ``head`` and ``text`` joined."""
    return Prompt(head, text, question, RAW, doc_id, x, y, params,
                  bk.transcript_digest(head + text, params))


def _held(entry: dict) -> dict:
    """What ``lookup`` gives for a cache line's decoded ``entry``."""
    return {key: entry[key] for key in ("digest", "prompt", "completion")}


def test_params_validation():
    with pytest.raises(BackendError):
        bk.CompletionParams(temperature=-1)
    with pytest.raises(BackendError):
        bk.CompletionParams(nucleus=1.5)
    with pytest.raises(BackendError):
        bk.CompletionParams(max_tokens=0)


def test_default_params_are_reproducible():
    for q in (Q1, Q2, Q3):
        p = default_params(q)
        assert p.temperature == 0.0
        assert p.nucleus == 1.0
    assert default_params(Q1).max_tokens == 256
    assert default_params(Q3).max_tokens == 8


def test_cache_record_lookup_roundtrip(tmp_path):
    cache = bk.TranscriptCache(tmp_path / "c.jsonl")
    cache.record(make_prompt("p"), "done")
    digest = bk.transcript_digest("p", PARAMS)
    assert cache.lookup(digest)["completion"] == "done"
    assert cache.lookup("0" * 64) is None


def test_cache_conflict(tmp_path):
    cache = bk.TranscriptCache(tmp_path / "c.jsonl")
    cache.record(make_prompt("p"), "one")
    cache.record(make_prompt("p"), "one")  # idempotent re-record
    with pytest.raises(CacheConflictError):
        cache.record(make_prompt("p"), "two")


def test_cache_load_rejects_a_digest_loaded_with_another_completion(tmp_path):
    """Two lines with one digest but different completions, as two writers
    could append them, are a conflict that names the second line, as
    recording the second completion would be."""
    path = tmp_path / "c.jsonl"
    bk.TranscriptCache(path).record(make_prompt("p"), "a")
    entry = json.loads(path.read_text())
    path.write_text(path.read_text() + json.dumps({**entry, "completion": "b"}) + "\n")
    with pytest.raises(CacheConflictError, match=":2: digest"):
        bk.TranscriptCache(path)


def test_cache_load_keeps_the_first_of_identical_duplicates(tmp_path):
    path = tmp_path / "c.jsonl"
    bk.TranscriptCache(path).record(make_prompt("p"), "a")
    entry = json.loads(path.read_text())
    path.write_text(path.read_text() + json.dumps({**entry, "recorded_at": "later"}) + "\n")
    cache = bk.TranscriptCache(path)
    assert len(cache) == 1
    assert cache.lookup(entry["digest"]) == _held(entry)


def test_cache_loads_params_equal_by_value_that_dump_apart(tmp_path):
    """A line with ``"temperature": 0`` and one with ``0.0``, each with the
    digest of its own params JSON, both load: equal params that dump apart
    are not one entry's params."""
    path = tmp_path / "c.jsonl"
    lines = []
    for temperature in (0, 0.0):
        params = {**PARAMS.to_dict(), "temperature": temperature}
        payload = "p\x00" + json.dumps(params, sort_keys=True)
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        lines.append(json.dumps({"digest": digest, "prompt": "p", "params": params,
                                 "completion": str(temperature)}) + "\n")
    path.write_text("".join(lines))
    cache = bk.TranscriptCache(path)
    assert len(cache) == 2
    assert [cache.lookup(json.loads(line)["digest"])["completion"] for line in lines] == \
        ["0", "0.0"]


def test_cache_load_holds_a_shared_head_once(tmp_path):
    """500 entries whose prompts share one 4 kB head hold that head once:
    what the load leaves allocated is far below 500 copies of it."""
    path = tmp_path / "c.jsonl"
    head = "Consider the following process:\n" + "The clerk files the form. " * 156 + "\nQ: "
    cache = bk.TranscriptCache(path)
    for k in range(500):
        cache.record(make_prompt(f"question {k}?\nA: ", head=head), f"answer {k}")
    tracemalloc.start()
    try:
        loaded = bk.TranscriptCache(path)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded) == 500
    assert held < 500 * len(head) // 2, held


def test_cache_record_holds_a_shared_head_once(tmp_path):
    """500 entries recorded with prompts built on one 4 kB head object, as
    a batch's prompts are, hold that head once: what recording leaves
    allocated is far below 500 copies of it."""
    head = "Consider the following process:\n" + "The clerk files the form. " * 156 + "\nQ: "
    cache = bk.TranscriptCache(tmp_path / "c.jsonl")
    tracemalloc.start()
    try:
        for k in range(500):
            cache.record(make_prompt(f"question {k}?\nA: ", head=head), f"answer {k}")
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cache) == 500
    assert held < 500 * len(head) // 2, held
    text = f"{head}question 7?\nA: "
    assert cache.lookup(bk.transcript_digest(text, PARAMS))["prompt"] == text


def test_cache_holds_one_params_dict_per_distinct_params(tmp_path):
    """2000 short entries hold no params, only their prompts and
    completions: recording them holds under 500 B an entry, and loading them
    under 500 B (about 330 B each on Python 3.11). Holding one params dict
    shared by all of them held 560-650 B recorded and 800-930 B loaded."""
    path = tmp_path / "c.jsonl"
    cache = bk.TranscriptCache(path)
    tracemalloc.start()
    try:
        for k in range(2000):
            cache.record(make_prompt(f"question {k}?\nA: "), f"answer {k}")
        recorded, _ = tracemalloc.get_traced_memory()
        tracemalloc.clear_traces()
        loaded = bk.TranscriptCache(path)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cache) == len(loaded) == 2000
    assert recorded < 2000 * 500, recorded
    assert held < 2000 * 500, held


def _params_line(k: int, stored: dict) -> str:
    """A cache line of the k-th question under ``HEAD``, with the params
    ``stored`` as given, and the digest of the params they build."""
    prompt = f"{HEAD}question {k}?\nA: "
    params = bk.CompletionParams(stored["temperature"], stored["nucleus"],
                                 stored["max_tokens"], tuple(stored["stop"]))
    return json.dumps({"digest": bk.transcript_digest(prompt, params), "prompt": prompt,
                       "params": stored, "completion": f"answer {k}"}) + "\n"


def test_cache_lookup_gives_each_line_its_own_prompt_and_completion(tmp_path):
    """Loaded lines whose params differ only in key order, by an extra key,
    or as ``temperature`` 0 against 0.0 each look up as their own line's
    digest, prompt and completion. Changing a result changes no later one."""
    path = tmp_path / "c.jsonl"
    stored = PARAMS.to_dict()
    variants = [stored, dict(stored), dict(reversed(stored.items())), dict(stored),
                {**stored, "extra": ["kept"]}, {**stored, "temperature": 0},
                {**stored, "temperature": 0.0}, {**stored, "temperature": 0}]
    lines = [_params_line(k, variant) for k, variant in enumerate(variants)]
    path.write_text("".join(lines))
    cache = bk.TranscriptCache(path)
    digests = [json.loads(line)["digest"] for line in lines]
    assert len(cache) == len(lines)
    for digest, line in zip(digests, lines):
        assert cache.lookup(digest) == _held(json.loads(line))
    for digest, line in zip(digests, lines):
        cache.lookup(digest).update(prompt="changed", completion="changed", added=True)
        assert cache.lookup(digest) == _held(json.loads(line))


def test_cache_append_preserves_entries(tmp_path):
    path = tmp_path / "c.jsonl"
    cache = bk.TranscriptCache(path)
    cache.record(make_prompt("p1"), "a")
    cache.record(make_prompt("p2"), "b")
    reloaded = bk.TranscriptCache(path)
    assert len(reloaded) == 2
    reloaded.record(make_prompt("p3"), "c")
    assert len(bk.TranscriptCache(path)) == 3


def test_cache_rejects_tampered_digest(tmp_path):
    path = tmp_path / "c.jsonl"
    cache = bk.TranscriptCache(path)
    cache.record(make_prompt("p"), "a")
    entry = json.loads(path.read_text().strip())
    entry["prompt"] = "tampered"
    path.write_text(json.dumps(entry) + "\n")
    with pytest.raises(CacheConflictError, match=r"c\.jsonl:1: cache entry digest"):
        bk.TranscriptCache(path)
    # A tampered question line after an entry with the same head and params,
    # so that the line is read by position, is named as line 2.
    path.unlink()
    cache = bk.TranscriptCache(path)
    cache.record(make_prompt("first?\nA: ", head=HEAD), "a")
    cache.record(make_prompt("second?\nA: ", head=HEAD), "b")
    path.write_text(path.read_text().replace("second?", "altered?"))
    with pytest.raises(CacheConflictError, match=r"c\.jsonl:2: cache entry digest"):
        bk.TranscriptCache(path)


def test_cache_skips_torn_final_line(tmp_path, caplog):
    path = tmp_path / "c.jsonl"
    bk.TranscriptCache(path).record(make_prompt("p1"), "a")
    with path.open("a") as handle:
        handle.write('{"digest": "ab')
    cache = bk.TranscriptCache(path)
    assert len(cache) == 1
    assert "torn final cache line" in caplog.text


def test_cache_append_after_torn_line_starts_fresh(tmp_path):
    path = tmp_path / "c.jsonl"
    bk.TranscriptCache(path).record(make_prompt("p1"), "a")
    with path.open("a") as handle:
        handle.write('{"digest": "ab')
    bk.TranscriptCache(path).record(make_prompt("p2"), "b")
    lines = path.read_text().splitlines()
    assert [json.loads(line)["completion"] for line in lines] == ["a", "b"]
    assert len(bk.TranscriptCache(path)) == 2


def test_cache_append_after_unterminated_line_starts_fresh(tmp_path):
    path = tmp_path / "c.jsonl"
    bk.TranscriptCache(path).record(make_prompt("p1"), "a")
    path.write_text(path.read_text().rstrip("\n"))
    bk.TranscriptCache(path).record(make_prompt("p2"), "b")
    assert len(bk.TranscriptCache(path)) == 2


@pytest.mark.parametrize("tear", ['{"digest": "ab', ""])
def test_cache_mend_keeps_lines_appended_since_load(tmp_path, tear):
    path = tmp_path / "c.jsonl"
    bk.TranscriptCache(path).record(make_prompt("p1"), "a")
    path.write_text(path.read_text() + tear if tear else path.read_text().rstrip("\n"))
    first, second = bk.TranscriptCache(path), bk.TranscriptCache(path)
    second.record(make_prompt("p2"), "b")
    first.record(make_prompt("p3"), "c")
    assert len(bk.TranscriptCache(path)) == 3


def test_cache_appends_from_two_caches_on_one_path_keep_every_entry(tmp_path, monkeypatch):
    """Two caches on one path, as two processes would hold them, each mend
    the torn tail they loaded and append from four threads: every line
    parses, and no entry is lost."""
    path = tmp_path / "c.jsonl"
    bk.TranscriptCache(path).record(make_prompt("p0"), "a")
    path.write_text(path.read_text() + '{"digest": "ab')
    caches = [bk.TranscriptCache(path), bk.TranscriptCache(path)]
    pread = os.pread
    waits = [0.1, 0.02]  # popped from the end

    def slow_pread(fd, n, offset):
        # Between reading the torn tail and cutting it off, the first cache
        # to read it waits less than the second.
        data = pread(fd, n, offset)
        if n > 1:
            with contextlib.suppress(IndexError):
                time.sleep(waits.pop())
        return data

    monkeypatch.setattr(os, "pread", slow_pread)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def record(k):
            for i in range(5):
                caches[k % 2].record(make_prompt(f"p{k}.{i}"), f"c{k}.{i}")
        with ThreadPoolExecutor(8) as pool:
            list(pool.map(record, range(8), timeout=30))
    finally:
        sys.setswitchinterval(switch)
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    assert sorted(e["prompt"] for e in entries) == sorted(
        ["p0"] + [f"p{k}.{i}" for k in range(8) for i in range(5)])
    assert len(bk.TranscriptCache(path)) == 41


def test_cache_rejects_a_head_altered_before_its_key(tmp_path):
    """An entry whose head differs from an earlier entry's only before the
    characters that key the lookup, with its question line and digest kept,
    does not recompute to its digest."""
    path = tmp_path / "c.jsonl"
    cache = bk.TranscriptCache(path)
    cache.record(make_prompt("first?\nA: ", head=HEAD), "a")
    cache.record(make_prompt("second?\nA: ", head=HEAD), "b")
    first, second = path.read_text().splitlines()
    entry = json.loads(second)
    entry["prompt"] = "c" + entry["prompt"][1:]
    path.write_text("\n".join([first, json.dumps(entry)]) + "\n")
    with pytest.raises(CacheConflictError):
        bk.TranscriptCache(path)


def test_cache_loads_heads_that_share_only_their_key(tmp_path):
    """Two heads of one length and the same last 64 characters, which differ
    earlier, each give their own entries' digests."""
    path = tmp_path / "c.jsonl"
    texts = [head + question for head in (HEAD, "c" + HEAD[1:])
             for question in ("first?\nA: ", "second?\nA: ")]
    cache = bk.TranscriptCache(path)
    for k, text in enumerate(texts):
        cache.record(make_prompt(text), f"answer {k}")
    reloaded = bk.TranscriptCache(path)
    assert len(reloaded) == 4
    for k, text in enumerate(texts):
        assert reloaded.lookup(bk.transcript_digest(text, PARAMS))["completion"] == f"answer {k}"


# Pieces of prompt text: the renderer's split point, near misses of it, and
# non-ASCII characters of each width, to sit next to the split.
_text_piece = st.sampled_from(["\nQ: ", "Q: ", "\n", "\nA: ", "é", "活動", "\U0001f600", "x"])
_text = st.lists(_text_piece, max_size=8).map("".join)


@settings(max_examples=300, deadline=None)
@given(heads=st.lists(_text, min_size=1, max_size=3),
       lines=st.lists(st.tuples(st.integers(0, 9), _text, st.sampled_from((Q1, Q2, Q3))),
                      min_size=1, max_size=12))
def test_cache_load_gives_each_prompt_its_shared_head_and_state(heads, lines):
    """A load splits each prompt, in any order, after its last ``"\\nQ: "``
    into a head, one held object for every entry with that head, and that
    head's state, hashed once, from which the rest hashes to the prompt's
    digest: prompts with no, one or several ``"\\nQ: "``, prompts that share
    a head, and heads whose JSON shares only the load's JSON index key, its
    length and its last 64 bytes (``"ab"`` or ``"ba"`` before a common
    end). A line is decoded whole only when its head is ``""`` or new, or
    its params text is new: every other line, each of two heads that share
    the index key too, is read by position."""
    common = "活" * 64 + "\nQ: "
    stems = [""]
    for head in heads:
        stems += [head, "ab" + head + common, "ba" + head + common]
    texts, data = [], b""
    for stem, rest, question in lines:
        text = stems[stem % len(stems)] + rest
        digest = bk.transcript_digest(text, default_params(question))
        texts.append((text, question, digest))
        data += (json.dumps({"digest": digest, "prompt": text,
                             "params": default_params(question).to_dict(),
                             "completion": digest[:8],
                             "recorded_at": "2024-01-01T00:00:00+00:00"}) + "\n").encode()
    hashed, whole = [], []
    state_of, read_whole = bk.head_state, bk._read_whole

    def counted_state(head):
        hashed.append((head, state_of(head)))
        return hashed[-1][1]

    def counted_read(entry, *tables):
        whole.append(entry["prompt"])
        return read_whole(entry, *tables)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        path.write_bytes(data)
        with mock.patch.object(bk, "head_state", counted_state), \
                mock.patch.object(bk, "_read_whole", counted_read):
            cache = bk.TranscriptCache(path)
    states = dict(hashed)
    assert len(states) == len(hashed)  # each head hashed once
    held, expected_whole, heads_met, questions_met = {}, [], {""}, set()
    for text, question, digest in texts:
        head = text[:text.rfind("\nQ: ") + 4] if "\nQ: " in text else ""
        loaded = cache._entries[digest][0]
        assert loaded == head
        assert held.setdefault(head, loaded) is loaded
        assert cache.lookup(digest)["prompt"] == text
        assert bk.transcript_digest(text[len(head):], default_params(question),
                                    states.get(head)) == digest
        if not head or head not in heads_met or question not in questions_met:
            expected_whole.append(text)
        heads_met.add(head)
        questions_met.add(question)
    assert set(states) == set(held) - {""}
    assert whole == expected_whole


@pytest.mark.parametrize("bad", [
    '{"digest": "ab', "[1, 2]", '{"digest": "ab"}',
    '{"digest": "ab", "prompt": "p", "params": {"temperature": 0.0, "nucleus": 1.0, '
    '"max_tokens": 8, "stop": []}, "completion": 5}',
    '{"digest": "ab", "prompt": 5, "params": {"temperature": 0.0, "nucleus": 1.0, '
    '"max_tokens": 8, "stop": []}, "completion": "c"}',
    '{"digest": "ab", "prompt": "\\ud800 head\\nQ: q\\nA: ", "params": {"temperature": 0.0, '
    '"nucleus": 1.0, "max_tokens": 8, "stop": []}, "completion": "c"}',
    '{"digest": "ab", "prompt": "p", "params": {"temperature": 0.0, "nucleus": 1.0, '
    '"max_tokens": 8, "stop": [["Q:"]]}, "completion": "c"}',
    '{"digest": "ab", "prompt": "p", "params": {"temperature": -1, "nucleus": 1.0, '
    '"max_tokens": 8, "stop": []}, "completion": "c"}',
    '{"digest": "ab", "prompt": "p", "params": {"temperature": 0.0, "nucleus": 2, '
    '"max_tokens": 8, "stop": []}, "completion": "c"}',
    '{"digest": "ab", "prompt": "p", "params": {"temperature": 0.0, "nucleus": 1.0, '
    '"max_tokens": 0, "stop": []}, "completion": "c"}'])
def test_cache_corrupt_line_mid_file(tmp_path, bad):
    path = tmp_path / "c.jsonl"
    cache = bk.TranscriptCache(path)
    cache.record(make_prompt("p1"), "a")
    cache.record(make_prompt("p2"), "b")
    first, second = path.read_text().splitlines()
    path.write_text("\n".join([first, bad, second]) + "\n")
    with pytest.raises(CacheCorruptError, match=":2:"):
        bk.TranscriptCache(path)


def reference_load(path):
    """What loading the cache at ``path`` gives with every line decoded whole:
    digest -> entry, the first of identical repeats kept; or, at the first
    line that fails, the error class and the line's number."""
    entries, torn = {}, None
    with path.open("rb") as handle:
        for number, raw in enumerate(handle, 1):
            if raw.isspace():
                continue
            if torn is not None:
                return CacheCorruptError, torn
            try:
                entry = json.loads(raw.decode("utf-8"))
            except (ValueError, RecursionError):
                torn = number
                continue
            try:
                stored = entry["params"]
                params = bk.CompletionParams(stored["temperature"], stored["nucleus"],
                                             stored["max_tokens"], tuple(stored["stop"]))
                prompt, digest, completion = entry["prompt"], entry["digest"], entry["completion"]
                if not isinstance(prompt, str) or not isinstance(completion, str):
                    raise TypeError(entry)
                expected = bk.transcript_digest(prompt, params)
                completion.encode("utf-8")
            except (KeyError, TypeError, UnicodeEncodeError):
                return CacheCorruptError, number
            if digest != expected or entries.setdefault(digest, entry)["completion"] != completion:
                return CacheConflictError, number
    return entries


# Pieces of cache line text: the head's end and near misses of it, JSON
# escapes, quotes and a "prompt" key, and non-ASCII characters of each width.
_line_piece = st.sampled_from(["\nQ: ", "Q: ", "\n", '"', "\\", "\\n", "\\u0043", '"prompt"',
                               '", "prompt": "', "é", "活", "\U0001f600", " ", "\x00",
                               "C", "p", "x"])
_line_text = st.lists(_line_piece, max_size=6).map("".join)

# How a line is written: as ``record`` writes it, or re-encoded.
_ENCODINGS = {
    "record": json.dumps,
    "sorted keys": functools.partial(json.dumps, sort_keys=True),
    "unescaped": functools.partial(json.dumps, ensure_ascii=False),
    "C and Q escaped": lambda entry: json.dumps(entry).replace("C", "\\u0043").replace(
        "Q", "\\u0051"),
    "p escaped": lambda entry: json.dumps(entry).replace("p", "\\u0070"),
}
_STORED_PARAMS = [PARAMS.to_dict(), {**PARAMS.to_dict(), "temperature": 0},
                  {"temperature": 0.5, "nucleus": True, "max_tokens": 8, "stop": []}]


# How a line ends or differs from ``record``'s layout after its prompt,
# each of which the load reads by position or decodes whole: as ``record``
# writes it; a ``recorded_at`` missing or not a string; a key after
# ``recorded_at``; a CRLF or whitespace line end; a JSON value after the
# closing brace; or params written with compact separators.
_RECORDED_AT = ', "recorded_at": "2024-01-01T00:00:00+00:00"'
_VARIANTS = {
    "record": lambda text, params: text,
    "no recorded_at": lambda text, params: text.replace(_RECORDED_AT, ""),
    "recorded_at 5": lambda text, params: text.replace(_RECORDED_AT, ', "recorded_at": 5'),
    "key after": lambda text, params: text[:-1] + ', "model": "m"}',
    "CRLF": lambda text, params: text + "\r",
    "whitespace": lambda text, params: text + " \t ",
    "value after": lambda text, params: text + " {}",
    "compact params": lambda text, params: text.replace(
        json.dumps(params), json.dumps(params, separators=(",", ":"))),
}


def _mostly(usual, *others):
    """``usual`` four times in five, else one of ``others``: most lines share
    the first head, and are written as ``record`` writes them, with no second
    "prompt" key."""
    return st.sampled_from([usual] * 4 * len(others) + list(others))


@settings(max_examples=300, deadline=None)
@given(heads=st.lists(_line_text, min_size=1, max_size=2),
       lines=st.lists(st.tuples(
           _mostly(0, 1, 2, 3, 4), st.integers(0, 7), _line_text, _line_text,
           st.integers(0, 2),
           _mostly("record", *sorted(set(_ENCODINGS) - {"record"})),
           _mostly(None, '"prompt"', '"\\u0070rompt"', '"prom\\u0070t"', '"promp\\u0074"'),
           _line_text,
           _mostly("record", *sorted(set(_VARIANTS) - {"record"}))),
           min_size=2, max_size=10),
       surrogate=st.one_of(st.none(), st.tuples(st.integers(0, 9),
                                                 st.sampled_from(["prompt", "completion"]))),
       tampered=st.one_of(st.none(), st.integers(0, 9)),
       torn=st.one_of(st.none(), st.integers(0, 300)))
def test_cache_load_matches_a_whole_line_load(heads, lines, surrogate, tampered, torn):
    """Loading a cache, with each line in ``record``'s layout whose head and
    params an earlier line loaded read by position, gives what decoding
    every line whole gives: each digest's entry, or the same error class at
    the same line. Lines share heads, also heads that share only their
    lookup key, with escapes and non-ASCII next to the split; hold
    ``"\\nQ: "``, ``"prompt"``, quotes, backslashes and ``\\u`` escapes in
    their question lines and completions; are re-encoded with sorted keys,
    unescaped or with ``C``-style escapes; repeat their "prompt" key, whose
    last value json.loads keeps; or end as ``_VARIANTS`` has them. One line
    may have a lone surrogate at the start of its head or at the end of its
    completion, one a digest that does not recompute, and the last may be
    torn."""
    stems = [stem + head + "\nQ: " for head in heads for stem in ("", "x" * 70, "y" * 70)]
    stems.append("")
    data = b""
    for k, (stem, number, question, completion, params, encoding, repeat,
            repeated, variant) in enumerate(lines):
        prompt = ("\ud800" if (k, "prompt") == surrogate else "") + \
            stems[stem % len(stems)] + f"{number}? {question}\nA: "
        completion += "\udc00" if (k, "completion") == surrogate else ""
        stored = _STORED_PARAMS[params]
        payload = ((repeated if repeat else prompt) + "x" * (k == tampered) + "\x00"
                   + json.dumps(stored, sort_keys=True))
        entry = {"digest": hashlib.sha256(payload.encode("utf-8", "surrogatepass")).hexdigest(),
                 "prompt": prompt, "params": stored, "completion": completion,
                 "recorded_at": "2024-01-01T00:00:00+00:00"}
        text = _ENCODINGS[encoding](entry)
        if repeat:
            text = f"{text[:-1]}, {repeat}: {json.dumps(repeated)}}}"
        text = _VARIANTS[variant](text, stored)
        data += text.encode("utf-8", "surrogatepass") + b"\n"
    if torn is not None:
        data = data[:max(0, len(data) - 1 - torn)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        path.write_bytes(data)
        expected = reference_load(path)
        try:
            cache = bk.TranscriptCache(path)
        except (CacheCorruptError, CacheConflictError) as exc:
            assert (type(exc), int(re.search(r"c\.jsonl:(\d+):", str(exc))[1])) == expected
            return
    assert isinstance(expected, dict), expected
    assert len(cache) == len(expected)
    for digest, entry in expected.items():
        assert cache.lookup(digest) == _held(entry)


def test_cache_without_inner_replays(tmp_path):
    cache = bk.TranscriptCache(tmp_path / "c.jsonl")
    prompt = make_prompt("the prompt")
    cache.record(prompt, "recorded")
    assert cache.complete(prompt, PARAMS) == "recorded"
    assert cache.complete(prompt, PARAMS) == "recorded"
    with pytest.raises(CacheMissError, match=r"doc 10\.1, q1, raw"):
        cache.complete(make_prompt("unseen"), PARAMS)


def test_replay_fallback_records(tmp_path):
    """A miss is asked of the inner backend, recorded, and replays from a
    fresh load of the cache without an inner backend."""
    path = tmp_path / "c.jsonl"
    inner = CountingStub()
    cached = bk.TranscriptCache(path, inner)
    assert cached.complete(make_prompt("unseen"), PARAMS) == "answer to unseen"
    assert inner.calls == {"unseen": 1}
    replay = bk.TranscriptCache(path)
    assert replay.complete(make_prompt("unseen"), PARAMS) == "answer to unseen"
    assert len(path.read_text().splitlines()) == 1


def test_recording_backend_write_through(tmp_path):
    """A recorded prompt makes no inner call; a miss makes one, and a repeat
    of it is served from the cache. Recording again over the complete cache
    makes no inner call and leaves the file as it was."""
    path = tmp_path / "c.jsonl"
    inner = CountingStub()
    cached = bk.TranscriptCache(path, inner)
    cached.record(make_prompt("recorded"), "answer to recorded")
    assert cached.complete(make_prompt("recorded"), PARAMS) == "answer to recorded"
    assert cached.complete(make_prompt("unseen"), PARAMS) == "answer to unseen"
    assert cached.complete(make_prompt("unseen"), PARAMS) == "answer to unseen"
    assert inner.calls == {"unseen": 1}
    assert len(path.read_text().splitlines()) == 2
    recorded = path.read_bytes()
    again = CountingStub()
    rerun = bk.TranscriptCache(path, again)
    for text in ("recorded", "unseen", "recorded"):
        assert rerun.complete(make_prompt(text), PARAMS) == "answer to " + text
    assert again.calls == {}
    assert path.read_bytes() == recorded


def test_cache_write_failure_is_a_backend_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cache = bk.TranscriptCache(blocker / "c.jsonl")
    with pytest.raises(BackendError, match="cannot write transcript cache"):
        cache.record(make_prompt("p"), "a")
    assert cache.lookup(bk.transcript_digest("p", PARAMS)) is None


def test_truncate_at_stop():
    assert bk.truncate_at_stop("yes\n\nQ: more", ("\n\n", "Q:")) == "yes"
    assert bk.truncate_at_stop("clean", ("\n\n",)) == "clean"


def test_oracle_answers(oracle, index):
    _, gold = index["10.1"]
    q1 = oracle.complete(make_prompt(question=Q1), PARAMS)
    assert q1.splitlines() == list(gold.activities)
    q2 = oracle.complete(
        make_prompt(question=Q2, x="submits a purchase order"), PARAMS)
    assert q2 == "the customer"
    # (0, 1) is a gold follows edge: "checks the stock" follows "submits..."
    yes = oracle.complete(make_prompt(
        question=Q3, x="checks the stock", y="submits a purchase order"), PARAMS)
    assert yes == "Yes"
    no = oracle.complete(make_prompt(
        question=Q3, x="submits a purchase order", y="checks the stock"), PARAMS)
    assert no == "No"


def test_oracle_unknown_document(oracle):
    with pytest.raises(BackendError):
        oracle.complete(make_prompt(doc_id="99.9"), PARAMS)


class LoopbackHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        # Headers and body go out in two writes; without it the body waits
        # for the client's delayed ACK of the headers.
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def read_payload(self):
        return json.loads(self.rfile.read(int(self.headers["Content-Length"])))

    def answer(self, status, headers, payload):
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        for name, value in {"Content-Type": "application/json", **headers}.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class EchoHandler(LoopbackHandler):
    """Answers a completion request with ``re: <prompt>``, over HTTP/1.1."""

    def do_POST(self):
        payload = self.read_payload()
        # Before answering, so that the client sees every peer it was answered on.
        self.server.peers.add(self.client_address)
        self.answer(200, {}, {"choices": [{"text": "re: " + payload["prompt"]}]})
        # Close without saying so: the client finds out on its next request.
        self.close_connection = self.server.close_after_response


class ScriptedHandler(LoopbackHandler):
    """Answers each request with the next ``(status, headers, payload)`` of
    the server's ``script``, and records its path, ``Authorization`` header
    and payload in the server's ``requests``."""

    def do_POST(self):
        self.server.requests.append(
            (self.path, self.headers["Authorization"], self.read_payload()))
        self.answer(*self.server.script.pop(0))


class BarrierHandler(EchoHandler):
    """Echoes a request only once ``server.barrier`` has as many requests
    waiting as it has parties, so that they are all open at once; a broken
    barrier is answered with a 500."""

    def do_POST(self):
        payload = self.read_payload()
        self.server.peers.add(self.client_address)
        try:
            self.server.barrier.wait()
        except threading.BrokenBarrierError:
            self.answer(500, {}, {})
        else:
            self.answer(200, {}, {"choices": [{"text": "re: " + payload["prompt"]}]})


@pytest.fixture()
def loopback():
    """Start a server on a free loopback port: an echo server whose ``peers``
    collects the client address of each connection a request came on, or,
    given a ``script``, a scripted one, or one of the given ``handler``."""
    servers = []

    def start(close_after_response=False, script=None, handler=None):
        handler = handler or (EchoHandler if script is None else ScriptedHandler)
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
        server.peers = set()
        server.barrier = threading.Barrier(16, timeout=5)
        server.close_after_response = close_after_response
        server.script, server.requests = list(script or ()), []
        server.url = f"http://127.0.0.1:{server.server_address[1]}/v1"
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        servers.append((server, thread))
        return server

    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture()
def api_key(monkeypatch):
    monkeypatch.setenv(bk.API_KEY_ENV, "k")


@pytest.fixture()
def sleeps(monkeypatch):
    """The waits between attempts, which are recorded instead of slept."""
    waits = []
    monkeypatch.setattr(bk.time, "sleep", waits.append)
    return waits


def completion(text):
    return (200, {}, {"choices": [{"text": text}]})


def assert_on_the_wire(server):
    for path, authorization, _ in server.requests:
        assert path == "/v1/completions"
        assert authorization == "Bearer k"


def test_live_backend_retries_then_succeeds(loopback, api_key, sleeps):
    server = loopback(script=[(429, {}, {}), completion(" the answer\n\nQ: junk")])
    live = bk.LiveBackend(server.url, "engine")
    prompt = make_prompt("p")
    assert live.complete(prompt, PARAMS) == " the answer"
    assert len(server.requests) == 2
    assert_on_the_wire(server)
    # params identical across retries
    assert server.requests[0][2] == server.requests[1][2]
    live.close()


def test_live_backend_exhausts_retries(loopback, api_key, sleeps):
    server = loopback(script=[(500, {}, {})] * bk.MAX_ATTEMPTS)
    live = bk.LiveBackend(server.url, "engine")
    with pytest.raises(BackendError, match="retries exhausted"):
        live.complete(make_prompt("p"), PARAMS)
    assert len(server.requests) == bk.MAX_ATTEMPTS
    assert_on_the_wire(server)
    live.close()


def test_live_backend_requires_key(monkeypatch):
    monkeypatch.delenv(bk.API_KEY_ENV, raising=False)
    with pytest.raises(BackendError, match="API key"):
        bk.LiveBackend("https://api.example/v1", "engine")


@pytest.mark.parametrize("width", [0, -1])
def test_live_backend_rejects_concurrency_below_one(api_key, width):
    with pytest.raises(BackendError, match="max_concurrency"):
        bk.LiveBackend("https://api.example/v1", "engine", max_concurrency=width)


def test_live_backend_honours_retry_after(loopback, api_key, sleeps):
    server = loopback(script=[
        (429, {"Retry-After": "7"}, {}),
        (429, {"Retry-After": "120"}, {}),
        (503, {"Retry-After": "9"}, {}),
        (429, {"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"}, {}),
        completion("ok"),
    ])
    live = bk.LiveBackend(server.url, "engine")
    assert live.complete(make_prompt("p"), PARAMS) == "ok"
    assert_on_the_wire(server)
    # numeric 429 header; capped at the 30 s ceiling; 5xx and an HTTP date
    # fall back to exponential backoff (1 * 2**2, 1 * 2**3)
    assert sleeps == [7, 30.0, 4.0, 8.0]
    live.close()


@pytest.mark.parametrize("payload", [[], {"choices": "x"}, {"choices": [{"text": None}]},
                                     {"choices": [{"text": 5}]},
                                     {"choices": [{"text": "a lone \ud800"}]},
                                     pytest.param(b"[" * 200000, id="nested-too-deep")])
def test_live_backend_malformed_response_is_a_backend_error(loopback, api_key, sleeps,
                                                            payload):
    server = loopback(script=[(200, {}, payload)])
    live = bk.LiveBackend(server.url, "engine")
    with pytest.raises(BackendError, match="malformed completion response"):
        live.complete(make_prompt("p"), PARAMS)
    assert len(server.requests) == 1
    assert sleeps == []
    live.close()


@pytest.mark.parametrize("endpoint", ["ftp://x", "localhost:8080/v1", "http:///v1",
                                      "http://x:port/v1", "http://[::1/v1",
                                      "http://two words/v1",
                                      f"http://{'a' * 64}.example/v1", "http://a..b/v1"])
def test_live_backend_rejects_a_non_http_endpoint(api_key, endpoint):
    with pytest.raises(BackendError, match="endpoint"):
        bk.LiveBackend(endpoint, "engine")


@pytest.mark.parametrize("key", ["sk-secret\n", "\u043a\u043b\u044e\u0447"])
def test_live_backend_rejects_a_key_that_is_not_a_header_value(monkeypatch, key):
    monkeypatch.setenv(bk.API_KEY_ENV, key)
    with pytest.raises(BackendError, match=f"{bk.API_KEY_ENV} is not a valid HTTP header") as exc:
        bk.LiveBackend("http://127.0.0.1:9/v1", "engine")
    assert key.strip() not in str(exc.value)


def ask_all(live, texts, width):
    with ThreadPoolExecutor(width) as pool:
        return list(pool.map(lambda t: live.complete(make_prompt(t), PARAMS), texts))


def test_live_backend_reuses_keep_alive_connections(loopback, api_key):
    server = loopback()
    live = bk.LiveBackend(server.url, "engine", max_concurrency=4)
    try:
        texts = [f"s{i}" for i in range(5)]
        assert [live.complete(make_prompt(t), PARAMS) for t in texts] == \
            ["re: " + t for t in texts]
        assert len(server.peers) == 1
        # each batch on a new executor, as pipeline.extract sends them
        for batch in ("a", "b"):
            texts = [f"{batch}{i}" for i in range(8)]
            assert ask_all(live, texts, 4) == ["re: " + t for t in texts]
        assert len(server.peers) <= 4
    finally:
        live.close()


def test_live_backend_holds_16_requests_open_by_default(loopback, api_key, sleeps):
    """The default width: 16 requests reach the server at once, on 16
    connections; a narrower client leaves the server's barrier waiting."""
    server = loopback(handler=BarrierHandler)
    live = bk.LiveBackend(server.url, "engine")
    try:
        assert live.max_concurrency == 16
        texts = [f"s{i}" for i in range(32)]
        assert ask_all(live, texts, 32) == ["re: " + t for t in texts]
        assert len(server.peers) == 16
        assert sleeps == []
    finally:
        live.close()


class Blocked(Exception):
    """Raised where ``LiveBackend._acquire`` would wait for a free slot."""


def never_wait(live, monkeypatch):
    """Make ``live``'s gate raise ``Blocked`` instead of waiting."""
    def wait(timeout=None):
        raise Blocked

    monkeypatch.setattr(live._gate, "wait", wait)


def in_flight(live):
    """The requests ``live`` has in flight: its connections not idle."""
    return live.max_concurrency - len(live._idle)


def test_live_backend_width_rule(api_key, caplog, monkeypatch):
    """A 429 halves the width once per round, down to 1; ``width``
    successes in a row add 1, up to ``max_concurrency``. Once every request
    has come back, none is in flight, and the gate lets ``width`` start."""
    caplog.set_level("DEBUG", logger=bk.__name__)
    live = bk.LiveBackend("http://127.0.0.1:9/v1", "engine", max_concurrency=16)
    never_wait(live, monkeypatch)

    def send(k):
        return [live._acquire() for _ in range(k)]

    def answer(sent, status):
        for conn, sent_in in sent:
            live._release(conn, sent_in, status)

    def succeed(k):
        for _ in range(k):
            answer(send(1), 200)

    assert live.width == 16
    burst = send(16)
    answer(burst[:1], 429)
    assert live.width == 8
    answer(burst[1:], 429)  # sent before the halving: no further halving
    assert (live.width, in_flight(live)) == (8, 0)
    second = send(8)
    with pytest.raises(Blocked):  # the ninth waits
        live._acquire()
    answer(second, 429)  # one halving for the round sent at width 8
    assert (live.width, in_flight(live)) == (4, 0)
    for width in (2, 1, 1):  # the floor
        answer(send(1), 429)
        assert (live.width, in_flight(live)) == (width, 0)
    for width in range(1, 16):
        succeed(width - 1)
        assert live.width == width
        succeed(1)
        assert (live.width, in_flight(live)) == (width + 1, 0)
    succeed(40)  # the ceiling
    assert (live.width, in_flight(live)) == (16, 0)
    resized = [r.getMessage() for r in caplog.records if r.getMessage().startswith("live width")]
    assert resized[:5] == ["live width 16 -> 8 (HTTP 429)", "live width 8 -> 4 (HTTP 429)",
                           "live width 4 -> 2 (HTTP 429)", "live width 2 -> 1 (HTTP 429)",
                           "live width 1 -> 2 (1 x HTTP 200)"]
    assert len(resized) == 4 + 15
    live.close()


def test_live_backend_width_rule_with_every_connection_in_use(api_key, monkeypatch):
    """A halving while every connection is in use lets no request start
    until the requests in flight are fewer than the new width; an increase
    before then lets one start sooner."""
    live = bk.LiveBackend("http://127.0.0.1:9/v1", "engine", max_concurrency=5)
    never_wait(live, monkeypatch)
    sent = [live._acquire() for _ in range(5)]
    live._release(*sent[0], 429)
    assert (live.width, in_flight(live)) == (2, 4)
    live._release(*sent[1], 200)
    assert (live.width, in_flight(live)) == (2, 3)
    live._release(*sent[2], 200)  # the second success in a row
    assert (live.width, in_flight(live)) == (3, 2)
    taken = live._acquire()
    with pytest.raises(Blocked):
        live._acquire()
    for conn, sent_in in [*sent[3:], taken]:
        live._release(conn, sent_in, 500)
    assert (live.width, in_flight(live)) == (3, 0)
    assert len({id(conn) for conn, _ in [live._acquire() for _ in range(3)]}) == 3
    with pytest.raises(Blocked):
        live._acquire()
    live.close()


def test_live_backend_gate_waits_for_a_free_slot(api_key):
    """A caller beyond the width waits on another thread: after a 429 cut
    the width while every connection was busy, until enough requests have
    come back; a growth in width wakes two waiters at once."""
    live = bk.LiveBackend("http://127.0.0.1:9/v1", "engine", max_concurrency=4)
    taken = []

    def waiter():
        thread = threading.Thread(target=lambda: taken.append(live._acquire()), daemon=True)
        thread.start()
        return thread

    sent = [live._acquire() for _ in range(4)]
    live._release(*sent[0], 429)  # width 2, 3 in flight
    first = waiter()
    first.join(0.1)
    assert first.is_alive()
    live._release(*sent[1], 500)  # 2 in flight: still full
    first.join(0.1)
    assert first.is_alive()
    live._release(*sent[2], 200)  # 1 in flight: a free slot
    first.join(5)
    assert not first.is_alive()
    assert (live.width, in_flight(live), len(taken)) == (2, 2, 1)

    second, third = waiter(), waiter()
    for thread in (second, third):
        thread.join(0.1)
        assert thread.is_alive()
    live._release(*sent[3], 200)  # the second success in a row: width 3, 1 in flight
    for thread in (second, third):
        thread.join(5)
        assert not thread.is_alive()
    assert (live.width, in_flight(live), len(taken)) == (3, 3, 3)
    live.close()


def test_live_backend_gate_under_contention(api_key):
    """Sixteen threads take and hand back slots under a 4-connection gate,
    with answers that halve and grow the width: no connection is held twice
    at once, and at the end every connection is idle exactly once."""
    live = bk.LiveBackend("http://127.0.0.1:9/v1", "engine", max_concurrency=4)
    held, lock, clashes = set(), threading.Lock(), []

    def worker(k):
        for i in range(200):
            conn, sent_in = live._acquire()
            with lock:
                clashes.append(conn in held)
                held.add(conn)
            with lock:
                held.remove(conn)
            live._release(conn, sent_in, (200, 200, 200, 429, None)[(k + i) % 5])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,), daemon=True) for k in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(clashes) == 16 * 200 and not any(clashes)
    assert in_flight(live) == 0
    assert sorted(map(id, live._idle)) == sorted(map(id, live._connections))
    live.close()


class RateLimitedHandler(LoopbackHandler):
    """Echoes a request after a short wait, unless more than ``server.limit``
    requests are in flight when it arrives: then it answers 429 with
    ``Retry-After: 0``. A request leaves the count before it is answered, so
    the server never counts one that the client no longer waits for."""

    def do_POST(self):
        payload = self.read_payload()
        server = self.server
        with server.lock:
            server.inflight += 1
            limited = server.inflight > server.limit
            server.attempts[payload["prompt"]] += 1
        if not limited:
            time.sleep(0.005)
        with server.lock:
            server.inflight -= 1
        if limited:
            self.answer(429, {"Retry-After": "0"}, {})
        else:
            self.answer(200, {}, {"choices": [{"text": "re: " + payload["prompt"]}]})


def test_live_backend_backs_off_on_429_then_recovers(loopback, api_key, caplog):
    """A default ``LiveBackend``, driven by ``pipeline.schedule``, against a
    server that answers 429 above 5 requests in flight: every answer comes
    back, no request uses up its attempts, and the width falls to 5 or
    less, then climbs again."""
    caplog.set_level("DEBUG", logger=bk.__name__)
    server = loopback(handler=RateLimitedHandler)
    server.lock, server.inflight, server.limit = threading.Lock(), 0, 5
    server.attempts = Counter()
    live = bk.LiveBackend(server.url, "engine")

    def job(texts):
        replies = yield [make_prompt(t) for t in texts]
        return [next(replies) for _ in texts]

    batches = [[f"j{j}.{i}" for i in range(30)] for j in range(8)]
    try:
        assert list(pipeline.schedule([job(b) for b in batches], live)) == \
            [["re: " + t for t in b] for b in batches]
    finally:
        live.close()
    assert len(server.attempts) == 240
    assert max(server.attempts.values()) < bk.MAX_ATTEMPTS
    assert sum(server.attempts.values()) > 240  # some 429s
    widths = [int(r.getMessage().split()[4]) for r in caplog.records
              if r.getMessage().startswith("live width")]
    assert widths and min(widths) <= 5
    lowest = widths.index(min(widths))
    assert max(widths[lowest:]) > min(widths)


def test_live_backend_resends_at_once_on_a_connection_closed_while_idle(loopback, api_key,
                                                                         sleeps):
    server = loopback(close_after_response=True)
    live = bk.LiveBackend(server.url, "engine", max_concurrency=2)
    try:
        texts = [f"s{i}" for i in range(4)]
        assert [live.complete(make_prompt(t), PARAMS) for t in texts] == \
            ["re: " + t for t in texts]
        assert ask_all(live, ["a", "b", "c", "d"], 2) == ["re: a", "re: b", "re: c", "re: d"]
        assert len(server.peers) == 8
        # no wait: the resend on a fresh connection is not a retry
        assert sleeps == []
    finally:
        live.close()


def test_live_backend_refused_connection_is_a_transport_failure(api_key, sleeps):
    with socket.socket() as unlistened:  # bound, so no other server takes the port
        unlistened.bind(("127.0.0.1", 0))
        url = f"http://127.0.0.1:{unlistened.getsockname()[1]}/v1"
        live = bk.LiveBackend(url, "engine")
        with pytest.raises(BackendError,
                           match="completion retries exhausted: transport failure"):
            live.complete(make_prompt("p"), PARAMS)
    assert len(sleeps) == bk.MAX_ATTEMPTS - 1


@pytest.mark.parametrize("error, attempts", [(socket.EAI_NONAME, 1),
                                             (socket.EAI_AGAIN, bk.MAX_ATTEMPTS)])
def test_live_backend_gives_up_at_once_on_a_host_that_cannot_resolve(monkeypatch, api_key,
                                                                     sleeps, error,
                                                                     attempts):
    lookups = []

    def getaddrinfo(host, *args, **kwargs):
        lookups.append(host)
        raise socket.gaierror(error, "scripted lookup failure")

    monkeypatch.setattr(socket, "getaddrinfo", getaddrinfo)
    live = bk.LiveBackend("http://api.example/v1", "engine")
    with pytest.raises(BackendError, match="transport failure: .*scripted lookup failure"):
        live.complete(make_prompt("p"), PARAMS)
    assert lookups == ["api.example"] * attempts
    assert sleeps == [bk.BACKOFF * 2 ** i for i in range(attempts - 1)]


def test_live_backend_gives_up_at_once_on_a_certificate_that_does_not_verify(
        loopback, monkeypatch, api_key, sleeps):
    handshakes = []

    def wrap_socket(self, sock, **kwargs):
        handshakes.append(kwargs.get("server_hostname"))
        raise ssl.SSLCertVerificationError(1, "scripted verify failure")

    monkeypatch.setattr(ssl.SSLContext, "wrap_socket", wrap_socket)
    server = loopback(script=[])
    live = bk.LiveBackend(server.url.replace("http:", "https:"), "engine")
    with pytest.raises(BackendError, match="request failed: transport failure"):
        live.complete(make_prompt("p"), PARAMS)
    assert handshakes == ["127.0.0.1"]
    assert sleeps == []
    assert server.requests == []


def test_cache_takes_its_inner_backends_width(tmp_path, oracle, api_key):
    path = tmp_path / "c.jsonl"
    live = bk.LiveBackend("https://api.example/v1", "engine", max_concurrency=6)
    assert bk.TranscriptCache(path).max_concurrency == 1
    assert bk.TranscriptCache(path, live).max_concurrency == 6
    assert bk.TranscriptCache(path, oracle).max_concurrency == 1


class CountingStub:
    """Answers each prompt with its own text, counting the calls per text;
    the first ``fail_first`` calls for a text fail."""

    def __init__(self, fail_first=0):
        self.calls = Counter()
        self.fail_first = fail_first

    def complete(self, prompt, params):
        self.calls[prompt.text] += 1
        if self.calls[prompt.text] <= self.fail_first:
            raise BackendError("injected failure")
        return "answer to " + prompt.text
