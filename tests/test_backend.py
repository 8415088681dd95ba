import contextlib
import http.server
import json
import os
import socket
import ssl
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from pexkit import backend as bk
from pexkit import pipeline
from pexkit.errors import (BackendError, CacheConflictError, CacheCorruptError,
                           CacheMissError)
from pexkit.prompting import Q1, Q2, Q3, RAW, Prompt


def make_prompt(text="hello", question=Q1, doc_id="10.1", x=None, y=None):
    return Prompt(text, question, RAW, doc_id, x, y)


PARAMS = bk.CompletionParams()


def test_params_validation():
    with pytest.raises(BackendError):
        bk.CompletionParams(temperature=-1)
    with pytest.raises(BackendError):
        bk.CompletionParams(nucleus=1.5)
    with pytest.raises(BackendError):
        bk.CompletionParams(max_tokens=0)


def test_default_params_are_reproducible():
    for q in (Q1, Q2, Q3):
        p = bk.default_params(q)
        assert p.temperature == 0.0
        assert p.nucleus == 1.0
    assert bk.default_params(Q1).max_tokens == 256
    assert bk.default_params(Q3).max_tokens == 8


def test_cache_record_lookup_roundtrip(tmp_path):
    cache = bk.TranscriptCache(tmp_path / "c.jsonl")
    cache.record("p", PARAMS, "done")
    digest = bk.transcript_digest("p", PARAMS)
    assert cache.lookup(digest)["completion"] == "done"
    assert cache.lookup("0" * 64) is None


def test_cache_conflict(tmp_path):
    cache = bk.TranscriptCache(tmp_path / "c.jsonl")
    cache.record("p", PARAMS, "one")
    cache.record("p", PARAMS, "one")  # idempotent re-record
    with pytest.raises(CacheConflictError):
        cache.record("p", PARAMS, "two")


def test_cache_append_preserves_entries(tmp_path):
    path = tmp_path / "c.jsonl"
    cache = bk.TranscriptCache(path)
    cache.record("p1", PARAMS, "a")
    cache.record("p2", PARAMS, "b")
    reloaded = bk.TranscriptCache(path)
    assert len(reloaded) == 2
    reloaded.record("p3", PARAMS, "c")
    assert len(bk.TranscriptCache(path)) == 3


def test_cache_rejects_tampered_digest(tmp_path):
    path = tmp_path / "c.jsonl"
    cache = bk.TranscriptCache(path)
    cache.record("p", PARAMS, "a")
    entry = json.loads(path.read_text().strip())
    entry["prompt"] = "tampered"
    path.write_text(json.dumps(entry) + "\n")
    with pytest.raises(CacheConflictError):
        bk.TranscriptCache(path)


def test_cache_skips_torn_final_line(tmp_path, caplog):
    path = tmp_path / "c.jsonl"
    bk.TranscriptCache(path).record("p1", PARAMS, "a")
    with path.open("a") as handle:
        handle.write('{"digest": "ab')
    cache = bk.TranscriptCache(path)
    assert len(cache) == 1
    assert "torn final cache line" in caplog.text


def test_cache_append_after_torn_line_starts_fresh(tmp_path):
    path = tmp_path / "c.jsonl"
    bk.TranscriptCache(path).record("p1", PARAMS, "a")
    with path.open("a") as handle:
        handle.write('{"digest": "ab')
    bk.TranscriptCache(path).record("p2", PARAMS, "b")
    lines = path.read_text().splitlines()
    assert [json.loads(line)["completion"] for line in lines] == ["a", "b"]
    assert len(bk.TranscriptCache(path)) == 2


def test_cache_append_after_unterminated_line_starts_fresh(tmp_path):
    path = tmp_path / "c.jsonl"
    bk.TranscriptCache(path).record("p1", PARAMS, "a")
    path.write_text(path.read_text().rstrip("\n"))
    bk.TranscriptCache(path).record("p2", PARAMS, "b")
    assert len(bk.TranscriptCache(path)) == 2


@pytest.mark.parametrize("tear", ['{"digest": "ab', ""])
def test_cache_mend_keeps_lines_appended_since_load(tmp_path, tear):
    path = tmp_path / "c.jsonl"
    bk.TranscriptCache(path).record("p1", PARAMS, "a")
    path.write_text(path.read_text() + tear if tear else path.read_text().rstrip("\n"))
    first, second = bk.TranscriptCache(path), bk.TranscriptCache(path)
    second.record("p2", PARAMS, "b")
    first.record("p3", PARAMS, "c")
    assert len(bk.TranscriptCache(path)) == 3


def test_cache_appends_from_two_caches_on_one_path_keep_every_entry(tmp_path, monkeypatch):
    """Two caches on one path, as two processes would hold them, each mend
    the torn tail they loaded and append from four threads: every line
    parses, and no entry is lost."""
    path = tmp_path / "c.jsonl"
    bk.TranscriptCache(path).record("p0", PARAMS, "a")
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
                caches[k % 2].record(f"p{k}.{i}", PARAMS, f"c{k}.{i}")
        with ThreadPoolExecutor(8) as pool:
            list(pool.map(record, range(8), timeout=30))
    finally:
        sys.setswitchinterval(switch)
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    assert sorted(e["prompt"] for e in entries) == sorted(
        ["p0"] + [f"p{k}.{i}" for k in range(8) for i in range(5)])
    assert len(bk.TranscriptCache(path)) == 41


@pytest.mark.parametrize("bad", [
    '{"digest": "ab', "[1, 2]", '{"digest": "ab"}',
    '{"digest": "ab", "prompt": "p", "params": {"temperature": 0.0, "nucleus": 1.0, '
    '"max_tokens": 8, "stop": []}, "completion": 5}'])
def test_cache_corrupt_line_mid_file(tmp_path, bad):
    path = tmp_path / "c.jsonl"
    cache = bk.TranscriptCache(path)
    cache.record("p1", PARAMS, "a")
    cache.record("p2", PARAMS, "b")
    first, second = path.read_text().splitlines()
    path.write_text("\n".join([first, bad, second]) + "\n")
    with pytest.raises(CacheCorruptError, match=":2:"):
        bk.TranscriptCache(path)


def test_cached_backend_without_inner_replays(tmp_path):
    cache = bk.TranscriptCache(tmp_path / "c.jsonl")
    prompt = make_prompt("the prompt")
    cache.record(prompt.text, PARAMS, "recorded")
    replay = bk.CachedBackend(cache)
    assert replay.complete(prompt, PARAMS) == "recorded"
    assert replay.complete(prompt, PARAMS) == "recorded"
    with pytest.raises(CacheMissError, match=r"doc 10\.1, q1, raw"):
        replay.complete(make_prompt("unseen"), PARAMS)


def test_replay_fallback_records(tmp_path):
    """A miss is asked of the inner backend, recorded, and replays from a
    fresh load of the cache without an inner backend."""
    path = tmp_path / "c.jsonl"
    inner = CountingStub()
    cached = bk.CachedBackend(bk.TranscriptCache(path), inner)
    assert cached.complete(make_prompt("unseen"), PARAMS) == "answer to unseen"
    assert inner.calls == {"unseen": 1}
    replay = bk.CachedBackend(bk.TranscriptCache(path))
    assert replay.complete(make_prompt("unseen"), PARAMS) == "answer to unseen"
    assert len(path.read_text().splitlines()) == 1


def test_recording_backend_write_through(tmp_path):
    """A recorded prompt makes no inner call; a miss makes one, and a repeat
    of it is served from the cache. Recording again over the complete cache
    makes no inner call and leaves the file as it was."""
    path = tmp_path / "c.jsonl"
    cache = bk.TranscriptCache(path)
    cache.record("recorded", PARAMS, "answer to recorded")
    inner = CountingStub()
    cached = bk.CachedBackend(cache, inner)
    assert cached.complete(make_prompt("recorded"), PARAMS) == "answer to recorded"
    assert cached.complete(make_prompt("unseen"), PARAMS) == "answer to unseen"
    assert cached.complete(make_prompt("unseen"), PARAMS) == "answer to unseen"
    assert inner.calls == {"unseen": 1}
    assert len(path.read_text().splitlines()) == 2
    recorded = path.read_bytes()
    again = CountingStub()
    rerun = bk.CachedBackend(bk.TranscriptCache(path), again)
    for text in ("recorded", "unseen", "recorded"):
        assert rerun.complete(make_prompt(text), PARAMS) == "answer to " + text
    assert again.calls == {}
    assert path.read_bytes() == recorded


def test_cache_write_failure_is_a_backend_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cache = bk.TranscriptCache(blocker / "c.jsonl")
    with pytest.raises(BackendError, match="cannot write transcript cache"):
        cache.record("p", PARAMS, "a")
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
        body = json.dumps(payload).encode()
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
                                     {"choices": [{"text": "a lone \ud800"}]}])
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
                                      "http://two words/v1"])
def test_live_backend_rejects_a_non_http_endpoint(api_key, endpoint):
    with pytest.raises(BackendError, match="endpoint"):
        bk.LiveBackend(endpoint, "engine")


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
    assert (live.width, live._busy) == (8, 0)
    second = send(8)
    with pytest.raises(Blocked):  # the ninth waits
        live._acquire()
    answer(second, 429)  # one halving for the round sent at width 8
    assert (live.width, live._busy) == (4, 0)
    for width in (2, 1, 1):  # the floor
        answer(send(1), 429)
        assert (live.width, live._busy) == (width, 0)
    for width in range(1, 16):
        succeed(width - 1)
        assert live.width == width
        succeed(1)
        assert (live.width, live._busy) == (width + 1, 0)
    succeed(40)  # the ceiling
    assert (live.width, live._busy) == (16, 0)
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
    assert (live.width, live._busy) == (2, 4)
    live._release(*sent[1], 200)
    assert (live.width, live._busy) == (2, 3)
    live._release(*sent[2], 200)  # the second success in a row
    assert (live.width, live._busy) == (3, 2)
    taken = live._acquire()
    with pytest.raises(Blocked):
        live._acquire()
    for conn, sent_in in [*sent[3:], taken]:
        live._release(conn, sent_in, 500)
    assert (live.width, live._busy) == (3, 0)
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
    assert (live.width, live._busy, len(taken)) == (2, 2, 1)

    second, third = waiter(), waiter()
    for thread in (second, third):
        thread.join(0.1)
        assert thread.is_alive()
    live._release(*sent[3], 200)  # the second success in a row: width 3, 1 in flight
    for thread in (second, third):
        thread.join(5)
        assert not thread.is_alive()
    assert (live.width, live._busy, len(taken)) == (3, 3, 3)
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
    assert live._busy == 0
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
        yield (make_prompt(t) for t in texts), PARAMS
        answers = []
        for _ in texts:
            _, completion = yield
            answers.append(completion)
        return answers

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


def test_wrappers_forward_concurrency(tmp_path, oracle, api_key):
    cache = bk.TranscriptCache(tmp_path / "c.jsonl")
    live = bk.LiveBackend("https://api.example/v1", "engine", max_concurrency=6)
    assert bk.CachedBackend(cache).max_concurrency == 1
    for c in (cache, None):
        assert bk.CachedBackend(c, live).max_concurrency == 6
        assert bk.CachedBackend(c, oracle).max_concurrency == 1


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


def test_cached_backend_repeats_get_the_stored_completion():
    inner = CountingStub()
    memo = bk.CachedBackend(None, inner)
    for text in ("a", "b", "a", "a", "b"):
        assert memo.complete(make_prompt(text), PARAMS) == "answer to " + text
    assert memo.complete(make_prompt("a"), bk.CompletionParams(max_tokens=8)) == "answer to a"
    assert inner.calls == {"a": 2, "b": 1}


def test_cached_backend_does_not_store_a_failure():
    inner = CountingStub(fail_first=1)
    memo = bk.CachedBackend(None, inner)
    with pytest.raises(BackendError, match="injected"):
        memo.complete(make_prompt("p"), PARAMS)
    assert memo.complete(make_prompt("p"), PARAMS) == "answer to p"
    assert memo.complete(make_prompt("p"), PARAMS) == "answer to p"
    assert inner.calls == {"p": 2}
