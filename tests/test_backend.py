import http.server
import json
import socket
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from pexkit import backend as bk
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


@pytest.mark.parametrize("bad", ['{"digest": "ab', "[1, 2]", '{"digest": "ab"}'])
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
    of it is served from the cache."""
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
    assert q1.splitlines() == gold.activity_surfaces
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


class FakeResponse:
    def __init__(self, status_code, payload=None, headers=None):
        self.status_code = status_code
        self._payload = payload or {}
        self.headers = headers or {}

    def json(self):
        return self._payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, **kwargs):
        self.calls.append((url, kwargs))
        return self.responses.pop(0)


def test_live_backend_retries_then_succeeds(monkeypatch):
    session = FakeSession([
        FakeResponse(429),
        FakeResponse(200, {"choices": [{"text": " the answer\n\nQ: junk"}]}),
    ])
    live = bk.LiveBackend("https://api.example/v1", "engine", api_key="k",
                          backoff=0.0, session=session)
    prompt = make_prompt("p")
    assert live.complete(prompt, PARAMS) == " the answer"
    assert len(session.calls) == 2
    # params identical across retries
    assert session.calls[0][1]["json"] == session.calls[1][1]["json"]


def test_live_backend_exhausts_retries():
    session = FakeSession([FakeResponse(500)] * 3)
    live = bk.LiveBackend("https://api.example/v1", "engine", api_key="k",
                          max_retries=3, backoff=0.0, session=session)
    with pytest.raises(BackendError, match="retries exhausted"):
        live.complete(make_prompt("p"), PARAMS)


def test_live_backend_requires_key(monkeypatch):
    monkeypatch.delenv(bk.API_KEY_ENV, raising=False)
    with pytest.raises(BackendError, match="API key"):
        bk.LiveBackend("https://api.example/v1", "engine")


@pytest.mark.parametrize("width", [0, -1])
def test_live_backend_rejects_concurrency_below_one(width):
    with pytest.raises(BackendError, match="max_concurrency"):
        bk.LiveBackend("https://api.example/v1", "engine", api_key="k",
                       max_concurrency=width)


def test_live_backend_honours_retry_after(monkeypatch):
    sleeps = []
    monkeypatch.setattr(bk.time, "sleep", sleeps.append)
    session = FakeSession([
        FakeResponse(429, headers={"Retry-After": "7"}),
        FakeResponse(429, headers={"Retry-After": "120"}),
        FakeResponse(503, headers={"Retry-After": "9"}),
        FakeResponse(429, headers={"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"}),
        FakeResponse(200, {"choices": [{"text": "ok"}]}),
    ])
    live = bk.LiveBackend("https://api.example/v1", "engine", api_key="k",
                          backoff=1.0, session=session)
    assert live.complete(make_prompt("p"), PARAMS) == "ok"
    # numeric 429 header; capped at the 30 s ceiling; 5xx and an HTTP date
    # fall back to exponential backoff (1 * 2**2, 1 * 2**3)
    assert sleeps == [7, 30.0, 4.0, 8.0]


@pytest.mark.parametrize("endpoint", ["ftp://x", "localhost:8080/v1", "http:///v1",
                                      "http://x:port/v1", "http://[::1/v1",
                                      "http://two words/v1"])
def test_live_backend_rejects_a_non_http_endpoint(endpoint):
    with pytest.raises(BackendError, match="endpoint"):
        bk.LiveBackend(endpoint, "engine", api_key="k")


class EchoHandler(http.server.BaseHTTPRequestHandler):
    """Answers a completion request with ``re: <prompt>``, over HTTP/1.1."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        # Headers and body go out in two writes; without it the body waits
        # for the client's delayed ACK of the headers.
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        body = json.dumps({"choices": [{"text": "re: " + payload["prompt"]}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.server.peers.add(self.client_address)
        # Close without saying so: the client finds out on its next request.
        self.close_connection = self.server.close_after_response

    def log_message(self, *args):
        pass


@pytest.fixture()
def loopback():
    """Start an echo server on a free loopback port; ``peers`` collects the
    client address of each connection a request came on."""
    servers = []

    def start(close_after_response=False):
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), EchoHandler)
        server.peers = set()
        server.close_after_response = close_after_response
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


def ask_all(live, texts, width):
    with ThreadPoolExecutor(width) as pool:
        return list(pool.map(lambda t: live.complete(make_prompt(t), PARAMS), texts))


def test_live_backend_reuses_keep_alive_connections(loopback):
    server = loopback()
    live = bk.LiveBackend(server.url, "engine", api_key="k", max_concurrency=4)
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
        live._session.close()


def test_live_backend_resends_at_once_on_a_connection_closed_while_idle(loopback,
                                                                         monkeypatch):
    sleeps = []
    monkeypatch.setattr(bk.time, "sleep", sleeps.append)
    server = loopback(close_after_response=True)
    # one attempt only: the resend on a fresh connection is not a retry
    live = bk.LiveBackend(server.url, "engine", api_key="k", max_retries=1,
                          max_concurrency=2)
    try:
        texts = [f"s{i}" for i in range(4)]
        assert [live.complete(make_prompt(t), PARAMS) for t in texts] == \
            ["re: " + t for t in texts]
        assert ask_all(live, ["a", "b", "c", "d"], 2) == ["re: a", "re: b", "re: c", "re: d"]
        assert len(server.peers) == 8
        assert sleeps == []
    finally:
        live._session.close()


def test_live_backend_refused_connection_is_a_transport_failure():
    with socket.socket() as unlistened:  # bound, so no other server takes the port
        unlistened.bind(("127.0.0.1", 0))
        url = f"http://127.0.0.1:{unlistened.getsockname()[1]}/v1"
        live = bk.LiveBackend(url, "engine", api_key="k", max_retries=2, backoff=0.0)
        with pytest.raises(BackendError,
                           match="completion retries exhausted: transport failure"):
            live.complete(make_prompt("p"), PARAMS)


def test_wrappers_forward_concurrency(tmp_path, oracle):
    cache = bk.TranscriptCache(tmp_path / "c.jsonl")
    live = bk.LiveBackend("https://api.example/v1", "engine", api_key="k",
                          max_concurrency=6)
    assert bk.CachedBackend(cache).max_concurrency == 1
    for wrapper in (bk.SingleFlight, lambda inner: bk.CachedBackend(cache, inner)):
        assert wrapper(live).max_concurrency == 6
        assert wrapper(oracle).max_concurrency == 1
    assert bk.SingleFlight(bk.CachedBackend(cache, live)).max_concurrency == 6


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


def test_single_flight_repeats_get_the_stored_completion():
    inner = CountingStub()
    memo = bk.SingleFlight(inner)
    for text in ("a", "b", "a", "a", "b"):
        assert memo.complete(make_prompt(text), PARAMS) == "answer to " + text
    assert memo.complete(make_prompt("a"), bk.CompletionParams(max_tokens=8)) == "answer to a"
    assert inner.calls == {"a": 2, "b": 1}


def test_single_flight_does_not_store_a_failure():
    inner = CountingStub(fail_first=1)
    memo = bk.SingleFlight(inner)
    with pytest.raises(BackendError, match="injected"):
        memo.complete(make_prompt("p"), PARAMS)
    assert memo.complete(make_prompt("p"), PARAMS) == "answer to p"
    assert memo.complete(make_prompt("p"), PARAMS) == "answer to p"
    assert inner.calls == {"p": 2}
