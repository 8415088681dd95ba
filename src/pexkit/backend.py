"""Completion backends: live HTTP API, transcript cache, and gold oracle.

All backends expose ``complete(prompt, params) -> str``. The transcript
cache is a JSON-lines file keyed by a digest of prompt text + params, so a
recorded run can be replayed byte-identically.

The live backend speaks HTTP through the standard library's ``http.client``,
imported only when one is built, so commands that send no request do not
load an HTTP client at all.
"""
from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import queue
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from urllib.parse import urlsplit

from . import worldmodel
from .corpus import Document, GoldStandard
from .errors import (BackendError, CacheConflictError, CacheCorruptError,
                     CacheMissError)
from .prompting import Q1, Q2, Q3, Prompt

log = logging.getLogger(__name__)

API_KEY_ENV = "PEX_API_KEY"

# Longest wait between two attempts of one live request, in seconds.
MAX_RETRY_WAIT = 30.0

# Seconds one live request may take before it counts as a transport failure.
REQUEST_TIMEOUT = 60.0

DEFAULT_STOP = ("\n\n", "Q:")

# Reproducible-run defaults: greedy sampling, answer-shaped token budgets.
DEFAULT_MAX_TOKENS = {Q1: 256, Q2: 64, Q3: 8}


@dataclass(frozen=True)
class CompletionParams:
    temperature: float = 0.0
    nucleus: float = 1.0
    max_tokens: int = 256
    stop: tuple[str, ...] = DEFAULT_STOP

    def __post_init__(self):
        if self.temperature < 0:
            raise BackendError("temperature must be >= 0")
        if not 0 <= self.nucleus <= 1:
            raise BackendError("nucleus must be in [0, 1]")
        if self.max_tokens <= 0:
            raise BackendError("max_tokens must be positive")

    def to_dict(self) -> dict:
        return {
            "temperature": self.temperature,
            "nucleus": self.nucleus,
            "max_tokens": self.max_tokens,
            "stop": list(self.stop),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CompletionParams":
        return cls(data["temperature"], data["nucleus"], data["max_tokens"],
                   tuple(data["stop"]))


def default_params(question: str) -> CompletionParams:
    return CompletionParams(max_tokens=DEFAULT_MAX_TOKENS.get(question, 256))


@functools.cache
def _params_json(params: CompletionParams) -> str:
    return json.dumps(params.to_dict(), sort_keys=True)


# Each layer a question passes through (the memo, the cache backend, the
# pipeline's transcript) asks for its digest. On the sequential path (oracle,
# replay) they ask back to back, so two entries make it one sha256 per prompt
# there. Under concurrent dispatch the layers of different questions
# interleave and some digests are computed again, beside a network call. A
# larger memo would keep more whole prompt texts alive for no sequential gain.
@functools.lru_cache(maxsize=2)
def transcript_digest(prompt_text: str, params: CompletionParams) -> str:
    """Cache key of a prompt text and its params; also what provenance records."""
    payload = prompt_text + "\x00" + _params_json(params)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TranscriptCache:
    """Append-only JSONL store of prompt -> completion transcripts.

    A final line that does not parse is what a crash part-way through an
    append leaves behind: loading skips it with a warning, and the next
    append cuts it off, if the file still ends with it, and starts on a fresh
    line. A line that does not parse anywhere else raises
    ``CacheCorruptError``.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[str, dict] = {}
        # (end of the last good line, bytes after it) as loaded, when the
        # file does not end with a complete line; the next append mends it.
        self._resume: tuple[int, bytes] | None = None
        if self.path.exists():
            try:
                self._load()
            except OSError as exc:
                raise BackendError(
                    f"cannot read transcript cache {self.path}: {exc.strerror}") from exc

    def _load(self) -> None:
        torn = None
        offset = good_end = 0
        newline = True
        tail: list[bytes] = []
        with self.path.open("rb") as handle:
            for number, raw in enumerate(handle, 1):
                offset += len(raw)
                if not raw.strip():
                    tail.append(raw)
                    continue
                if torn is not None:
                    raise CacheCorruptError(f"{self.path}:{torn}: cache line does not parse")
                try:
                    entry = json.loads(raw.decode("utf-8"))
                except ValueError:  # also a UnicodeDecodeError
                    torn = number
                    tail.append(raw)
                    continue
                self._check_entry(entry, number)
                self._entries[entry["digest"]] = entry
                good_end, newline = offset, raw.endswith(b"\n")
                tail.clear()
        if torn is not None or not newline:
            self._resume = (good_end, b"".join(tail))
        if torn is not None:
            log.warning("%s:%d: skipping a torn final cache line", self.path, torn)

    def _check_entry(self, entry: dict, number: int) -> None:
        try:
            params = CompletionParams.from_dict(entry["params"])
            # Uncached: each entry is hashed once, and a load must not churn
            # the memo that in-run lookups share.
            expected = transcript_digest.__wrapped__(entry["prompt"], params)
            digest, _ = entry["digest"], entry["completion"]
        except (KeyError, TypeError) as exc:
            raise CacheCorruptError(
                f"{self.path}:{number}: malformed cache entry: {exc!r}") from exc
        if digest != expected:
            raise CacheConflictError(
                f"cache entry digest {str(digest)[:12]} does not recompute "
                f"from its stored prompt and params")

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, digest: str) -> dict | None:
        return self._entries.get(digest)

    def record(self, prompt_text: str, params: CompletionParams,
               completion: str) -> None:
        digest = transcript_digest(prompt_text, params)
        with self._lock:
            existing = self._entries.get(digest)
            if existing is not None:
                if existing["completion"] != completion:
                    raise CacheConflictError(
                        f"digest {digest[:12]} already recorded with a "
                        f"different completion")
                return
            entry = {
                "digest": digest,
                "prompt": prompt_text,
                "params": params.to_dict(),
                "completion": completion,
                "recorded_at": datetime.now(timezone.utc).isoformat(),
            }
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with self.path.open("a+b") as handle:
                    if self._resume is not None:
                        self._mend(handle)
                    handle.write((json.dumps(entry) + "\n").encode("utf-8"))
            except OSError as exc:
                raise BackendError(
                    f"cannot write transcript cache {self.path}: {exc.strerror}") from exc
            self._entries[digest] = entry

    def _mend(self, handle) -> None:
        """Make the file end with a complete line before the first append.

        The torn tail seen at load is cut off only while the file still ends
        with exactly those bytes; lines another writer appended since are
        kept, and the append then just starts on a fresh line.
        """
        good_end, tail = self._resume
        self._resume = None
        fd = handle.fileno()
        size = os.fstat(fd).st_size
        if (tail and size == good_end + len(tail)
                and os.pread(fd, len(tail), good_end) == tail):
            handle.truncate(good_end)
            size = good_end
        if size and os.pread(fd, 1, size - 1) != b"\n":
            handle.write(b"\n")


def truncate_at_stop(text: str, stop: tuple[str, ...]) -> str:
    for seq in stop:
        pos = text.find(seq)
        if pos >= 0:
            text = text[:pos]
    return text


def _retry_after(resp, default: float) -> float:
    """Seconds a 429 response's numeric ``Retry-After`` asks for, else ``default``."""
    try:
        return max(0, int(resp.headers.get("Retry-After", "")))
    except ValueError:
        return default


@dataclass(frozen=True)
class _Response:
    """An HTTP response read in full: what ``LiveBackend`` reads of one."""
    status_code: int
    headers: object  # an http.client.HTTPMessage
    body: bytes

    def json(self):
        return json.loads(self.body)


def _json_body(obj) -> bytes:
    # At module level, where ``json`` is the module and not ``post``'s argument.
    return json.dumps(obj).encode("utf-8")


class _ConnectionPool:
    """``LiveBackend``'s session: ``post`` over at most ``size`` keep-alive
    connections to one host, each idle one serving whichever thread posts next.

    Proxy variables are not read; TLS is verified against the system trust
    store (``ssl.create_default_context``).
    """

    def __init__(self, scheme: str, host: str, port: int | None, size: int):
        import http.client  # here, so that other backends never load it
        if scheme == "https":
            import ssl
            kind, options = http.client.HTTPSConnection, {"context": ssl.create_default_context()}
        else:
            kind, options = http.client.HTTPConnection, {}
        # An explicit port: http.client would take the end of an IPv6 host for one.
        self._connections = [kind(host, port or kind.default_port, **options)
                             for _ in range(size)]
        self._idle = queue.LifoQueue()
        for conn in self._connections:
            self._idle.put(conn)

    def post(self, url: str, json, headers: dict, timeout: float) -> _Response:
        target = urlsplit(url).path
        body = _json_body(json)
        headers = {"Content-Type": "application/json", **headers}
        conn = self._idle.get()
        try:
            conn.timeout = timeout
            if conn.sock is not None:  # open since an earlier request
                conn.sock.settimeout(timeout)
                try:
                    return self._exchange(conn, target, body, headers)
                except (BrokenPipeError, ConnectionResetError):
                    # The server closed it while it sat idle, before answering
                    # (RemoteDisconnected is a ConnectionResetError): send again
                    # at once on a fresh connection.
                    conn.close()
            return self._exchange(conn, target, body, headers)
        except BaseException:
            conn.close()
            raise
        finally:
            self._idle.put(conn)

    @staticmethod
    def _exchange(conn, target: str, body: bytes, headers: dict) -> _Response:
        conn.request("POST", target, body, headers)
        resp = conn.getresponse()
        return _Response(resp.status, resp.headers, resp.read())

    def close(self) -> None:
        """Close every connection; a later ``post`` opens a fresh one."""
        for conn in self._connections:
            conn.close()


class LiveBackend:
    """Completions-style HTTP API client with retry and backoff.

    ``max_concurrency`` caps the calls in flight at once; callers that can
    ask independent questions together (``pipeline.extract``) send that many,
    over as many keep-alive connections. ``session`` replaces the connections
    with any object whose ``post(url, json=, headers=, timeout=)`` returns a
    response with ``status_code``, ``headers.get`` and ``json()``.
    """

    def __init__(self, base_url: str, model: str, api_key: str | None = None,
                 max_retries: int = 5, backoff: float = 1.0, max_concurrency: int = 4,
                 session=None):
        if max_concurrency < 1:
            raise BackendError(f"max_concurrency must be >= 1, got {max_concurrency}")
        self.base_url = base_url.rstrip("/")
        import http.client  # here, so that other backends never load it
        self._transport_errors = (OSError, http.client.HTTPException)
        try:
            endpoint = urlsplit(self.base_url)
            if endpoint.scheme not in ("http", "https") or not endpoint.hostname:
                raise ValueError("not an http:// or https:// URL")
            if session is None:
                session = _ConnectionPool(endpoint.scheme, endpoint.hostname,
                                          endpoint.port, max_concurrency)
        except (ValueError, http.client.InvalidURL) as exc:  # also a bad port or host
            raise BackendError(f"bad live endpoint {base_url!r}: {exc}") from exc
        self._session = session
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        if not self.api_key:
            raise BackendError(f"live backend requires an API key ({API_KEY_ENV})")
        self.max_retries = max_retries
        self.backoff = backoff
        self.max_concurrency = max_concurrency
        self._sem = threading.Semaphore(max_concurrency)

    def complete(self, prompt: Prompt, params: CompletionParams) -> str:
        if not prompt.text:
            raise BackendError("empty prompt")
        payload = {
            "model": self.model,
            "prompt": prompt.text,
            "temperature": params.temperature,
            "top_p": params.nucleus,
            "max_tokens": params.max_tokens,
            "stop": list(params.stop),
        }
        headers = {"Authorization": f"Bearer {self.api_key}"}
        last_error = None
        wait = 0.0
        for attempt in range(self.max_retries):
            if attempt:
                time.sleep(min(wait, MAX_RETRY_WAIT))
            wait = self.backoff * 2 ** attempt
            with self._sem:
                try:
                    resp = self._session.post(f"{self.base_url}/completions",
                                              json=payload, headers=headers,
                                              timeout=REQUEST_TIMEOUT)
                except self._transport_errors as exc:
                    last_error = f"transport failure: {exc}"
                    continue
            if resp.status_code == 429:
                wait = _retry_after(resp, wait)
            if resp.status_code == 429 or resp.status_code >= 500:
                last_error = f"HTTP {resp.status_code}"
                continue
            if resp.status_code != 200:
                raise BackendError(f"completion request failed: HTTP {resp.status_code}")
            try:
                text = resp.json()["choices"][0]["text"]
            except (ValueError, KeyError, IndexError) as exc:
                raise BackendError(f"malformed completion response: {exc}") from exc
            return truncate_at_stop(text, params.stop)
        raise BackendError(f"completion retries exhausted: {last_error}")


class CachedBackend:
    """Serve completions from a transcript cache.

    A hit makes no request. On a miss, ``inner`` is asked and its answer
    recorded, so re-running an interrupted recording resumes it; with no
    ``inner`` a miss raises ``CacheMissError``.
    """

    def __init__(self, cache: TranscriptCache, inner=None):
        self.cache = cache
        self.inner = inner

    @property
    def max_concurrency(self) -> int:
        return getattr(self.inner, "max_concurrency", 1)

    def complete(self, prompt: Prompt, params: CompletionParams) -> str:
        digest = transcript_digest(prompt.text, params)
        entry = self.cache.lookup(digest)
        if entry is not None:
            return entry["completion"]
        if self.inner is None:
            raise CacheMissError(
                f"transcript cache miss for digest {digest[:12]} "
                f"(doc {prompt.doc_id}, {prompt.question}, {prompt.setting})")
        completion = self.inner.complete(prompt, params)
        self.cache.record(prompt.text, params, completion)
        return completion


class SingleFlight:
    """Ask ``inner`` once per distinct prompt text and params.

    A repeat gets the stored completion; a failed call stores nothing, so
    the next caller asks again. This is a plain memo: no caller has two
    calls for one prompt in flight at once (``pipeline.extract`` asks
    distinct prompts within a batch and finishes a batch before the next),
    so a repeat never has to wait for a call still running.
    """

    def __init__(self, inner):
        self.inner = inner
        self._done: dict[str, str] = {}

    @property
    def max_concurrency(self) -> int:
        return getattr(self.inner, "max_concurrency", 1)

    def complete(self, prompt: Prompt, params: CompletionParams) -> str:
        digest = transcript_digest(prompt.text, params)
        completion = self._done.get(digest)
        if completion is None:
            completion = self._done[digest] = self.inner.complete(prompt, params)
        return completion


class OracleBackend:
    """Answer every question from the gold standard (scripted oracle)."""

    def __init__(self, entries: dict[str, tuple[Document, GoldStandard]]):
        self._entries = entries
        # doc id -> normalized activity surface -> activity index; reversed,
        # so that the first of two surfaces with one key wins.
        self._activity_keys = {
            doc_id: {worldmodel.normalize_key(surface): i for i, surface
                     in reversed(list(enumerate(gold.activity_surfaces)))}
            for doc_id, (_, gold) in entries.items()}

    def _gold(self, doc_id: str) -> GoldStandard:
        if doc_id not in self._entries:
            raise BackendError(f"oracle has no gold standard for document {doc_id}")
        return self._entries[doc_id][1]

    def _activity_index(self, doc_id: str, phrase: str) -> int:
        index = self._activity_keys[doc_id].get(worldmodel.normalize_key(phrase))
        if index is None:
            raise BackendError(f"oracle for {doc_id} knows no activity {phrase!r}")
        return index

    def complete(self, prompt: Prompt, params: CompletionParams) -> str:
        gold = self._gold(prompt.doc_id)
        if prompt.question == Q1:
            return "\n".join(gold.activity_surfaces)
        if prompt.question == Q2:
            idx = self._activity_index(prompt.doc_id, prompt.x)
            performers = [gold.participants[p] for p, a in sorted(gold.performs)
                          if a == idx]
            return " and ".join(performers)
        if prompt.question == Q3:
            x = self._activity_index(prompt.doc_id, prompt.x)
            y = self._activity_index(prompt.doc_id, prompt.y)
            # "does X immediately follow Y" asks for the gold edge Y -> X
            return "Yes" if (y, x) in gold.follows else "No"
        raise BackendError(f"unknown question kind: {prompt.question}")
