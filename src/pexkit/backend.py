"""Completion backends: live HTTP API, transcript cache, and gold oracle.

All backends expose ``complete(prompt, params) -> str``. The transcript
cache is a JSON-lines file keyed by a digest of prompt text + params, so a
recorded run can be replayed byte-identically.

The live backend speaks HTTP through the standard library's ``http.client``,
imported only when one is built, so commands that send no request do not
load an HTTP client at all.
"""
from __future__ import annotations

import fcntl
import functools
import hashlib
import json
import logging
import os
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

# Attempts one live request gets; the wait after the first failed one, in
# seconds, which doubles after each further failure.
MAX_ATTEMPTS = 5
BACKOFF = 1.0

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


def transcript_digest(prompt_text: str, params: CompletionParams,
                      head: tuple | None = None) -> str:
    """Cache key of a prompt text and its params; also what provenance records.

    ``head``, when given, is ``(n, state)``: ``state`` is the sha256 state of
    the UTF-8 bytes of ``prompt_text[:n]``. It is copied, never updated, so
    threads may share it, and only the rest of the text is hashed here; the
    digest is the same as without it.
    """
    length, state = head or (0, hashlib.sha256())
    state = state.copy()
    state.update((prompt_text[length:] + "\x00" + _params_json(params)).encode("utf-8"))
    return state.hexdigest()


def prompt_digest(prompt: Prompt, params: CompletionParams) -> str:
    """``transcript_digest`` of a rendered prompt, computed once and kept on it.

    It starts from the hashed head the prompt's batch shares, so each
    question hashes only its own line. ``pipeline.schedule`` asks for it on
    the calling thread when it draws the prompt, to find a call in flight;
    ``CachedBackend`` and the dialogue's transcript ask again for the same
    prompt object, so each question is hashed once at any width.
    """
    digest = prompt.digests.get(params)
    if digest is None:
        digest = prompt.digests[params] = transcript_digest(prompt.text, params, prompt.head)
    return digest


class TranscriptCache:
    """Append-only JSONL store of prompt -> completion transcripts.

    A final line that does not parse is what a crash part-way through an
    append leaves behind: loading skips it with a warning, and the next
    append cuts it off, if the file still ends with it, and starts on a fresh
    line. A line that does not parse anywhere else raises
    ``CacheCorruptError``. Each append and mend holds an advisory ``flock`` on
    the file (POSIX only), so processes recording into one path take turns;
    a ``threading.Lock`` guards the entries held in memory.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[str, dict] = {}
        # (end of the last good line, bytes after it) as loaded, when the
        # file does not end with a complete line; the next append mends it.
        self._resume: tuple[int, bytes] | None = None
        self._dir_made = False  # the file's directory, made by the first append
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
                except (ValueError, RecursionError):  # also a UnicodeDecodeError
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
            expected = transcript_digest(entry["prompt"], params)
            digest, completion = entry["digest"], entry["completion"]
            if not isinstance(completion, str):
                raise TypeError(f"completion is {completion!r}")
            completion.encode("utf-8")  # a lone surrogate does not encode
        except (KeyError, TypeError, UnicodeEncodeError) as exc:
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
               completion: str, digest: str | None = None) -> None:
        """Append an entry; ``digest``, when given, is the caller's
        ``transcript_digest(prompt_text, params)``, so it is not hashed again."""
        if digest is None:
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
                if not self._dir_made:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    self._dir_made = True
                with self.path.open("a+b") as handle:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)  # until closed
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


def _retry_after(headers, default: float) -> float:
    """Seconds a 429 response's numeric ``Retry-After`` asks for, else ``default``."""
    try:
        return max(0, int(headers.get("Retry-After", "")))
    except ValueError:
        return default


def _cannot_heal(exc: OSError) -> bool:
    """Whether a transport failure would recur however long one waits: a host
    name that does not resolve, other than a "try again", or a certificate
    that does not verify."""
    import socket  # both loaded with http.client already
    import ssl
    if isinstance(exc, socket.gaierror):
        return exc.errno != socket.EAI_AGAIN
    return isinstance(exc, ssl.SSLCertVerificationError)


class LiveBackend:
    """Completions-style HTTP API client with retry and backoff.

    It holds ``max_concurrency`` (by default 16) keep-alive connections to
    the endpoint's host, each idle one serving whichever thread asks next, so
    that at most that many calls are in flight at once; ``pipeline.schedule``
    sends that many. A run's wall time is about its distinct calls times the
    round trip, divided by the width. The API key is read from
    ``PEX_API_KEY``. Proxy variables are not read; TLS is verified against
    the system trust store (``ssl.create_default_context``).

    The width in use, ``width``, adapts between 1 and ``max_concurrency`` by
    additive increase, multiplicative decrease: a 429 halves it, once per
    round (a 429 on a request sent before the last halving does not halve it
    again), and ``width`` successes in a row add 1. A request starts only
    while fewer than ``width`` are in flight, on the most recently used idle
    connection; callers beyond the width wait on one condition until a
    request ends or the width grows. The request that got the 429 still
    waits its ``Retry-After`` before its next attempt.
    """

    def __init__(self, base_url: str, model: str, max_concurrency: int = 16):
        if max_concurrency < 1:
            raise BackendError(f"max_concurrency must be >= 1, got {max_concurrency}")
        import http.client  # here, so that other backends never load it
        self._transport_errors = (OSError, http.client.HTTPException)
        try:
            endpoint = urlsplit(base_url.rstrip("/"))
            if endpoint.scheme not in ("http", "https") or not endpoint.hostname:
                raise ValueError("not an http:// or https:// URL")
            if endpoint.scheme == "https":
                import ssl
                kind, options = http.client.HTTPSConnection, {"context": ssl.create_default_context()}
            else:
                kind, options = http.client.HTTPConnection, {}
            # An explicit port: http.client would take the end of an IPv6 host for one.
            connections = [kind(endpoint.hostname, endpoint.port or kind.default_port,
                                timeout=REQUEST_TIMEOUT, **options)
                           for _ in range(max_concurrency)]
        except (ValueError, http.client.InvalidURL) as exc:  # also a bad port or host
            raise BackendError(f"bad live endpoint {base_url!r}: {exc}") from exc
        self._path = endpoint.path + "/completions"
        self._connections = connections
        # The width rule's state and the idle connections, most recently
        # used last, guarded by ``_gate``: a request starts only while fewer
        # than ``width`` are in flight (``_busy``).
        self._gate = threading.Condition()
        self._idle = list(connections)
        self._busy = 0
        self.width = max_concurrency
        self._round = 0  # halvings so far
        self._streak = 0  # successes in a row since the last change of width
        self.model = model
        api_key = os.environ.get(API_KEY_ENV)
        if not api_key:
            raise BackendError(f"live backend requires an API key ({API_KEY_ENV})")
        self._headers = {"Content-Type": "application/json",
                         "Authorization": f"Bearer {api_key}"}
        self.max_concurrency = max_concurrency

    def complete(self, prompt: Prompt, params: CompletionParams) -> str:
        if not prompt.text:
            raise BackendError("empty prompt")
        body = json.dumps({
            "model": self.model,
            "prompt": prompt.text,
            "temperature": params.temperature,
            "top_p": params.nucleus,
            "max_tokens": params.max_tokens,
            "stop": list(params.stop),
        }).encode("utf-8")
        last_error = None
        wait = 0.0
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                time.sleep(min(wait, MAX_RETRY_WAIT))
            wait = BACKOFF * 2 ** attempt
            try:
                status, headers, data = self._post(body)
            except self._transport_errors as exc:
                if _cannot_heal(exc):
                    raise BackendError(
                        f"completion request failed: transport failure: {exc}") from exc
                last_error = f"transport failure: {exc}"
                continue
            if status == 429:
                wait = _retry_after(headers, wait)
            if status == 429 or status >= 500:
                last_error = f"HTTP {status}"
                continue
            if status != 200:
                raise BackendError(f"completion request failed: HTTP {status}")
            try:
                text = json.loads(data)["choices"][0]["text"]
                if not isinstance(text, str):
                    raise TypeError(f"text is {text!r}")
                text.encode("utf-8")  # a lone surrogate does not encode
            except (ValueError, LookupError, TypeError) as exc:  # also a UnicodeEncodeError
                raise BackendError(f"malformed completion response: {exc}") from exc
            return truncate_at_stop(text, params.stop)
        raise BackendError(f"completion retries exhausted: {last_error}")

    def _post(self, body: bytes):
        """Send ``body`` on an idle connection, once fewer than ``width``
        requests are in flight; the answer's status, headers and body."""
        conn, sent_in = self._acquire()
        answer = None
        try:
            if conn.sock is not None:  # open since an earlier request
                try:
                    answer = self._exchange(conn, body)
                except (BrokenPipeError, ConnectionResetError):
                    # The server closed it while it sat idle, before answering
                    # (RemoteDisconnected is a ConnectionResetError): send again
                    # at once on a fresh connection.
                    conn.close()
            if answer is None:
                answer = self._exchange(conn, body)
            return answer
        except BaseException:
            conn.close()
            raise
        finally:
            self._release(conn, sent_in, None if answer is None else answer[0])

    def _acquire(self):
        """Wait until fewer than ``width`` requests are in flight, then take
        the most recently used idle connection; it and the current round."""
        with self._gate:
            while self._busy >= self.width:
                self._gate.wait()
            self._busy += 1
            return self._idle.pop(), self._round

    def _release(self, conn, sent_in: int, status: int | None) -> None:
        """Put ``conn`` back, apply the width rule to the ``status`` answered
        on it (None when there was no answer) for a request sent in round
        ``sent_in``, and wake as many waiters as there are free slots."""
        with self._gate:
            self._busy -= 1
            self._idle.append(conn)
            if status != 200:
                self._streak = 0
                if status == 429 and sent_in == self._round and self.width > 1:
                    self._round += 1
                    self._resize(self.width // 2, "HTTP 429")
            elif self.width < self.max_concurrency:
                self._streak += 1
                if self._streak == self.width:
                    self._resize(self.width + 1, f"{self.width} x HTTP 200")
            if self._busy < self.width:
                self._gate.notify(self.width - self._busy)

    def _resize(self, width: int, reason: str) -> None:
        """Set the width; called with ``_gate`` held."""
        log.debug("live width %d -> %d (%s)", self.width, width, reason)
        self._streak = 0
        self.width = width

    def _exchange(self, conn, body: bytes):
        conn.request("POST", self._path, body, self._headers)
        resp = conn.getresponse()
        return resp.status, resp.headers, resp.read()

    def close(self) -> None:
        """Close every connection; a later call opens a fresh one."""
        for conn in self._connections:
            conn.close()


class CachedBackend:
    """Ask each distinct prompt text and params once, through ``cache`` if any.

    A repeat gets the remembered completion; a failed call is not
    remembered. A first ask is served from ``cache`` when it holds the
    prompt; otherwise ``inner`` is asked and its answer recorded in
    ``cache``, so re-running an interrupted recording resumes it. With no
    ``inner`` that miss raises ``CacheMissError``. It takes no lock:
    ``pipeline.schedule`` hands a job the call already in flight for its
    prompt, so two of its calls never ask one prompt at once.
    """

    def __init__(self, cache: TranscriptCache | None, inner=None):
        self.cache = cache
        self.inner = inner
        self._done: dict[str, str] = {}

    @property
    def max_concurrency(self) -> int:
        return getattr(self.inner, "max_concurrency", 1)

    def complete(self, prompt: Prompt, params: CompletionParams) -> str:
        digest = prompt_digest(prompt, params)
        completion = self._done.get(digest)
        if completion is None:
            completion = self._done[digest] = self._ask(prompt, params, digest)
        return completion

    def close(self) -> None:
        """Close ``inner``'s connections, if it holds any."""
        getattr(self.inner, "close", lambda: None)()

    def _ask(self, prompt: Prompt, params: CompletionParams, digest: str) -> str:
        entry = self.cache.lookup(digest) if self.cache is not None else None
        if entry is not None:
            return entry["completion"]
        if self.inner is None:
            raise CacheMissError(
                f"transcript cache miss for digest {digest[:12]} "
                f"(doc {prompt.doc_id}, {prompt.question}, {prompt.setting})")
        completion = self.inner.complete(prompt, params)
        if self.cache is not None:
            self.cache.record(prompt.text, params, completion, digest)
        return completion


class OracleBackend:
    """Answer every question from the gold standard (scripted oracle)."""

    def __init__(self, entries: dict[str, tuple[Document, GoldStandard]]):
        self._entries = entries
        # doc id -> normalized activity surface -> activity index; reversed,
        # so that the first of two surfaces with one key wins.
        self._activity_keys = {
            doc_id: {worldmodel.normalize_key(surface): i for i, surface
                     in reversed(list(enumerate(gold.activities)))}
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
            return "\n".join(gold.activities)
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
