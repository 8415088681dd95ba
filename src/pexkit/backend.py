"""Completion backends: live HTTP API, transcript cache, and gold oracle.

All backends expose ``complete(prompt, params) -> str``, called with
``prompt.params`` once per distinct prompt of a run (``pipeline.schedule``
keeps the answers). The transcript cache is a JSON-lines file keyed by
``prompt.digest``, the ``transcript_digest`` of prompt text + params, so a
recorded run can be replayed byte-identically; as a backend it answers the
prompts it holds and asks its ``inner`` backend, if any, for the rest.

The live backend speaks HTTP through the standard library's ``http.client``,
imported only when one is built, so commands that send no request do not
load an HTTP client at all.
"""
from __future__ import annotations

import fcntl
import json
import logging
import os
import threading
import time
from datetime import datetime, timezone
from json.decoder import scanstring
from pathlib import Path
from urllib.parse import urlsplit

from . import worldmodel
from .corpus import Document, GoldStandard
from .errors import (BackendError, CacheConflictError, CacheCorruptError,
                     CacheMissError)
from .prompting import (HEAD_END, Q1, Q2, Q3, CompletionParams, Prompt, head_state,
                        transcript_digest)

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


# The cache line layout, which only this module knows. How a line that
# ``record`` writes starts, up to the first character of its prompt: these
# two keys, with a digest of 64 letters and digits between them, which
# escapes nothing; and the keys that follow its prompt, each up to its value.
_DIGEST_KEY, _PROMPT_KEY = b'{"digest": "', b'", "prompt": "'
_DIGEST_END = len(_DIGEST_KEY) + 64
_PROMPT_AT = _DIGEST_END + len(_PROMPT_KEY)
_PARAMS_KEY, _COMPLETION_KEY, _RECORDED_AT_KEY = (
    ', "params": ', ', "completion": "', ', "recorded_at": "')

# A head's end as ``json.dumps`` escapes it in a line, and the trailing bytes
# of a head's JSON that, with that JSON's length, key a load's JSON index.
_JSON_HEAD_END = json.dumps(HEAD_END)[1:-1].encode("ascii")
_HEAD_KEY_BYTES = 64


def _read_by_position(raw: bytes, json_heads: dict, params_texts: dict) -> tuple | None:
    """The fields of the cache line ``raw``, ``(digest, (head, state), rest
    of the prompt, params, completion)``, when it is laid out as ``record``
    writes a line: ASCII, its keys in that order with those separators, a
    prompt that starts with the JSON of a head in ``json_heads``, the load's
    index of the heads it has met (``_read_whole``), ending at the line's
    last escaped ``HEAD_END``, params whose JSON text ``params_texts``
    holds, and nothing after its ``recorded_at`` string but ``}`` and a
    newline. JSON string escapes are a prefix code, so the head's JSON
    decodes to exactly that head; each other string is read by
    ``scanstring``, the scanner ``json.loads`` uses. Else None, and the line
    is decoded whole."""
    if not (raw.startswith(_DIGEST_KEY) and raw.startswith(_PROMPT_KEY, _DIGEST_END)
            and raw[len(_DIGEST_KEY):_DIGEST_END].isalnum()):
        return None
    head_end = raw.rfind(_JSON_HEAD_END) + len(_JSON_HEAD_END)
    key = (head_end - _PROMPT_AT, raw[max(_PROMPT_AT, head_end - _HEAD_KEY_BYTES):head_end])
    for escaped, shared in json_heads.get(key, ()):
        if raw.startswith(escaped, _PROMPT_AT):
            break
    else:
        return None
    try:
        line = raw[head_end:].decode("ascii")  # the line up to the head is ASCII
        rest, end = scanstring(line, 0)
        if not line.startswith(_PARAMS_KEY, end):
            return None
        end += len(_PARAMS_KEY)
        params_end = line.index(_COMPLETION_KEY, end)
        params = params_texts.get(line[end:params_end])
        if params is None:
            return None
        completion, end = scanstring(line, params_end + len(_COMPLETION_KEY))
        if not line.startswith(_RECORDED_AT_KEY, end):
            return None
        end = scanstring(line, end + len(_RECORDED_AT_KEY))[1]
    except ValueError:  # not ASCII, no completion key, or a string that does not scan
        return None
    if line[end:] not in ("}", "}\n"):
        return None
    return raw[len(_DIGEST_KEY):_DIGEST_END].decode(), shared, rest, params, completion


def _read_whole(entry, heads: dict, json_heads: dict, params_texts: dict) -> tuple:
    """The fields of a cache line decoded whole, as ``_read_by_position``
    gives them, once they have their types and the params are in range
    (else a ``KeyError``, ``TypeError``, ``UnicodeEncodeError`` or
    ``BackendError``).

    The prompt's head is its text up to its last ``HEAD_END``, or ``""``
    when it holds none. ``heads`` maps each head the load has met to its
    held ``(head, state)``, ``""`` to ``("", None)``. A new head is hashed
    once, a lone surrogate in it raising, and entered there and, keyed by
    its JSON's length and last bytes, in ``json_heads``, so that every later
    line with it shares that head object and state.
    ``params_texts`` maps the JSON text of each params value loaded, as
    ``record`` writes it, to the params built from the first value with
    that text: it tells ``0``, ``0.0`` and ``false``, extra keys and key
    order apart."""
    stored = entry["params"]
    key = json.dumps(stored)
    params = params_texts.get(key)
    if params is None:
        fields = (stored["temperature"], stored["nucleus"], stored["max_tokens"],
                  tuple(stored["stop"]))
        hash(fields)  # a list or an object among the stop strings is malformed
        params = params_texts[key] = CompletionParams(*fields)  # checks the range
    prompt, digest, completion = entry["prompt"], entry["digest"], entry["completion"]
    if not isinstance(prompt, str):
        raise TypeError(f"prompt is {prompt!r}")
    if not isinstance(completion, str):
        raise TypeError(f"completion is {completion!r}")
    split = prompt.rfind(HEAD_END)
    head = prompt[:split + len(HEAD_END)] if split >= 0 else ""
    shared = heads.get(head)
    if shared is None:
        shared = heads[head] = head, head_state(head)
        escaped = json.dumps(head)[1:-1].encode("ascii")
        json_heads.setdefault((len(escaped), escaped[-_HEAD_KEY_BYTES:]), []).append(
            (escaped, shared))
    return digest, shared, prompt[len(head):], params, completion


class TranscriptCache:
    """Append-only JSONL store of prompt -> completion transcripts, and a
    backend: ``complete`` answers a prompt the cache holds, and asks
    ``inner`` for any other and records the answer, so re-running an
    interrupted recording resumes it; with no ``inner`` that miss raises
    ``CacheMissError``. No lock is held while ``inner`` answers:
    ``pipeline.schedule`` asks each distinct prompt of a run once, and never
    twice at once. Its width, ``max_concurrency``, is ``inner``'s, else 1.

    Loading checks every entry: its digest must recompute from its prompt and
    params, else ``CacheConflictError``. A line whose digest is already loaded
    with another completion is a ``CacheConflictError`` too; an identical
    repeat loads, and the first entry is kept, as ``record`` keeps it.

    Each entry is held as a tuple of its prompt's head, the rest of its
    prompt and its completion: its params and ``recorded_at`` are checked,
    then dropped, as the digest already keys the prompt with its params. A
    load decodes, hashes and holds each distinct head (a prompt up to its
    last ``"\\nQ: "``) once, however many lines repeat it: the first line
    with it is decoded whole (``_read_whole``), which enters the head in the
    load's tables by its text and by its JSON. A later line in the layout
    ``record`` writes, whose head and params text earlier lines loaded, is
    read by position (``_read_by_position``); any other line (keys
    re-ordered, text unescaped, a ``"model"`` key, a CRLF line end) is
    decoded whole, with the same checks and errors, only slower. Either way
    its digest check hashes only the rest of its prompt, on a copy of the
    head's state. An entry that ``record`` appends holds the head of the
    prompt it is given, which every prompt of its batch shares
    (``prompting.Prompt``), and hashes nothing: its digest is the prompt's.
    So a recording holds one head for each batch it recorded, apart from
    the heads it loaded.

    A final line that does not parse is what a crash part-way through an
    append leaves behind: loading skips it with a warning, and the next
    append cuts it off, if the file still ends with it, and starts on a fresh
    line. A line that does not parse anywhere else raises
    ``CacheCorruptError``. Each append and mend holds an advisory ``flock`` on
    the file (POSIX only), so processes recording into one path take turns;
    a ``threading.Lock`` guards the entries held in memory.
    """

    def __init__(self, path, inner=None):
        self.path = Path(path)
        self.inner = inner
        self.max_concurrency = getattr(inner, "max_concurrency", 1)
        self._lock = threading.Lock()
        # digest -> (prompt head, the rest of the prompt, completion)
        self._entries: dict[str, tuple[str, str, str]] = {}
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
        # The heads met, with their states, by text and by JSON (``_read_whole``).
        heads: dict[str, tuple[str, object]] = {"": ("", None)}
        json_heads: dict[tuple[int, bytes], list[tuple[bytes, tuple[str, object]]]] = {}
        params_texts: dict[str, CompletionParams] = {}
        # A 64 KB buffer: with the default 8 KB one, readline takes a slow
        # path on lines of a few KB.
        with self.path.open("rb", buffering=1 << 16) as handle:
            for number, raw in enumerate(handle, 1):
                offset += len(raw)
                if raw.isspace():
                    tail.append(raw)
                    continue
                if torn is not None:
                    raise CacheCorruptError(f"{self.path}:{torn}: cache line does not parse")
                read = _read_by_position(raw, json_heads, params_texts)
                if read is None:
                    try:
                        entry = json.loads(raw.decode("utf-8"))
                    except (ValueError, RecursionError):  # also a UnicodeDecodeError
                        torn = number
                        tail.append(raw)
                        continue
                try:
                    if read is None:
                        read = _read_whole(entry, heads, json_heads, params_texts)
                    digest, (head, state), rest, params, completion = read
                    expected = transcript_digest(rest, params, state)  # a lone surrogate raises,
                    completion.encode("utf-8")  # in the rest of the prompt or the completion
                except (KeyError, TypeError, UnicodeEncodeError, BackendError) as exc:
                    raise CacheCorruptError(
                        f"{self.path}:{number}: malformed cache entry: {exc!r}") from exc
                if digest != expected:
                    raise CacheConflictError(
                        f"{self.path}:{number}: cache entry digest {str(digest)[:12]} does "
                        f"not recompute from its stored prompt and params")
                held = (head, rest, completion)
                if self._entries.setdefault(digest, held)[2] != held[2]:
                    raise CacheConflictError(
                        f"{self.path}:{number}: digest {digest[:12]} is "
                        f"already loaded with a different completion")
                good_end, newline = offset, raw.endswith(b"\n")
                tail.clear()
        if torn is not None or not newline:
            self._resume = (good_end, b"".join(tail))
        if torn is not None:
            log.warning("%s:%d: skipping a torn final cache line", self.path, torn)

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, digest: str) -> dict | None:
        """The entry held under ``digest`` as a new dict of its ``digest``,
        whole ``prompt`` and ``completion``; None when there is none."""
        held = self._entries.get(digest)
        if held is None:
            return None
        head, rest, completion = held
        return {"digest": digest, "prompt": head + rest, "completion": completion}

    def complete(self, prompt: Prompt, params: CompletionParams) -> str:
        """A hit is read through ``lookup``, so that a wrapper of it sees
        every prompt a replay answers (perfbench counts them so). ``params``
        is ``prompt.params``: ``inner`` is asked with it and ``record``
        writes it, so an entry recomputes to ``prompt.digest``."""
        entry = self.lookup(prompt.digest)
        if entry is not None:
            return entry["completion"]
        if self.inner is None:
            raise CacheMissError(
                f"transcript cache miss for digest {prompt.digest[:12]} "
                f"(doc {prompt.doc_id}, {prompt.question}, {prompt.setting})")
        completion = self.inner.complete(prompt, prompt.params)
        self.record(prompt, completion)
        return completion

    def record(self, prompt: Prompt, completion: str) -> None:
        """Append an entry for ``prompt`` under its digest, which is not
        hashed again. The line holds the prompt's text, joined for it alone,
        its params and the time; the entry is held as a load holds it, as
        ``(prompt.head, prompt.tail, completion)``, so the entries of one
        batch hold its one head."""
        digest = prompt.digest
        with self._lock:
            existing = self._entries.get(digest)
            if existing is not None:
                if existing[2] != completion:
                    raise CacheConflictError(
                        f"digest {digest[:12]} already recorded with a "
                        f"different completion")
                return
            entry = {
                "digest": digest,
                "prompt": prompt.text,
                "params": prompt.params.to_dict(),
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
            self._entries[digest] = (prompt.head, prompt.tail, completion)

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

    def close(self) -> None:
        """Close ``inner``'s connections, if it holds any."""
        getattr(self.inner, "close", lambda: None)()


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
            endpoint.hostname.encode("idna")  # as the resolver will: no empty or long label
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
        if not all(c == "\t" or " " <= c <= "~" or "\x80" <= c <= "\xff" for c in api_key):
            raise BackendError(f"{API_KEY_ENV} is not a valid HTTP header value: Latin-1 "
                               "text with no control character but a tab")
        self._headers = {"Content-Type": "application/json",
                         "Authorization": f"Bearer {api_key}"}
        self.max_concurrency = max_concurrency

    def complete(self, prompt: Prompt, params: CompletionParams) -> str:
        text = prompt.text
        if not text:
            raise BackendError("empty prompt")
        body = json.dumps({
            "model": self.model,
            "prompt": text,
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
            except (ValueError, LookupError, TypeError,  # also a UnicodeEncodeError
                    RecursionError) as exc:
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
            return " and ".join(gold.performers(self._activity_index(prompt.doc_id, prompt.x)))
        if prompt.question == Q3:
            x = self._activity_index(prompt.doc_id, prompt.x)
            y = self._activity_index(prompt.doc_id, prompt.y)
            # "does X immediately follow Y" asks for the gold edge Y -> X
            return "Yes" if (y, x) in gold.follows else "No"
        raise BackendError(f"unknown question kind: {prompt.question}")

    def close(self) -> None:
        """Nothing to release; a command closes whichever backend it built."""
