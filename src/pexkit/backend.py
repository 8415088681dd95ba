"""Completion backends: live HTTP API, transcript replay, and gold oracle.

All backends expose ``complete(prompt, params) -> str``. The transcript
cache is a JSON-lines file keyed by a digest of prompt text + params, so a
recorded run can be replayed byte-identically.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import requests

from . import worldmodel
from .corpus import Document, GoldStandard
from .errors import BackendError, CacheConflictError, CacheMissError
from .prompting import Q1, Q2, Q3, Prompt

API_KEY_ENV = "PEX_API_KEY"

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


def transcript_digest(prompt_text: str, params: CompletionParams) -> str:
    """Cache key of a prompt text and its params; also what provenance records."""
    payload = prompt_text + "\x00" + _params_json(params)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TranscriptCache:
    """Append-only JSONL store of prompt -> completion transcripts."""

    def __init__(self, path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[str, dict] = {}
        if self.path.exists():
            with self.path.open(encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    entry = json.loads(line)
                    self._check_entry(entry)
                    self._entries[entry["digest"]] = entry

    @staticmethod
    def _check_entry(entry: dict) -> None:
        params = CompletionParams.from_dict(entry["params"])
        expected = transcript_digest(entry["prompt"], params)
        if entry["digest"] != expected:
            raise CacheConflictError(
                f"cache entry digest {entry['digest'][:12]} does not recompute "
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
            self._entries[digest] = entry
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(entry) + "\n")


def truncate_at_stop(text: str, stop: tuple[str, ...]) -> str:
    for seq in stop:
        pos = text.find(seq)
        if pos >= 0:
            text = text[:pos]
    return text


class LiveBackend:
    """Completions-style HTTP API client with retry/backoff and rate limiting."""

    def __init__(self, base_url: str, model: str, api_key: str | None = None,
                 max_retries: int = 5, backoff: float = 1.0,
                 min_interval: float = 0.0, max_concurrency: int = 4,
                 session=None):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        if not self.api_key:
            raise BackendError(f"live backend requires an API key ({API_KEY_ENV})")
        self.max_retries = max_retries
        self.backoff = backoff
        self.min_interval = min_interval
        self._session = session or requests.Session()
        self._sem = threading.Semaphore(max_concurrency)
        self._rate_lock = threading.Lock()
        self._last_request = 0.0

    def _throttle(self) -> None:
        if self.min_interval <= 0:
            return
        with self._rate_lock:
            wait = self._last_request + self.min_interval - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            self._last_request = time.monotonic()

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
        for attempt in range(self.max_retries):
            if attempt:
                time.sleep(min(self.backoff * 2 ** (attempt - 1), 30.0))
            with self._sem:
                self._throttle()
                try:
                    resp = self._session.post(f"{self.base_url}/completions",
                                              json=payload, headers=headers,
                                              timeout=60)
                except requests.RequestException as exc:
                    last_error = f"transport failure: {exc}"
                    continue
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


class ReplayBackend:
    """Serve completions from a transcript cache; miss fails loudly."""

    def __init__(self, cache: TranscriptCache, fallback=None):
        self.cache = cache
        self.fallback = fallback

    def complete(self, prompt: Prompt, params: CompletionParams) -> str:
        digest = transcript_digest(prompt.text, params)
        entry = self.cache.lookup(digest)
        if entry is not None:
            return entry["completion"]
        if self.fallback is None:
            raise CacheMissError(
                f"transcript cache miss for digest {digest[:12]} "
                f"(doc {prompt.doc_id}, {prompt.question}, {prompt.setting})")
        completion = self.fallback.complete(prompt, params)
        self.cache.record(prompt.text, params, completion)
        return completion


class RecordingBackend:
    """Write-through wrapper persisting every completion to a cache."""

    def __init__(self, inner, cache: TranscriptCache):
        self.inner = inner
        self.cache = cache

    def complete(self, prompt: Prompt, params: CompletionParams) -> str:
        completion = self.inner.complete(prompt, params)
        self.cache.record(prompt.text, params, completion)
        return completion


class OracleBackend:
    """Answer every question from the gold standard (scripted oracle)."""

    def __init__(self, entries: dict[str, tuple[Document, GoldStandard]]):
        self._entries = entries

    def _gold(self, doc_id: str) -> GoldStandard:
        if doc_id not in self._entries:
            raise BackendError(f"oracle has no gold standard for document {doc_id}")
        return self._entries[doc_id][1]

    def _activity_index(self, gold: GoldStandard, phrase: str) -> int:
        key = worldmodel.normalize_key(phrase)
        for i, surface in enumerate(gold.activity_surfaces):
            if worldmodel.normalize_key(surface) == key:
                return i
        raise BackendError(
            f"oracle for {gold.doc_id} knows no activity {phrase!r}")

    def complete(self, prompt: Prompt, params: CompletionParams) -> str:
        gold = self._gold(prompt.doc_id)
        if prompt.question == Q1:
            return "\n".join(gold.activity_surfaces)
        if prompt.question == Q2:
            idx = self._activity_index(gold, prompt.x)
            performers = [gold.participants[p] for p, a in sorted(gold.performs)
                          if a == idx]
            return " and ".join(performers)
        if prompt.question == Q3:
            x = self._activity_index(gold, prompt.x)
            y = self._activity_index(gold, prompt.y)
            # "does X immediately follow Y" asks for the gold edge Y -> X
            return "Yes" if (y, x) in gold.follows else "No"
        raise BackendError(f"unknown question kind: {prompt.question}")
