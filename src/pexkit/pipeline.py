"""Incremental Q1 -> Q2 -> Q3 extraction dialogue for one document.

Q1 collects the activity list (or gold activities are injected), Q2 asks
for the performer of every activity, and Q3 asks the yes/no follows
question for every ordered pair of distinct activities.
"""
from __future__ import annotations

import re
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from itertools import permutations

from . import backend as backend_mod
from . import prompting
from .corpus import Document, GoldStandard
from .errors import BackendError
from .worldmodel import WorldModel, normalize_key

EXTRACTED = "extracted"
GOLD_INJECTED = "gold"

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

_BULLET = re.compile(r"^[-*•]+\s*")
_ORDINAL = re.compile(r"^\d+[.)]\s*")
_COORD_SPLIT = re.compile(r",\s*(?:and\s+)?|\s+and\s+")
_Q2_BOILERPLATE = re.compile(
    r"^the\s+participants?\s+performing\b.*?\b(?:is|are)\s+", re.IGNORECASE)


def _clean_item(line: str) -> str:
    line = line.strip()
    line = _BULLET.sub("", line)
    line = _ORDINAL.sub("", line)
    return line.strip().rstrip(".").strip()


def parse_list_answer(completion: str) -> list[str]:
    """Parse a Q1 activity list out of free-form completion text."""
    items = [_clean_item(line) for line in completion.splitlines()]
    items = [i for i in items if i]
    if len(items) == 1 and "," in items[0]:
        items = [p.strip() for p in _COORD_SPLIT.split(items[0]) if p.strip()]
    seen = set()
    out = []
    for item in items:
        key = normalize_key(item)
        if key not in seen:
            seen.add(key)
            out.append(item)
    return out


def parse_participant_answer(completion: str) -> list[str]:
    """Parse a Q2 answer into participant phrases (no normalization)."""
    text = completion.strip()
    if not text:
        return []
    first = re.split(r"(?<=[.!?])\s", text, maxsplit=1)[0].strip()
    first = _Q2_BOILERPLATE.sub("", first)
    first = first.rstrip(".").strip()
    if not first:
        return []
    return [p.strip() for p in _COORD_SPLIT.split(first) if p.strip()]


def parse_yesno(completion: str) -> str:
    """Classify a Q3 completion by its first alphabetic token."""
    match = re.search(r"[A-Za-z]+", completion)
    if not match:
        return UNKNOWN
    token = match.group(0).lower()
    if token == "yes":
        return YES
    if token == "no":
        return NO
    return UNKNOWN


@dataclass
class ExtractionRun:
    doc_id: str
    setting: str
    activity_source: str
    model: WorldModel
    transcripts: list = field(default_factory=list)
    counters: dict = field(default_factory=lambda: {"q1": 0, "q2": 0, "q3": 0})
    unknown_q3: int = 0


class ExtractionAborted(BackendError):
    """Backend failure mid-run; partial transcripts are kept on ``run``."""

    def __init__(self, message: str, run: ExtractionRun):
        super().__init__(message)
        self.run = run


def _in_order(call, items, width: int):
    """Yield ``(item, call(item))`` for every item, in item order.

    Up to ``width`` calls run at once on worker threads, and at most
    ``2 * width`` items are drawn from the lazy ``items`` ahead of the one
    being yielded. A failed call raises at its own position, after every
    earlier result has been yielded; the calls behind it are cancelled or
    waited for, so no worker thread outlives the generator. Width 1 calls
    ``call`` on the caller's thread, one item at a time.
    """
    if width <= 1:
        for item in items:
            yield item, call(item)
        return
    pool = ThreadPoolExecutor(max_workers=width, thread_name_prefix="pex-ask")
    window: deque = deque()
    try:
        for item in items:
            window.append((item, pool.submit(call, item)))
            if len(window) >= 2 * width:
                item, future = window.popleft()
                yield item, future.result()
        while window:
            item, future = window.popleft()
            yield item, future.result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def extract(doc: Document, setting: str, backend,
            gold: GoldStandard | None = None,
            activity_source: str = EXTRACTED,
            shots: list | None = None) -> ExtractionRun:
    """Run the full question dialogue for one document and setting.

    The Q2 questions, and then the Q3 questions, are independent of each
    other: each batch is sent ``backend.max_concurrency`` questions at a time
    (1 for a backend that declares none), and its answers are applied in
    question order, so the run equals a sequential one.
    """
    if activity_source not in (EXTRACTED, GOLD_INJECTED):
        raise ValueError(f"unknown activity source: {activity_source}")
    if activity_source == GOLD_INJECTED and gold is None:
        raise ValueError("gold-injected extraction requires a gold standard")
    width = getattr(backend, "max_concurrency", 1)

    run = ExtractionRun(doc.id, setting, activity_source, WorldModel(doc.id))
    model = run.model

    def ask(question: str, bindings: list):
        """Ask ``question`` for each (x, y) binding; yield (completion, digest)
        in binding order."""
        params = backend_mod.default_params(question)
        prompts = (prompting.render(question, setting, doc, x=x, y=y, shots=shots)
                   for x, y in bindings)
        answers = _in_order(lambda prompt: backend.complete(prompt, params),
                            prompts, min(width, len(bindings)))
        with closing(answers):
            try:
                for prompt, completion in answers:
                    run.counters[question] += 1
                    digest = backend_mod.transcript_digest(prompt.text, params)
                    run.transcripts.append({
                        "question": question,
                        "doc_id": doc.id,
                        "setting": setting,
                        "x": prompt.x,
                        "y": prompt.y,
                        "digest": digest,
                        "completion": completion,
                    })
                    yield completion, digest
            except BackendError as exc:
                raise ExtractionAborted(str(exc), run) from exc

    if activity_source == GOLD_INJECTED:
        for surface in gold.activities:
            model.add_activity(surface, (GOLD_INJECTED, "-"))
    else:
        [(completion, digest)] = ask(prompting.Q1, [(None, None)])
        for surface in parse_list_answer(completion):
            model.add_activity(surface, (prompting.Q1, digest))

    activities = list(model.activities)
    n = len(activities)
    with closing(ask(prompting.Q2, [(s, None) for s in activities])) as answers:
        for i, (completion, digest) in enumerate(answers):
            for name in parse_participant_answer(completion):
                p = model.add_participant(name, (prompting.Q2, digest))
                model.add_performs(p, i, (prompting.Q2, digest))

    # "does X immediately follow Y": a Yes means X comes after Y,
    # recorded as the edge Y -> X, i.e. (i, j) here.
    pairs = list(permutations(range(n), 2))
    bindings = [(activities[j], activities[i]) for i, j in pairs]
    with closing(ask(prompting.Q3, bindings)) as answers:
        for (i, j), (completion, digest) in zip(pairs, answers):
            verdict = parse_yesno(completion)
            if verdict == YES:
                model.add_follows(i, j, (prompting.Q3, digest))
            elif verdict == UNKNOWN:
                run.unknown_q3 += 1
    return run
