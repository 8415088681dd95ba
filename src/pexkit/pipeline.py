"""Incremental Q1 -> Q2 -> Q3 extraction dialogue for one document.

Q1 collects the activity list (or gold activities are injected), Q2 asks
for the performer of every activity, and Q3 asks the yes/no follows
question for every ordered pair of distinct activities.
"""
from __future__ import annotations

import queue
import re
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from itertools import groupby, permutations

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
    """Classify a Q3 completion by its first alphabetic run (``str.isalpha``),
    case-folded: ``"Àno"`` is neither yes nor no."""
    for alphabetic, run in groupby(completion, str.isalpha):
        if alphabetic:
            return {"yes": YES, "no": NO}.get("".join(run).casefold(), UNKNOWN)
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


def dialogue(doc: Document, setting: str, gold: GoldStandard | None = None,
             activity_source: str = EXTRACTED, shots: list | None = None):
    """The question dialogue for one document and setting, as a job for
    ``schedule``; it returns the ``ExtractionRun``.

    It yields each question batch as an iterator of its prompts, rendered
    lazily, and is resumed with ``None``. Then it yields ``None``
    once per question of the batch, in question order, and is resumed with
    ``(prompt, completion)`` or has the call's exception thrown in. So each
    answer is applied before the next one is taken.
    """
    if activity_source not in (EXTRACTED, GOLD_INJECTED):
        raise ValueError(f"unknown activity source: {activity_source}")
    if activity_source == GOLD_INJECTED and gold is None:
        raise ValueError("gold-injected extraction requires a gold standard")

    run = ExtractionRun(doc.id, setting, activity_source, WorldModel(doc.id))
    model = run.model

    def ask(question: str, bindings: list, apply):
        """Ask ``question`` for each (x, y) binding; call ``apply(k, completion,
        digest)`` for the k-th answer, in binding order."""
        fill = prompting.renderer(question, setting, doc, shots)
        yield (fill(x, y) for x, y in bindings)
        for k in range(len(bindings)):
            try:
                prompt, completion = yield
            except BackendError as exc:
                raise ExtractionAborted(str(exc), run) from exc
            run.counters[question] += 1
            run.transcripts.append({
                "question": question,
                "doc_id": doc.id,
                "setting": setting,
                "x": prompt.x,
                "y": prompt.y,
                "digest": prompt.digest,
                "completion": completion,
            })
            apply(k, completion, prompt.digest)

    def listed(_, completion, digest):
        for surface in parse_list_answer(completion):
            model.add_activity(surface, (prompting.Q1, digest))

    if activity_source == GOLD_INJECTED:
        for surface in gold.activities:
            model.add_activity(surface, (GOLD_INJECTED, "-"))
    else:
        yield from ask(prompting.Q1, [(None, None)], listed)

    def performed(i, completion, digest):
        for name in parse_participant_answer(completion):
            p = model.add_participant(name, (prompting.Q2, digest))
            model.add_performs(p, i, (prompting.Q2, digest))

    activities = list(model.activities)
    yield from ask(prompting.Q2, [(s, None) for s in activities], performed)

    # "does X immediately follow Y": a Yes means X comes after Y,
    # recorded as the edge Y -> X, i.e. (i, j) here.
    pairs = list(permutations(range(len(activities)), 2))

    def followed(k, completion, digest):
        verdict = parse_yesno(completion)
        if verdict == YES:
            model.add_follows(*pairs[k], (prompting.Q3, digest))
        elif verdict == UNKNOWN:
            run.unknown_q3 += 1

    yield from ask(prompting.Q3, [(activities[j], activities[i]) for i, j in pairs],
                   followed)
    return run


def extract(doc: Document, setting: str, backend,
            gold: GoldStandard | None = None,
            activity_source: str = EXTRACTED,
            shots: list | None = None) -> ExtractionRun:
    """Run the full question dialogue for one document and setting: the
    one-job case of ``schedule``."""
    with closing(schedule([dialogue(doc, setting, gold, activity_source, shots)],
                          backend)) as runs:
        [run] = runs
    return run


def schedule(jobs, backend):
    """Run ``jobs``, generators that ask the way ``dialogue`` does, against
    ``backend`` and yield each one's result, in job order.

    The run's answers, ``prompt.digest`` -> completion, are kept here, and
    ``backend`` is asked only for a digest without one; a failed call leaves
    none. At ``backend.max_concurrency`` 1 (the default) each job runs alone
    and asks on this thread. At width ``W`` above 1, up to ``W`` jobs advance
    at once, with up to ``W`` calls in flight on ``W`` ``pex-ask`` threads
    that only call ``backend`` and store the answer; the earliest job draws
    first. A drawn prompt that is answered gets a done future, and one whose
    call is in flight gets that call. Rendering and results stay on this
    thread. Each job takes its answers in question order, so every result
    equals a sequential run's. A job that fails raises at its own position,
    after every earlier result has been yielded; no later job starts or is
    yielded, and the calls in flight still finish before this ends.
    """
    answers: dict[str, str] = {}

    def ask(prompt):
        if prompt.digest not in answers:
            answers[prompt.digest] = backend.complete(prompt, prompt.params)
        return answers[prompt.digest]

    width = getattr(backend, "max_concurrency", 1)
    if width <= 1:
        for job in jobs:
            yield _answer_inline(job, ask)
    else:
        yield from _answer_overlapped(iter(jobs), ask, answers, width)


def _answer_inline(gen, ask):
    job = _Job(gen)
    while not job.done:
        prompt = next(job.prompts)
        try:
            reply = prompt, ask(prompt)
        except Exception as exc:
            job.resume(job.gen.throw, exc)
        else:
            job.resume(job.gen.send, reply)
    if job.error is not None:
        raise job.error
    return job.result


class _Job:
    """One job as ``schedule`` runs it: its generator, the prompts of its
    batch not drawn yet and, at width above 1, the drawn ones whose answers
    it has not taken."""

    def __init__(self, gen):
        self.gen = gen
        self.prompts = iter(())
        self.window: deque = deque()  # (prompt, future), in question order
        self.done = False
        self.result = self.error = None
        self.resume(gen.send, None)

    def resume(self, resume, value) -> None:
        """Resume the job with ``resume(value)`` until it waits for an answer."""
        try:
            step = resume(value)
            while step is not None:  # a new batch
                self.prompts = step
                step = self.gen.send(None)
        except StopIteration as stop:
            self.done, self.result = True, stop.value
        except Exception as exc:
            self.done, self.error = True, exc

    def draw(self, submit) -> bool:
        """Draw the next prompt and ``submit(prompt)``, the future of its answer;
        False when the job has no prompt to draw."""
        if self.done:
            return False
        prompt = None
        try:
            prompt = next(self.prompts, None)
            if prompt is None:
                return False
            future = submit(prompt)
        except Exception as exc:  # a prompt that does not render fails in its place
            future = Future()
            future.set_exception(exc)
        self.window.append((prompt, future))
        return True

    def ready(self) -> bool:
        return not self.done and bool(self.window) and self.window[0][1].done()

    def take(self) -> None:
        """Give the job the answer, or the error, of its oldest drawn prompt."""
        prompt, future = self.window.popleft()
        error = future.exception()
        if error is None:
            self.resume(self.gen.send, (prompt, future.result()))
        else:
            self.resume(self.gen.throw, error)


def _answer_overlapped(jobs, ask, answers: dict, width: int):
    active: list[_Job] = []  # started and not yet yielded, in job order
    calls: dict[str, Future] = {}  # digest -> its call, until taken from ``ended``
    ended = queue.SimpleQueue()  # digests whose call has ended
    pool = ThreadPoolExecutor(max_workers=width, thread_name_prefix="pex-ask")

    def submit(prompt):
        if prompt.digest in answers:  # no call: the pool and its cap are for calls
            call = Future()
            call.set_result(answers[prompt.digest])
            return call
        call = calls.get(prompt.digest)
        if call is None:
            call = calls[prompt.digest] = pool.submit(ask, prompt)
            call.add_done_callback(lambda _: ended.put(prompt.digest))
        return call

    try:
        while True:
            failed = next((k for k, job in enumerate(active) if job.error is not None), None)
            if failed is not None:  # no job after a failed one runs
                for job in active[failed + 1:]:  # its calls run on: an earlier job may share them
                    job.gen.close()
                del active[failed + 1:]
                jobs = iter(())
            while sum(not job.done for job in active) < width:
                gen = next(jobs, None)
                if gen is None:
                    break
                active.append(_Job(gen))
            while active and active[0].done:
                job = active.pop(0)
                if job.error is not None:
                    raise job.error
                yield job.result
            if not active:
                return
            # The earliest job draws first. Up to ``width`` drawn calls wait in
            # the pool's queue, so a thread whose call ends starts the next at once.
            for job in active:
                while len(calls) < 2 * width and len(job.window) < 2 * width:
                    if not job.draw(submit):
                        break
            if not any(job.ready() for job in active):
                del calls[ended.get()]
            while not ended.empty():
                del calls[ended.get()]
            for job in active:
                while job.ready():
                    job.take()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        for job in active:
            job.gen.close()
