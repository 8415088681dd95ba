"""Incremental Q1 -> Q2 -> Q3 extraction dialogue for one document.

Q1 collects the activity list (or gold activities are injected), Q2 asks
for the performer of every activity, and Q3 asks the yes/no follows
question for every ordered pair of distinct activities.
"""
from __future__ import annotations

import functools
import logging
import re
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from contextlib import closing
from dataclasses import dataclass, field
from itertools import groupby, permutations

from . import prompting
from .corpus import Document
from .errors import BackendError
from .worldmodel import WorldModel, normalize_key

log = logging.getLogger(__name__)

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
    """Parse a Q2 answer into participant phrases (no normalization): a new
    list on each call, of the phrases ``_participants`` memoizes."""
    return list(_participants(completion))


@functools.lru_cache(maxsize=4096)
def _participants(completion: str) -> tuple[str, ...]:
    """``parse_participant_answer``'s phrases, memoized by completion text: a
    suite's gs runs meet its ex runs' answers again."""
    text = completion.strip()
    if not text:
        return ()
    first = re.split(r"(?<=[.!?])\s", text, maxsplit=1)[0].strip()
    first = _Q2_BOILERPLATE.sub("", first)
    first = first.rstrip(".").strip()
    if not first:
        return ()
    return tuple(p.strip() for p in _COORD_SPLIT.split(first) if p.strip())


@functools.lru_cache(maxsize=4096)
def parse_yesno(completion: str) -> str:
    """Classify a Q3 completion by its first alphabetic run (``str.isalpha``),
    case-folded: ``"Àno"`` is neither yes nor no. Memoized by completion
    text, as a suite meets a few distinct answers many times."""
    for alphabetic, run in groupby(completion, str.isalpha):
        if alphabetic:
            return {"yes": YES, "no": NO}.get("".join(run).casefold(), UNKNOWN)
    return UNKNOWN


@dataclass
class ExtractionRun:
    """One dialogue's result, for the document ``model.doc_id``."""
    setting: str
    activity_source: str  # GOLD_INJECTED when given its activities, else EXTRACTED
    model: WorldModel
    counters: dict = field(default_factory=lambda: {"q1": 0, "q2": 0, "q3": 0})
    unknown_q3: int = 0


class ExtractionAborted(BackendError):
    """Backend failure mid-run; ``run`` keeps the model, counters and
    ``unknown_q3`` of the answers applied before it."""

    def __init__(self, message: str, run: ExtractionRun):
        super().__init__(message)
        self.run = run


def dialogue(doc: Document, setting: str, shots: list | None = None,
             gold_activities: tuple | None = None, prompts: dict | None = None):
    """The question dialogue for one document and setting, as a job for
    ``schedule``; it returns the ``ExtractionRun``.

    With ``gold_activities`` None it asks Q1 for the activities; given a
    tuple, it injects those and asks no Q1.

    It yields each question batch as a list of its rendered prompts, and is
    sent an iterator of their completions, in order, whose ``next`` raises a
    failed call's error in that call's place. So each answer is applied
    before the next one is taken, and a prompt that does not render fails the
    dialogue before any of its batch is asked.

    ``prompts``, when given, is a render memo, ``(question, x, y)`` ->
    ``Prompt``, that dialogues of this document, setting and shots share: a
    binding found there takes that prompt, with its head and digest, and only
    a miss is rendered. An extracted run stores its renders there; a
    gold-injected run, its job's last reader, stores none. A batch builds its
    ``renderer``, which joins and hashes the head, on its first miss, so a
    batch that misses none builds none.

    Each answer, as it is applied, is logged at DEBUG as ``issued <question>
    prompt <digest>``.
    """
    source = EXTRACTED if gold_activities is None else GOLD_INJECTED
    run = ExtractionRun(setting, source, WorldModel(doc.id))
    model = run.model
    store = prompts is not None and gold_activities is None

    def ask(question: str, bindings: list, apply):
        """Ask ``question`` for each (x, y) binding; call ``apply(k, completion,
        digest)`` for the k-th answer, in binding order."""
        fill = None

        def render(x, y):
            nonlocal fill
            prompt = prompts.get((question, x, y)) if prompts is not None else None
            if prompt is None:
                fill = fill or prompting.renderer(question, setting, doc, shots)
                prompt = fill(x, y)
                if store:
                    prompts[question, x, y] = prompt
            return prompt

        debug = log.isEnabledFor(logging.DEBUG)
        batch = [render(x, y) for x, y in bindings]
        answers = yield batch
        for k, prompt in enumerate(batch):
            try:
                completion = next(answers)
            except BackendError as exc:
                raise ExtractionAborted(str(exc), run) from exc
            run.counters[question] += 1
            if debug:
                log.debug("issued %s prompt %s", question, prompt.digest)
            apply(k, completion, prompt.digest)

    def listed(_, completion, digest):
        for surface in parse_list_answer(completion):
            model.add_activity(surface, (prompting.Q1, digest))

    if gold_activities is None:
        yield from ask(prompting.Q1, [(None, None)], listed)
    else:
        for surface in gold_activities:
            model.add_activity(surface, (GOLD_INJECTED, "-"))

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


def extract(doc: Document, setting: str, backend, shots: list | None = None,
            gold_activities: tuple | None = None) -> ExtractionRun:
    """Run ``dialogue`` for one document and setting: the one-job case of
    ``schedule``."""
    with closing(schedule([dialogue(doc, setting, shots, gold_activities)],
                          backend)) as runs:
        [run] = runs
    return run


def schedule(jobs, backend):
    """Run ``jobs``, generators that ask the way ``dialogue`` does, against
    ``backend`` and yield each one's result, in job order.

    A job yields each question batch as a list of rendered prompts and is
    sent an iterator of their completions, in order, whose ``next`` raises a
    failed call's error in that call's place. The run's answers,
    ``prompt.digest`` -> completion, are kept here, and ``backend`` is asked
    only for a digest without one; a failed call leaves none. At
    ``backend.max_concurrency`` 1 (the default) each job runs alone, and the
    prompts of each batch are asked and answered in turn on this thread. At
    width ``W`` above 1, up to ``W`` jobs advance at once, and each batch's
    calls are queued at once for ``W`` ``pex-ask`` threads, which only call
    ``backend`` and store the answer: an answered prompt gets no call, and
    one whose call is in flight gets that call. A job is sent its answers
    once every call up to its batch's first failed call has ended, so every
    result equals a sequential run's. A job that fails, on a call or before
    its first batch, raises at its own position, after every earlier result
    has been yielded; no later job starts or is yielded, the waiting calls
    that no earlier job holds are cancelled, and the running calls, at most
    ``W``, finish before this ends.
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


def _answer_inline(job, ask):
    try:
        batch = next(job)
        while True:
            batch = job.send(map(ask, batch))
    except StopIteration as stop:
        return stop.value


class _Job:
    """One job as ``_answer_overlapped`` runs it: its generator and its
    current batch, each prompt with its call (``None`` when answered). A job
    that raises, on its first send or a later one, is done with ``error``."""

    def __init__(self, gen, call_for):
        self.gen = gen
        self.call_for = call_for  # prompt -> its call, or None when answered
        self.batch: list = []  # (prompt, call), in question order
        self.ended = 0  # leading calls of the batch that have ended
        self.done = False
        self.result = self.error = None
        self.send(None)

    def send(self, answers) -> None:
        """Send the job ``answers`` and queue the calls of its next batch."""
        try:
            prompts = self.gen.send(answers)
        except StopIteration as stop:
            self.done, self.result = True, stop.value
            return
        except Exception as exc:
            self.done, self.error = True, exc
            return
        self.batch, self.ended = [(prompt, self.call_for(prompt)) for prompt in prompts], 0

    def waiting(self) -> Future | None:
        """The call the job waits for; None once every call up to the
        batch's first failed call has ended."""
        while self.ended < len(self.batch):
            call = self.batch[self.ended][1]
            if call is not None:
                if not call.done():
                    return call
                if call.exception() is not None:
                    return None
            self.ended += 1
        return None

    def take(self, answers: dict) -> None:
        self.send(answers[prompt.digest] if call is None else call.result()
                  for prompt, call in self.batch)


def _answer_overlapped(jobs, ask, answers: dict, width: int):
    active: list[_Job] = []  # started and not yet yielded, in job order
    calls: dict[str, Future] = {}  # digest -> its call, while a batch waits for it
    pool = ThreadPoolExecutor(max_workers=width, thread_name_prefix="pex-ask")

    def call_for(prompt):
        call = calls.get(prompt.digest)
        if call is not None and not call.done():
            return call
        if prompt.digest in answers:  # stored before its call is done
            return None
        call = calls[prompt.digest] = pool.submit(ask, prompt)
        return call

    try:
        while True:  # each pass handles a failed job before it starts a job or waits
            failed = next((k for k, job in enumerate(active) if job.error is not None), None)
            if failed is not None:  # no job after a failed one runs, nor a call only they hold
                held = {call for job in active[:failed] for _, call in job.batch}
                for job in active[failed:]:
                    for _, call in job.batch:
                        if call is not None and call not in held:
                            call.cancel()
                for job in active[failed + 1:]:
                    job.gen.close()
                del active[failed + 1:]
                jobs = iter(())
            if sum(not job.done for job in active) < width:
                gen = next(jobs, None)
                if gen is not None:
                    active.append(_Job(gen, call_for))
                    continue
            while active and active[0].done:
                job = active.pop(0)
                if job.error is not None:
                    raise job.error
                yield job.result
            if not active:
                return
            waiting = [job.waiting() for job in active if not job.done]
            if None not in waiting:
                wait(waiting, return_when=FIRST_COMPLETED)
            for job in active:
                if not job.done and job.waiting() is None:
                    for prompt, call in job.batch[:job.ended]:
                        if call is not None and calls.get(prompt.digest) is call:
                            del calls[prompt.digest]
                    job.take(answers)
                if job.error is not None:
                    break
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        for job in active:
            job.gen.close()
