"""Every interleaving of the overlapped scheduler, checked.

``pipeline._answer_overlapped`` is the one place where concurrency could
change a result. Here its pool and its ``wait`` are fakes that start no
thread. At most ``width`` calls run at a time, started in the order they
were submitted; the rest wait in a queue, and a running call cannot be
cancelled. The fake ``wait`` is the choice point: it ends a chosen
non-empty set of the running calls, and chooses again until a call it was
given has ended. A depth-first search with replay runs each scenario once
per sequence of choices, so every order in which calls can end is run
(stateless model checking), and each run is checked against the width-1
run and the scheduler's rules.
"""
from __future__ import annotations

import functools
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future

import pytest

from pexkit import pipeline, prompting
from pexkit.errors import BackendError

RAISE = "raise"  # in place of a batch: the job raises instead of asking it


@functools.cache
def digest(text):
    return prompting.transcript_digest(text, prompting.default_params(prompting.Q1))


class JobFailed(Exception):
    """Job ``k``'s error, with the completions it took before it."""

    def __init__(self, k, taken, cause):
        super().__init__(k, tuple(taken), cause)
        self.key = self.args


class Backend:
    """Answers each text at width ``max_concurrency``; every call of the
    text ``fails`` fails. An answered text asked again is a violation."""

    def __init__(self, run, width, fails):
        self.run = run
        self.max_concurrency = width
        self.fails = fails
        self.answered = set()

    def complete(self, prompt, params):
        if prompt.text in self.answered:
            self.run.violations.append(f"{prompt.text} asked again once answered")
        if prompt.text == self.fails:
            raise BackendError(f"{prompt.text} fails")
        self.answered.add(prompt.text)
        return "answer to " + prompt.text


class Pool:
    """``ThreadPoolExecutor`` without threads: ``end`` runs chosen calls to
    their end, and queued calls start, in order, as running ones end."""

    def __init__(self, run, max_workers, thread_name_prefix=""):
        self.run = run
        self.width = max_workers
        self.queue = deque()  # (call, fn, prompt), not yet running
        self.running = []  # (call, fn, prompt)
        self.calls = []  # every call submitted
        self.shut = False

    def submit(self, fn, prompt):
        self.run.submitted(prompt, self.calls)
        call = Future()
        self.calls.append((call, prompt))
        self.queue.append((call, fn, prompt))
        self.fill()
        return call

    def fill(self):
        while self.queue and len(self.running) < self.width:
            item = self.queue.popleft()
            if item[0].set_running_or_notify_cancel():
                self.run.starts(item[2])
                self.running.append(item)

    def end(self, items):
        for item in items:
            self.running.remove(item)
            call, fn, prompt = item
            try:
                call.set_result(fn(prompt))
            except Exception as exc:
                call.set_exception(exc)
        self.fill()

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut = wait and cancel_futures
        for call, _, _ in self.queue:
            call.cancel()
        self.queue.clear()
        self.end(list(self.running))


class Run:
    """One run of ``schedule`` along one path of choices: the fakes, and
    each broken rule, as a message, in ``violations``."""

    def __init__(self, choose=None):
        self.choose = choose
        self.pool = None
        self.failed = []  # jobs that have raised, in the order they raised
        self.current = {}  # running job -> the digests of its current batch
        self.owner = {}  # id(prompt) -> (job, prompt), for every prompt a job yields
        self.violations = []

    def make_pool(self, **kwargs):
        self.pool = Pool(self, **kwargs)
        return self.pool

    def wait(self, calls, return_when):
        assert return_when == FIRST_COMPLETED
        running = self.pool.running
        while not any(call.done() for call in calls):
            if not running:
                self.violations.append("waits on a call that never starts")
                raise RuntimeError("deadlock")
            chosen = self.choose(2 ** len(running) - 1) + 1  # a non-empty subset, as a bit mask
            self.pool.end([item for i, item in enumerate(running) if chosen >> i & 1])

    def after_a_failure(self, k, what):
        """Record ``what`` of job ``k`` as a violation if an earlier job has failed."""
        if any(j < k for j in self.failed):
            self.violations.append(f"job {k} {what} after job {min(self.failed)} failed")

    def submitted(self, prompt, calls):
        k, _ = self.owner[id(prompt)]
        self.after_a_failure(k, f"submits {prompt.text}")
        if any(not call.done() and p.digest == prompt.digest for call, p in calls):
            self.violations.append(f"{prompt.text} submitted while its call is pending")

    def starts(self, prompt):
        if self.failed and not any(prompt.digest in batch for k, batch in self.current.items()
                                   if k < min(self.failed)):
            self.violations.append(f"{prompt.text} starts, held by no job before a failed one")

    def job(self, k, batches):
        """Job ``k``: asks each batch of texts in turn, and raises on a failed
        call, or at ``RAISE``, with the completions it took."""
        self.after_a_failure(k, "starts")
        taken = []
        try:
            for texts in batches:
                if texts == RAISE:
                    raise JobFailed(k, taken, "raised before its batch")
                batch = [prompting.Prompt("", t, prompting.Q1, prompting.RAW, "10.1", None,
                                          None, prompting.default_params(prompting.Q1),
                                          digest(t)) for t in texts]
                self.owner.update((id(p), (k, p)) for p in batch)
                self.current[k] = {p.digest for p in batch}
                completions = yield batch
                self.after_a_failure(k, "is sent answers")
                for _ in batch:
                    try:
                        taken.append(next(completions))
                    except BackendError as exc:
                        raise JobFailed(k, taken, str(exc)) from exc
            return taken
        except JobFailed:
            self.failed.append(k)
            raise
        finally:
            self.current.pop(k, None)

    def outcome(self, jobs, width, fails):
        """The results ``schedule`` yields and the key of the error it raises."""
        backend = Backend(self, width, fails)
        results = []
        try:
            for result in pipeline.schedule((self.job(k, b) for k, b in enumerate(jobs)),
                                            backend):
                results.append(result)
        except JobFailed as exc:
            return results, exc.key
        return results, None


def every_path(run):
    """Call ``run(choose)`` once per sequence of choices, depth first; each
    ``choose(n)`` takes one of ``n`` options. Returns the number of paths."""
    path = []  # [choice, options] per choice point of the current path
    paths = 0
    while True:
        depth = 0

        def choose(options):
            nonlocal depth
            if depth == len(path):
                path.append([0, options])
            choice, known = path[depth]
            assert known == options, "a replayed run took another path"
            depth += 1
            return choice

        run(choose)
        paths += 1
        assert depth == len(path), "a replayed run ended early"
        while path and path[-1][0] + 1 == path[-1][1]:
            path.pop()
        if not path:
            return paths
        path[-1][0] += 1


# Up to 3 jobs of up to 2 batches of up to 3 prompts, sharing prompts.
SCENARIOS = [
    [[("a", "b"), ("c",)], [("b", "c")], [("a",), ("d",)]],
    [[("a", "b", "c"), ("d",)], [("c", "e", "a")], [("e",), ("b", "f")]],
    [[("p",)], [("p", "q")], [("q", "p")]],
    [[("a", "b", "c")], [RAISE], [("c", "d")]],  # a job that fails before its first batch
    [[("a", "b")], [("c",), RAISE], [("b", "d")]],
    [[RAISE], [("a",)]],
    [[("a", "a", "b")], [(), ("b", "a")], [("c",)]],
    [[("a",), ("a", "b")], [("b", "c")], [("c", "a")]],
    [[("a", "b"), ("c", "d")], [("c", "a"), ("b",)], [("d", "b", "a")]],
    [[("a",), ("b",)], [("c", "d", "e")], [("d",)]],
    # When x fails, job 2's queued call for d, which no earlier job holds
    # yet, is cancelled; job 0's second batch then asks d afresh.
    [[("a",), ("d",)], [("x",)], [("y", "e", "d")]],
]


def check_every_path(monkeypatch, width, jobs):
    """Check one scenario at ``width`` with no failing call and with each
    text's calls failing in turn; returns the number of paths run."""
    texts = sorted({t for batches in jobs for b in batches if b != RAISE for t in b})
    paths = 0
    for fails in [None, *texts]:
        expected = Run().outcome(jobs, 1, fails)

        def run(choose):
            checked = Run(choose)
            monkeypatch.setattr(pipeline, "ThreadPoolExecutor", checked.make_pool)
            monkeypatch.setattr(pipeline, "wait", checked.wait)
            outcome = checked.outcome(jobs, width, fails)
            where = (jobs, width, fails, outcome)
            assert outcome == expected, where
            assert not checked.violations, (checked.violations, where)
            assert checked.pool.shut, where
            assert all(call.done() for call, _ in checked.pool.calls), where

        paths += every_path(run)
    return paths


@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("scenario", range(len(SCENARIOS)))
def test_every_interleaving_keeps_the_schedulers_rules(monkeypatch, scenario, width):
    """On every path: the results, or the raised error, equal the width-1
    run's; each digest is submitted at most once while its call is pending,
    and never asked again once answered; once a job has failed, no later
    job starts, is sent answers or submits a call, and no call starts that
    no earlier job holds; and no call is pending when ``schedule`` ends."""
    assert check_every_path(monkeypatch, width, SCENARIOS[scenario]) > 1
