"""Host-speed correction: a fixed pure-Python yardstick, and times scaled by it.

On a shared host the speed of a core changes in phases lasting from seconds
to minutes, because other tenants load the same physical cores.
``yardstick()`` does the same fixed work every time and returns its wall
time. The work is of the kinds pexkit does: rendering prompts of a few kilobytes, regex clean-up and case
folding, hashing each prompt, dict and set building, sorting and a JSON
round trip. It does not use pexkit, so a change to the program does not
change it.
"""
from __future__ import annotations

import hashlib
import json
import re
import statistics
import time

# The yardstick's median on the reference host (2-vCPU shared VM, Intel Xeon
# at 2.0 GHz, Python 3.11.7). Times are reported as if the host ran at this
# speed.
REFERENCE_YARDSTICK_S = 0.030
# One yardstick reading is taken right before each timed pass. Right after
# it, readings take about this share of the pass's wall time (at least one),
# so long passes get many readings.
YARDSTICK_SHARE = 0.05

_WS = re.compile(r"\s+")
_WORDS = ("check", "order", "send", "invoice", "approve", "the", "customer",
          "clerk", "  ship ", "goods", "Receive", "Payment", "archive", "file")
_PHRASES = [" ".join(_WORDS[(i * 7 + j) % len(_WORDS)] for j in range(3 + i % 5))
            for i in range(200)]
_CONTEXT = "\n".join(f"- {p}." for p in _PHRASES[:40])


def _work() -> int:
    keys: dict[str, int] = {}
    digests = []
    for i, phrase in enumerate(_PHRASES):
        key = _WS.sub(" ", phrase.strip()).casefold()
        keys.setdefault(key, i)
        for j in (i - 1, i - 7):
            prompt = "\n\n".join((_CONTEXT, f"Q: Does '{phrase}' follow '{_PHRASES[j]}'?", "A:"))
            digests.append(hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:16])
    pairs = {(a, b) for a in range(0, 200, 3) for b in range(0, 200, 5) if a != b}
    blob = json.dumps([{"key": k, "index": v, "digest": digests[v]} for k, v in keys.items()]
                      + [list(p) for p in sorted(pairs)])
    return len(json.loads(blob)) + len(sorted(keys, key=str.lower))


def yardstick(rounds: int = 4) -> float:
    """Seconds taken by ``rounds`` repetitions of the fixed work."""
    start = time.perf_counter()
    for _ in range(rounds):
        _work()
    return time.perf_counter() - start


def yardsticks(count: int) -> list[float]:
    """``count`` yardstick readings taken back to back."""
    return [yardstick() for _ in range(max(1, count))]


def at_reference_speed(samples: list[dict]) -> float:
    """Median wall time of ``samples`` as if the host ran at the reference speed.

    Each sample has ``wall_s``, ``user_s`` (the user-space CPU time of the
    process doing the work) and ``yard_s`` (yardstick readings taken right
    before and after it). The user-space share of a sample's wall time is
    what the yardstick's speed predicts, so that share is scaled by the
    reference yardstick over the median of the sample's own readings. The
    rest (system calls, and waiting on a peer or on the scheduler) is kept as
    measured. User time above wall time, from threads running at once, counts
    as a user share of 1. Each sample is scaled by its own readings because
    the host switches between speeds within a run.
    """
    times = []
    for s in samples:
        share = min(1.0, s["user_s"] / s["wall_s"])
        speed = REFERENCE_YARDSTICK_S / statistics.median(s["yard_s"])
        times.append(s["wall_s"] * (1.0 - share + share * speed))
    return statistics.median(times)
