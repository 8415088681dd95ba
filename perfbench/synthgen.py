"""Seeded synthetic corpus and noisy answers for the replay-synthetic workload.

``make_corpus(seed)`` returns canonical corpus records for the seven
evaluation ids that ``pex run-suite`` runs, plus generated shot documents
under the two shot ids. The documents are larger than the bundled fixture.
Their activity counts are a fixed multiset that the seed only permutes, so
every seed asks the same number of questions.

``noisy_answer`` is the stand-in's ``noisy`` responder. Each answer is drawn
from a generator seeded with the prompt digest, so a recording repeats
exactly. Q1 answers drop exactly one activity and paraphrase all but one of
the rest, in a bulleted, numbered, plain or comma-separated list. Q2 answers
mix bare phrases with boilerplate sentences, and Q3 answers mix yes/no forms
with answers that are neither.

    python3 perfbench/synthgen.py --seed 7 --out corpus.json
"""
from __future__ import annotations

import argparse
import json
import random
import re
import sys
from pathlib import Path

EVALUATION_IDS = ("1.2", "1.3", "3.3", "5.2", "10.1", "10.6", "10.13")
SHOT_IDS = ("2.2", "10.9")
ACTIVITY_COUNTS = (8, 9, 10, 12, 14, 16, 18)
SHOT_ACTIVITY_COUNTS = (5, 4)

# (verb, synonym) pairs; no phrase contains "and" or a comma, because the
# program's list parser splits on those.
VERBS = (
    ("approves", "authorizes"), ("checks", "inspects"), ("records", "logs"),
    ("reviews", "examines"), ("sends", "dispatches"), ("prepares", "drafts"),
    ("validates", "verifies"), ("archives", "files"), ("updates", "revises"),
    ("schedules", "plans"), ("signs", "endorses"), ("collects", "gathers"),
    ("forwards", "passes on"), ("calculates", "computes"), ("rejects", "declines"),
    ("registers", "enrolls"), ("assigns", "allocates"), ("confirms", "acknowledges"),
    ("orders", "requests"), ("packs", "boxes"), ("ships", "delivers"),
    ("tests", "trials"), ("publishes", "releases"), ("cancels", "voids"),
)
OBJECTS = (
    "purchase order", "travel request", "invoice", "delivery note",
    "customer file", "budget plan", "contract draft", "payment receipt",
    "inventory report", "shipping label", "insurance claim", "test protocol",
    "expense report", "meeting agenda", "quality checklist", "supplier quote",
    "access badge", "service ticket", "credit note", "risk assessment",
    "project charter", "training record", "audit trail", "price list",
)
ROLES = (
    "the clerk", "the manager", "the customer", "the auditor", "the courier",
    "the supplier", "the analyst", "the technician", "the accountant",
    "the secretary", "the inspector", "the coordinator",
)
SYSTEMS = ("the ledger", "the portal", "the archive", "the register", "the tracker")
CONNECTIVES = ("First,", "Then", "Afterwards,", "Next,", "After that,", "Later,")
QUALIFIERS = (" again", " if needed", " in the system", " promptly", " carefully")
FILLERS = (
    "This step is documented in {sys} for later reference.",
    "The {obj} is stored in {sys} until the process ends.",
    "Delays at this point are reported to the head office every week.",
    "The department follows the internal guideline for the {obj}.",
)
Q2_BOILERPLATE = ("The participant performing {x} is {p}.",
                  "The participants performing {x} are {p}.")
YES_FORMS = ("Yes", "Yes.", "yes, it does", "Yes - directly after it.")
NO_FORMS = ("No", "No.", "no, it does not", "No - another step comes between.")
NEITHER_FORMS = ("It depends on the outcome of the check.", "Possibly",
                 "Not necessarily", "Unclear from the text.")

_WORD = re.compile(r"[a-z]+")


def _document(rng: random.Random, doc_id: str, n: int) -> dict:
    verbs = rng.sample(VERBS, n)
    objects = rng.sample(OBJECTS, n)
    roles = rng.sample(ROLES, min(2 + n // 6, 5))
    surfaces = [f"{verb} the {obj}" for (verb, _), obj in zip(verbs, objects)]
    performs = set()
    for a in range(n):
        performs.add((rng.randrange(len(roles)), a))
        if rng.random() < 0.1:
            performs.add((rng.randrange(len(roles)), a))
    performer = {a: p for p, a in sorted(performs, reverse=True)}
    follows = {(a, a + 1) for a in range(n - 1)}
    follows |= {(a, a + 2) for a in range(n - 2) if rng.random() < 0.2}

    activities = []
    body = ""
    for a, surface in enumerate(surfaces):
        role = roles[performer[a]]
        lead = CONNECTIVES[0] if a == 0 else rng.choice(CONNECTIVES[1:])
        sentence = f"{lead} {role} {surface} in {rng.choice(SYSTEMS)}."
        prefix = body + (" " if body else "")
        activities.append({"surface": surface,
                           "index": len(prefix) + sentence.index(surface)})
        # One filler per activity, in a fixed cycle, so body length varies
        # little between seeds.
        filler = FILLERS[a % len(FILLERS)].format(sys=SYSTEMS[a % len(SYSTEMS)], obj=objects[a])
        body = prefix + sentence + " " + filler
    return {
        "id": doc_id,
        "body": body,
        "gold": {
            "activities": activities,
            "participants": roles,
            "performs": [list(p) for p in sorted(performs)],
            "follows": [list(p) for p in sorted(follows)],
        },
    }


def make_corpus(seed: int) -> list[dict]:
    """Canonical corpus records: seven evaluation documents and two shot documents."""
    rng = random.Random(seed)
    counts = list(ACTIVITY_COUNTS)
    rng.shuffle(counts)
    ids_counts = list(zip(EVALUATION_IDS, counts)) + list(zip(SHOT_IDS, SHOT_ACTIVITY_COUNTS))
    return [_document(rng, doc_id, n) for doc_id, n in ids_counts]


def _paraphrase(rng: random.Random, surface: str, performer: str) -> str:
    verb, _, rest = surface.partition(" ")
    style = rng.randrange(5)
    if style == 0:
        return f"{performer} {surface}"
    if style == 1:
        return f"{dict(VERBS)[verb]} {rest}"
    if style == 2:
        return surface + rng.choice(QUALIFIERS)
    if style == 3:
        return f"{verb} {rest.replace('the ', rng.choice(('a ', 'each ', 'every ')), 1)}"
    return surface[0].upper() + surface[1:] + " step"


def _closest_activity(phrase: str, surfaces: list[str]) -> int:
    words = set(_WORD.findall(phrase.lower()))
    overlaps = [len(words & set(_WORD.findall(s.lower()))) for s in surfaces]
    return overlaps.index(max(overlaps))


def noisy_answer(info: dict, gold: dict, digest: bytes) -> str:
    """A messy but deterministic answer to one parsed prompt."""
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    surfaces = [a["surface"] for a in gold["activities"]]
    participants = gold["participants"]
    performers = {}
    for p, a in sorted(map(tuple, gold["performs"])):
        performers.setdefault(a, []).append(participants[p])

    if info["question"] == "q1":
        n = len(surfaces)
        dropped = rng.randrange(n)
        kept = rng.choice([a for a in range(n) if a != dropped])
        # Every paraphrase keeps its activity's distinct object, so no two
        # items collide and the parsed list always has n - 1 activities.
        items = [surfaces[a] if a == kept else _paraphrase(rng, surfaces[a], performers[a][0])
                 for a in range(n) if a != dropped]
        layout = rng.randrange(4)
        if layout == 0:
            return "\n".join(f"{rng.choice('-*•')} {item}" for item in items)
        if layout == 1:
            return "\n".join(f"{i}{rng.choice('.)')} {item}" for i, item in enumerate(items, 1))
        if layout == 2:
            return "\n".join(item + rng.choice(("", ".")) for item in items)
        return ", ".join(items[:-1]) + " and " + items[-1]

    if info["question"] == "q2":
        who = performers.get(_closest_activity(info["x"], surfaces), [])
        if not who or rng.random() < 0.15:
            who = [rng.choice(participants)]
        phrase = " and ".join(who)
        form = rng.randrange(4)
        if form == 0:
            return phrase
        if form == 1:
            return rng.choice(Q2_BOILERPLATE).format(x=info["x"], p=phrase)
        if form == 2:
            return f"{phrase[0].upper()}{phrase[1:]}. This is stated in the text."
        return f" {phrase}."

    x = _closest_activity(info["x"], surfaces)
    y = _closest_activity(info["y"], surfaces)
    truth = [y, x] in gold["follows"]
    roll = rng.random()
    if roll < 0.05:
        return rng.choice(NEITHER_FORMS)
    if roll < 0.15:
        truth = not truth
    return rng.choice(YES_FORMS if truth else NO_FORMS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    Path(args.out).write_text(json.dumps(make_corpus(args.seed), indent=1) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
