"""Prompt rendering for the three extraction questions and four settings.

Layout contract (frozen by the golden-file tests): lines are joined with a
single newline, blocks with one blank line, and every prompt ends with the
bare answer cue ``"A: "``. Setting order is definitions block (if any),
then the two shot blocks (if any), then the target block.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from . import corpus
from .errors import PromptError

Q1 = "q1"
Q2 = "q2"
Q3 = "q3"
QUESTION_KINDS = (Q1, Q2, Q3)

RAW = "raw"
DEFS = "defs"
SHOTS2 = "2shots"
DEFS_SHOTS2 = "defs+2shots"
SETTINGS = (RAW, DEFS, SHOTS2, DEFS_SHOTS2)

QUESTION_TEMPLATES = {
    Q1: "Lists the activities of the process",
    Q2: "Who is the participant performing activity X in the process model?",
    Q3: ("Considering the list of process activity described in the text, "
         "does activity X immediately follow activity Y in the process model?"),
}

PREAMBLE = ("Considering the context of Business Process Management and "
            "process modelling and the following definitions:")

PROCESS_CUE = "Consider the following process:"


@dataclass(frozen=True)
class Definition:
    name: str
    text: str
    applies_to: frozenset


DEFINITIONS = (
    Definition(
        "Activity",
        "An activity is a unit of work that can be performed by an individual "
        "or a group. It is a specific step in the process.",
        frozenset({Q1, Q2, Q3})),
    Definition(
        "Participant",
        "A participant is any individual or entity that participates in a "
        "business process. This could include individuals who initiate the "
        "process, those who respond to it, or those who are affected by it.",
        frozenset({Q2})),
    Definition(
        "Process Model",
        "A process model is a model of a process in terms of process "
        "activities and their sequence flow relations.",
        frozenset({Q3})),
    Definition(
        "Flow",
        "A flow object captures the execution flow among the process "
        "activities. It is a directional connector between activities in a "
        "Process. It defines the activities’ execution order.",
        frozenset({Q3})),
    Definition(
        "Sequence Flow",
        "A Sequence Flow object defines a fixed sequential relation between "
        "two activities. Each Flow has only one source and only one target. "
        "The direction of the flow (from source to target) determines the "
        "execution order between two Activities. A sequence relation is an "
        "ordered temporal relation between a source activity and the activity "
        "that immediately follow it in the process model.",
        frozenset({Q3})),
)


def setting_has_defs(setting: str) -> bool:
    return setting in (DEFS, DEFS_SHOTS2)


def setting_has_shots(setting: str) -> bool:
    return setting in (SHOTS2, DEFS_SHOTS2)


def instantiate(question: str, x: str | None = None, y: str | None = None) -> str:
    """Replace the X / Y placeholders of a question template, verbatim."""
    if question not in QUESTION_TEMPLATES:
        raise PromptError(f"unknown question kind: {question}")
    text = QUESTION_TEMPLATES[question]
    if question == Q1:
        return text
    if x is None:
        raise PromptError(f"question {question} requires binding X")
    text = re.sub(r"\bX\b", lambda _: x, text)
    if question == Q3:
        if y is None:
            raise PromptError("question q3 requires binding Y")
        text = re.sub(r"\bY\b", lambda _: y, text)
    return text


@dataclass(frozen=True)
class ShotExample:
    """A sample document with worked question/answer pairs per question kind."""

    doc_id: str
    body: str
    qa: dict  # question kind -> list of (question text, answer text)


def build_shot(doc: corpus.Document, gold: corpus.GoldStandard) -> ShotExample:
    """Derive the per-question worked answers of a shot document from gold.

    Q1 shows the activity list; Q2 shows one answer per performed activity;
    Q3 shows a Yes per gold directly-follows pair ("does X follow Y" reads
    X-after-Y, so X is the pair's target and Y its source).
    """
    surfaces = gold.activity_surfaces
    qa = {Q1: [(instantiate(Q1), ", ".join(surfaces))]}
    q2 = []
    for a, surface in enumerate(surfaces):
        performers = [gold.participants[p] for p, act in sorted(gold.performs)
                      if act == a]
        if performers:
            q2.append((instantiate(Q2, x=surface), " and ".join(performers)))
    qa[Q2] = q2
    qa[Q3] = [(instantiate(Q3, x=surfaces[dst], y=surfaces[src]), "Yes")
              for src, dst in sorted(gold.follows)]
    return ShotExample(doc.id, doc.body, qa)


def build_shots(entries) -> list[ShotExample]:
    """The worked examples of a corpus's two shot documents, in prompt order."""
    return [build_shot(doc, gold) for doc, gold in corpus.shot_documents(entries)]


@dataclass(frozen=True)
class Prompt:
    text: str
    question: str
    setting: str
    doc_id: str
    x: str | None
    y: str | None


def render(question: str, setting: str, doc: corpus.Document,
           x: str | None = None, y: str | None = None,
           shots: list[ShotExample] | None = None) -> Prompt:
    """Render the full completion-model input for one question on one document."""
    if question not in QUESTION_KINDS:
        raise PromptError(f"unknown question kind: {question}")
    if setting not in SETTINGS:
        raise PromptError(f"unknown setting: {setting}")
    question_text = instantiate(question, x=x, y=y)

    blocks = []
    if setting_has_defs(setting):
        lines = [PREAMBLE]
        for definition in DEFINITIONS:
            if question in definition.applies_to:
                lines.append(f"{definition.name}:")
                lines.append(definition.text)
        blocks.append(lines)
    if setting_has_shots(setting):
        if not shots:
            raise PromptError(f"setting {setting} requires shot examples")
        for shot in shots:
            lines = [PROCESS_CUE, shot.body]
            for q, a in shot.qa[question]:
                lines.append(f"Q: {q}")
                lines.append(f"A: {a}")
            blocks.append(lines)
    blocks.append([PROCESS_CUE, doc.body, f"Q: {question_text}", "A: "])

    text = "\n\n".join("\n".join(lines) for lines in blocks)
    return Prompt(text, question, setting, doc.id, x, y)
