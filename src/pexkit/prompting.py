"""Prompt rendering for the three extraction questions and four settings,
and the key format of a rendered prompt: its completion params and its
transcript digest, the cache key. A prompt's head, its text up to its last
``HEAD_END``, is hashed once (``head_state``), by ``renderer`` for a batch
and by a transcript cache's load for its stored prompts, and each digest
hashes only the rest of its prompt on a copy of that state.

Layout contract (frozen by the golden-file tests): lines are joined with a
single newline, blocks with one blank line, and every prompt ends with the
bare answer cue ``"A: "``. Setting order is definitions block (if any),
then the two shot blocks (if any), then the target block.
"""
from __future__ import annotations

import functools
import hashlib
import json
import re
from typing import NamedTuple

from . import corpus
from .errors import BackendError, PromptError

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


class Definition(NamedTuple):
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


def _compile_template(template: str) -> tuple[str, frozenset]:
    """A question template as a ``str.format`` string whose fields ``{0}``
    and ``{1}`` stand for X and Y, with the placeholders it takes."""
    parts = re.split(r"\b([XY])\b", template.replace("{", "{{").replace("}", "}}"))
    return ("".join("{%d}" % "XY".index(part) if k % 2 else part
                    for k, part in enumerate(parts)),
            frozenset(parts[1::2]))


_TEMPLATES = {q: _compile_template(t) for q, t in QUESTION_TEMPLATES.items()}
_SURROGATE = re.compile("[\ud800-\udfff]")


def instantiate(question: str, x: str | None = None, y: str | None = None) -> str:
    """Fill the X / Y placeholders of a question template verbatim, with
    the template's text and placeholders split out once at import. A
    binding the question takes must be given, not be blank and encode as
    UTF-8; a binding it does not take must be ``None``."""
    template = _TEMPLATES.get(question)
    if template is None:
        raise PromptError(f"unknown question kind: {question}")
    text, takes = template
    _check_binding(question, takes, "X", x)
    _check_binding(question, takes, "Y", y)
    return text.format(x, y)


def _check_binding(question: str, takes: frozenset, name: str, value) -> None:
    if name not in takes:
        if value is not None:
            raise PromptError(f"question {question} takes no binding {name}")
    elif value is None or not value.strip():
        raise PromptError(f"question {question} requires a non-blank binding {name}")
    elif not value.isascii() and _SURROGATE.search(value):  # a lone surrogate
        raise PromptError(f"question {question} binding {name} {value!r} is not UTF-8 text")


class ShotExample(NamedTuple):
    """A sample document with worked question/answer pairs per question kind."""

    body: str
    qa: dict  # question kind -> list of (question text, answer text)


def build_shot(doc: corpus.Document, gold: corpus.GoldStandard) -> ShotExample:
    """Derive the per-question worked answers of a shot document from gold.

    Q1 shows the activity list; Q2 shows one answer per performed activity;
    Q3 shows a Yes per gold directly-follows pair ("does X follow Y" reads
    X-after-Y, so X is the pair's target and Y its source).
    """
    surfaces = gold.activities
    qa = {Q1: [(instantiate(Q1), ", ".join(surfaces))]}
    q2 = []
    for a, surface in enumerate(surfaces):
        performers = gold.performers(a)
        if performers:
            q2.append((instantiate(Q2, x=surface), " and ".join(performers)))
    qa[Q2] = q2
    qa[Q3] = [(instantiate(Q3, x=surfaces[dst], y=surfaces[src]), "Yes")
              for src, dst in sorted(gold.follows)]
    return ShotExample(doc.body, qa)


def build_shots(entries) -> list[ShotExample]:
    """The worked examples of a corpus's two shot documents, in prompt order."""
    return [build_shot(doc, gold) for doc, gold in corpus.shot_documents(entries)]


DEFAULT_STOP = ("\n\n", "Q:")

# Reproducible-run defaults: greedy sampling, answer-shaped token budgets.
DEFAULT_MAX_TOKENS = {Q1: 256, Q2: 64, Q3: 8}


class _ParamFields(NamedTuple):
    temperature: float
    nucleus: float
    max_tokens: int
    stop: tuple[str, ...]


class CompletionParams(_ParamFields):
    """A completion's sampling params, range-checked when built. A subclass
    of a named tuple, as a ``NamedTuple`` body may not define ``__new__``;
    without ``__slots__`` it keeps an instance ``__dict__`` for
    ``sorted_json``."""

    def __new__(cls, temperature: float = 0.0, nucleus: float = 1.0,
                max_tokens: int = 256, stop: tuple[str, ...] = DEFAULT_STOP):
        if temperature < 0:
            raise BackendError("temperature must be >= 0")
        if not 0 <= nucleus <= 1:
            raise BackendError("nucleus must be in [0, 1]")
        if max_tokens <= 0:
            raise BackendError("max_tokens must be positive")
        return super().__new__(cls, temperature, nucleus, max_tokens, stop)

    def to_dict(self) -> dict:
        return {
            "temperature": self.temperature,
            "nucleus": self.nucleus,
            "max_tokens": self.max_tokens,
            "stop": list(self.stop),
        }

    @functools.cached_property
    def sorted_json(self) -> str:
        """The params' sorted JSON, as their digest hashes it, made once per
        instance: equal params, such as ``temperature`` 0 and 0.0, can dump
        apart, so no other instance's JSON may stand in for it."""
        return json.dumps(self.to_dict(), sort_keys=True)


# One shared instance per question, so that its JSON is made once.
@functools.cache
def default_params(question: str) -> CompletionParams:
    return CompletionParams(max_tokens=DEFAULT_MAX_TOKENS.get(question, 256))


def transcript_digest(prompt_text: str, params: CompletionParams,
                      head_state=None) -> str:
    """Cache key of a prompt text and its params; also what provenance records.

    ``head_state``, when given, is the sha256 state of the UTF-8 bytes of the
    prompt's head, the text before ``prompt_text``. It is copied, never
    updated, so only ``prompt_text`` is hashed here, and the digest is that of
    the head and ``prompt_text`` joined.
    """
    state = head_state.copy() if head_state is not None else hashlib.sha256()
    state.update((prompt_text + "\x00" + params.sorted_json).encode("utf-8"))
    return state.hexdigest()


# Where ``renderer`` splits a prompt: its head ends with the target block's
# question cue, and only the question line and the answer cue follow.
HEAD_END = "\nQ: "


def head_state(head: str):
    """The sha256 state of ``head``'s UTF-8 bytes, which ``transcript_digest``
    takes as ``head_state``; a lone surrogate raises ``UnicodeEncodeError``."""
    return hashlib.sha256(head.encode("utf-8"))


class Prompt(NamedTuple):
    """One rendered prompt, immutable. A named tuple, since ``renderer``
    builds one per question and a frozen dataclass costs several times as
    much to build; it is built positionally or by name, and, being a tuple,
    also unpacks and equals a tuple of its fields.

    Its text is ``head`` and ``tail`` joined, held apart: every prompt of a
    batch holds its batch's one ``head`` string by reference, and ``text``
    joins a new string on each read, so only what sends or writes a whole
    prompt reads it."""

    head: str  # the batch's blocks, up to the target block's "Q: "
    tail: str  # the question line and the answer cue
    question: str
    setting: str
    doc_id: str
    x: str | None
    y: str | None
    params: CompletionParams  # ``default_params(question)`` when rendered
    digest: str  # ``transcript_digest(text, params)``: the cache key

    @property
    def text(self) -> str:
        return self.head + self.tail


def renderer(question: str, setting: str, doc: corpus.Document,
             shots: list[ShotExample] | None = None):
    """The renderer of one question batch on one document: it joins the
    prompts' shared head, up to the target block's ``"Q: "``, and hashes it
    once, and returns the function of ``(x, y)`` that renders each prompt of
    the batch on that head, with the question's params and its digest, which
    hashes only the prompt's own question line. A prompt then costs
    ``instantiate``'s check and format, that hash and a ``Prompt`` tuple."""
    if question not in QUESTION_KINDS:
        raise PromptError(f"unknown question kind: {question}")
    if setting not in SETTINGS:
        raise PromptError(f"unknown setting: {setting}")

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
    blocks.append([PROCESS_CUE, doc.body, "Q: "])
    head = "\n\n".join("\n".join(lines) for lines in blocks)
    hashed = head_state(head)
    params = default_params(question)

    def fill(x: str | None, y: str | None) -> Prompt:
        tail = instantiate(question, x, y) + "\nA: "
        return Prompt(head, tail, question, setting, doc.id, x, y, params,
                      transcript_digest(tail, params, hashed))
    return fill


def render(question: str, setting: str, doc: corpus.Document,
           x: str | None = None, y: str | None = None,
           shots: list[ShotExample] | None = None) -> Prompt:
    """Render the full completion-model input for one question on one document."""
    return renderer(question, setting, doc, shots)(x, y)
