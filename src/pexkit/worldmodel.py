"""The extracted intermediate representation (world model).

Holds activities, participants, performs edges and directly-follows edges
with per-element provenance, and serializes to canonical JSON or dot.
"""
from __future__ import annotations

import functools
import re
from json.encoder import encode_basestring_ascii as _json_string

from .errors import ModelError

_WS = re.compile(r"\s+")

# The first item of a provenance value: the question that gave the element,
# or "gold" for an injected gold activity.
_PROVENANCE_KINDS = ("q1", "q2", "q3", "gold")


@functools.lru_cache(maxsize=4096)
def normalize_key(surface: str) -> str:
    """Duplicate detection key: case-fold and collapse internal whitespace.

    Memoized, bounded: a run keys the same few phrases again and again, as
    the oracle looks each binding up and ``add_*`` compares each new phrase
    with those held. ``surface`` must be hashable; ``__wrapped__`` is the
    function unmemoized."""
    return _WS.sub(" ", surface.strip()).casefold()


class WorldModel:
    def __init__(self, doc_id: str):
        self.doc_id = doc_id
        self.activities: list[str] = []
        self.participants: list[str] = []
        self.performs: set[tuple[int, int]] = set()
        self.follows: set[tuple[int, int]] = set()
        # element key -> (question id, transcript digest of the prompt)
        self.provenance: dict[str, tuple[str, str]] = {}

    def _add_phrase(self, kind: str, items: list[str], surface: str, prov) -> int:
        key = normalize_key(_phrase(surface, kind))
        for i, existing in enumerate(items):
            if normalize_key(existing) == key:
                return i
        items.append(surface.strip())
        idx = len(items) - 1
        self.provenance[f"{kind}:{idx}"] = tuple(prov)
        return idx

    def add_activity(self, surface: str, prov) -> int:
        return self._add_phrase("activity", self.activities, surface, prov)

    def add_participant(self, surface: str, prov) -> int:
        return self._add_phrase("participant", self.participants, surface, prov)

    def add_performs(self, participant: int, activity: int, prov) -> None:
        self.performs.add(_index_pair((participant, activity), "performs",
                                      "participant", len(self.participants),
                                      "activity", len(self.activities)))
        self.provenance[f"performs:{participant},{activity}"] = tuple(prov)

    def add_follows(self, src: int, dst: int, prov) -> None:
        n = len(self.activities)
        self.follows.add(_irreflexive(_index_pair((src, dst), "follows",
                                                  "activity", n, "activity", n)))
        self.provenance[f"follows:{src},{dst}"] = tuple(prov)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "activities": list(self.activities),
            "participants": list(self.participants),
            "performs": [list(p) for p in sorted(self.performs)],
            "follows": [list(p) for p in sorted(self.follows)],
            "provenance": {k: list(v) for k, v in sorted(self.provenance.items())},
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\\n"``,
        byte for byte, written for the model's fixed shape: with ``indent``,
        ``json.dumps`` takes CPython's pure-Python encoder, so this writes
        the layout itself and escapes each string with the C function that
        ``json.dumps`` uses for strings. It holds for the shape ``add_*``
        and ``from_dict`` keep: string phrases, doc id and provenance, and
        ``int`` index pairs."""
        pairs = "[\n      {},\n      {}\n    ]".format
        provenance = [f"{_json_string(key)}: " + _json_block(
                          "[]", [_json_string(item) for item in value], "    ")
                      for key, value in sorted(self.provenance.items())]
        return (f'{{\n  "activities": '
                f'{_json_block("[]", [_json_string(a) for a in self.activities], "  ")},\n'
                f'  "doc_id": {_json_string(self.doc_id)},\n'
                f'  "follows": '
                f'{_json_block("[]", [pairs(s, d) for s, d in sorted(self.follows)], "  ")},\n'
                f'  "participants": '
                f'{_json_block("[]", [_json_string(p) for p in self.participants], "  ")},\n'
                f'  "performs": '
                f'{_json_block("[]", [pairs(p, a) for p, a in sorted(self.performs)], "  ")},\n'
                f'  "provenance": {_json_block("{}", provenance, "  ")}\n}}\n')

    @classmethod
    def from_dict(cls, data: dict) -> "WorldModel":
        try:
            doc_id = data["doc_id"]
            if not isinstance(doc_id, str) or not doc_id.strip():
                raise ModelError(f"world-model doc_id {doc_id!r} is not a non-blank string")
            model = cls(doc_id)
            model.activities = phrases(data["activities"], "activity")
            model.participants = phrases(data["participants"], "participant")
            model.performs = index_pairs(data["performs"], "performs",
                                         ("participant", len(model.participants)),
                                         ("activity", len(model.activities)))
            model.follows = follows_pairs(data["follows"], len(model.activities))
            model.provenance = _provenance(data["provenance"], model)
        except (KeyError, TypeError) as exc:
            raise ModelError(f"malformed world-model JSON: {exc}") from exc
        return model

    def to_dot(self) -> str:
        """Digraph with activities as nodes, follows as edges, performs labeled."""
        lines = [f'digraph "{self.doc_id}" {{']
        for i, act in enumerate(self.activities):
            lines.append(f'  a{i} [label="{_dot_escape(act)}"];')
        for i, part in enumerate(self.participants):
            lines.append(f'  p{i} [label="{_dot_escape(part)}" shape=box];')
        for s, d in sorted(self.follows):
            lines.append(f"  a{s} -> a{d};")
        for p, a in sorted(self.performs):
            lines.append(f'  p{p} -> a{a} [label="performs"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other) -> bool:
        if not isinstance(other, WorldModel):
            return NotImplemented
        return self.to_dict() == other.to_dict()


def phrases(items, kind: str) -> list[str]:
    """``kind`` phrases ("activity" or "participant") of a world model or a
    gold standard: a list of non-blank strings, no two with one
    ``normalize_key``, the key on which ``add_activity`` and
    ``add_participant`` take two phrases for one."""
    if not isinstance(items, list):
        raise ModelError(f"{kind} phrases must be a list, not {items!r}")
    seen = {}
    for surface in items:
        key = normalize_key(_phrase(surface, kind))
        if key in seen:
            raise ModelError(f"duplicate {kind} phrases {seen[key]!r} and {surface!r}")
        seen[key] = surface
    return list(items)


def _phrase(surface, kind: str) -> str:
    """``surface``, when it is a ``kind`` phrase: a non-blank string."""
    if not isinstance(surface, str) or not surface.strip():
        raise ModelError(f"{kind} phrase {surface!r} is not a non-empty string")
    return surface


def _provenance(items, model: WorldModel) -> dict[str, tuple[str, ...]]:
    """Provenance as loaded: an object whose keys are the keys ``add_*``
    gives the elements ``model`` holds, and whose values are what ``add_*``
    writes: a list of a kind in ``_PROVENANCE_KINDS`` and a non-blank digest."""
    if not isinstance(items, dict):
        raise ModelError(f"provenance must be an object, not {items!r}")
    elements = {*(f"activity:{i}" for i in range(len(model.activities))),
                *(f"participant:{i}" for i in range(len(model.participants))),
                *(f"performs:{p},{a}" for p, a in model.performs),
                *(f"follows:{s},{d}" for s, d in model.follows)}
    for key, value in items.items():
        if key not in elements:
            raise ModelError(f"provenance key {key!r} names no element of the model")
        if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
            raise ModelError(f"provenance of {key} must be a list of strings, not {value!r}")
        if len(value) != 2 or value[0] not in _PROVENANCE_KINDS or not value[1].strip():
            raise ModelError(f"provenance of {key} must be [kind, digest], a kind of "
                             f"{', '.join(_PROVENANCE_KINDS)} and a non-blank digest, "
                             f"not {value!r}")
    return {key: tuple(value) for key, value in items.items()}


def index_pairs(pairs, kind: str, first, second) -> set[tuple[int, int]]:
    """``kind`` edges of a world model or a gold standard: a list of pairs
    of in-range ``int`` indices, returned as a set; ``first`` and ``second``
    give each position's element name and count, which bounds its index."""
    if not isinstance(pairs, list):
        raise ModelError(f"{kind} is a {type(pairs).__name__}, not a list")
    return {_index_pair(pair, kind, *first, *second) for pair in pairs}


def _index_pair(pair, kind: str, first: str, n_first: int, second: str,
                n_second: int) -> tuple[int, int]:
    """One ``index_pairs`` entry, checked, as a tuple."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ModelError(f"{kind} entry {pair!r} is not a pair of indices")
    a, b = pair
    for idx, name, count in ((a, first, n_first), (b, second, n_second)):
        if type(idx) is not int or not 0 <= idx < count:
            raise ModelError(f"{kind} {name} index {idx!r} out of range "
                             f"(undeclared {name})")
    return a, b


def follows_pairs(pairs, n_activities: int) -> set[tuple[int, int]]:
    """Directly-follows edges: ``index_pairs`` between two activities, none
    from an activity to itself."""
    out = index_pairs(pairs, "follows", ("activity", n_activities), ("activity", n_activities))
    for pair in out:
        _irreflexive(pair)
    return out


def _irreflexive(pair: tuple[int, int]) -> tuple[int, int]:
    """``pair``, when it is a directly-follows edge: not a self-loop."""
    if pair[0] == pair[1]:
        raise ModelError(f"follows pair ({pair[0]}, {pair[1]}) is reflexive")
    return pair


def _json_block(brackets: str, items: list[str], indent: str) -> str:
    """A JSON list or object, ``brackets`` ``"[]"`` or ``"{}"``, of items
    already written, laid out as ``json.dumps`` does at ``indent=2`` at a
    depth whose indent is ``indent``."""
    if not items:
        return brackets
    inner = indent + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
