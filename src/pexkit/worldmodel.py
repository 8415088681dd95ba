"""The extracted intermediate representation (world model).

Holds activities, participants, performs edges and directly-follows edges
with per-element provenance, and serializes to canonical JSON or dot.
"""
from __future__ import annotations

import json
import re

from .errors import ModelError

_WS = re.compile(r"\s+")

# The first item of a provenance value: the question that gave the element,
# or "gold" for an injected gold activity.
_PROVENANCE_KINDS = ("q1", "q2", "q3", "gold")


def normalize_key(surface: str) -> str:
    """Duplicate detection key: case-fold and collapse internal whitespace."""
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
        if not surface or not surface.strip():
            raise ModelError(f"empty {kind} surface")
        key = normalize_key(surface)
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
        self.performs |= index_pairs([(participant, activity)], "performs",
                                     ("participant", len(self.participants)),
                                     ("activity", len(self.activities)))
        self.provenance[f"performs:{participant},{activity}"] = tuple(prov)

    def add_follows(self, src: int, dst: int, prov) -> None:
        self.follows |= follows_pairs([(src, dst)], len(self.activities))
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
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

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
        if not isinstance(surface, str) or not surface.strip():
            raise ModelError(f"{kind} phrase {surface!r} is not a non-empty string")
        key = normalize_key(surface)
        if key in seen:
            raise ModelError(f"duplicate {kind} phrases {seen[key]!r} and {surface!r}")
        seen[key] = surface
    return list(items)


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
    out = set()
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ModelError(f"{kind} entry {pair!r} is not a pair of indices")
        for idx, (name, count) in zip(pair, (first, second)):
            if type(idx) is not int or not 0 <= idx < count:
                raise ModelError(f"{kind} {name} index {idx!r} out of range "
                                 f"(undeclared {name})")
        out.add(tuple(pair))
    return out


def follows_pairs(pairs, n_activities: int) -> set[tuple[int, int]]:
    """Directly-follows edges: ``index_pairs`` between two activities, none
    from an activity to itself."""
    out = index_pairs(pairs, "follows", ("activity", n_activities), ("activity", n_activities))
    for src, dst in out:
        if src == dst:
            raise ModelError(f"follows pair ({src}, {dst}) is reflexive")
    return out


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
