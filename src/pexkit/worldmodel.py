"""The extracted intermediate representation (world model).

Holds activities, participants, performs edges and directly-follows edges
with per-element provenance, and serializes to canonical JSON or dot.
"""
from __future__ import annotations

import json
import re

from .errors import ModelError

_WS = re.compile(r"\s+")


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
        if not 0 <= participant < len(self.participants):
            raise ModelError(f"performs participant index {participant} out of range")
        if not 0 <= activity < len(self.activities):
            raise ModelError(f"performs activity index {activity} out of range")
        self.performs.add((participant, activity))
        self.provenance[f"performs:{participant},{activity}"] = tuple(prov)

    def add_follows(self, src: int, dst: int, prov) -> None:
        if src == dst:
            raise ModelError(f"follows self-loop on activity {src}")
        for idx in (src, dst):
            if not 0 <= idx < len(self.activities):
                raise ModelError(f"follows activity index {idx} out of range")
        self.follows.add((src, dst))
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
            model = cls(data["doc_id"])
            model.activities = _phrases(data["activities"], "activity")
            model.participants = _phrases(data["participants"], "participant")
            n_activities, n_participants = len(model.activities), len(model.participants)
            model.performs = index_pairs(data["performs"], "performs",
                                         ("participant", n_participants),
                                         ("activity", n_activities))
            model.follows = index_pairs(data["follows"], "follows",
                                        ("activity", n_activities),
                                        ("activity", n_activities))
            model.provenance = _provenance(data["provenance"])
        except (KeyError, TypeError) as exc:
            raise ModelError(f"malformed world-model JSON: {exc}") from exc
        for s, d in model.follows:
            if s == d:
                raise ModelError(f"follows self-loop on activity {s}")
        return model

    @classmethod
    def from_json(cls, text: str) -> "WorldModel":
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ModelError(f"world-model file is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

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


def _phrases(items, kind: str) -> list[str]:
    """``kind`` surfaces as loaded: a list of non-empty strings with distinct
    ``normalize_key``s, the rule ``add_activity`` and ``add_participant`` keep."""
    if not isinstance(items, list):
        raise ModelError(f"{kind} phrases must be a list, not {items!r}")
    keys = set()
    for surface in items:
        if not isinstance(surface, str) or not surface.strip():
            raise ModelError(f"{kind} phrase {surface!r} is not a non-empty string")
        key = normalize_key(surface)
        if key in keys:
            raise ModelError(f"duplicate {kind} phrase {surface!r}")
        keys.add(key)
    return list(items)


def _provenance(items) -> dict[str, tuple[str, ...]]:
    """Provenance as loaded: an object whose values are lists of strings."""
    if not isinstance(items, dict):
        raise ModelError(f"provenance must be an object, not {items!r}")
    for key, value in items.items():
        if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
            raise ModelError(f"provenance of {key} must be a list of strings, not {value!r}")
    return {key: tuple(value) for key, value in items.items()}


def index_pairs(pairs, kind: str, first, second) -> set[tuple[int, int]]:
    """``kind`` edges as a set of pairs of in-range ``int`` indices, the rule
    for world models and gold standards alike; ``first`` and ``second`` give
    each position's element name and element count, which bounds its index."""
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


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
