"""Observation processing: entity anchors, episodic nodes, semantic consolidation.

Records arrive with pre-extracted descriptions, conclusions, and perceptual
vectors (face/voice); the engine never runs perception models itself. Entity
mentions inside text are written as ``@hint`` tokens and must resolve to a
percept in the same record or to an anchor that already exists.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .core import RowBlock, _is_finite_number, _is_int, cosine
from .errors import (
    DanglingMention,
    DimensionMismatch,
    DuplicateObservation,
    MalformedRecord,
)

_MENTION_RE = re.compile(r"@([\w-]+)")

OUTCOMES = ("success", "failure")
PERCEPT_KINDS = ("face", "voice")
# What a percept vector may hold: json gives ints and floats; a bool, a
# string or a nested value is refused.
_NUMBER_TYPES = frozenset((int, float))


@dataclass(slots=True)
class Description:
    text: str
    attrs: dict = field(default_factory=dict)
    outcome: str = "success"


@dataclass(slots=True)
class Conclusion:
    type: str
    text: str


@dataclass(slots=True)
class Percept:
    kind: str
    vector: np.ndarray
    hint: str


@dataclass(slots=True)
class ObservationRecord:
    id: int
    video: str
    t: float
    descriptions: list = field(default_factory=list)
    conclusions: list = field(default_factory=list)
    percepts: list = field(default_factory=list)


@dataclass(slots=True)
class EntityAnchor:
    """A recurring person; each centroid is the running mean of the
    percepts of its kind assigned to it, held as a view of the anchor's row
    in the store's ``CentroidRows``."""

    id: int
    label: str
    centroid_face: np.ndarray | None = None
    centroid_voice: np.ndarray | None = None
    face_count: int = 0
    voice_count: int = 0

    @property
    def count(self) -> int:
        """The percepts assigned to the anchor, of both kinds."""
        return self.face_count + self.voice_count


@dataclass(slots=True)
class EpisodicNode:
    """One described event. A store holds each distinct ``d``, ``action``, ``video``
    and ``anchors`` once (``MemoryStore.text_entry``, ``MemoryStore.intern``), and
    ``outcome`` as its ``OUTCOMES`` constant; ``attrs`` is the node's own dict."""

    id: int
    t: float
    d: str
    v_e: np.ndarray = None
    video: str = ""
    anchors: frozenset = frozenset()
    action: str | None = None
    outcome: str = "success"
    attrs: dict = field(default_factory=dict)


@dataclass(slots=True)
class SemanticNode:
    id: int
    type: str
    attrs: str = ""
    v_s: np.ndarray = None
    anchors: frozenset = frozenset()
    weight: int = 1


@dataclass(slots=True)
class ObservationMeta:
    video: str
    episodes: list


def parse_mentions(text: str) -> list[str]:
    return _MENTION_RE.findall(text)


# -- record parsing ---------------------------------------------------------


def _has_non_finite(value) -> bool:
    """Whether a float json cannot write (NaN, +-Infinity) lies anywhere in
    ``value``, through nested dicts, lists and tuples (each visited once,
    so an API value that contains itself ends the walk)."""
    stack, seen = [value], set()
    while stack:
        value = stack.pop()
        if isinstance(value, float):
            if not math.isfinite(value):
                return True
        elif isinstance(value, (dict, list, tuple)) and id(value) not in seen:
            seen.add(id(value))
            stack.extend(value.values() if isinstance(value, dict) else value)
    return False


def _list_field(obj: dict, key: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise MalformedRecord(f"record {key} must be a list, got {value!r}")
    return value


def record_from_dict(obj: dict) -> ObservationRecord:
    """Build a record from one decoded JSONL object, validating shape."""
    try:
        rec_id = obj["id"]
        video = obj["video"]
        t = obj["t"]
    except (KeyError, TypeError) as exc:
        raise MalformedRecord(f"record missing required field: {exc}") from None
    if not _is_int(rec_id):
        raise MalformedRecord(f"record id must be an integer, got {rec_id!r}")
    if not isinstance(video, str) or not video:
        raise MalformedRecord(f"record video must be a nonempty string, got {video!r}")
    if not _is_finite_number(t):
        raise MalformedRecord(f"record t must be a finite number, got {t!r}")

    descriptions = []
    for d in _list_field(obj, "descriptions"):
        if isinstance(d, str):
            descriptions.append(Description(d))
        elif isinstance(d, dict) and isinstance(d.get("text"), str):
            outcome = d.get("outcome", "success")
            if outcome not in OUTCOMES:
                raise MalformedRecord(f"bad outcome {outcome!r}")
            attrs = d.get("attrs", {})
            if not isinstance(attrs, dict):
                raise MalformedRecord("description attrs must be an object")
            descriptions.append(Description(d["text"], dict(attrs), outcome))
        else:
            raise MalformedRecord(f"bad description entry: {d!r}")

    conclusions = []
    for c in _list_field(obj, "conclusions"):
        if isinstance(c, dict) and isinstance(c.get("type"), str) and isinstance(c.get("text"), str):
            conclusions.append(Conclusion(c["type"], c["text"]))
        elif isinstance(c, (list, tuple)) and len(c) == 2 and all(isinstance(x, str) for x in c):
            conclusions.append(Conclusion(c[0], c[1]))
        else:
            raise MalformedRecord(f"bad conclusion entry: {c!r}")

    percepts = []
    for p in _list_field(obj, "percepts"):
        if not isinstance(p, dict):
            raise MalformedRecord(f"bad percept entry: {p!r}")
        kind = p.get("kind")
        hint = p.get("hint")
        vec = p.get("vector")
        if kind not in PERCEPT_KINDS:
            raise MalformedRecord(f"percept kind must be face|voice, got {kind!r}")
        if not isinstance(hint, str) or not hint:
            raise MalformedRecord("percept hint must be a nonempty string")
        if not isinstance(vec, list) or not _NUMBER_TYPES.issuperset(map(type, vec)):
            raise MalformedRecord("percept vector must be a list of numbers")
        try:
            arr = np.asarray(vec, dtype=np.float64)
        except OverflowError:
            raise MalformedRecord(f"percept vector for {hint!r} overflows a float") from None
        percepts.append(Percept(kind, arr, hint))

    return ObservationRecord(rec_id, video, float(t), descriptions, conclusions, percepts)


def read_observation_lines(lines) -> list[ObservationRecord]:
    """Parse JSONL observations. First line must be the {"version": 1} header."""
    records = []
    saw_header = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(f"line {lineno}: bad JSON: {exc}") from None
        if not saw_header:
            if not (isinstance(obj, dict) and obj.get("version") == 1 and len(obj) == 1):
                raise MalformedRecord('line 1: expected version header {"version": 1}')
            saw_header = True
            continue
        records.append(record_from_dict(obj))
    if not saw_header:
        raise MalformedRecord("missing observation version header")
    return records


def read_observations(path: str) -> list[ObservationRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return read_observation_lines(fh)
        except UnicodeDecodeError as exc:
            raise MalformedRecord(f"{path} is not UTF-8: {exc}") from None


# -- operations --------------------------------------------------------------


class CentroidRows:
    """The store's anchor centroids: one ``RowBlock`` per percept kind, its
    rows in anchor id order, so that ``np.argmax`` over a scan gives ties to
    the lowest id. ``anchor.centroid_<kind>`` is a view of its row.

    ``size`` is the size of ``store.anchors`` the rows hold; when the dict
    has another size, anchors came in other than through ``resolve_anchor``
    (a caller inserted some), and ``resolve_anchor`` builds the rows again.
    """

    def __init__(self, anchors: dict, dim: int):
        self.blocks = {kind: RowBlock(dim) for kind in PERCEPT_KINDS}
        self.size = 0
        for anchor_id in sorted(anchors):
            self.add(anchors[anchor_id])

    def add(self, anchor: EntityAnchor) -> None:
        """Copy the anchor's centroids into new rows and point it at them."""
        for kind, block in self.blocks.items():
            slot = f"centroid_{kind}"
            centroid = getattr(anchor, slot)
            if centroid is not None:
                setattr(anchor, slot, block.append(anchor.id, centroid))
        self.size += 1


def resolve_anchor(store, percept: Percept) -> int:
    """Assign a percept to the closest same-kind anchor, or create one.

    The winning anchor's centroid becomes the running mean of its assigned
    vectors, written into its row. A new anchor is seeded whenever the best
    similarity falls below tau_anchor (or no same-kind centroid exists).
    """
    if percept.vector.shape != (store.config.dim,):
        raise DimensionMismatch(
            f"percept vector has shape {percept.vector.shape}, store dim is {store.config.dim}"
        )
    rows = store.centroid_rows
    if rows is None or rows.size != len(store.anchors):  # the first percept, or see CentroidRows
        rows = store.centroid_rows = CentroidRows(store.anchors, store.config.dim)
    block = rows.blocks[percept.kind]
    count = f"{percept.kind}_count"
    if block.ids:
        sims = cosine(percept.vector, block)
        best = int(np.argmax(sims))
        if sims[best] >= store.config.tau_anchor:
            anchor = store.anchors[block.ids[best]]
            k = getattr(anchor, count)
            centroid = block.rows[best]
            centroid *= k
            centroid += percept.vector
            centroid /= k + 1
            block.renorm(best)
            setattr(anchor, count, k + 1)
            return anchor.id

    anchor_id = store.next_anchor_id
    store.next_anchor_id += 1
    anchor = EntityAnchor(anchor_id, percept.hint,
                          **{f"centroid_{percept.kind}": percept.vector, count: 1})
    rows.add(anchor)
    store.anchors[anchor_id] = anchor
    return anchor_id


def consolidate_semantic(store, ctype: str, text: str, anchors: frozenset) -> list:
    """Reinforce, weaken, or insert one abstracted-knowledge item.

    Candidates are the semantic nodes whose anchor set covers the new
    item's anchors. The most similar candidate above tau_pos is reinforced
    (weight+1, no insert); otherwise the least similar candidate below
    tau_neg is weakened (weight-1, pruned at <= 0) before the new node is
    inserted. Ties break toward the lowest node id.
    """
    v = store.embed(text)
    events = []
    ids = [i for i in sorted(store.semantic) if anchors <= store.semantic[i].anchors]
    if ids:
        sims = cosine(v, [store.semantic[i].v_s for i in ids])
        best_id = ids[int(np.argmax(sims))]
        if sims.max() > store.config.tau_pos:
            store.semantic[best_id].weight += 1
            events.append(("reinforced", best_id))
            return events
        worst_id = ids[int(np.argmin(sims))]
        if sims.min() < store.config.tau_neg:
            node = store.semantic[worst_id]
            node.weight -= 1
            events.append(("weakened", worst_id))
            if node.weight <= 0:
                del store.semantic[worst_id]
                events.append(("pruned", worst_id))

    node_id = store.next_node_id
    store.next_node_id += 1
    node = SemanticNode(node_id, ctype, text, v, store.intern(frozenset(anchors)), weight=1)
    store.semantic[node_id] = node
    events.append(("created", node_id))
    return events


def ingest_observation(store, rec: ObservationRecord):
    """Algorithm phase 1 for one record: anchors, episodic nodes, semantics.

    Atomic: all validation happens before the first mutation, so a raised
    error leaves the store untouched. Returns (new episodic ids, semantic
    event log).
    """
    if not _is_int(rec.id):
        raise MalformedRecord(f"record id must be an integer, got {rec.id!r}")
    if not _is_finite_number(rec.t):
        raise MalformedRecord(f"record t must be a finite number, got {rec.t!r}")
    if not isinstance(rec.video, str) or not rec.video:
        raise MalformedRecord(f"record video must be a nonempty string, got {rec.video!r}")
    if rec.id in store.observations:
        raise DuplicateObservation(f"observation {rec.id} already ingested")
    last_t = store.video_clock.get(rec.video)
    if last_t is not None and rec.t < last_t:
        raise MalformedRecord(
            f"timestamp {rec.t} for {rec.video!r} precedes previous {last_t}"
        )
    for desc in rec.descriptions:
        if desc.outcome not in OUTCOMES:
            raise MalformedRecord(f"bad outcome {desc.outcome!r}")
        if _has_non_finite(desc.attrs):
            raise MalformedRecord(f"attrs of {desc.text!r} hold a non-finite number")
    for p in rec.percepts:
        if p.vector.shape != (store.config.dim,):
            raise DimensionMismatch(
                f"percept vector has shape {p.vector.shape}, store dim is {store.config.dim}"
            )
        if not np.isfinite(p.vector).all():
            raise MalformedRecord(f"percept vector for {p.hint!r} has a non-finite value")

    # Each text's mentions, parsed once; a mention that no percept of the record
    # hints at names an existing anchor, which the percepts' new anchors cannot
    # change: their labels are the hints, and their ids are above it.
    percept_hints = {p.hint for p in rec.percepts}
    mentions = [parse_mentions(d.text) for d in rec.descriptions]
    concluded = [parse_mentions(c.text) for c in rec.conclusions]
    anchor_of: dict[str, int] = {}
    for mention in chain.from_iterable(mentions + concluded):
        if mention not in percept_hints and mention not in anchor_of:
            anchor_id = anchor_of[mention] = store.anchor_by_label(mention)
            if anchor_id is None:
                raise DanglingMention(f"@{mention} has no percept hint and no existing anchor")

    # Validation done; mutations start here.
    for p in rec.percepts:
        anchor_id = resolve_anchor(store, p)
        anchor_of.setdefault(p.hint, anchor_id)

    def anchors(found: list) -> frozenset:
        return store.intern(frozenset(map(anchor_of.__getitem__, found)))

    video = store.intern(rec.video)
    episodic_ids = []
    for desc, found in zip(rec.descriptions, mentions):
        node_id = store.next_node_id
        store.next_node_id += 1
        d, v_e, action = store.text_entry(desc.text)
        store.episodic[node_id] = EpisodicNode(
            id=node_id,
            t=rec.t,
            d=d,
            v_e=v_e,
            video=video,
            anchors=anchors(found),
            action=action,
            outcome=OUTCOMES[OUTCOMES.index(desc.outcome)],
            attrs=store.own_attrs(desc.attrs),
        )
        episodic_ids.append(node_id)

    events = []
    for concl, found in zip(rec.conclusions, concluded):
        events.extend(consolidate_semantic(store, concl.type, concl.text, anchors(found)))

    store.observations[rec.id] = ObservationMeta(video, list(episodic_ids))
    store.video_clock[video] = rec.t
    return episodic_ids, events
