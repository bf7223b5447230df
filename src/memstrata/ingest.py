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
import struct
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import mul

import numpy as np

from .core import FrozenDict, FrozenList, _is_finite_number, _is_int, cosine, finite_entries
from .errors import (
    DanglingMention,
    DimensionMismatch,
    DuplicateObservation,
    MalformedRecord,
    MemoryEngineError,
)

_MENTION_RE = re.compile(r"@([\w-]+)")

OUTCOMES = ("success", "failure")
PERCEPT_KINDS = ("face", "voice")
_COUNT_FIELDS = {kind: f"{kind}_count" for kind in PERCEPT_KINDS}  # EntityAnchor's field per kind
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


@dataclass(slots=True, frozen=True)
class EntityAnchor:
    """A recurring person, set once: a percept it takes puts a new anchor with the new count under
    its id. Each centroid is the running mean of the percepts of its kind assigned to it, held as a
    view of the anchor's row in the store's centroid rows, which that percept writes in place."""

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


@dataclass(slots=True, frozen=True)
class ObservationMeta:
    """One ingested record, set once: its video, its episodes' ids in order and its ``t``, which
    they read."""

    video: str
    episodes: tuple
    t: float


@dataclass(slots=True, frozen=True)
class EpisodicNode:
    """One described event, set once: ``text`` is its text's one ``(d, v_e, action)`` entry, ``obs``
    the observation that lists it (``d``, ``v_e``, ``action``, ``video`` and ``t`` read them),
    ``anchors`` the store's one such set, ``outcome`` an ``OUTCOMES`` constant and ``attrs`` the
    store's one read-only object of its value (``MemoryStore._intern_attrs``)."""

    id: int
    text: tuple
    obs: ObservationMeta
    anchors: frozenset = frozenset()
    outcome: str = "success"
    attrs: FrozenDict = field(default_factory=FrozenDict)

    d = property(lambda self: self.text[0])
    v_e = property(lambda self: self.text[1])
    action = property(lambda self: self.text[2])
    video = property(lambda self: self.obs.video)
    t = property(lambda self: self.obs.t)


@dataclass(slots=True, frozen=True)
class SemanticNode:
    """One abstracted-knowledge item, set once: a reinforce or weaken puts a new node under its id."""

    id: int
    type: str
    attrs: str = ""
    v_s: np.ndarray = None
    anchors: frozenset = frozenset()
    weight: int = 1


def parse_mentions(text: str) -> list[str]:
    return _MENTION_RE.findall(text)


# -- record parsing ---------------------------------------------------------


_KEY_TYPES = frozenset((str,))
_DICTS, _LISTS = frozenset((dict, FrozenDict)), frozenset((list, FrozenList))  # a store's are read-only
_CONTAINERS = _DICTS | _LISTS
_JSON_TYPES = frozenset((str, int, float, bool, type(None))) | _CONTAINERS
_NESTING_TYPES = _CONTAINERS | {float}  # what a level's walk looks into
_FLAT_TYPES = _JSON_TYPES - _NESTING_TYPES  # the values that end a walk at its first level

# Each part of a JSONL record: the keys it must hold, and the keys _record reads, the only ones it
# takes. A record's own required keys are read first, with their own refusal.
_KEYS = {"record": (frozenset(), frozenset(("id", "video", "t", "descriptions", "conclusions", "percepts"))),
         "description": (frozenset(("text",)), frozenset(("text", "attrs", "outcome"))),
         "conclusion": (frozenset(("type", "text")),) * 2,
         "percept": (frozenset(), frozenset(("kind", "hint", "vector")))}

# The most values one attrs object may write, a value inside a shared container counted once per
# place the write reaches it: n nested levels of [x, x] are n containers, but write 2**n values.
MAX_ATTRS_VALUES = 65536

# The most levels one attrs object may nest, itself the first: far below where json's recursion gives up.
MAX_ATTRS_DEPTH = 64


def _attrs_fault(dicts: list) -> str | None:
    """None when json writes each of ``dicts`` and reads it back as it is: str keys, and str, int, bool,
    None, finite float, list and dict values, no container that holds itself, at most ``MAX_ATTRS_VALUES``
    values written per dict and at most ``MAX_ATTRS_DEPTH`` levels; else what is wrong, as the end of a
    sentence about the attrs. The walk goes a level at a time, each container once a level with the
    number of places the write reaches it; a walk deeper than the distinct containers it has met below
    ``dicts`` has gone round a cycle, while a shared container only repeats a level. Past the bound, a
    walk of several dicts, whose counts below the top level are their sums, walks each dict alone."""
    roots, lists, seen, depth = dicts, [], set(), 0
    written = max(map(len, dicts)) if dicts else 0  # the top level: the largest of the dicts'
    while True:
        groups = [*map(dict.values, dicts), *lists]
        types = set(map(type, chain.from_iterable(groups)))
        if not (_KEY_TYPES.issuperset(map(type, chain.from_iterable(dicts))) and types <= _JSON_TYPES):
            return "hold what JSON cannot carry exactly"
        if written > MAX_ATTRS_VALUES:
            if len(roots) > 1:
                return next((fault for d in roots if (fault := _attrs_fault([d]))), None)
            return f"write more than {MAX_ATTRS_VALUES} values"
        if types.isdisjoint(_NESTING_TYPES):  # a level of str, int, bool and None ends the walk
            return None
        values = list(chain.from_iterable(groups))
        if not all(map(math.isfinite, [x for x in values if type(x) is float])):
            return "hold what JSON cannot carry exactly"
        if types.isdisjoint(_CONTAINERS):
            return None
        # Each container of the next level once, by id, with the places the write reaches it.
        places = chain.from_iterable(map(repeat, reach, map(len, groups))) if depth else repeat(1)
        nested, counts = {}, {}
        for x, n in zip(values, places):
            if type(x) in _CONTAINERS:
                key = id(x)
                nested[key] = x
                counts[key] = counts.get(key, 0) + n
        seen.update(nested)
        depth += 1
        if depth > len(seen):  # a chain of more containers than there are
            return "hold what JSON cannot carry exactly"
        if depth >= MAX_ATTRS_DEPTH:  # the containers just met are on level depth + 1
            return f"nest more than {MAX_ATTRS_DEPTH} levels"
        dicts = [x for x in nested.values() if type(x) in _DICTS]
        lists = [x for x in nested.values() if type(x) in _LISTS]
        reach = [counts[id(x)] for x in dicts + lists]
        written += sum(map(mul, reach, map(len, dicts + lists)))


def record_fault(rec: ObservationRecord, dim: int | None = None) -> MemoryEngineError | None:
    """None when every value of ``rec`` is one a store may take, else the error to raise: every
    rule on a record's own values. ``ingest_observation`` and ``apply_observation`` run it before
    any mutation with the store's ``dim``, the shape each percept vector must have."""
    if not _is_int(rec.id):
        return MalformedRecord(f"record id must be an integer, got {rec.id!r}")
    if not isinstance(rec.video, str) or not rec.video:
        return MalformedRecord(f"record video must be a nonempty string, got {rec.video!r}")
    if not _is_finite_number(rec.t):
        return MalformedRecord(f"record t must be a finite number, got {rec.t!r}")
    for name, cls in (("descriptions", Description), ("conclusions", Conclusion), ("percepts", Percept)):
        entries = getattr(rec, name)
        if type(entries) is not list or not {cls}.issuperset(map(type, entries)):
            return MalformedRecord(f"record {name} must be a list of {cls.__name__}, got {entries!r}")
    for desc in rec.descriptions:
        text, attrs = desc.text, desc.attrs
        if type(text) is not str:
            return MalformedRecord(f"description text must be a string, got {text!r}")
        if type(desc.outcome) is not str or desc.outcome not in OUTCOMES:
            return MalformedRecord(f"bad outcome {desc.outcome!r}")
        if type(attrs) not in _DICTS:
            return MalformedRecord(f"attrs of {text!r} must be an object, got {attrs!r}")
        # A flat dict, str keys and str, int, bool or None values within the bound, is one the
        # walk ends at its first level and accepts; any other walks.
        if not (len(attrs) <= MAX_ATTRS_VALUES and _KEY_TYPES.issuperset(map(type, attrs))
                and _FLAT_TYPES.issuperset(map(type, attrs.values()))) \
                and (fault := _attrs_fault([attrs])):
            return MalformedRecord(f"attrs of {text!r} {fault}")
    for c in rec.conclusions:
        if type(c.type) is not str or type(c.text) is not str:
            return MalformedRecord(f"conclusion type and text must be strings, got {c.type!r}, {c.text!r}")
    for p in rec.percepts:
        vec = p.vector
        if type(p.kind) is not str or p.kind not in PERCEPT_KINDS:
            return MalformedRecord(f"percept kind must be face|voice, got {p.kind!r}")
        if type(p.hint) is not str or not p.hint:
            return MalformedRecord(f"percept hint must be a nonempty string, got {p.hint!r}")
        if not (isinstance(vec, np.ndarray) and vec.dtype.kind in "iuf"):
            return MalformedRecord(f"percept vector for {p.hint!r} is not an array of numbers")
        if dim is not None and vec.shape != (dim,):
            return DimensionMismatch(f"percept vector has shape {vec.shape}, store dim is {dim}")
        if not finite_entries(vec):
            return MalformedRecord(f"percept vector for {p.hint!r} has a non-finite value")
    return None


def _list_field(obj: dict, key: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise MalformedRecord(f"record {key} must be a list, got {value!r}")
    return value


def _entry(x, what: str) -> dict:
    """``x``, a JSONL ``what``: an object that holds the keys a ``what`` must and no key that
    ``_record`` would drop unread."""
    required, known = _KEYS[what]
    if not (isinstance(x, dict) and x.keys() >= required):
        raise MalformedRecord(f"bad {what} entry: {x!r}")
    if not known.issuperset(x):
        raise MalformedRecord(f"{what} has unknown key {next(k for k in x if k not in known)!r}")
    return x


def _packed(vec: list) -> np.ndarray:
    """``vec`` as a new float64 array, filled in one C call: ``struct.error`` for an entry that
    is not a float, an int or a bool (a str, None, a nested value) or an int past float range."""
    arr = np.empty(len(vec))
    struct.pack_into(f"{len(vec)}d", arr, 0, *vec)
    return arr


def _number_vector(vec: list, hint: str) -> np.ndarray:
    """A percept's list as float64, refused unless it holds ints and floats only."""
    types = list(map(type, vec))
    # A vector of floats only, as json gives one, passes on a count, faster than the set test.
    if types.count(float) != len(types) and not _NUMBER_TYPES.issuperset(types):
        raise MalformedRecord("percept vector must be a list of numbers")
    try:
        return _packed(vec)
    except struct.error:  # of ints and floats, only an int past float range
        raise MalformedRecord(f"percept vector for {hint!r} overflows a float") from None


def _json_vector(vec: list, hint: str) -> np.ndarray:
    """``_number_vector`` of a list that ``json.loads`` made, packed without its type test. The
    pack refuses a str, None, a nested value and an int past float range, but takes a bool;
    json's bools, true and false, become 1.0 and 0.0, so a vector holding either value, or one
    the pack refuses, gets the type test, with its refusals and messages. (A caller's list may
    hold an object with ``__float__``, such as a ``Fraction`` or an ``np.float32``, which the
    pack takes and the test refuses, so ``record_from_dict`` always tests.)"""
    try:
        arr = _packed(vec)
    except struct.error:
        return _number_vector(vec, hint)
    return _number_vector(vec, hint) if ((arr == 0.0) | (arr == 1.0)).any() else arr


def record_from_dict(obj: dict) -> ObservationRecord:
    """Build a record from one decoded JSONL object, refused unless ``record_fault`` accepts it."""
    return _record(obj, _number_vector)


def _record(obj: dict, vector) -> ObservationRecord:
    """``record_from_dict``, with ``vector(list, hint)`` converting each percept vector: the record
    that ``obj``'s keys, lists and entries spell, refused unless ``record_fault`` accepts it."""
    try:
        rec_id, video, t = obj["id"], obj["video"], obj["t"]
    except (KeyError, TypeError) as exc:
        raise MalformedRecord(f"record missing required field: {exc}") from None
    _entry(obj, "record")
    descriptions = [Description(d) if isinstance(d, str) else Description(**_entry(d, "description"))
                    for d in _list_field(obj, "descriptions")]
    conclusions = [Conclusion(*c) if isinstance(c, (list, tuple)) and len(c) == 2
                   else Conclusion(**_entry(c, "conclusion"))
                   for c in _list_field(obj, "conclusions")]
    percepts = []
    for p in _list_field(obj, "percepts"):
        hint, vec = _entry(p, "percept").get("hint"), p.get("vector")
        if not isinstance(vec, list):
            raise MalformedRecord("percept vector must be a list of numbers")
        percepts.append(Percept(p.get("kind"), vector(vec, hint), hint))
    rec = ObservationRecord(rec_id, video, t, descriptions, conclusions, percepts)
    if fault := record_fault(rec):
        raise fault
    return rec


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
        except ValueError as exc:  # a JSONDecodeError, or an int of more digits than int() converts
            raise MalformedRecord(f"line {lineno}: bad JSON: {exc}") from None
        except RecursionError:
            raise MalformedRecord(f"line {lineno}: JSON nests too deep to read") from None
        if not saw_header:
            if not (isinstance(obj, dict) and _is_int(version := obj.get("version")) and version == 1
                    and len(obj) == 1):
                raise MalformedRecord('line 1: expected version header {"version": 1}')
            saw_header = True
            continue
        records.append(_record(obj, _json_vector))
    if not saw_header:
        raise MalformedRecord("missing observation version header")
    return records


def read_observations(path: str) -> list[ObservationRecord]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return read_observation_lines(fh)
    except OSError as exc:
        raise MalformedRecord(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedRecord(f"{path} is not UTF-8: {exc}") from None


# -- operations --------------------------------------------------------------


def resolve_anchor(store, percept: Percept) -> int:
    """Assign a percept to the closest same-kind anchor, or create one.

    The winning anchor's centroid becomes the running mean of its assigned
    vectors, written into its row, and a new anchor of the new count takes
    its key's place. A new anchor is seeded whenever the best similarity
    falls below tau_anchor (or no same-kind centroid exists).
    """
    block = store._centroid_rows[percept.kind]  # the rows that own that kind's centroids
    count = _COUNT_FIELDS[percept.kind]
    if block.ids:
        sims = cosine(percept.vector, block)
        best = sims.argmax()
        if sims.item(best) >= store.config.tau_anchor:
            anchor = store._anchors[block.ids[best]]
            k = getattr(anchor, count)
            centroid = block.rows[best]
            centroid *= k
            centroid += percept.vector
            centroid /= k + 1
            face = percept.kind == "face"
            store._anchors[anchor.id] = EntityAnchor(
                anchor.id, anchor.label, anchor.centroid_face, anchor.centroid_voice,
                anchor.face_count + face, anchor.voice_count + (not face))
            return anchor.id

    anchor_id = store._next_anchor_id
    row = block.append(anchor_id, percept.vector)  # DimensionMismatch for a vector of another shape
    store._next_anchor_id += 1
    store._anchors[anchor_id] = EntityAnchor(anchor_id, percept.hint,
                                             **{f"centroid_{percept.kind}": row, count: 1})
    return anchor_id


def semantic_candidates(store, anchors: frozenset) -> list:
    """The ids of the semantic nodes whose anchor set covers ``anchors``, ascending: the
    intersection of the anchors' postings, smallest first; every node for an empty set."""
    if not anchors:
        return list(store._semantic)
    first, *rest = sorted([store._semantic_postings.get(a, ()) for a in anchors], key=len)
    return sorted(set(first).intersection(*rest))


def consolidate_semantic(store, ctype: str, text: str, anchors: frozenset, *, _vector=None) -> list:
    """Reinforce, weaken, or insert one abstracted-knowledge item.

    Candidates are the semantic nodes whose anchor set covers the new
    item's anchors. The most similar candidate above tau_pos is reinforced
    (weight+1, no insert); otherwise the least similar candidate below
    tau_neg is weakened (weight-1, pruned at <= 0) before the new node is
    inserted. Ties break toward the lowest node id. ``_vector``, which only
    ingest passes, is ``store.embed(text)`` already made: no caller can put a
    vector of its own, unjudged and writable, into the store.
    """
    v = store.embed(text) if _vector is None else _vector
    events = []
    semantic, by_anchor = store._semantic, store._semantic_postings
    ids = semantic_candidates(store, anchors)
    if ids:
        sims = cosine(v, [semantic[i].v_s for i in ids])
        best = sims.argmax()
        if sims[best] > store.config.tau_pos:
            best_id = ids[best]
            node = semantic[best_id]
            semantic[best_id] = SemanticNode(best_id, node.type, node.attrs, node.v_s, node.anchors,
                                             node.weight + 1)  # of the same anchors: no posting moves
            events.append(("reinforced", best_id))
            return events
        worst = sims.argmin()
        if sims[worst] < store.config.tau_neg:
            worst_id = ids[worst]
            node = semantic[worst_id]
            events.append(("weakened", worst_id))
            if node.weight > 1:
                semantic[worst_id] = SemanticNode(worst_id, node.type, node.attrs, node.v_s,
                                                  node.anchors, node.weight - 1)
            else:
                del semantic[worst_id]
                for a in node.anchors:
                    by_anchor[a].remove(worst_id)
                events.append(("pruned", worst_id))

    node_id = store._next_node_id
    store._next_node_id += 1
    node = SemanticNode(node_id, ctype, text, v, store.intern(frozenset(anchors)), weight=1)
    semantic[node_id] = node
    for a in node.anchors:
        by_anchor[a].append(node_id)
    events.append(("created", node_id))
    return events


def ingest_observation(store, rec: ObservationRecord):
    """Algorithm phase 1 for one record: anchors, episodic nodes, semantics.

    Atomic: all validation happens before the first mutation, so a raised
    error leaves the store untouched. Returns (new episodic ids, semantic
    event log).
    """
    if fault := record_fault(rec, store.config.dim):
        raise fault
    t = float(rec.t)  # an int t is saved as the float a JSONL record's is
    if rec.id in store._observations:
        raise DuplicateObservation(f"observation {rec.id} already ingested")
    last = store._video_clock.get(rec.video)
    if last is not None and t < last.t:
        raise MalformedRecord(f"timestamp {t} for {rec.video!r} precedes previous {last.t}")

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

    # Every vector the record adds, each new text's and each conclusion's, embedded once,
    # before the first mutation: store.embed refuses one that is not dim finite floats.
    new_texts: dict = {}
    for desc in rec.descriptions:
        if desc.text not in store._texts and desc.text not in new_texts:
            new_texts[desc.text] = store.embed(desc.text)
    concluded_vectors = [store.embed(c.text) for c in rec.conclusions]

    # Validation done; mutations start here.
    for p in rec.percepts:
        anchor_id = resolve_anchor(store, p)
        anchor_of.setdefault(p.hint, anchor_id)

    def anchors(found: list) -> frozenset:
        return store.intern(frozenset(map(anchor_of.__getitem__, found)))

    first = store._next_node_id
    store._next_node_id += len(rec.descriptions)
    meta = ObservationMeta(store.intern(rec.video), tuple(range(first, store._next_node_id)), t)
    actions = store._action_postings
    for node_id, desc, found in zip(meta.episodes, rec.descriptions, mentions):
        entry = store.text_entry(desc.text, _vector=new_texts.get(desc.text))
        store._episodic[node_id] = EpisodicNode(node_id, entry, meta, anchors(found),
                                                OUTCOMES[OUTCOMES.index(desc.outcome)],
                                                store._intern_attrs(desc.attrs))
        actions[entry[2]].append(node_id)

    events = []
    for concl, found, v in zip(rec.conclusions, concluded, concluded_vectors):
        events.extend(consolidate_semantic(store, concl.type, concl.text, anchors(found), _vector=v))

    store._observations[rec.id] = meta
    store._video_clock[meta.video] = meta
    return list(meta.episodes), events
