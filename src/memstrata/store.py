"""The memory store: three node layers, anchors, persistence.

One store is one snapshot file. Snapshots are canonical JSON: keys sorted, no
whitespace, collections ordered by id, scalar floats in Python's shortest
round-trip decimal form, so two saves of the same in-memory state are
byte-identical. A stored vector is one base64 string, a little-endian mask of
its entries with non-zero bits and then those entries as little-endian float64,
so a load reproduces it bit for bit. Observations and episodes are columns, one
array per field, ids as differences; each distinct video, text, anchor set and
attrs object is stored once, in a table the columns index. Id lists are
strictly increasing, evidence links are gap-coded and DAGs are rows, each edge
row naming its ends by their node rows. The id, video, count, anchor-set and
outcome columns and each procedure's links write a maximal run of 3 or more
equal ints as one ``[value, count]``; ``text_at`` and ``attrs_at`` are packed,
one base64 string each of a width byte and then each index little-endian at
that width, and with ``t`` they fix the row counts a load expands runs to. A
load refuses all but the canonical form. Nothing a load can derive
is stored: a load recomputes each text's vector (with the snapshot's embedder)
and action once, and each video's clock as its latest observation. Nor does a
store hold a copy of what it holds, or what it can compute: an episode reads
its text, vector and action from its text entry and its video and ``t`` from
its observation; anchor and percept counts are sums of the face and voice
counts, a procedure's anchors are those of its evidence, and the candidate pool
is its records' observation ids. Besides, it keeps what its scans read, never
stored (see ``MemoryStore._build_kept``): the rows that own the anchor centroids
and the logic index vectors, and the anchor and action postings.
"""

from __future__ import annotations

import base64
import copy
import gc
import json
import math
import os
from bisect import bisect_left
from collections import Counter, defaultdict, deque
from itertools import accumulate, chain, compress, repeat
from operator import attrgetter, is_, lt, sub
from types import MappingProxyType

import numpy as np

from .core import (
    Config,
    FrozenDict,
    HashingEmbedder,
    RowBlock,
    _is_finite_number,
    _is_int,
    attrs_key,
    embedder_identity,
    finite_entries,
    finite_vector,
    read_json,
)
from .dag import GOAL, START, ProceduralDag, check_valid
from .dag import transition_prob  # noqa: F401 -- bench/tracing.py wraps this name
from .distill import LogicNode, default_goal_name, extract_action, verify_default
from .errors import (
    ConfigError,
    CorruptSnapshot,
    DimensionMismatch,
    EmbedderMismatch,
    InvalidInput,
    MissingEdge,
    SnapshotIoError,
)
from .ingest import (
    OUTCOMES,
    EntityAnchor,
    EpisodicNode,
    ObservationMeta,
    SemanticNode,
    _attrs_fault,
    ingest_observation,
)
from .maintain import apply_observation
from .retrieve import make_query, retrieve

SNAPSHOT_VERSION = 9
# The sections of one type in a version 9 snapshot, the one version a load reads:
# a load iterates them, so an empty section of another type would load, and
# re-save as another file.
_SECTION_TYPES = {"anchors": list, "semantic": list, "logic": list, "pool": list}
_OBSERVATION_COLUMNS = ("id", "video_at", "t", "episode_count")
_EPISODE_COLUMNS = ("id", "text_at", "anchors_at", "outcome", "attrs_at")
# The columns not written as _runs: t as floats, text_at and attrs_at as _packed.
_PLAIN_COLUMNS = ("t", "text_at", "attrs_at")
# The keys of each object of a version 9 snapshot, as snapshot_dict writes them: a load
# reads no other key, so one more, or one fewer, would load and re-save as another file.
_KEYS = {kind: frozenset(keys.split()) for kind, keys in (
    ("top level", "version embedder config counters episodic observations " + " ".join(_SECTION_TYPES)),
    ("counters", "node anchor logic"), ("observations", "videos " + " ".join(_OBSERVATION_COLUMNS)),
    ("episodic", "texts attrs anchors " + " ".join(_EPISODE_COLUMNS)),
    ("anchor", "id label face_count voice_count face voice"),
    ("semantic node", "id type attrs anchors weight"),
    ("logic node", "id c score steps episodic_links i_goal i_step dag"), ("dag", "nodes edges"),
)} | {"config": frozenset(Config().to_dict())}  # every Config field


class MemoryStore:
    """Whole-system state plus thin facade methods over the module operations.

    Single-writer discipline: ingest, distill, maintenance, and fusion are
    serialized by the caller; reads may run concurrently between writes.

    Sealed: a caller reads the state, and only the engine writes it. Each of
    ``anchors``, ``episodic``, ``semantic``, ``logic``, ``texts``,
    ``observations`` and ``video_clock`` is a read-only view
    (``types.MappingProxyType``) of a private dict, ``pool`` is a tuple and the
    id counters are read-only properties, so a caller's write raises
    ``TypeError`` or ``AttributeError``. Each node is a frozen dataclass, which
    the engine replaces under its key; each embedded vector (a ``v_e``, a
    ``v_s``, a query's) is read-only, so a write into one raises ``ValueError``;
    each DAG is sealed (``dag.SealedDag``), each evidence set a frozenset and
    each attrs object read-only to any depth (``core.FrozenDict``), so a write
    into one raises. A caller can still write the rows that centroids and index
    vectors view, which a save stores and ``check()`` judges. Each engine write
    keeps what the store keeps for its scans current in the same call.

    One order: ``anchors``, ``episodic``, ``semantic`` and ``logic`` each iterate
    in ascending id, so a reader iterates a layer and never sorts it. The engine
    appends each new node under an id above every id its counter has handed
    out, a replacement (a reinforced or weakened semantic node) keeps its key's
    place, a fuse deletes its two nodes and appends the new one, and a load
    inserts each layer in increasing id. ``observations`` is in ingest order
    live, and in id order after a load.
    """

    def __init__(self, config: Config | None = None, embedder=None):
        self._config = config = config or Config()
        if embedder is None:
            embedder = HashingEmbedder(config.dim)
        elif not _is_int(dim := getattr(embedder, "dim", None)) or dim != config.dim:
            raise ConfigError(f"embedder dim {dim!r} is not the config dim {config.dim}")
        self.embedder = embedder
        self._anchors: dict[int, EntityAnchor] = {}
        self._episodic: dict[int, EpisodicNode] = {}
        self._texts: dict[str, tuple] = {}  # each episodic text's (d, v_e, action), see text_entry
        self._interned: dict = {}  # see intern
        self._attrs: dict = {}  # each distinct attrs object, by its JSON: see _intern_attrs
        self._semantic: dict[int, SemanticNode] = {}
        self._logic: dict[int, LogicNode] = {}
        self._observations: dict[int, ObservationMeta] = {}
        self._video_clock: dict[str, ObservationMeta] = {}  # each video's latest observation
        self._pool: tuple = ()  # the pooled observations' ids, in apply order
        self._next_node_id = self._next_anchor_id = self._next_logic_id = 1
        self._build_kept()
        self.retrieval_calls = 0
        self.classifier = None
        self.verifier_fn = verify_default if config.verifier == "default" else None
        self.goal_namer_fn = default_goal_name if config.goal_namer == "default" else None

    @property
    def config(self) -> Config:
        """The config the store was built or loaded with, fixed for its life: to use other
        values, build a store with them."""
        return self._config

    # A caller's read-only views of the state, each made at the read.
    anchors = property(lambda self: MappingProxyType(self._anchors), doc="Each entity anchor, by id.")
    episodic = property(lambda self: MappingProxyType(self._episodic), doc="Each episodic node, by id.")
    semantic = property(lambda self: MappingProxyType(self._semantic), doc="Each semantic node, by id.")
    logic = property(lambda self: MappingProxyType(self._logic), doc="Each logic node, by id.")
    texts = property(lambda self: MappingProxyType(self._texts), doc="Each episodic text's entry, by text.")
    observations = property(lambda self: MappingProxyType(self._observations),
                            doc="Each ingested record's ObservationMeta, by record id.")
    video_clock = property(lambda self: MappingProxyType(self._video_clock),
                           doc="Each video's latest ObservationMeta.")
    pool = property(attrgetter("_pool"), doc="The pooled observations' ids, in apply order.")
    next_node_id = property(attrgetter("_next_node_id"), doc="The id the next episodic or semantic node has.")
    next_anchor_id = property(attrgetter("_next_anchor_id"), doc="The id the next anchor takes.")
    next_logic_id = property(attrgetter("_next_logic_id"), doc="The id the next logic node takes.")

    def _build_kept(self) -> None:
        """Build what the store keeps for its scans from its layers: the rows that own the anchor
        centroids and the logic index vectors, and the postings from each anchor id to its semantic
        nodes and from each action to its episodic nodes. A new store, a load and ``clone()`` build
        them here, an empty store as any other; each engine write keeps them current after that.
        Each is in its layer's order, which is ascending id (see the class docstring)."""
        dim = self._config.dim
        self._centroid_rows = centroids = {"face": RowBlock(dim), "voice": RowBlock(dim)}
        self._semantic_postings = by_anchor = defaultdict(list)
        self._action_postings = by_action = defaultdict(list)
        self._build_logic_rows()
        for anchor_id, anchor in self._anchors.items():
            _point_at_rows(centroids, "centroid_", anchor_id, anchor)
        for node_id, node in self._semantic.items():
            for anchor_id in node.anchors:
                by_anchor[anchor_id].append(node_id)
        for node_id, node in self._episodic.items():
            by_action[node.text[2]].append(node_id)

    def _build_logic_rows(self) -> None:
        """Build the rows that own the logic index vectors from the logic layer, in its order: as
        part of ``_build_kept``, and alone after a fuse, which changes only that layer but cannot
        delete a row."""
        dim = self._config.dim
        self._logic_rows = rows = {"goal": RowBlock(dim), "step": RowBlock(dim)}
        for logic_id, node in self._logic.items():
            _point_at_rows(rows, "i_", logic_id, node)

    @property
    def percept_count(self) -> int:
        """The percepts ingested, as the anchors that took them count them."""
        return sum(a.count for a in self._anchors.values())

    # -- plugin registration ----------------------------------------------

    def set_verifier(self, fn) -> None:
        self.verifier_fn = fn

    def set_goal_namer(self, fn) -> None:
        self.goal_namer_fn = fn

    def set_classifier(self, fn) -> None:
        self.classifier = fn

    # -- facade -------------------------------------------------------------

    @property
    def embedder_is_builtin(self) -> bool:
        """Whether the embedder is the built-in ``HashingEmbedder`` (not a subclass) of the
        store's dim, whose vectors are ``dim`` finite floats by construction."""
        return type(self.embedder) is HashingEmbedder and self.embedder.dim == self.config.dim

    def embed(self, text: str) -> np.ndarray:
        """The embedder's vector for ``text``. Any embedder but the built-in one is an input
        boundary: its vector is refused unless it is ``dim`` finite floats (``core.finite_vector``),
        with ``DimensionMismatch`` for an array of another shape and ``InvalidInput`` otherwise,
        so that no vector the store keeps breaks that rule. The vector is made read-only, so that
        no write into it can make it another text's (see ``core.Embedder``)."""
        v = self.embedder.embed(text)
        if not self.embedder_is_builtin and not finite_vector(v, self.config.dim):
            if isinstance(v, np.ndarray) and v.shape != (self.config.dim,):
                raise DimensionMismatch(f"embedder output for {text!r} has shape {v.shape}, "
                                        f"store dim is {self.config.dim}")
            raise InvalidInput(f"embedder output for {text!r} is not {self.config.dim} finite floats")
        v.flags.writeable = False
        return v

    def text_entry(self, text: str, *, _vector=None) -> tuple:
        """``(d, v_e, action)``: the one entry that every episodic node with this text
        holds as its ``text``, embedded and extracted once; ``_vector``, which only ingest
        passes, is ``embed(text)`` already made (see ``ingest.consolidate_semantic``)."""
        entry = self._texts.get(text)
        if entry is None:
            entry = self._texts[text] = (text, self.embed(text) if _vector is None else _vector,
                                        self.intern(extract_action(text, self.config.action_verbs)))
        return entry

    def _intern_attrs(self, attrs: dict) -> FrozenDict:
        """The store's one read-only object of the value of ``attrs``, by its JSON
        (``core.attrs_key``). Only ingest and a load pass attrs, each judged first."""
        held = self._attrs.get(key := attrs_key(attrs))
        if held is None:
            held = self._attrs[key] = FrozenDict(attrs)
        return held

    def intern(self, value):
        """The store's one object equal to ``value``, so that equal videos, actions,
        attrs strings and anchor sets are held once. ``value`` is a str, None or a
        frozenset of ids, never a number: 1, 1.0 and True are one key."""
        return self._interned.setdefault(value, value)

    def ingest(self, rec):
        return ingest_observation(self, rec)

    def distill(self, episode_ids=None):
        from .distill import distill as _distill

        return _distill(self, episode_ids)

    def apply(self, rec):
        return apply_observation(self, rec)

    def retrieve(self, text: str, qtype: str | None = None, constraint=None,
                 person: int | None = None, k: int = 5, include_logic: bool = True):
        q = make_query(self, text, qtype, constraint, person)
        return retrieve(self, q, k, include_logic=include_logic)

    def anchor_by_label(self, label: str) -> int | None:
        """The lowest id of an anchor with this label, or None: the first, in the layer's id order."""
        return next((i for i, anchor in self._anchors.items() if anchor.label == label), None)

    def clone(self) -> "MemoryStore":
        """A store of its own, equal to this one: a copy of each of its dicts, whose nodes, set
        once, it shares, and of each anchor and logic node, which it points at rows of its own,
        built with the rest of what it keeps for its scans as a load builds them (``_build_kept``).
        Everything else, set once or read-only, it shares."""
        twin = copy.copy(self)
        vars(twin).update({name: value.copy() for name, value in vars(self).items()
                           if type(value) is dict})
        for nodes in (twin._anchors, twin._logic):
            nodes.update(zip(nodes, map(copy.copy, nodes.values())))
        twin._build_kept()
        return twin

    # -- persistence ----------------------------------------------------------

    def save(self, path: str) -> None:
        """Refuse, with ``check()[0]``, a store that ``check()`` reports anything on; else write
        the snapshot atomically and durably: the temp file is synced before it replaces
        ``path``, and the directory after."""
        if violations := check_store(self):
            raise SnapshotIoError(f"cannot save {path}: {violations[0]}")
        try:
            payload = json.dumps(snapshot_dict(self), sort_keys=True, separators=(",", ":"),
                                 allow_nan=False, check_circular=False)  # that check: 1/4 of it
        except (TypeError, ValueError, RecursionError) as exc:  # attrs the store did not judge itself
            raise SnapshotIoError(f"cannot encode snapshot {path}: {exc}") from exc
        tmp = path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(payload)
                fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError as exc:
            raise SnapshotIoError(f"cannot write snapshot {path}: {exc}") from exc

    @classmethod
    def load(cls, path: str, embedder=None) -> "MemoryStore":
        """Read a snapshot; ``embedder`` must be the one the store was built
        with (default: a ``HashingEmbedder`` of the snapshot's dim)."""
        collecting = gc.isenabled()
        gc.disable()  # a load's containers all stay live, so a collection would free none
        try:
            return store_from_dict(read_json(path, "snapshot", CorruptSnapshot, SnapshotIoError),
                                   embedder)
        finally:
            if collecting:
                gc.enable()

    # -- diagnostics ----------------------------------------------------------

    def stats(self) -> dict:
        edge_total = sum(len(outs) for node in self._logic.values() for outs in node.dag.adj.values())
        count_total = float(sum(
            stat.count for node in self._logic.values() for _, _, stat in node.dag.edges()
        ))
        return {
            "anchors": len(self._anchors),
            "episodic": len(self._episodic),
            "semantic": len(self._semantic),
            "semantic_weight": sum(n.weight for n in self._semantic.values()),
            "logic": len(self._logic),
            "dag_edges": edge_total,
            "dag_transition_count": count_total,
            "observations": len(self._observations),
            "percepts": self.percept_count,
            "pool": len(self._pool),
        }

    def check(self) -> list[str]:
        return check_store(self)


# -- global invariant sweep -----------------------------------------------

# The one type of each field that a snapshot writes as it is, by section (a load judges episodic
# attrs itself): a load refuses any other, or reads it back as another value.
_FIELD_TYPES = {"anchor": {"label": str}, "semantic": {"type": str, "attrs": str}, "logic": {"c": str}}


def _ids_in(ids, held) -> bool:
    """Whether the set ``ids`` holds only ints (not bools or equal floats) that ``held`` holds."""
    return set(map(type, ids)) <= {int} and ids <= held


def check_store(store: MemoryStore) -> list[str]:
    """Global invariant sweep; returns all violations (empty means healthy).

    It is the one definition of a store that ``save`` writes and a load keeps, so it reports, and
    never raises on, any value a file can hold or a caller can still write (see ``MemoryStore``):
    into a row. What construction guarantees is not tested: only the engine writes a store's
    layers, texts, observations, clock, pool and counters, and a load builds them from a file it
    has refused unless it is canonical; its config is valid and fixed; every id is an int, each
    node's own id its key, and each layer iterates in ascending id; every node is set once, each
    anchor and logic node holding views of its own rows and each logic node a sealed DAG and a
    frozenset of the ids of its episodes; each attrs object is read-only, and was judged where it
    entered, by ingest (``ingest.record_fault``) or by the load; and each embedded vector is
    read-only, ``dim`` finite floats when the store took it. A rule over the episodes or the
    observations tests a whole column at once, and names the offenders only when that test fails.
    """
    v, dim = [], store.config.dim

    counters = {"node": store._next_node_id, "anchor": store._next_anchor_id, "logic": store._next_logic_id}
    v += [f"counter {name}: {c!r} is not a positive int"
          for name, c in counters.items() if not (_is_int(c) and c >= 1)]
    ids, held = {}, {}  # each section's ids, ascending, and its nodes in that order
    for kind, nodes, c in (("anchor", store._anchors, store._next_anchor_id),
                           ("episodic", store._episodic, store._next_node_id),
                           ("semantic", store._semantic, store._next_node_id),
                           ("logic", store._logic, store._next_logic_id)):
        ids[kind] = order = list(nodes)
        held[kind] = values = list(nodes.values())
        # Each counter is the id it hands out next, so no id of its kind may be at or beyond it.
        if _is_int(c):  # one of another type is reported above, and bounds nothing
            v += [f"{kind} {i}: id beyond counter" for i in order[bisect_left(order, c):]]
        for field, field_type in _FIELD_TYPES.get(kind, {}).items():
            column = list(map(attrgetter(field), values))
            if not set(map(type, column)) <= {field_type}:
                v += [f"{kind} {i}: {field} {x!r} is not a {field_type.__name__}"
                      for i, x in zip(order, column) if type(x) is not field_type]

    for anchor_id, anchor in zip(ids["anchor"], held["anchor"]):
        if anchor.centroid_face is None and anchor.centroid_voice is None:
            v.append(f"anchor {anchor_id}: no centroid")
        for name, c in (("face", anchor.centroid_face), ("voice", anchor.centroid_voice)):
            k = getattr(anchor, f"{name}_count")
            if not (_is_int(k) and (k >= 1 if c is not None else k == 0)):
                v.append(f"anchor {anchor_id}: {name}_count {k!r} is not "
                         + ("an int of at least 1" if c is not None else f"0 without a {name} centroid"))
            if c is not None and not finite_entries(c):  # a row, which a write into it may break
                v.append(f"anchor {anchor_id}: {name} centroid is not {dim} finite floats")

    anchor_ids, ep_ids, nodes = store._anchors.keys(), ids["episodic"], held["episodic"]
    anchor_sets = [n.anchors for n in nodes]
    if not (set(map(type, anchor_sets)) <= {frozenset}
            and _ids_in(frozenset().union(*set(anchor_sets)), anchor_ids)):
        v += [f"episodic {i}: anchors {a!r} are not a frozenset of anchor ids" for i, a in
              zip(ep_ids, anchor_sets) if type(a) is not frozenset or not _ids_in(a, anchor_ids)]

    for node_id, node in zip(ids["semantic"], held["semantic"]):
        if not (_is_int(node.weight) and node.weight >= 1):
            v.append(f"semantic {node_id}: weight {node.weight!r} is not an int of at least 1")
        if type(node.anchors) is not frozenset or not _ids_in(node.anchors, anchor_ids):
            v.append(f"semantic {node_id}: anchors {node.anchors!r} are not a frozenset of anchor ids")

    for logic_id, node in zip(ids["logic"], held["logic"]):
        if not set(map(type, node.steps)) <= {str}:  # a tuple, as the engine or a load made it
            v.append(f"logic {logic_id}: steps {node.steps!r} are not a tuple of strings")
        if not node.episodic_links:  # each link an episode's id, as ingest or a load made it
            v.append(f"logic {logic_id}: no episodic evidence")
        for key, x in (("goal", node.i_goal), ("step", node.i_step)):
            if not finite_entries(x):  # a row, which a write into it may break
                v.append(f"logic {logic_id}: i_{key} is not {dim} finite floats")
        dag = node.dag
        if not _is_finite_number(node.score):
            v.append(f"logic {logic_id}: score {node.score!r} is not a finite number")
        if faults := check_valid(dag):
            v += [f"logic {logic_id}: {fault}" for fault in faults]
            continue  # the sums below read what a fault may have broken
        for src in sorted(dag.adj):  # each estimate (gamma + N) / their sum, summed in label order
            weights = [stat.gamma + stat.count for _, stat in sorted(dag.adj[src].items())]
            denom = sum(weights)  # 0: the symmetric-prior limit, 1/n each, which sum to 1
            total = sum(w / denom for w in weights) if denom else 1.0
            if abs(total - 1.0) > 1e-9:
                v.append(f"logic {logic_id}: transition probs at {src} sum to {total}")

    pool, observations = store._pool, store._observations
    if len(pool) >= store.config.pool_trigger:
        v.append("candidate pool at or beyond trigger without distillation")
    v += [f"pool entry references unknown observation {i!r}"
          for i in pool if not (_is_int(i) and i in observations)]
    pooled = [i for i in pool if type(i) is int]  # another is reported above
    v += [f"pool entry {i} is listed {n} times, not once"
          for i, n in Counter(pooled).items() if n > 1]
    obs_ids = sorted(observations)  # in ingest order live
    ts = [observations[i].t for i in obs_ids]
    if not (set(map(type, ts)) <= {float} and math.isfinite(sum(ts))):  # a finite sum proves them
        v += [f"observation {i}: t {t!r} is not a finite number"
              for i, t in zip(obs_ids, ts) if not _is_finite_number(t)]
    return v


# -- snapshot encode / decode ------------------------------------------------


def _vec(arr) -> str:
    """A vector as base64 of its non-zero mask, then its non-zero entries."""
    a = np.asarray(arr, dtype="<f8")
    mask = a.view("<u8") != 0  # by bit pattern, so -0.0 is kept
    return base64.b64encode(np.packbits(mask, bitorder="little").tobytes()
                            + a[mask].tobytes()).decode("ascii")


def _vec_from(text, dim: int, what: str) -> np.ndarray:
    """The ``dim`` floats that ``_vec`` encoded as ``text``, bit for bit."""
    try:
        raw = base64.b64decode(text)
    except (TypeError, ValueError):  # binascii.Error is a ValueError
        raw = b""
    head = (dim + 7) // 8
    mask = np.unpackbits(np.frombuffer(raw[:head], np.uint8), bitorder="little").astype(bool)
    if (base64.b64encode(raw).decode("ascii") != text or len(raw) < head or mask[dim:].any()
            or len(raw) - head != 8 * int(mask.sum())):
        raise CorruptSnapshot(f"{what} is not the canonical base64 of {dim} floats")
    vec = np.zeros(dim)
    vec[mask[:dim]] = np.frombuffer(raw, "<f8", offset=head)
    return vec


_WIDTHS = (1, 2, 4, 8)  # the byte widths a packed column may have


def _packed(ints: list) -> str:
    """Indexes, ints of 0 to 2**64 - 1, as base64 of a width byte, the fewest of ``_WIDTHS`` bytes
    that holds the largest (1 for none), then each index little-endian at that width."""
    width = next(w for w in _WIDTHS if max(ints, default=0) < 1 << 8 * w)
    return base64.b64encode(bytes([width]) + np.array(ints, f"<u{width}").tobytes()).decode("ascii")


def _unpacked(text, what: str) -> list:
    """The indexes that ``_packed`` spelled as ``text``, refused unless it is what ``_packed``
    writes: a str of base64, a width byte of ``_WIDTHS`` and no wider than the largest index
    needs, then a whole number of ints of that width."""
    if type(text) is not str:
        raise CorruptSnapshot(f"{what}: not a str of packed ints")
    try:  # strict: no character outside the alphabet, and nothing after the padding
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error is a ValueError, as is a str that is not ASCII
        raise CorruptSnapshot(f"{what}: not base64") from None
    # What strict decoding leaves free is the unused low bits of the last character before the
    # padding: the last group, encoded again, tests them.
    if base64.b64encode(raw[-(len(raw) % 3 or 3):]).decode("ascii") != text[-4:]:
        raise CorruptSnapshot(f"{what}: not canonical base64")
    if not raw or raw[0] not in _WIDTHS:
        raise CorruptSnapshot(f"{what}: no width byte of 1, 2, 4 or 8")
    width = raw[0]
    if (len(raw) - 1) % width:
        raise CorruptSnapshot(f"{what}: {len(raw) - 1} bytes are not a whole number of {width}-byte ints")
    ints = np.frombuffer(raw, f"<u{width}", offset=1)
    if width > 1 and ints.max(initial=0) < 1 << 4 * width:  # one half as wide holds them all
        raise CorruptSnapshot(f"{what}: width {width} is wider than its largest index needs")
    return ints.tolist()


def _dag_rows(dag: ProceduralDag) -> dict:
    """``[label, attrs, success_alpha, success_beta]`` node rows, START, the sorted steps, GOAL;
    ``[i, j, count, gamma]`` edge rows, ``i`` and ``j`` the node rows of the edge's ends, sorted
    by ``(i, j)``."""
    labels = [START] + sorted(dag.step_labels()) + [GOAL]
    row = dict(zip(labels, range(len(labels))))
    return {
        "nodes": [[label, dag.nodes[label].attrs, dag.nodes[label].success_alpha,
                   dag.nodes[label].success_beta] for label in labels],
        "edges": sorted([row[src], row[dst], stat.count, stat.gamma] for src, dst, stat in dag.edges()),
    }


def _dag_from_rows(data: dict, what: str) -> ProceduralDag:
    """The sealed DAG of a snapshot's rows, refused unless they are canonical and each entry of
    each step's attrs one an episode's may hold: a distill or a fuse merges those of several."""
    nodes, edges = data["nodes"], data["edges"]
    if not all(type(row) is list and len(row) == 4 for row in nodes + edges):
        raise CorruptSnapshot(f"{what}: dag rows are not 4 fields each")
    labels, keys = [row[0] for row in nodes], [(row[0], row[1]) for row in edges]
    ends = list(chain.from_iterable(keys))
    if (labels != [START, *sorted(set(labels[1:-1]) - {START, GOAL}), GOAL]
            or not set(map(type, ends)) <= {int}  # not true or 1.0, which index as 1
            or not 0 <= min(ends, default=0) <= max(ends, default=0) < len(labels)
            or keys != sorted(set(keys))):
        raise CorruptSnapshot(f"{what}: dag rows are not START, the sorted steps, GOAL, then edges"
                              " by node row, sorted")
    dag = ProceduralDag.__new__(ProceduralDag)
    dag.nodes, dag.adj = {}, {}
    for label, attrs, success_alpha, success_beta in nodes:
        attrs = {**attrs}  # ** takes only an object
        if fault := _attrs_fault([{key: x} for key, x in attrs.items()]):
            raise CorruptSnapshot(f"{what}: {label} attrs {fault}")
        dag.add_node(label, attrs, success_alpha, success_beta)
    for i, j, count, gamma in edges:
        dag.add_edge(labels[i], labels[j], count, gamma)
    return dag.sealed()


def _keyed(obj, kind: str) -> dict:
    """``obj`` if it is an object with exactly the keys the writer gives a ``kind``."""
    if type(obj) is dict and obj.keys() == _KEYS[kind]:
        return obj
    raise CorruptSnapshot(f"snapshot {kind}: not an object with exactly the keys {sorted(_KEYS[kind])}")


def _gaps(ids: list) -> list:
    """Ids as the first, then the difference to each next one: a gap, where they increase."""
    return list(map(sub, ids, [0] + ids))


def _same(ints: list) -> bytes:
    """Byte ``i`` is 1 where ``ints[i] == ints[i + 1]``, else 0: compared as int64, or as the ints
    they are past its range."""
    try:
        a = np.fromiter(ints, np.int64, len(ints))
    except OverflowError:  # ids are unbounded
        a = np.array(ints, object)
    return (a[1:] == a[:-1]).tobytes()


def _runs(ints: list) -> list:
    """``ints`` with each maximal run of 3 or more equal values written as one ``[value, count]``
    (the run-length coding of Abadi et al., SIGMOD 2006), every other int as it is."""
    same, spelled, done = _same(ints) + b"\0", [], 0  # the last int ends a run
    while (start := same.find(b"\1\1", done)) >= 0:  # a run of 3 or more from start
        end = same.find(b"\0", start)  # to end, its last int
        spelled += [*ints[done:start], [ints[start], end + 1 - start]]
        done = end + 1
    return spelled + ints[done:]


def _unruns(column, most: int, what: str) -> list:
    """The ints that ``_runs`` spelled as ``column``, refused unless it is what ``_runs`` writes:
    ints (not true) and ``[value, count]`` pairs of ints, each count at least 3, no pair beside its
    own value and no 3 equal ints in a row. The counts are summed before a pair is expanded: a
    column that would spell more than ``most`` ints is refused."""
    types = list(map(type, column)) if type(column) is list else [None]
    at = list(compress(range(len(types)), map(is_, types, repeat(list))))  # where its pairs are
    pairs = list(map(column.__getitem__, at))
    values, counts = (flat := list(chain.from_iterable(pairs)))[::2], flat[1::2]
    if not (set(types) <= {int, list} and set(map(len, pairs)) <= {2}
            and set(map(type, flat)) <= {int} and min(counts, default=3) >= 3):
        raise CorruptSnapshot(f"{what}: not ints and [value, count] pairs of a count of at least 3")
    if len(column) - len(pairs) + sum(counts) > most:
        raise CorruptSnapshot(f"{what}: more than {most} ints")
    heads, ints, done = column.copy(), [], 0  # heads: each item's value
    for i, value, count in zip(at, values, counts):
        heads[i] = value
        ints += column[done:i] + [value] * count
        done = i + 1
    same = b"\0" + _same(heads) + b"\0"  # same[i]: heads[i - 1] == heads[i]
    if b"\1\1" in same or any(same[i] or same[i + 1] for i in at):
        raise CorruptSnapshot(f"{what}: a run of 3 or more equal ints is not one maximal [value, count]")
    return ints + column[done:]


def snapshot_dict(store: MemoryStore) -> dict:
    observations, episodic = _columns(store)
    return {
        "version": SNAPSHOT_VERSION,
        "embedder": embedder_identity(store.embedder),
        "config": store.config.to_dict(),
        "counters": {"node": store._next_node_id, "anchor": store._next_anchor_id,
                     "logic": store._next_logic_id},
        "anchors": [
            {"id": a.id, "label": a.label, "face_count": a.face_count, "voice_count": a.voice_count,
             "face": None if a.centroid_face is None else _vec(a.centroid_face),
             "voice": None if a.centroid_voice is None else _vec(a.centroid_voice)}
            for a in store._anchors.values()
        ],
        "episodic": episodic,
        "semantic": [{"id": n.id, "type": n.type, "attrs": n.attrs, "anchors": sorted(n.anchors),
                      "weight": n.weight} for n in store._semantic.values()],
        "logic": [
            {"id": n.id, "c": n.c, "score": n.score, "steps": list(n.steps),
             "episodic_links": _runs(_gaps(sorted(n.episodic_links))),
             "i_goal": _vec(n.i_goal), "i_step": _vec(n.i_step), "dag": _dag_rows(n.dag)}
            for n in store._logic.values()
        ],
        "pool": list(store._pool),
        "observations": observations,
    }


def _columns(store: MemoryStore) -> tuple:
    """The observations, in id order, and their episodes, in order, as version 9 columns, with
    the tables of each distinct video, text, anchor set and attrs object, in order of first use;
    ``text_at`` and ``attrs_at`` as ``_packed``, and every column but ``_PLAIN_COLUMNS`` as
    ``_runs``."""
    obs_ids = sorted(store._observations)
    metas = list(map(store._observations.__getitem__, obs_ids))
    nodes = list(map(store._episodic.__getitem__, chain.from_iterable(m.episodes for m in metas)))
    videos, texts, anchors = {}, {}, {}
    held = list(map(attrgetter("attrs"), nodes))
    attrs = {id(a): a for a in held}  # a store holds each distinct value once: see _intern_attrs
    attrs_at = list(map(dict(zip(attrs, range(len(attrs)))).__getitem__, map(id, held)))
    observations = {"id": _runs(_gaps(obs_ids)), "t": [m.t for m in metas],
                    "video_at": _runs([videos.setdefault(m.video, len(videos)) for m in metas]),
                    "episode_count": _runs([len(m.episodes) for m in metas])}
    episodic = {"id": _runs(_gaps([n.id for n in nodes])),
                "outcome": _runs([OUTCOMES.index(n.outcome) for n in nodes]),
                "text_at": _packed([texts.setdefault(n.text[0], len(texts)) for n in nodes]),  # by its d
                "anchors_at": _runs([anchors.setdefault(n.anchors, len(anchors)) for n in nodes]),
                "attrs_at": _packed(attrs_at)}
    return ({"videos": list(videos), **observations},
            {"texts": list(texts), "attrs": list(attrs.values()),
             "anchors": list(map(sorted, anchors)), **episodic})


def _increasing(lists: list, what: str) -> None:
    """Refuse unless each of ``lists`` is a list of ints (not true or 1.0), strictly increasing."""
    if not (set(map(type, lists)) <= {list} and set(map(type, chain.from_iterable(lists))) <= {int}
            and all(all(map(lt, ids, ids[1:])) for ids in lists if len(ids) > 1)):
        raise CorruptSnapshot(f"{what} are not ints in strictly increasing order")


def _ids(gaps: list, what: str) -> list:
    """The ids that ``gaps``, ints, give, refused unless every gap after the first is at least 1."""
    if min(gaps[1:], default=1) < 1:
        raise CorruptSnapshot(f"{what} are not ints in strictly increasing order")
    return list(accumulate(gaps))


def _refuse_unless_first_uses(indexes, keys: list, what: str) -> None:
    """Refuse unless a table's entries, by ``keys``, are distinct, and the
    indexes into it are ints whose first uses are 0, 1, ... to its last."""
    # ints by type first: true and 1.0 would pass for 1 in the dict
    if (not set(map(type, indexes)) <= {int} or len(set(keys)) != len(keys)
            or list(dict.fromkeys(indexes)) != list(range(len(keys)))):
        raise CorruptSnapshot(f"{what} table is not each distinct entry once, in order of first use")


def _built(cls, n: int, **columns) -> list:
    """``n`` instances of the slotted dataclass ``cls``, whose fields ``columns`` gives a column each,
    set a column at a time through each slot's member descriptor: no ``__init__`` call per instance,
    whose frozen ``__setattr__`` calls cost about four times as much."""
    built = list(map(object.__new__, repeat(cls, n)))
    for name, column in columns.items():
        deque(map(getattr(cls, name).__set__, built, column), maxlen=0)
    return built


def _point_at_rows(blocks: dict, prefix: str, node_id, node) -> None:
    """Point ``node``, of an id above every other's, at its rows: each field ``prefix + key``, unless
    None, is set to a view of its row of ``blocks[key]``, through the field's slot descriptor, since
    the node is frozen."""
    for key, block in blocks.items():
        if (vector := getattr(node, prefix + key)) is not None:
            object.__setattr__(node, prefix + key, block.append(node_id, vector))


def _add_observations(store: MemoryStore, tables: dict, observations: dict) -> None:
    """Build the observations and their episodic nodes from version 9 columns, each table entry
    once (a video, a text's entry with its vector and action, an anchor set, an attrs object), and
    each node pointing at its entries and its observation. The packed columns are decoded
    (``_unpacked``) first, and each run column is expanded (``_unruns``) to at most its section's
    plain columns' length, ``t`` for the observations and ``text_at`` for the episodes. Anything but
    the canonical columns and tables of some store is refused."""
    texts, attrs, anchor_sets = tables["texts"], tables["attrs"], tables["anchors"]
    videos = observations["videos"]
    plain = {"t": observations["t"], **{name: _unpacked(tables[name], f"episodic column {name!r}")
                                        for name in ("text_at", "attrs_at")}}
    if not set(map(type, [texts, attrs, anchor_sets, videos, plain["t"]])) <= {list}:
        raise CorruptSnapshot("observation and episodic columns and tables are not all lists")
    sections = []
    for what, section, names, rows in (("observation", observations, _OBSERVATION_COLUMNS, plain["t"]),
                                       ("episodic", tables, _EPISODE_COLUMNS, plain["text_at"])):
        sections.append(columns := [plain[name] if name in _PLAIN_COLUMNS else
                                    _unruns(section[name], len(rows), f"{what} column {name!r}")
                                    for name in names])
        if len(set(map(len, columns))) != 1:
            raise CorruptSnapshot(f"{what} columns are not of one length")
    obs_columns, ep_columns = sections
    if not (set(map(type, texts + videos)) <= {str} and set(map(type, attrs)) <= {dict}):
        raise CorruptSnapshot("episodic texts and videos are not all strings, or attrs objects")
    (obs_ids, video_at, ts, counts), (ep_ids, text_at, anchors_at, outcomes, attrs_at) = (
        [_ids(obs_columns[0], "observation ids"), *obs_columns[1:]],
        [list(accumulate(ep_columns[0])), *ep_columns[1:]])  # tested per observation below
    if not (min(counts, default=0) >= 0 and sum(counts) == len(ep_ids)):  # ints: _unruns
        raise CorruptSnapshot("observation episode counts do not split the episodic columns")
    _increasing(anchor_sets, "episodic anchors")
    if not set(outcomes) <= set(range(len(OUTCOMES))):
        raise CorruptSnapshot(f"episodic outcomes are not indexes into {OUTCOMES}")
    _refuse_unless_first_uses(video_at, videos, "observation video")
    _refuse_unless_first_uses(text_at, texts, "episodic text")
    _refuse_unless_first_uses(anchors_at, list(map(tuple, anchor_sets)), "episodic anchors")
    if _attrs_fault(attrs):  # judged first, so that no attrs_key below walks what it bounds
        _refuse_unless_first_uses(attrs_at, list(range(len(attrs))), "episodic attrs")
        fault_of = [_attrs_fault([a]) for a in attrs]
        node_id, at = min((i, at) for i, at in zip(ep_ids, attrs_at) if fault_of[at])
        raise CorruptSnapshot(f"episodic {node_id}: attrs {fault_of[at]}")
    attrs = list(map(store._intern_attrs, attrs))  # one object per distinct JSON
    _refuse_unless_first_uses(attrs_at, list(map(id, attrs)), "episodic attrs")
    intern = store._interned.setdefault  # store.intern, without a call per entry
    videos = [intern(video, video) for video in videos]
    anchor_sets = [intern(a := frozenset(ids), a) for ids in anchor_sets]
    entries = [store.text_entry(d) for d in texts]
    spans = [ep_ids[end - n:end] for n, end in zip(counts, accumulate(counts))]
    _increasing(spans, "the episode ids of an observation")
    metas = _built(ObservationMeta, len(obs_ids), video=map(videos.__getitem__, video_at),
                   episodes=map(tuple, spans), t=ts)
    store._observations.update(zip(obs_ids, metas))
    nodes = dict(zip(ep_ids, _built(
        EpisodicNode, len(ep_ids), id=ep_ids, text=map(entries.__getitem__, text_at),
        obs=chain.from_iterable(map(repeat, metas, counts)), anchors=map(anchor_sets.__getitem__, anchors_at),
        outcome=map(OUTCOMES.__getitem__, outcomes), attrs=map(attrs.__getitem__, attrs_at))))
    if len(nodes) != len(ep_ids):
        raise CorruptSnapshot("an episode is listed by two observations")
    store._episodic.update(zip(order := sorted(nodes), map(nodes.__getitem__, order)))  # in id order


def store_from_dict(data: dict, embedder=None) -> MemoryStore:
    """Rebuild a store from a version 9 snapshot dict; every other version is
    refused, as no reader of it is kept.

    Episodic and semantic vectors are recomputed with ``embedder`` (default:
    a ``HashingEmbedder`` of the snapshot's dim), which must be the one the
    snapshot names.
    """
    version = data.get("version") if isinstance(data, dict) else None
    if not _is_int(version) or version != SNAPSHOT_VERSION:
        raise CorruptSnapshot(f"unsupported snapshot version {version!r}"
                              if isinstance(data, dict) else "snapshot is not an object")
    try:
        config = Config.from_dict(_keyed(_keyed(data, "top level")["config"], "config"))
        if embedder is None:
            embedder = HashingEmbedder(config.dim)
        # The identity first: a store of another embedder is refused as
        # such, before MemoryStore refuses the embedder's dim.
        if data["embedder"] != embedder_identity(embedder):
            raise EmbedderMismatch(
                f"snapshot was written with embedder {data['embedder']!r}, not with the "
                f"loading embedder {embedder_identity(embedder)!r}; pass the "
                "store's embedder to load()")
        store = MemoryStore(config, embedder)
        for name, kind in _SECTION_TYPES.items():
            if type(data[name]) is not kind:
                raise CorruptSnapshot(f"snapshot section {name!r} is not a {kind.__name__}")
        for section, kind in (("anchors", "anchor"), ("semantic", "semantic node"),
                              ("logic", "logic node")):
            for entry in data[section]:
                _keyed(entry, kind)
        counters = _keyed(data["counters"], "counters")
        store._next_node_id, store._next_anchor_id, store._next_logic_id = (
            counters["node"], counters["anchor"], counters["logic"])
        for section in ("anchors", "semantic", "logic"):
            _increasing([[entry["id"] for entry in data[section]]], f"{section} ids")
        for a in data["anchors"]:
            face, voice = (None if a[kind] is None else
                           _vec_from(a[kind], config.dim, f"anchor {a['id']} {kind}")
                           for kind in ("face", "voice"))
            store._anchors[a["id"]] = EntityAnchor(a["id"], a["label"], face, voice,
                                                   a["face_count"], a["voice_count"])
        _add_observations(store, _keyed(data["episodic"], "episodic"),
                          _keyed(data["observations"], "observations"))
        _increasing([s["anchors"] for s in data["semantic"]], "semantic anchors")
        for s in data["semantic"]:
            v_s = store.embed(s["attrs"]) if type(s["attrs"]) is str else None  # check_store reports it
            store._semantic[s["id"]] = SemanticNode(s["id"], s["type"], s["attrs"], v_s,
                                                    store.intern(frozenset(s["anchors"])), s["weight"])
        episodic = store._episodic
        for l in data["logic"]:
            what = f"logic {l['id']} episodic links"
            try:  # each link its node's id, as ingest links it
                links = frozenset(map(attrgetter("id"), map(episodic.__getitem__, _ids(
                    _unruns(l["episodic_links"], len(episodic), what), what))))
            except KeyError:
                raise CorruptSnapshot(f"logic {l['id']}: dangling episodic link") from None
            if type(l["steps"]) is not list:  # tuple() takes a str's characters, an object's keys
                raise CorruptSnapshot(f"logic {l['id']}: steps are not a list")
            node = LogicNode(
                id=l["id"], c=l["c"],
                i_goal=_vec_from(l["i_goal"], config.dim, f"logic {l['id']} i_goal"),
                i_step=_vec_from(l["i_step"], config.dim, f"logic {l['id']} i_step"),
                dag=_dag_from_rows(_keyed(l["dag"], "dag"), f"logic {l['id']}"),
                episodic_links=links,
                score=l["score"],
                steps=tuple(l["steps"]),
            )
            store._logic[node.id] = node
        store._pool = tuple(data["pool"])  # check_store reports an entry that is no observation's id
        store._build_kept()
        violations = check_store(store)
    except ConfigError as exc:
        raise CorruptSnapshot(f"snapshot config invalid: {exc}") from None
    except RecursionError:  # from the repr, in a violation, of a value nested too deep
        raise CorruptSnapshot("snapshot nests too deep to read") from None
    except (KeyError, TypeError, ValueError, DimensionMismatch, MissingEdge) as exc:
        raise CorruptSnapshot(f"snapshot structure invalid: {exc!r}") from None
    if violations:
        raise CorruptSnapshot(violations[0])
    clock = store._video_clock
    for meta in store._observations.values():  # each video's latest, by t: the last of equal ones
        if (last := clock.get(meta.video)) is None or last.t <= meta.t:
            clock[meta.video] = meta
    return store
