"""The memory store: three node layers, anchors, persistence.

One store is one snapshot file. Snapshots are canonical JSON: keys sorted, no
whitespace, collections ordered by id, scalar floats in Python's shortest
round-trip decimal form, so two saves of the same in-memory state are
byte-identical. A stored vector is one base64 string, a little-endian mask of
its entries with non-zero bits and then those entries as little-endian float64,
so a load reproduces it bit for bit. Observations and episodes are columns, one
array per field, ids as differences; each distinct video, text, anchor set and
attrs object is stored once, in a table the columns index. Id lists are
strictly increasing, evidence links are gap-coded and DAGs are rows. The id,
video, count, anchor-set and outcome columns and each procedure's links write a
maximal run of 3 or more equal ints as one ``[value, count]``; ``t``,
``text_at`` and ``attrs_at`` stay plain, and fix the row counts a load expands
runs to. A load refuses all but the canonical form. Nothing a load can derive
is stored: a load recomputes each text's vector (with the snapshot's embedder)
and action once, and each video's clock as its latest observation. Nor does a
store hold a copy of what it holds, or what it can compute: an episode reads
its text, vector and action from its text entry and its video and ``t`` from
its observation; anchor and percept counts are sums of the face and voice
counts, a procedure's anchors are those of its evidence, and the candidate pool
is its records' observation ids. Besides, it keeps what its scans read, never
stored (see ``core.current``): the rows that own the anchor centroids and the
logic index vectors, and the anchor and action postings.
"""

from __future__ import annotations

import base64
import copy
import gc
import json
import math
import os
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, chain, compress, repeat
from operator import attrgetter, is_, le, lt, sub

import numpy as np

from .core import (
    Config,
    HashingEmbedder,
    Layer,
    Rows,
    _is_finite_number,
    current,
    _is_int,
    embedder_identity,
    finite_vector,
)
from .dag import GOAL, START, ProceduralDag, check_valid, transition_prob
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
    PERCEPT_KINDS,
    EntityAnchor,
    EpisodicNode,
    ObservationMeta,
    Postings,
    SemanticNode,
    _attrs_fault,
    ingest_observation,
)
from .maintain import apply_observation
from .retrieve import make_query, retrieve

SNAPSHOT_VERSION = 8
# The sections of one type in a version 8 snapshot, the one version a load reads:
# a load iterates them, so an empty section of another type would load, and
# re-save as another file.
_SECTION_TYPES = {"anchors": list, "semantic": list, "logic": list, "pool": list}
_OBSERVATION_COLUMNS = ("id", "video_at", "t", "episode_count")
_EPISODE_COLUMNS = ("id", "text_at", "anchors_at", "outcome", "attrs_at")
_PLAIN_COLUMNS = ("t", "text_at", "attrs_at")  # each column not named here is written as _runs
# The keys of each object of a version 8 snapshot, as snapshot_dict writes them: a load
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
    """

    def __init__(self, config: Config | None = None, embedder=None):
        self._config = config = config or Config()
        if embedder is None:
            embedder = HashingEmbedder(config.dim)
        elif not _is_int(dim := getattr(embedder, "dim", None)) or dim != config.dim:
            raise ConfigError(f"embedder dim {dim!r} is not the config dim {config.dim}")
        self.embedder = embedder
        self.anchors: Layer[int, EntityAnchor] = Layer()
        self.episodic: Layer[int, EpisodicNode] = Layer()
        self.texts: dict[str, tuple] = {}  # each episodic text's (d, v_e, action), see text_entry
        self.interned: dict = {}  # see intern
        self.semantic: Layer[int, SemanticNode] = Layer()
        self.logic: Layer[int, LogicNode] = Layer()
        # Kept, not stored, each built again at a use that finds its layer at another version
        self.centroid_rows: Rows | None = None  # the anchor centroids' rows, by anchor id
        self.semantic_postings: Postings | None = None  # anchor id -> semantic ids
        self.action_postings: Postings | None = None  # action -> episodic ids
        self.logic_rows: Rows | None = None  # the i_goal and i_step rows, by logic id
        self.observations: dict[int, ObservationMeta] = {}
        self.video_clock: dict[str, ObservationMeta] = {}  # each video's latest observation
        self.pool: list[int] = []  # the pooled observations' ids, in apply order
        self.next_node_id = 1
        self.next_anchor_id = 1
        self.next_logic_id = 1
        self.retrieval_calls = 0
        self.classifier = None
        self.verifier_fn = verify_default if config.verifier == "default" else None
        self.goal_namer_fn = default_goal_name if config.goal_namer == "default" else None

    @property
    def config(self) -> Config:
        """The config the store was built or loaded with, fixed for its life: to use other
        values, build a store with them."""
        return self._config

    @property
    def percept_count(self) -> int:
        """The percepts ingested, as the anchors that took them count them."""
        return sum(a.count for a in self.anchors.values())

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
        so that no vector the store keeps breaks that rule."""
        v = self.embedder.embed(text)
        if not self.embedder_is_builtin and not finite_vector(v, self.config.dim):
            if isinstance(v, np.ndarray) and v.shape != (self.config.dim,):
                raise DimensionMismatch(f"embedder output for {text!r} has shape {v.shape}, "
                                        f"store dim is {self.config.dim}")
            raise InvalidInput(f"embedder output for {text!r} is not {self.config.dim} finite floats")
        return v

    def text_entry(self, text: str, vector=None) -> tuple:
        """``(d, v_e, action)``: the one entry that every episodic node with this text
        holds as its ``text``, embedded and extracted once; ``vector``, when given, is
        ``embed(text)`` already made."""
        entry = self.texts.get(text)
        if entry is None:
            entry = self.texts[text] = (text, self.embed(text) if vector is None else vector,
                                        self.intern(extract_action(text, self.config.action_verbs)))
        return entry

    def own_attrs(self, attrs: dict) -> dict:
        """A node's own copy of ``attrs``, whose str keys and str values are the
        store's one objects (see intern)."""
        return {self.intern(k) if type(k) is str else k: self.intern(v) if type(v) is str else v
                for k, v in attrs.items()}

    def intern(self, value):
        """The store's one object equal to ``value``, so that equal videos, actions,
        attrs strings and anchor sets are held once. ``value`` is a str, None or a
        frozenset of ids, never a number: 1, 1.0 and True are one key."""
        return self.interned.setdefault(value, value)

    def ingest(self, rec):
        return ingest_observation(self, rec)

    def distill(self, episode_ids=None):
        from .distill import distill as _distill

        if self.verifier_fn is None or self.goal_namer_fn is None:
            raise ConfigError("external verifier/goal_namer selected but not registered")
        return _distill(self, episode_ids)

    def apply(self, rec):
        return apply_observation(self, rec)

    def retrieve(self, text: str, qtype: str | None = None, constraint=None,
                 person: int | None = None, k: int = 5, include_logic: bool = True):
        q = make_query(self, text, qtype, constraint, person)
        return retrieve(self, q, k, include_logic=include_logic)

    def anchor_by_label(self, label: str) -> int | None:
        """The lowest id of an anchor with this label, or None."""
        return min((i for i, anchor in self.anchors.items() if anchor.label == label), default=None)

    def clone(self) -> "MemoryStore":
        # Its layers have versions of their own, so the copy would build its kept state again: copy
        # none of it, and build the centroid rows that a store with anchors holds, as a load does.
        kept = (self.centroid_rows, self.semantic_postings, self.action_postings, self.logic_rows)
        twin = copy.deepcopy(self, dict.fromkeys(map(id, kept)))
        if self.centroid_rows is not None:
            twin.centroid_rows = Rows(twin.anchors, "centroid_", PERCEPT_KINDS, twin.config.dim)
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
        except (TypeError, ValueError, RecursionError) as exc:  # a cycle in attrs recurses
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
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SnapshotIoError(f"cannot read snapshot {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise CorruptSnapshot(f"snapshot {path} is not UTF-8: {exc}") from None
        collecting = gc.isenabled()
        gc.disable()  # a load's containers all stay live, so a collection would free none
        try:
            return store_from_dict(json.loads(text, parse_constant=_refuse_constant), embedder)
        except json.JSONDecodeError as exc:
            raise CorruptSnapshot(f"snapshot is not valid JSON: {exc}") from None
        finally:
            if collecting:
                gc.enable()

    # -- diagnostics ----------------------------------------------------------

    def stats(self) -> dict:
        edge_total = sum(len(outs) for node in self.logic.values() for outs in node.dag.adj.values())
        count_total = float(sum(
            stat.count for node in self.logic.values() for _, _, stat in node.dag.edges()
        ))
        return {
            "anchors": len(self.anchors),
            "episodic": len(self.episodic),
            "semantic": len(self.semantic),
            "semantic_weight": sum(n.weight for n in self.semantic.values()),
            "logic": len(self.logic),
            "dag_edges": edge_total,
            "dag_transition_count": count_total,
            "observations": len(self.observations),
            "percepts": self.percept_count,
            "pool": len(self.pool),
        }

    def check(self) -> list[str]:
        return check_store(self)


# -- global invariant sweep -----------------------------------------------

# The one type of each field that a snapshot writes as it is, by section (episodic attrs and text
# entries are tested in check_store): a load refuses any other, or reads it back as another value.
_FIELD_TYPES = {"anchor": {"label": str}, "semantic": {"type": str, "attrs": str}, "logic": {"c": str}}


def _ids_in(ids, held) -> bool:
    """Whether the set ``ids`` holds only ints (not bools or equal floats) that ``held`` holds."""
    return set(map(type, ids)) <= {int} and ids <= held


def check_store(store: MemoryStore, derived: bool = True) -> list[str]:
    """Global invariant sweep; returns all violations (empty means healthy).

    It is the one definition of a store that ``save`` writes, so it reports, and never raises
    on, any value a caller has put in a field of an anchor, a logic node, a DAG step or edge, a
    pool entry, an observation, a counter or the clock, or in a node it built for a layer. What
    construction guarantees is not tested: a store's config is valid and fixed, so each text
    entry's action is the one its text gives, and an episodic or semantic node is set once (a new
    node under its id is a layer write, which the kept postings follow). A load builds what the last
    rules check, and skips them with ``derived=False``. A rule over the episodes or the
    observations tests a whole column at once, and names the offenders only when that test fails.
    """
    v, dim = [], store.config.dim

    counters = {"node": store.next_node_id, "anchor": store.next_anchor_id, "logic": store.next_logic_id}
    v += [f"counter {name}: {c!r} is not a positive int"
          for name, c in counters.items() if not (_is_int(c) and c >= 1)]
    ids, held = {}, {}  # each section's ids, sorted, and its nodes in that order
    for kind, nodes, c in (("anchor", store.anchors, store.next_anchor_id),
                           ("episodic", store.episodic, store.next_node_id),
                           ("semantic", store.semantic, store.next_node_id),
                           ("logic", store.logic, store.next_logic_id)):
        if type(nodes) is not Layer:  # whose writes no kept state could follow
            v.append(f"{kind} layer is a {type(nodes).__name__}, not a Layer")
        if not set(map(type, nodes)) <= {int}:
            return v + [f"{kind} ids are not all ints"]  # every rule below sorts them
        ids[kind] = order = sorted(nodes)
        held[kind] = values = list(map(nodes.__getitem__, order))
        # Each counter is the id it hands out next, so no id of its kind may be at or beyond it.
        if _is_int(c):  # one of another type is reported above, and bounds nothing
            v += [f"{kind} {i}: id beyond counter" for i in order[bisect_left(order, c):]]
        for field, field_type in _FIELD_TYPES.get(kind, {}).items():
            column = list(map(attrgetter(field), values))
            if not set(map(type, column)) <= {field_type}:
                v += [f"{kind} {i}: {field} {x!r} is not a {field_type.__name__}"
                      for i, x in zip(order, column) if type(x) is not field_type]

    # Each vector that kept rows own is its row while they are current (core.current); with no
    # rows at all, no centroid is a row (the first percept and a load build them).
    kept = {name: {key: dict(zip(block.ids, block.rows)) for key, block in rows.blocks.items()}
            for name, rows, layer in (("anchor", store.centroid_rows, store.anchors),
                                      ("logic", store.logic_rows, store.logic)) if current(rows, layer)}
    rows = kept.get("anchor", {kind: {} for kind in PERCEPT_KINDS} if store.centroid_rows is None else None)
    for anchor_id, anchor in zip(ids["anchor"], held["anchor"]):
        if anchor.centroid_face is None and anchor.centroid_voice is None:
            v.append(f"anchor {anchor_id}: no centroid")
        for name, c in (("face", anchor.centroid_face), ("voice", anchor.centroid_voice)):
            k = getattr(anchor, f"{name}_count")
            if not (_is_int(k) and (k >= 1 if c is not None else k == 0)):
                v.append(f"anchor {anchor_id}: {name}_count {k!r} is not "
                         + ("an int of at least 1" if c is not None else f"0 without a {name} centroid"))
            if c is not None:
                if not finite_vector(c, dim):
                    v.append(f"anchor {anchor_id}: {name} centroid is not {dim} finite floats")
                if rows is not None and rows[name].pop(anchor_id, None) is not c:
                    v.append(f"anchor {anchor_id}: {name} centroid is not its row of the {name} rows")
    v += [f"{kind} centroid rows of anchors without a {kind} centroid: {sorted(left)}"
          for kind, left in (rows or {}).items() if left]

    anchor_ids, ep_ids, nodes = store.anchors.keys(), ids["episodic"], held["episodic"]
    anchor_sets = [n.anchors for n in nodes]
    if not (set(map(type, anchor_sets)) <= {frozenset}
            and _ids_in(frozenset().union(*set(anchor_sets)), anchor_ids)):
        v += [f"episodic {i}: anchors {a!r} are not a frozenset of anchor ids" for i, a in
              zip(ep_ids, anchor_sets) if type(a) is not frozenset or not _ids_in(a, anchor_ids)]
    # Each of the store's text entries once; a rule on one names the first node that holds it.
    entries = [e for d, e in store.texts.items() if type(e) is tuple and len(e) == 3 and e[0] is d]
    if bad := {id(e) for e in entries if not finite_vector(e[1], dim)}:
        first = dict(zip([id(n.text) for n in reversed(nodes)], reversed(ep_ids)))  # entry -> node
        v += [f"episodic {i}: v_e is not {dim} finite floats"
              for i in sorted(first[e] for e in bad if e in first)]

    for node_id, node in zip(ids["semantic"], held["semantic"]):
        if not (_is_int(node.weight) and node.weight >= 1):
            v.append(f"semantic {node_id}: weight {node.weight!r} is not an int of at least 1")
        if type(node.anchors) is not frozenset or not _ids_in(node.anchors, anchor_ids):
            v.append(f"semantic {node_id}: anchors {node.anchors!r} are not a frozenset of anchor ids")
        if not finite_vector(node.v_s, dim):
            v.append(f"semantic {node_id}: v_s is not {dim} finite floats")

    # The evidence of all procedures at once first: its union is far smaller than the sum.
    links = [node.episodic_links for node in held["logic"]]
    linked = set(map(type, links)) <= {set} and _ids_in(set().union(*links), store.episodic.keys())
    for logic_id, node in zip(ids["logic"], held["logic"]):
        if type(node.steps) is not tuple or not set(map(type, node.steps)) <= {str}:
            v.append(f"logic {logic_id}: steps {node.steps!r} are not a tuple of strings")
        links = node.episodic_links
        if not linked and (type(links) is not set or not set(map(type, links)) <= {int}):
            v.append(f"logic {logic_id}: episodic links are not a set of ints")
        elif not links:
            v.append(f"logic {logic_id}: no episodic evidence")
        elif not linked and not links <= store.episodic.keys():
            v.append(f"logic {logic_id}: dangling episodic link")
        for key, x in (("goal", node.i_goal), ("step", node.i_step)):
            if not finite_vector(x, dim):
                v.append(f"logic {logic_id}: i_{key} is not {dim} finite floats")
            if "logic" in kept and kept["logic"][key].get(logic_id) is not x:
                v.append(f"logic {logic_id}: i_{key} is not its row of the {key} rows")
        dag = node.dag
        if type(dag) is not ProceduralDag:
            v.append(f"logic {logic_id}: dag {dag!r} is not a ProceduralDag")
            continue
        scalars = [("score", node.score)]
        for label, dag_node in dag.nodes.items():
            if type(dag_node.attrs) is not dict:
                v.append(f"logic {logic_id}: {label} attrs {dag_node.attrs!r} is not a dict")
            elif fault := _attrs_fault([dag_node.attrs]):
                v.append(f"logic {logic_id}: {label} attrs {fault}")
            scalars += [(f"{label} success_alpha", dag_node.success_alpha),
                        (f"{label} success_beta", dag_node.success_beta)]
        for src, dst, stat in dag.edges():
            scalars += [(f"{src}->{dst} count", stat.count), (f"{src}->{dst} gamma", stat.gamma)]
        bad = [f"logic {logic_id}: {name} {x!r} is not a finite number"
               for name, x in scalars if not _is_finite_number(x)]
        if bad:
            v.extend(bad)
            continue  # the DAG checks below compare these numbers
        for violation in check_valid(dag):
            v.append(f"logic {logic_id}: {violation}")
        for src in sorted(dag.adj):
            outs = dag.adj[src]
            if not outs:
                continue
            total = sum(transition_prob(dag, src, dst) for dst in sorted(outs))
            if abs(total - 1.0) > 1e-9:
                v.append(f"logic {logic_id}: transition probs at {src} sum to {total}")

    if len(store.pool) >= store.config.pool_trigger:
        v.append("candidate pool at or beyond trigger without distillation")
    v += [f"pool entry references unknown observation {i!r}"
          for i in store.pool if not (_is_int(i) and i in store.observations)]
    pooled = [i for i in store.pool if type(i) is int]  # another is reported above
    v += [f"pool entry {i} is listed {n} times, not once"
          for i, n in Counter(pooled).items() if n > 1]
    if not set(map(type, store.observations)) <= {int}:
        return v + ["observation ids are not all ints"]  # the rules below sort them
    obs_ids = sorted(store.observations)
    metas = list(map(store.observations.__getitem__, obs_ids))
    episodes, ts = [m.episodes for m in metas], [m.t for m in metas]
    if not set(map(type, episodes)) <= {list}:
        return v + [f"observation {i}: episodes {e!r} are not a list"
                    for i, e in zip(obs_ids, episodes) if type(e) is not list]  # the rules below walk them
    faults = len(v)
    if not (set(map(type, ts)) <= {float} and math.isfinite(sum(ts))):  # a finite sum proves them
        v += [f"observation {i}: t {t!r} is not a finite number"
              for i, t in zip(obs_ids, ts) if not _is_finite_number(t)]
    videos = list(map(attrgetter("video"), metas))
    if not set(map(type, videos)) <= {str}:
        v += [f"observation {i}: video {x!r} is not a str"
              for i, x in zip(obs_ids, videos) if type(x) is not str]
    if not derived:
        return v

    # What a load builds, so that a store holding it otherwise would load as another: the clock as each
    # video's latest observation; each node's id from its key; each episode's outcome, and attrs JSON
    # carries; its text as the store's one entry for it; and its observation as the one listing it.
    if len(v) == faults:  # the clock compares the t and the videos tested above
        clock = store.video_clock  # each entry one of its video's observations, by identity, of top t
        clocked = set(compress(videos, map(is_, map(clock.get, videos), metas)))
        if not (len(clocked) == len(clock) == len(set(videos))
                and all(map(le, ts, map(attrgetter("t"), map(clock.__getitem__, videos))))):
            v.append("video_clock is not each video's latest observation")
    for kind, nodes_of_kind in held.items():
        own = [n.id for n in nodes_of_kind]
        if not set(map(type, own)) <= {int} or own != ids[kind]:
            v += [f"{kind} {i}: id {x!r} is not its key"
                  for i, x in zip(ids[kind], own) if type(x) is not int or x != i]
    attrs = [n.attrs for n in nodes]
    if not set(map(type, attrs)) <= {dict} or _attrs_fault(attrs):
        v += [f"episodic {i}: attrs {x!r} is not a dict" if type(x) is not dict else
              f"episodic {i}: attrs {fault}"
              for i, x in zip(ep_ids, attrs) if type(x) is not dict or (fault := _attrs_fault([x]))]
    outcomes = [n.outcome for n in nodes]
    if not (set(map(type, outcomes)) <= {str} and set(outcomes) <= set(OUTCOMES)):
        v += [f"episodic {i}: bad outcome {o!r}"
              for i, o in zip(ep_ids, outcomes) if type(o) is not str or o not in OUTCOMES]
    own = set(map(id, entries))
    if not own.issuperset(map(id, map(attrgetter("text"), nodes))):
        v += [f"episodic {i}: text is not the store's entry for its text"
              for i, n in zip(ep_ids, nodes) if id(n.text) not in own]
    listed = list(chain.from_iterable(episodes))
    if set(map(type, listed)) <= {int} and sorted(listed) == ep_ids:  # each episode listed once
        lens = np.fromiter(map(len, episodes), np.intp, len(episodes))
        owners = map(metas.__getitem__, np.repeat(np.arange(len(lens)), lens).tolist())  # their listers
        if all(map(is_, map(attrgetter("obs"), map(store.episodic.__getitem__, listed)), owners)):
            return v
    else:
        listings = Counter(e for e in listed if type(e) is int)
        v += [f"episodic {i}: listed {listings[i]} times by observations, not once"
              for i in ep_ids if listings[i] != 1]
    for obs_id, meta in zip(obs_ids, metas):
        for ep_id in meta.episodes:
            node = store.episodic.get(ep_id) if type(ep_id) is int else None
            if node is None:
                v.append(f"observation {obs_id}: missing episode {ep_id!r}")
            elif node.obs is not meta:
                v.append(f"observation {obs_id}: episode {ep_id} does not hold it as its observation")
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


def _dag_rows(dag: ProceduralDag) -> dict:
    """``[label, attrs, success_alpha, success_beta]`` rows, START, the sorted
    steps, GOAL; ``[src, dst, count, gamma]`` rows sorted by ``(src, dst)``."""
    labels = [START] + sorted(dag.step_labels()) + [GOAL]
    return {
        "nodes": [[label, dag.nodes[label].attrs, dag.nodes[label].success_alpha,
                   dag.nodes[label].success_beta] for label in labels],
        "edges": [[src, dst, stat.count, stat.gamma]
                  for src, dst, stat in sorted(dag.edges(), key=lambda e: (e[0], e[1]))],
    }


def _dag_from_rows(data: dict) -> ProceduralDag:
    nodes, edges = data["nodes"], data["edges"]
    if not all(type(row) is list and len(row) == 4 for row in nodes + edges):
        raise CorruptSnapshot("dag rows are not 4 fields each")
    labels, keys = [row[0] for row in nodes], [(row[0], row[1]) for row in edges]
    if labels != [START, *sorted(set(labels[1:-1]) - {START, GOAL}), GOAL] or keys != sorted(set(keys)):
        raise CorruptSnapshot("dag rows are not START, the sorted steps, GOAL, then sorted edges")
    dag = ProceduralDag.__new__(ProceduralDag)
    dag.nodes, dag.adj = {}, {}
    for label, attrs, success_alpha, success_beta in nodes:
        dag.add_node(label, {**attrs}, success_alpha, success_beta)  # ** takes only an object
    for src, dst, count, gamma in edges:
        dag.add_edge(src, dst, count, gamma)
    return dag


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
        "counters": {"node": store.next_node_id, "anchor": store.next_anchor_id,
                     "logic": store.next_logic_id},
        "anchors": [
            {"id": a.id, "label": a.label, "face_count": a.face_count, "voice_count": a.voice_count,
             "face": None if a.centroid_face is None else _vec(a.centroid_face),
             "voice": None if a.centroid_voice is None else _vec(a.centroid_voice)}
            for _, a in sorted(store.anchors.items())
        ],
        "episodic": episodic,
        "semantic": [{"id": n.id, "type": n.type, "attrs": n.attrs, "anchors": sorted(n.anchors),
                      "weight": n.weight} for _, n in sorted(store.semantic.items())],
        "logic": [
            {"id": n.id, "c": n.c, "score": n.score, "steps": list(n.steps),
             "episodic_links": _runs(_gaps(sorted(n.episodic_links))),
             "i_goal": _vec(n.i_goal), "i_step": _vec(n.i_step), "dag": _dag_rows(n.dag)}
            for _, n in sorted(store.logic.items())
        ],
        "pool": list(store.pool),
        "observations": observations,
    }


def _columns(store: MemoryStore) -> tuple:
    """The observations, in id order, and their episodes, in order, as version 8 columns, with
    the tables of each distinct video, text, anchor set and attrs object of distinct canonical
    JSON, in order of first use; every column but ``_PLAIN_COLUMNS`` as ``_runs``."""
    obs_ids = sorted(store.observations)
    metas = list(map(store.observations.__getitem__, obs_ids))
    nodes = list(map(store.episodic.__getitem__, chain.from_iterable(m.episodes for m in metas)))
    videos, texts, anchors, attrs = {}, {}, {}, {}  # attrs: canonical JSON -> (index, attrs)
    by_repr: dict = {}  # equal reprs are equal JSON, and a repr is the cheaper key
    attrs_at = []
    for a in map(attrgetter("attrs"), nodes):
        at = by_repr.get(key := repr(a))
        if at is None:
            at = by_repr[key] = attrs.setdefault(json.dumps(a, sort_keys=True), (len(attrs), a))[0]
        attrs_at.append(at)
    observations = {"id": _runs(_gaps(obs_ids)), "t": [m.t for m in metas],
                    "video_at": _runs([videos.setdefault(m.video, len(videos)) for m in metas]),
                    "episode_count": _runs([len(m.episodes) for m in metas])}
    episodic = {"id": _runs(_gaps([n.id for n in nodes])),
                "outcome": _runs([OUTCOMES.index(n.outcome) for n in nodes]),
                "text_at": [texts.setdefault(n.text[0], len(texts)) for n in nodes],  # by its d
                "anchors_at": _runs([anchors.setdefault(n.anchors, len(anchors)) for n in nodes]),
                "attrs_at": attrs_at}
    return ({"videos": list(videos), **observations},
            {"texts": list(texts), "attrs": [a for _, a in attrs.values()],
             "anchors": list(map(sorted, anchors)), **episodic})


def _refuse_constant(name: str):  # NaN or Infinity: json reads them, and a save never writes them
    raise CorruptSnapshot(f"snapshot holds {name}, which is not a finite number")


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


def _add_observations(store: MemoryStore, tables: dict, observations: dict) -> None:
    """Build the observations and their episodic nodes from version 8 columns, each table entry
    once (a video, a text's entry with its vector and action, an anchor set, an attrs object), and
    each node pointing at its entries and its observation. Each run column is expanded (``_unruns``)
    to at most its section's plain columns' length, ``t`` for the observations and ``text_at`` for
    the episodes. Anything but the canonical columns and tables of some store is refused."""
    texts, attrs, anchor_sets = tables["texts"], tables["attrs"], tables["anchors"]
    videos = observations["videos"]
    plain = [observations["t"], tables["text_at"], tables["attrs_at"]]
    if not set(map(type, [texts, attrs, anchor_sets, videos, *plain])) <= {list}:
        raise CorruptSnapshot("observation and episodic columns and tables are not all lists")
    sections = []
    for what, section, names, rows in (("observation", observations, _OBSERVATION_COLUMNS, plain[0]),
                                       ("episodic", tables, _EPISODE_COLUMNS, plain[1])):
        sections.append(columns := [section[name] if name in _PLAIN_COLUMNS else
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
    _refuse_unless_first_uses(attrs_at, [json.dumps(a, sort_keys=True, allow_nan=False)  # no NaN
                                         for a in attrs], "episodic attrs")
    intern = store.interned.setdefault  # store.intern, without a call per entry
    videos = [intern(video, video) for video in videos]
    anchor_sets = [intern(a := frozenset(ids), a) for ids in anchor_sets]
    entries, attrs = [store.text_entry(d) for d in texts], [store.own_attrs(a) for a in attrs]
    metas = [ObservationMeta(videos[at], ep_ids[end - n:end], t)
             for at, t, n, end in zip(video_at, ts, counts, accumulate(counts))]
    _increasing([m.episodes for m in metas], "the episode ids of an observation")
    store.observations = dict(zip(obs_ids, metas))
    nodes = dict(zip(ep_ids, map(  # fields in declaration order
        EpisodicNode, ep_ids, map(entries.__getitem__, text_at),
        chain.from_iterable(map(repeat, metas, counts)), map(anchor_sets.__getitem__, anchors_at),
        map(OUTCOMES.__getitem__, outcomes), map(dict, map(attrs.__getitem__, attrs_at)))))
    if len(nodes) != len(ep_ids):
        raise CorruptSnapshot("an episode is listed by two observations")
    store.episodic = Layer(zip(order := sorted(nodes), map(nodes.__getitem__, order)))  # in id order


def store_from_dict(data: dict, embedder=None) -> MemoryStore:
    """Rebuild a store from a version 8 snapshot dict; every other version is
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
        store.next_node_id, store.next_anchor_id, store.next_logic_id = (
            counters["node"], counters["anchor"], counters["logic"])
        for section in ("anchors", "semantic", "logic"):
            _increasing([[entry["id"] for entry in data[section]]], f"{section} ids")
        for a in data["anchors"]:
            face, voice = (None if a[kind] is None else
                           _vec_from(a[kind], config.dim, f"anchor {a['id']} {kind}")
                           for kind in ("face", "voice"))
            store.anchors[a["id"]] = EntityAnchor(a["id"], a["label"], face, voice,
                                                  a["face_count"], a["voice_count"])
        store.centroid_rows = Rows(store.anchors, "centroid_", PERCEPT_KINDS, config.dim)
        _add_observations(store, _keyed(data["episodic"], "episodic"),
                          _keyed(data["observations"], "observations"))
        _increasing([s["anchors"] for s in data["semantic"]], "semantic anchors")
        for s in data["semantic"]:
            v_s = store.embed(s["attrs"]) if type(s["attrs"]) is str else None  # check_store reports it
            store.semantic[s["id"]] = SemanticNode(s["id"], s["type"], s["attrs"], v_s,
                                                   store.intern(frozenset(s["anchors"])), s["weight"])
        episodic = store.episodic
        for l in data["logic"]:
            what = f"logic {l['id']} episodic links"
            try:  # each link its node's id, as ingest links it
                links = set(map(attrgetter("id"), map(episodic.__getitem__, _ids(
                    _unruns(l["episodic_links"], len(episodic), what), what))))
            except KeyError:
                raise CorruptSnapshot(f"logic {l['id']}: dangling episodic link") from None
            node = LogicNode(
                id=l["id"], c=l["c"],
                i_goal=_vec_from(l["i_goal"], config.dim, f"logic {l['id']} i_goal"),
                i_step=_vec_from(l["i_step"], config.dim, f"logic {l['id']} i_step"),
                dag=_dag_from_rows(_keyed(l["dag"], "dag")),
                episodic_links=links,
                score=l["score"],
                steps=tuple(l["steps"]),
            )
            store.logic[node.id] = node
        store.pool = list(data["pool"])  # check_store reports an entry that is no observation's id
        violations = check_store(store, derived=False)  # derived above, and the clock below
    except ConfigError as exc:
        raise CorruptSnapshot(f"snapshot config invalid: {exc}") from None
    except (KeyError, TypeError, ValueError, DimensionMismatch, MissingEdge) as exc:
        raise CorruptSnapshot(f"snapshot structure invalid: {exc!r}") from None
    if violations:
        raise CorruptSnapshot(violations[0])
    for meta in store.observations.values():  # each video's latest, by t: the last of equal ones
        if (last := store.video_clock.get(meta.video)) is None or last.t <= meta.t:
            store.video_clock[meta.video] = meta
    return store
