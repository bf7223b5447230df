"""The memory store: three node layers, anchors, persistence.

One store is one snapshot file. Snapshots are canonical JSON: keys sorted,
no whitespace, collections ordered by id, scalar floats in Python's shortest
round-trip decimal form, so two saves of the same in-memory state are
byte-identical. A stored vector is one base64 string, a little-endian mask of
its entries with non-zero bits and then those entries as little-endian
float64, so a load reproduces it bit for bit. Each observation is a row that
holds its episodic nodes, with their one shared ``t``; each distinct episodic
text and attrs object is stored once, in a table the node rows index. Id
lists are strictly increasing, evidence links are gap-coded and DAGs are
rows, and a load refuses all but the canonical form. Nothing a load can
derive is stored: a load recomputes text vectors with the embedder the
snapshot names and each episode's action with ``extract_action`` (once per
distinct text). Nor does a store hold what it can compute: an anchor's count
and the percept count are sums of the face and voice counts, and the anchors
of a procedure are those of its evidence.
"""

from __future__ import annotations

import base64
import copy
import gc
import json
import os
from collections import Counter
from itertools import accumulate, chain
from operator import itemgetter, lt

import numpy as np

from .core import Config, HashingEmbedder, _is_finite_number, _is_int, embedder_identity
from .dag import GOAL, START, ProceduralDag, check_valid, transition_prob
from .distill import LogicNode, default_goal_name, extract_action, verify_default
from .errors import (
    ConfigError,
    CorruptSnapshot,
    DimensionMismatch,
    EmbedderMismatch,
    MissingEdge,
    SnapshotIoError,
)
from .ingest import (
    OUTCOMES,
    PERCEPT_KINDS,
    CentroidRows,
    EntityAnchor,
    EpisodicNode,
    ObservationMeta,
    SemanticNode,
    ingest_observation,
)
from .maintain import PoolEntry, apply_observation
from .retrieve import make_query, retrieve

SNAPSHOT_VERSION = 5
# The sections of one type in a version 5 snapshot, the one version a load reads:
# a load iterates them, so an empty section of another type would load, and
# re-save as another file.
_SECTION_TYPES = {"anchors": list, "semantic": list, "logic": list, "pool": list, "video_clock": dict}


class MemoryStore:
    """Whole-system state plus thin facade methods over the module operations.

    Single-writer discipline: ingest, distill, maintenance, and fusion are
    serialized by the caller; reads may run concurrently between writes.
    """

    def __init__(self, config: Config | None = None, embedder=None):
        config = config or Config()
        config.validate()
        self.config = config.copy()
        if embedder is None:
            embedder = HashingEmbedder(self.config.dim)
        elif not _is_int(dim := getattr(embedder, "dim", None)) or dim != self.config.dim:
            raise ConfigError(f"embedder dim {dim!r} is not the config dim {self.config.dim}")
        self.embedder = embedder
        self.anchors: dict[int, EntityAnchor] = {}
        self.centroid_rows: CentroidRows | None = None  # built at the first percept
        self.episodic: dict[int, EpisodicNode] = {}
        self.texts: dict[str, tuple] = {}  # each episodic text's (d, v_e, action), see text_entry
        self.interned: dict = {}  # see intern
        self.semantic: dict[int, SemanticNode] = {}
        self.logic: dict[int, LogicNode] = {}
        self.observations: dict[int, ObservationMeta] = {}
        self.video_clock: dict[str, float] = {}
        self.pool: list[PoolEntry] = []
        self.next_node_id = 1
        self.next_anchor_id = 1
        self.next_logic_id = 1
        self.retrieval_calls = 0
        self.classifier = None
        self.verifier_fn = verify_default if self.config.verifier == "default" else None
        self.goal_namer_fn = default_goal_name if self.config.goal_namer == "default" else None

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

    def embed(self, text: str) -> np.ndarray:
        return self.embedder.embed(text)

    def text_entry(self, text: str) -> tuple:
        """``(d, v_e, action)``: the one str, vector and action that every episodic
        node with this text holds, embedded and extracted once."""
        entry = self.texts.get(text)
        if entry is None:
            entry = self.texts[text] = (text, self.embed(text), self.intern(
                extract_action(text, self.config.action_verbs)))
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
        # The rows first: their copy maps each centroid view to its new row,
        # so the copied anchors hold views of the copied rows, not copies.
        # The same memo keeps each object that nodes share (a text's vector,
        # an anchor set) one object in the copy.
        memo: dict = {}
        copy.deepcopy(self.centroid_rows, memo)
        return copy.deepcopy(self, memo)

    # -- persistence ----------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the snapshot atomically and durably: the temp file is synced
        before it replaces ``path``, and the directory after."""
        faults = _config_faults(self.config) or _underivable(self)
        if faults:
            raise SnapshotIoError(f"cannot save {path}: {faults[0]}")
        try:
            payload = json.dumps(snapshot_dict(self), sort_keys=True,
                                 separators=(",", ":"), allow_nan=False)
        except (TypeError, ValueError) as exc:
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
            return store_from_dict(json.loads(text), embedder)
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


def _config_faults(config: Config) -> list[str]:
    """The violation of an invalid ``config``, as ``check()`` reports it and
    ``save`` refuses it: a load would refuse the snapshot's config."""
    try:
        config.validate()
    except ConfigError as exc:
        return [f"config: {exc}"]
    return []


def _underivable(store: MemoryStore) -> list[str]:
    """What a load derives that ``store`` holds otherwise, so that its snapshot would
    load as another store: an episode not listed by exactly one observation of its
    video, an action other than the one its text gives, or the episodes of one
    observation without one ``t`` (by ``repr``). A load builds all of it, so ``save``
    refuses such a store with the first of these, and ``check_store`` reports them."""
    v: list[str] = []
    if _config_faults(store.config):
        actions = {}  # only from valid verbs; check_store reports the config
    else:
        verbs = store.config.action_verbs
        actions = {d: extract_action(d, verbs) for d in {node.d for node in store.episodic.values()}}
    listings = Counter(ep_id for meta in store.observations.values() for ep_id in meta.episodes)
    for node_id, node in sorted(store.episodic.items()):
        if node.d in actions and node.action != actions[node.d]:
            v.append(f"episodic {node_id}: action {node.action!r} is not the one its text gives")
        if listings[node_id] != 1:
            v.append(f"episodic {node_id}: listed {listings[node_id]} times by observations, not once")
    for obs_id, meta in sorted(store.observations.items()):
        for ep_id in meta.episodes:
            node = store.episodic.get(ep_id)
            if node is None:
                v.append(f"observation {obs_id}: missing episode {ep_id}")
            elif node.video != meta.video:
                v.append(f"observation {obs_id}: episode {ep_id} video mismatch")
        if len(meta.episodes) > 1 and len({repr(store.episodic[e].t) for e in meta.episodes
                                           if e in store.episodic}) > 1:
            v.append(f"observation {obs_id}: episodes do not share one t")
    return v


def check_store(store: MemoryStore, derived: bool = True) -> list[str]:
    """Global invariant sweep; returns all violations (empty means healthy). A load,
    which builds what ``_underivable`` checks, skips it with ``derived=False``."""
    v = _config_faults(store.config)
    dim = store.config.dim

    def check_vector(owner: str, x) -> None:
        # The one rule for every stored vector, whichever code or embedder made it: a float
        # ndarray of shape (dim,) with only finite entries (a finite x·x proves it, cheaply;
        # a finite x whose x·x overflows falls through to the entry test).
        ok = isinstance(x, np.ndarray) and x.dtype.kind == "f" and x.shape == (dim,)
        if ok:
            with np.errstate(over="ignore"):
                ok = x.dot(x) < np.inf or np.isfinite(x).all()
        if not ok:
            v.append(f"{owner} is not {dim} finite floats")

    rows = {kind: {} for kind in PERCEPT_KINDS}
    if store.centroid_rows is not None:
        for kind, block in store.centroid_rows.blocks.items():
            rows[kind] = dict(zip(block.ids, block.rows))
            with np.errstate(over="ignore"):  # by np.dot, not by the code that keeps them
                norms = [np.sqrt(np.dot(row, row)) for row in chain.from_iterable(block.chunks())]
            for anchor_id, kept, norm in zip(block.ids, chain.from_iterable(block.norms()), norms):
                if kept != norm and norm == norm:  # a NaN row is the vector rule's
                    v.append(f"anchor {anchor_id}: kept {kind} norm is not its row's norm")
    for anchor_id, anchor in sorted(store.anchors.items()):
        if anchor_id >= store.next_anchor_id:
            v.append(f"anchor {anchor_id}: id beyond counter")
        if anchor.centroid_face is None and anchor.centroid_voice is None:
            v.append(f"anchor {anchor_id}: no centroid")
        for name, c in (("face", anchor.centroid_face), ("voice", anchor.centroid_voice)):
            k = getattr(anchor, f"{name}_count")
            if not (_is_int(k) and (k >= 1 if c is not None else k == 0)):
                v.append(f"anchor {anchor_id}: {name}_count {k!r} is not "
                         + ("an int of at least 1" if c is not None else f"0 without a {name} centroid"))
            if c is not None:
                check_vector(f"anchor {anchor_id}: {name} centroid", c)
                if rows[name].pop(anchor_id, None) is not c:
                    v.append(f"anchor {anchor_id}: {name} centroid is not its row of the {name} rows")
    for kind, left in rows.items():
        if left:
            v.append(f"{kind} centroid rows of anchors without a {kind} centroid: {sorted(left)}")

    anchor_ids = set(store.anchors)
    first_of_text: dict = {}
    for node_id, node in sorted(store.episodic.items()):
        if node_id >= store.next_node_id:
            v.append(f"episodic {node_id}: id beyond counter")
        if not _is_finite_number(node.t):
            v.append(f"episodic {node_id}: t {node.t!r} is not a finite number")
        if node.outcome not in OUTCOMES:
            v.append(f"episodic {node_id}: bad outcome {node.outcome!r}")
        if not node.anchors <= anchor_ids:
            v.append(f"episodic {node_id}: dangling anchor reference")
        entry = store.texts.get(node.d)
        if first_of_text.setdefault(node.d, node_id) == node_id and entry is not None:
            check_vector(f"episodic {node_id}: v_e", entry[1])  # once per text
        if entry is None or entry[1] is not node.v_e:
            v.append(f"episodic {node_id}: v_e is not the store's vector for its text")

    for node_id, node in sorted(store.semantic.items()):
        if node.weight < 1:
            v.append(f"semantic {node_id}: weight {node.weight} below 1")
        if not node.anchors <= anchor_ids:
            v.append(f"semantic {node_id}: dangling anchor reference")
        check_vector(f"semantic {node_id}: v_s", node.v_s)

    episodic_ids = set(store.episodic)
    for logic_id, node in sorted(store.logic.items()):
        scalars = [("score", node.score)]
        for label, dag_node in node.dag.nodes.items():
            scalars += [(f"{label} success_alpha", dag_node.success_alpha),
                        (f"{label} success_beta", dag_node.success_beta)]
        for src, dst, stat in node.dag.edges():
            scalars += [(f"{src}->{dst} count", stat.count), (f"{src}->{dst} gamma", stat.gamma)]
        bad = [f"logic {logic_id}: {name} {x!r} is not a finite number"
               for name, x in scalars if not _is_finite_number(x)]
        if bad:
            v.extend(bad)
            continue  # the DAG checks below compare these numbers
        for violation in check_valid(node.dag):
            v.append(f"logic {logic_id}: {violation}")
        if not node.episodic_links:
            v.append(f"logic {logic_id}: no episodic evidence")
        if not node.episodic_links <= episodic_ids:
            v.append(f"logic {logic_id}: dangling episodic link")
        check_vector(f"logic {logic_id}: i_goal", node.i_goal)
        check_vector(f"logic {logic_id}: i_step", node.i_step)
        for src in sorted(node.dag.adj):
            outs = node.dag.adj[src]
            if not outs:
                continue
            total = sum(transition_prob(node.dag, src, dst) for dst in sorted(outs))
            if abs(total - 1.0) > 1e-9:
                v.append(f"logic {logic_id}: transition probs at {src} sum to {total}")

    for video, t in sorted(store.video_clock.items()):
        if not _is_finite_number(t):
            v.append(f"video_clock {video!r}: {t!r} is not a finite number")

    trigger = store.config.pool_trigger  # a non-number is the config's violation
    if isinstance(trigger, (int, float)) and len(store.pool) >= trigger:
        v.append("candidate pool at or beyond trigger without distillation")
    for entry in store.pool:
        if entry.observation_id not in store.observations:
            v.append(f"pool entry references unknown observation {entry.observation_id}")
        check_vector(f"pool entry {entry.observation_id}: vector", entry.vector)
    return v + _underivable(store) if derived else v


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


def _gaps(ids: list) -> list:
    """Increasing ids as the first, then the gap to each next one."""
    return [b - a for a, b in zip([0] + ids, ids)]


def snapshot_dict(store: MemoryStore) -> dict:
    observations, episodic = _observation_rows(
        (obs_id, m.video, [(n.id, n.t, n.d, sorted(n.anchors), n.outcome, n.attrs)
                           for n in map(store.episodic.__getitem__, m.episodes)])
        for obs_id, m in sorted(store.observations.items()))
    return {
        "version": SNAPSHOT_VERSION,
        "embedder": embedder_identity(store.embedder),
        "config": store.config.to_dict(),
        "counters": {
            "node": store.next_node_id,
            "anchor": store.next_anchor_id,
            "logic": store.next_logic_id,
        },
        "anchors": [
            {"id": a.id, "label": a.label, "face_count": a.face_count, "voice_count": a.voice_count,
             "face": None if a.centroid_face is None else _vec(a.centroid_face),
             "voice": None if a.centroid_voice is None else _vec(a.centroid_voice)}
            for _, a in sorted(store.anchors.items())
        ],
        "episodic": episodic,
        "semantic": [
            {
                "id": n.id,
                "type": n.type,
                "attrs": n.attrs,
                "anchors": sorted(n.anchors),
                "weight": n.weight,
            }
            for _, n in sorted(store.semantic.items())
        ],
        "logic": [
            {"id": n.id, "c": n.c, "score": n.score, "steps": list(n.steps),
             "episodic_links": _gaps(sorted(n.episodic_links)),
             "i_goal": _vec(n.i_goal), "i_step": _vec(n.i_step), "dag": _dag_rows(n.dag)}
            for _, n in sorted(store.logic.items())
        ],
        "pool": [
            {
                "observation": e.observation_id,
                "vector": _vec(e.vector),
                "actions": list(e.actions),
            }
            for e in store.pool
        ],
        "observations": observations,
        "video_clock": dict(sorted(store.video_clock.items())),
    }


def _observation_rows(observations) -> tuple:
    """``(id, video, [(id, t, text, anchors, outcome, attrs), ...])`` as version 5 rows,
    ``[id, video, t or null, [[id, text, anchors, outcome, attrs], ...]]``, and the tables
    of each distinct text, and attrs of distinct canonical JSON, in order of first use."""
    texts, attrs, rows = {}, {}, []  # attrs: canonical JSON -> (index, attrs)
    by_repr: dict = {}  # equal reprs are equal JSON, and a repr is the cheaper key
    for obs_id, video, nodes in observations:
        episodes = []
        for node_id, _, d, anchors, outcome, a in nodes:
            at = by_repr.get(key := repr(a))
            if at is None:
                at = by_repr[key] = attrs.setdefault(json.dumps(a, sort_keys=True), (len(attrs), a))[0]
            episodes.append([node_id, texts.setdefault(d, len(texts)), anchors,
                             OUTCOMES.index(outcome), at])
        rows.append([obs_id, video, nodes[0][1] if nodes else None, episodes])
    return rows, {"texts": list(texts), "attrs": [a for _, a in attrs.values()]}


def _increasing(lists: list, what: str) -> None:
    """Refuse unless each of ``lists`` is a list of ints (not true or 1.0), strictly increasing."""
    if not (set(map(type, lists)) <= {list} and set(map(type, chain.from_iterable(lists))) <= {int}
            and all(all(map(lt, ids, ids[1:])) for ids in lists if len(ids) > 1)):
        raise CorruptSnapshot(f"{what} are not ints in strictly increasing order")


def _rows(table, width: int, what: str) -> list:
    """``table`` if it is rows of ``width`` fields in strictly increasing int id order."""
    if not (type(table) is list and set(map(type, table)) <= {list} and set(map(len, table)) <= {width}):
        raise CorruptSnapshot(f"{what} rows are not {width} fields each")
    _increasing([[row[0] for row in table]], f"the {what} rows' ids")
    return table


def _refuse_unless_first_uses(indexes, keys: list, what: str) -> None:
    """Refuse unless a table's entries, by ``keys``, are distinct, and the
    indexes into it are ints whose first uses are 0, 1, ... to its last."""
    # ints by type first: true and 1.0 would pass for 1 in the dict
    if (not set(map(type, indexes)) <= {int} or len(set(keys)) != len(keys)
            or list(dict.fromkeys(indexes)) != list(range(len(keys)))):
        raise CorruptSnapshot(f"episodic {what} table is not each distinct {what} once, "
                              "in order of first use")


def _add_observations(store: MemoryStore, tables: dict, observations: list) -> None:
    """Build the observations and their episodic nodes from version 5 rows,
    deriving each text's vector and action once. Anything but the canonical
    rows and tables of some store is refused."""
    texts, attrs = tables["texts"], tables["attrs"]
    if not (all(isinstance(d, str) for d in texts) and all(isinstance(a, dict) for a in attrs)):
        raise CorruptSnapshot("episodic texts are not all strings, or attrs not all objects")
    rows = [row for observation in _rows(observations, 4, "observation") for row in observation[3]]
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {5}):
        raise CorruptSnapshot("episode rows are not 5 fields each")
    if bad := next((o for o in observations if type(o[3]) is not list
                    or (o[2] is None) != (not o[3])), None):
        raise CorruptSnapshot(f"observation {bad[0]}: t {bad[2]!r} is not null exactly when it "
                              "lists no episodes")
    if not all(type(o[1]) is str for o in observations):  # intern takes no number
        raise CorruptSnapshot("observation videos are not all strings")
    _, text_at, anchors, outcomes, attrs_at = zip(*rows) if rows else ((),) * 5
    _increasing(anchors, "episodic anchors")
    if not (set(map(type, outcomes)) <= {int} and set(outcomes) <= set(range(len(OUTCOMES)))):
        raise CorruptSnapshot(f"episodic outcomes are not indexes into {OUTCOMES}")
    _refuse_unless_first_uses(text_at, texts, "text")
    _refuse_unless_first_uses(attrs_at, [json.dumps(a, sort_keys=True) for a in attrs], "attrs")
    entries = [store.text_entry(d) for d in texts]
    attrs = [store.own_attrs(a) for a in attrs]
    nodes = {}
    for obs_id, video, t, episodes in observations:
        video = store.intern(video)
        store.observations[obs_id] = ObservationMeta(video, list(map(itemgetter(0), episodes)))
        for node_id, text, anchors, outcome, at in episodes:  # fields in declaration order
            d, v_e, action = entries[text]
            nodes[node_id] = EpisodicNode(node_id, t, d, v_e, video, store.intern(frozenset(anchors)),
                                          action, OUTCOMES[outcome], dict(attrs[at]))
    _increasing([m.episodes for m in store.observations.values()], "the episode ids of an observation")
    if len(nodes) != len(rows):
        raise CorruptSnapshot("an episode is listed by two observations")
    store.episodic = {i: nodes[i] for i in sorted(nodes)}  # in id order, as ingest made them


def store_from_dict(data: dict, embedder=None) -> MemoryStore:
    """Rebuild a store from a version 5 snapshot dict; every other version is
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
        config = Config.from_dict(data["config"])
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
        store.next_node_id = data["counters"]["node"]
        store.next_anchor_id = data["counters"]["anchor"]
        store.next_logic_id = data["counters"]["logic"]
        for section in ("anchors", "semantic", "logic"):
            _increasing([[entry["id"] for entry in data[section]]], f"{section} ids")
        for a in data["anchors"]:
            face, voice = (None if a[kind] is None else
                           _vec_from(a[kind], config.dim, f"anchor {a['id']} {kind}")
                           for kind in ("face", "voice"))
            store.anchors[a["id"]] = EntityAnchor(a["id"], a["label"], face, voice,
                                                  a["face_count"], a["voice_count"])
        store.centroid_rows = CentroidRows(store.anchors, config.dim)
        _add_observations(store, data["episodic"], data["observations"])
        _increasing([s["anchors"] for s in data["semantic"]], "semantic anchors")
        for s in data["semantic"]:
            if not isinstance(s["attrs"], str):
                raise CorruptSnapshot(f"semantic {s['id']}: attrs is not a string")
            store.semantic[s["id"]] = SemanticNode(s["id"], s["type"], s["attrs"], store.embed(s["attrs"]),
                                                   store.intern(frozenset(s["anchors"])), s["weight"])
        episodic = store.episodic
        for l in data["logic"]:
            gaps = l["episodic_links"]  # a gap below 1 or not an int: not increasing
            links = list(accumulate(gaps)) if set(map(type, gaps)) <= {int} else gaps
            _increasing([links], f"logic {l['id']} episodic links")
            node = LogicNode(
                id=l["id"], c=l["c"],
                i_goal=_vec_from(l["i_goal"], config.dim, f"logic {l['id']} i_goal"),
                i_step=_vec_from(l["i_step"], config.dim, f"logic {l['id']} i_step"),
                dag=_dag_from_rows(l["dag"]),
                # each link its node's id, as ingest links it; a dangling one stays for check_store
                episodic_links={episodic[i].id if i in episodic else i for i in links},
                score=l["score"],
                steps=tuple(l["steps"]),
            )
            store.logic[node.id] = node
        for p in data["pool"]:
            if type(p["actions"]) is not list or not set(map(type, p["actions"])) <= {str}:
                raise CorruptSnapshot(
                    f"pool entry {p['observation']}: actions are not a list of strings")
            store.pool.append(
                PoolEntry(p["observation"],
                          _vec_from(p["vector"], config.dim, f"pool entry {p['observation']}"),
                          tuple(p["actions"]))
            )
        store.video_clock = {store.intern(video): t for video, t in data["video_clock"].items()}
        violations = check_store(store, derived=False)  # derived above
    except CorruptSnapshot:
        raise
    except ConfigError as exc:
        raise CorruptSnapshot(f"snapshot config invalid: {exc}") from None
    except (KeyError, TypeError, ValueError, DimensionMismatch, MissingEdge) as exc:
        raise CorruptSnapshot(f"snapshot structure invalid: {exc!r}") from None
    if violations:
        raise CorruptSnapshot(violations[0])
    return store
