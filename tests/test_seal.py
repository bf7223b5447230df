"""Set once down to the vectors and the procedures: a store's answers follow only from what
it stores.

Every node is a frozen dataclass, so no field of an anchor, an episode, a semantic
node or a logic node can be assigned, and every embedded vector (a text's ``v_e``,
a semantic ``v_s``, a query's) is read-only, so no write can make it another
text's. A save does not store those vectors and a load embeds them again, so a
write into one would be a silent divergence between a store and its reload; here
it raises. Every DAG is sealed, every evidence set a frozenset and every attrs
object read-only to any depth, so no write reaches them either, and a clone shares
them. What a caller can still write (the rows an anchor's centroids and a logic
node's index vectors view) is state that a save stores and ``check()`` judges.
"""

import copy
import json
import pickle
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from memstrata import (
    GOAL,
    START,
    Config,
    Description,
    EntityAnchor,
    LogicNode,
    MemoryStore,
    ObservationRecord,
    Percept,
    auto_fuse,
    consolidate_semantic,
    record_fault,
)
from memstrata.core import FrozenDict, FrozenList
from memstrata.dag import DagNode, EdgeStat, SealedDag, record_trial
from memstrata.retrieve import make_query
from memstrata.store import snapshot_dict
from conftest import FRUIT_VERBS, fruit_salad_store, one_hot


def _store(how: str, tmp_path) -> MemoryStore:
    store = fruit_salad_store(dim=64)
    store.distill()
    if how == "loaded":
        path = str(tmp_path / "snap.json")
        store.save(path)
        return MemoryStore.load(path)
    return store.clone() if how == "cloned" else store


def _vectors(store):
    """Each kind of embedded vector the store holds or makes, by name."""
    return {"text": next(iter(store.texts.values()))[1],
            "semantic": next(iter(store.semantic.values())).v_s,
            "query": make_query(store, "chop the fruit").q_vec}


ASSIGNS = [("anchor", f.name) for f in fields(EntityAnchor)] + [("logic", f.name) for f in fields(LogicNode)]
WRITES = [("vector", name) for name in ("text", "semantic", "query")]


@pytest.mark.parametrize("how", ["live", "loaded", "cloned"])
@pytest.mark.parametrize("kind, name", ASSIGNS + WRITES, ids=[".".join(case) for case in ASSIGNS + WRITES])
def test_no_anchor_or_logic_field_can_be_assigned_and_no_embedded_vector_written(how, kind, name, tmp_path):
    store = _store(how, tmp_path)
    if kind == "vector":
        vector = _vectors(store)[name]
        with pytest.raises(ValueError, match="read-only"):
            vector[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            vector *= 2.0
    else:
        node = (store.anchors if kind == "anchor" else store.logic)[1]
        with pytest.raises(FrozenInstanceError):
            setattr(node, name, getattr(node, name))
    assert store.check() == []


def _ranking(store, text):
    return [(item.layer, item.node_id) for item in store.retrieve(text).ranked]


def _answers_of_the_store_and_its_reload(store, tmp_path, text):
    path = str(tmp_path / "snap.json")
    store.save(path)
    return _ranking(store, text), _ranking(MemoryStore.load(path), text)


def test_a_text_vector_cannot_be_made_another_texts(tmp_path):
    # A save does not store a text's vector and a load embeds it again, so a write of
    # another text's vector into it would rank the live store apart from its reload.
    store = fruit_salad_store()
    text, other = "@jack chop the fruit", "@jack mix the fruit in a bowl"
    with pytest.raises(ValueError, match="read-only"):
        store.texts[text][1][:] = store.texts[other][1]
    assert np.array_equal(store.texts[text][1], store.embed(text))
    live, reloaded = _answers_of_the_store_and_its_reload(store, tmp_path, text)
    assert live == reloaded


def test_a_semantic_vector_cannot_be_made_another_texts(tmp_path):
    store = fruit_salad_store()
    text = "@jack chop the fruit"
    node = store.semantic[min(store.semantic)]
    with pytest.raises(ValueError, match="read-only"):
        node.v_s[:] = store.texts[text][1]
    assert np.array_equal(node.v_s, store.embed(node.attrs))
    live, reloaded = _answers_of_the_store_and_its_reload(store, tmp_path, text)
    assert live == reloaded


def test_a_clone_shares_each_read_only_vector_and_owns_its_rows(tmp_path):
    store = _store("live", tmp_path)
    twin = store.clone()
    for name, vector in _vectors(twin).items():
        assert not vector.flags.writeable, name
    assert all(twin.texts[d][1] is entry[1] for d, entry in store.texts.items())
    assert all(twin.semantic[i].v_s is node.v_s for i, node in store.semantic.items())
    # the rows are the twin's own: a write into one leaves the original as it was
    before = store.logic[1].i_goal.copy()
    twin.logic[1].i_goal[...] = twin.embed("wash the bowl")
    assert np.array_equal(store.logic[1].i_goal, before)
    assert twin.anchors[1].centroid_face is not store.anchors[1].centroid_face


def test_no_caller_can_hand_the_store_a_vector_of_its_own(tmp_path):
    # Every vector the store keeps comes from embed, judged and read-only; the public
    # entry points that put a text or a semantic node take no vector of the caller's.
    store = fruit_salad_store(dim=64)
    nan = np.full(store.config.dim, np.nan)
    with pytest.raises(TypeError):
        consolidate_semantic(store, "fact", "the bowl is blue", frozenset(), vector=nan)
    with pytest.raises(TypeError):
        store.text_entry("wash the bowl", nan)
    events = consolidate_semantic(store, "fact", "the bowl is blue", frozenset())
    node, entry = store.semantic[events[-1][1]], store.text_entry("wash the bowl")
    for vector, text in ((node.v_s, "the bowl is blue"), (entry[1], "wash the bowl")):
        assert not vector.flags.writeable and np.array_equal(vector, store.embed(text))
    assert store.check() == []
    live, reloaded = _answers_of_the_store_and_its_reload(store, tmp_path, "the bowl is blue")
    assert live == reloaded


# -- sealed procedures and attrs -------------------------------------------------------------

LINES = ("@jack chop the fruit", "@jack mix the fruit in a bowl", "@jack serve the salad")


def _procedure_store(how: str, tmp_path) -> MemoryStore:
    """Three sources of one procedure whose every line holds nested attrs, distilled, so that
    each step's attrs nest too; and a fourth record applied, so that the DAG was updated."""
    store = MemoryStore(Config(dim=64, action_verbs=FRUIT_VERBS))
    rid = 0
    for video in ("v1", "v2", "v3", "v4"):
        for t, line in enumerate(LINES):
            rid += 1
            attrs = {"tool": line.split()[2], "uses": ["cut", {"hands": [1, 2]}]}
            store.ingest(ObservationRecord(rid, video, float(t), [Description(line, attrs)], [],
                                           [Percept("face", one_hot(3, 64), "jack")] if rid == 1 else []))
        if video == "v3":
            store.distill()
    rec = ObservationRecord(rid + 1, "v5", 0.0, [Description(line) for line in LINES], [], [])
    store.ingest(rec)
    assert store.apply(rec).matched == 1
    if how == "loaded":
        path = str(tmp_path / "snap.json")
        store.save(path)
        return MemoryStore.load(path)
    return store.clone() if how == "cloned" else store


def _step(store):
    return store.logic[1].dag.nodes["mix_fruit"]


SEALED_WRITES = {
    "node-map-set": lambda s: s.logic[1].dag.nodes.__setitem__("x", DagNode()),
    "node-map-delete": lambda s: s.logic[1].dag.nodes.pop("mix_fruit"),
    "node-map-assigned": lambda s: setattr(s.logic[1].dag, "nodes", {}),
    "adj-map-set": lambda s: s.logic[1].dag.adj.__setitem__("x", {}),
    "out-edge-map-set": lambda s: s.logic[1].dag.adj[START].__setitem__(GOAL, EdgeStat()),
    "out-edge-map-cleared": lambda s: s.logic[1].dag.adj["mix_fruit"].clear(),
    "edge-stat-count": lambda s: setattr(s.logic[1].dag.adj[START]["chop_fruit"], "count", 9.0),
    "edge-stat-gamma": lambda s: setattr(s.logic[1].dag.adj[START]["chop_fruit"], "gamma", 0.0),
    "dag-node-alpha": lambda s: setattr(_step(s), "success_alpha", 9.0),
    "dag-node-attrs": lambda s: setattr(_step(s), "attrs", {}),
    "add-edge": lambda s: s.logic[1].dag.add_edge(START, GOAL),
    "add-node": lambda s: s.logic[1].dag.add_node("x"),
    "record-trial": lambda s: record_trial(s.logic[1].dag, "mix_fruit", True),
    "step-attrs-top": lambda s: _step(s).attrs.__setitem__("tool", "fork"),
    "step-attrs-update": lambda s: _step(s).attrs.update(k=1),
    "step-attrs-nested-list": lambda s: _step(s).attrs["uses"].append("stir"),
    "step-attrs-nested-dict": lambda s: _step(s).attrs["uses"][1].__setitem__("hands", []),
    "step-attrs-deepest": lambda s: _step(s).attrs["uses"][1]["hands"].__setitem__(0, float("nan")),
    "episode-attrs-top": lambda s: s.episodic[2].attrs.__setitem__("tool", "fork"),
    "episode-attrs-deleted": lambda s: s.episodic[2].attrs.pop("tool"),
    "episode-attrs-nested-list": lambda s: s.episodic[2].attrs["uses"].extend([float("nan")]),
    "episode-attrs-nested-dict": lambda s: s.episodic[2].attrs["uses"][1].clear(),
    "episode-attrs-deepest": lambda s: s.episodic[2].attrs["uses"][1]["hands"].sort(reverse=True),
    "evidence-add": lambda s: s.logic[1].episodic_links.add(99),
    "evidence-cleared": lambda s: s.logic[1].episodic_links.clear(),
}


@pytest.mark.parametrize("how", ["live", "loaded", "cloned"])
@pytest.mark.parametrize("write", SEALED_WRITES)
def test_no_write_reaches_a_stored_dag_its_attrs_an_episodes_attrs_or_evidence(how, write, tmp_path):
    store = _procedure_store(how, tmp_path)
    before = json.dumps(snapshot_dict(store))
    with pytest.raises((TypeError, AttributeError)):  # FrozenInstanceError is an AttributeError
        SEALED_WRITES[write](store)
    assert json.dumps(snapshot_dict(store)) == before
    assert store.check() == []


def test_a_records_attrs_are_the_stores_own_to_any_depth(tmp_path):
    # A record's attrs are frozen, to any depth, when the store takes them: no later write into
    # the caller's containers reaches the store, its DAG steps or its snapshot.
    store = MemoryStore(Config(dim=64, action_verbs=FRUIT_VERBS))
    tools, where = ["knife"], {"room": "kitchen"}
    for rid in (1, 2):
        store.ingest(ObservationRecord(rid, f"v{rid}", 0.0, [
            Description("chop the fruit", {"tools": tools, "where": where}), Description("mix the fruit")],
            [], []))
    store.distill()
    before = json.dumps(snapshot_dict(store))
    tools.append(float("nan"))
    tools.append("spoon")
    where["room"] = "garden"
    expected = {"tools": ["knife"], "where": {"room": "kitchen"}}
    assert store.episodic[1].attrs == expected and store.logic[1].dag.nodes["chop_fruit"].attrs == expected
    assert store.check() == [] and json.dumps(snapshot_dict(store)) == before
    # Equal attrs are one object, by their JSON: 1 and true are two values.
    held = store.episodic[1].attrs
    assert store.episodic[3].attrs is held
    desc = Description("chop the fruit", held)  # a stored episode's own attrs, as a caller may pass them
    rec = ObservationRecord(3, "v3", 0.0, [desc, Description("mix the fruit", {"n": 1, "m": 2})], [], [])
    assert record_fault(rec, store.config.dim) is None
    ids, _ = store.ingest(rec)
    assert store.episodic[ids[0]].attrs is held
    store.ingest(ObservationRecord(4, "v4", 0.0, [Description("mix the fruit", {"m": 2, "n": 1}),
                                                  Description("mix the fruit", {"m": 2, "n": True})], [], []))
    assert store.episodic[ids[1] + 1].attrs is store.episodic[ids[1]].attrs
    assert store.episodic[ids[1] + 2].attrs is not store.episodic[ids[1]].attrs
    path = str(tmp_path / "snap.json")
    store.save(path)
    loaded = MemoryStore.load(path)
    assert snapshot_dict(loaded) == snapshot_dict(store) and loaded.check() == []


def test_no_caller_can_put_attrs_of_its_own_into_the_stores_table(tmp_path):
    # Attrs enter the store only through ingest and a load, each judged first, and each is held
    # under the JSON of its own value: a value a caller put there, say a tuple under the JSON of
    # a list, or one value under another's key, would be what a later record's equal attrs read,
    # and what a save writes.
    store = MemoryStore(Config(dim=64, action_verbs=FRUIT_VERBS))
    assert [name for name in dir(store) if "attrs" in name and not name.startswith("_")] == []
    with pytest.raises(AttributeError):
        store.intern_attrs({"a": (1, 2)})
    store.ingest(ObservationRecord(1, "v", 0.0, [Description("chop the fruit", {"a": [1, 2]}),
                                                 Description("mix the fruit", {"tool": "spoon"})], [], []))
    assert [store.episodic[1].attrs, store.episodic[2].attrs] == [{"a": [1, 2]}, {"tool": "spoon"}]
    assert type(store.episodic[1].attrs["a"]) is FrozenList
    path = str(tmp_path / "snap.json")
    store.save(path)
    loaded = MemoryStore.load(path)
    assert snapshot_dict(loaded) == snapshot_dict(store) and loaded.episodic[2].attrs == {"tool": "spoon"}


def _two_procedures(**config) -> MemoryStore:
    store = fruit_salad_store(dim=64, tau_align=0.5, **config)
    store.distill()
    for rid, video in enumerate(("w1", "w2", "w3"), start=100):
        store.ingest(ObservationRecord(rid, video, 0.0, [
            Description(line.replace("mix", "blend")) for line in LINES], [], []))
    store.distill()
    assert sorted(store.logic) == [1, 2]
    return store


def _written(store) -> None:
    """Ingest a record with a percept, apply one that matches and fuse: a write into an anchor's
    row, a logic node's rows, a DAG, evidence and the logic layer."""
    rid = store.next_node_id + 1000
    store.ingest(ObservationRecord(rid, "z", 0.0, [Description("@jack chop the fruit")], [],
                                   [Percept("face", one_hot(4, 64) + one_hot(3, 64), "jack")]))
    rec = ObservationRecord(rid + 1, "z", 1.0, [Description(line.replace("@jack ", "")) for line in LINES],
                            [], [])
    store.ingest(rec)
    assert store.apply(rec).matched is not None
    assert auto_fuse(store)


@pytest.mark.parametrize("written", ["twin", "original"])
def test_a_clone_and_its_original_write_apart(written):
    # The clone copies the dicts of each layer and each anchor and logic node, which it points at
    # rows of its own; it shares every other node, the DAGs, evidence, attrs and vectors.
    store = _two_procedures()
    twin = store.clone()
    assert twin.logic[1].dag is store.logic[1].dag and twin.episodic[1] is store.episodic[1]
    assert twin.anchors[1] is not store.anchors[1] and twin.logic[1] is not store.logic[1]
    kept = twin if written == "original" else store
    before = json.dumps(snapshot_dict(kept))
    _written(store if written == "original" else twin)
    assert json.dumps(snapshot_dict(kept)) == before
    assert store.check() == [] and twin.check() == []


def test_a_store_deep_copies_and_pickles_as_it_is(tmp_path):
    store = _procedure_store("live", tmp_path)
    before = json.dumps(snapshot_dict(store))
    for twin in (copy.deepcopy(store), pickle.loads(pickle.dumps(store))):
        assert json.dumps(snapshot_dict(twin)) == before and twin.check() == []
        assert type(twin.logic[1].dag) is SealedDag and type(twin.episodic[2].attrs) is FrozenDict
        with pytest.raises(TypeError, match="read-only"):
            twin.episodic[2].attrs["uses"].append("stir")
