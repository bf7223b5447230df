"""Set once down to the vectors: a store's answers follow only from what it stores.

Every node is a frozen dataclass, so no field of an anchor, an episode, a semantic
node or a logic node can be assigned, and every embedded vector (a text's ``v_e``,
a semantic ``v_s``, a query's) is read-only, so no write can make it another
text's. A save does not store those vectors and a load embeds them again, so a
write into one would be a silent divergence between a store and its reload; here
it raises. What a caller can still write (the rows an anchor's centroids and a
logic node's index vectors view, a DAG, an evidence set, an episode's attrs) is
state that a save stores and ``check()`` judges.
"""

from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from memstrata import EntityAnchor, LogicNode, MemoryStore, consolidate_semantic
from memstrata.retrieve import make_query
from conftest import fruit_salad_store


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
