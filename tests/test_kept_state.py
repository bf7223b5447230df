"""Property: the state a store keeps for its scans always describes its nodes.

The store keeps, without storing them, the anchor centroid rows, postings
from each anchor to the semantic nodes that hold it, postings from each
action to its episodic nodes, and the logic index rows that each node's
``i_goal``/``i_step`` views. Only the engine writes a store, so Hypothesis
draws sequences of its writes: ingest, apply, distill, auto_fuse, fuse,
save/load, clone, and a caller's write through a logic node's ``i_goal`` or
``i_step`` view. After every step, the anchor scan, ``consolidate_semantic``'s
candidates, the evidence lists ``distill`` reads, and the answers of
``match_logic``, retrieve's logic layer and ``_resolve_goal_node`` must
equal a brute-force recomputation from the nodes alone, ids and score bits
included. Every other write a caller could make raises.
"""

import importlib
import operator
import os
import random
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from memstrata import (
    Conclusion,
    Config,
    Description,
    FusionCycle,
    MemoryStore,
    NoMatch,
    ObservationRecord,
    Percept,
    ProceduralDag,
    auto_fuse,
    cosine,
    fuse_logic_nodes,
)
from memstrata.distill import LogicNode
from memstrata.ingest import (
    EpisodicNode,
    ObservationMeta,
    SemanticNode,
    consolidate_semantic,
    resolve_anchor,
    semantic_candidates,
)
from memstrata.retrieve import make_query
from memstrata.store import snapshot_dict
from conftest import one_hot, plant

maintain = importlib.import_module("memstrata.maintain")
retrieve = importlib.import_module("memstrata.retrieve")
symbolic = importlib.import_module("memstrata.symbolic")

DIM = 16  # small enough that texts share buckets and scores tie
VERBS = ("chop", "mix", "serve", "wash")
LINES = ("chop the fruit", "mix the fruit", "serve the salad", "wash the bowl", "mix the bowl",
         "walk home", "")
PERSONS = ("jack", "ana", "tom")
FACTS = ("fruit is sweet", "bowls are downstairs", "salad", "")
PROBES = ("chop the fruit", "serve salad", "mix bowl wash", "walk", "")
CONFIG = dict(dim=DIM, action_verbs=VERBS, pool_trigger=3, tau_pos=0.9, tau_neg=0.6,
              theta_retrieve=0.1, tau_align=0.6)

OPS = ("ingest", "ingest", "apply", "apply", "distill", "auto_fuse", "fuse", "reload", "clone", "assign")
LAYERS = ("anchors", "episodic", "semantic", "logic")
ops = st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 2**32 - 1)), max_size=25)


def _record(rng, rid):
    """A record of one to four lines; its conclusions mention some of its people."""
    people = rng.sample(PERSONS, rng.randint(0, 2))

    def mention():
        return "".join(f"@{p} " for p in rng.sample(people, rng.randint(0, len(people))))
    return ObservationRecord(
        rid, rng.choice(("v1", "v2")), float(rid),
        [Description(rng.choice(LINES), {}, rng.choice(("success", "failure")))
         for _ in range(rng.randint(1, 4))],
        [Conclusion("knowledge", mention() + rng.choice(FACTS)) for _ in range(rng.randint(0, 2))],
        [Percept("face", one_hot(PERSONS.index(p), DIM), p) for p in people])


def _step(store, op, rng, records, path):
    """Run one operation; returns the store to go on with."""
    if op in ("ingest", "apply"):
        if op == "apply" and records and rng.random() < 0.3:
            store.apply(rng.choice(records))  # a record applied again
            return store
        records.append(rec := _record(rng, len(records) + 1))
        store.ingest(rec)
        if op == "apply":
            store.apply(rec)
    elif op == "distill":
        store.distill()
    elif op == "auto_fuse":
        auto_fuse(store)
    elif op == "fuse" and len(store.logic) > 1:
        try:
            fuse_logic_nodes(store, *rng.sample(sorted(store.logic), 2))
        except FusionCycle:
            pass
    elif op == "reload":
        store.save(path)
        return MemoryStore.load(path)
    elif op == "clone":
        return store.clone()
    elif op == "assign" and store.logic:  # a write through the view, as ema_update's
        node = store.logic[rng.choice(sorted(store.logic))]
        getattr(node, rng.choice(("i_goal", "i_step")))[...] = store.embed(rng.choice(PROBES))
    return store


def _insert_logic(store, rng):
    goal, step = rng.choice(PROBES), rng.choice(LINES)
    logic_id = store.next_logic_id
    plant(store, next_logic_id=logic_id + 1, logic={logic_id: LogicNode(
        logic_id, goal, store.embed(goal), store.embed(step), ProceduralDag.single_path(["wash_bowl"]),
        {rng.choice(sorted(store.episodic))}, 0.5, ("wash_bowl",))})


def _first_best(scores: dict):
    """The lowest id of the highest score, and that score, or None."""
    if not scores:
        return None
    best = max(scores.values())
    return next(i for i in sorted(scores) if scores[i] == best), best


def _check_kept_state(store):
    for name in LAYERS:  # the one order that every reader of a layer relies on
        ids = list(getattr(store, name))
        assert ids == sorted(ids), name
    rows = store._centroid_rows["face"]
    faced = {i: a.centroid_face for i, a in store.anchors.items() if a.centroid_face is not None}
    for j in range(DIM):
        v = one_hot(j, DIM)
        sims = cosine(v, rows)
        got = (rows.ids[sims.argmax()], float(sims.max())) if rows.ids else None
        assert got == _first_best({i: cosine(v, c) for i, c in faced.items()}), j

    semantic = store.semantic
    anchor_sets = {frozenset(), *map(frozenset, ([a] for a in store.anchors)),
                   frozenset(store.anchors), *(n.anchors for n in semantic.values())}
    for anchors in anchor_sets:
        want = sorted(i for i, n in semantic.items() if anchors <= n.anchors)
        assert semantic_candidates(store, anchors) == want, anchors

    want = {}
    for i in sorted(store.episodic):
        want.setdefault(store.episodic[i].action, []).append(i)
    got = {action: list(ids) for action, ids in store._action_postings.items() if ids}
    assert got == want

    cfg, logic = store.config, store.logic
    for text in PROBES:
        v = store.embed(text)
        goal = {i: cosine(v, n.i_goal) for i, n in logic.items()}
        step = {i: cosine(v, n.i_step) for i, n in logic.items()}
        assert maintain.match_logic(store, v) == _first_best({i: max(goal[i], step[i]) for i in logic})

        blend = {i: cfg.alpha * goal[i] + (1.0 - cfg.alpha) * step[i] for i in logic}
        ranked = retrieve.retrieve(store, make_query(store, text, "factual"), 10**6).ranked
        assert sorted((it.node_id, it.score_init) for it in ranked if it.layer == "logic") == \
            sorted((i, s) for i, s in blend.items() if s > cfg.theta_retrieve)

        want = _first_best(goal)
        try:
            node, sim = symbolic._resolve_goal_node(store, text)
            got = node.id, sim
        except NoMatch:
            got = None
        assert got == (want if want and want[1] >= cfg.theta_retrieve else None)


def _evidence_verifier(store):
    """The default verifier, asserting that the evidence distill hands it is every episodic
    node whose action is a step of the pattern, in ascending id."""
    def verify(pattern, related):
        steps = set(pattern.steps)
        assert [e.id for e in related] == [i for i in sorted(store.episodic)
                                           if store.episodic[i].action in steps]
        return pattern.support
    return verify


@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops)
def test_kept_postings_and_logic_rows_describe_the_nodes(tmp_path_factory, sequence):
    path = os.path.join(tmp_path_factory.mktemp("kept"), "snap.json")
    store = MemoryStore(Config(**CONFIG))
    records = []
    for op, seed in sequence:
        store.set_verifier(_evidence_verifier(store))
        store = _step(store, op, random.Random(seed), records, path)
        assert store.check() == [], op
        _check_kept_state(store)


def test_a_prune_and_an_insert_that_keep_the_count_are_followed_live_cloned_and_loaded(tmp_path):
    # One consolidate prunes semantic node 2 (anchor 1) and creates node 5 (anchor 1): the layer
    # holds two nodes before and after, and the postings follow both writes.
    store = MemoryStore(Config(dim=16))
    for rid, person, fact in ((1, "a", "@a is tall"), (2, "b", "@b is short")):
        store.ingest(ObservationRecord(rid, "v", float(rid), [Description("walk home")],
                                       [Conclusion("knowledge", fact)],
                                       [Percept("face", one_hot(rid, 16), person)]))
    assert {i: set(n.anchors) for i, n in store.semantic.items()} == {2: {1}, 4: {2}}
    assert consolidate_semantic(store, "knowledge", "zzz qqq", frozenset({1})) == \
        [("weakened", 2), ("pruned", 2), ("created", 5)]
    assert store.check() == []
    path = str(tmp_path / "swap.json")
    store.save(path)
    stores = [store, store.clone(), MemoryStore.load(path)]
    assert [semantic_candidates(s, frozenset({1})) for s in stores] == [[5]] * 3
    assert [consolidate_semantic(s, "knowledge", "zzz qqq", frozenset({1})) for s in stores] \
        == [[("reinforced", 5)]] * 3


SET_ONCE = ([("config", f.name) for f in fields(Config)] + [("store", "config")]
            + [("layer_weights", "factual"), ("layer_weights", "factual.epi")]
            + [("episodic", f.name) for f in fields(EpisodicNode)]
            + [("semantic", f.name) for f in fields(SemanticNode)]
            + [("observation", f.name) for f in fields(ObservationMeta)])


@pytest.mark.parametrize("kind, name", SET_ONCE, ids=[".".join(case) for case in SET_ONCE])
def test_no_field_of_a_config_an_episode_or_a_semantic_node_can_be_assigned(kind, name):
    # What the kept postings and the text entries' actions read is set once: a store's config is the
    # one it was built with, and a node or an observation is the one the engine made.
    store = MemoryStore(Config(dim=16, action_verbs=VERBS))
    store.ingest(ObservationRecord(1, "v", 0.0, [Description("@a chop the fruit", {"tool": "knife"})],
                                   [Conclusion("knowledge", "@a is tall")], [Percept("face", one_hot(1, 16), "a")]))
    if kind == "layer_weights":
        qt, _, layer = name.partition(".")
        with pytest.raises(TypeError):  # a read-only mapping
            if layer:
                store.config.layer_weights[qt][layer] = 2.0
            else:
                store.config.layer_weights[qt] = {"epi": 2.0, "sem": 1.0, "logic": 1.0}
    else:
        target = {"config": store.config, "store": store, "episodic": store.episodic[1],
                  "semantic": store.semantic[2], "observation": store.observations[1]}[kind]
        with pytest.raises(AttributeError):  # FrozenInstanceError, or a property without a setter
            setattr(target, name, getattr(target, name))
    assert store.config == Config(dim=16, action_verbs=VERBS)
    assert store.check() == []


VIEWS = ("anchors", "episodic", "semantic", "logic", "texts", "observations", "video_clock")
COUNTERS = ("next_node_id", "next_anchor_id", "next_logic_id")
# Each write a dict takes, made on a view that holds the key k.
VIEW_WRITES = {
    "setitem": lambda view, k: operator.setitem(view, k, view[k]),
    "delitem": lambda view, k: operator.delitem(view, k),
    "clear": lambda view, k: view.clear(),
    "pop": lambda view, k: view.pop(k),
    "popitem": lambda view, k: view.popitem(),
    "setdefault": lambda view, k: view.setdefault(k, view[k]),
    "update": lambda view, k: view.update({k: view[k]}),
}


def _on_view(name, write):
    return lambda store: write(getattr(store, name), next(iter(getattr(store, name))))


def _rebind(name, value):
    return lambda store: setattr(store, name, value(getattr(store, name)))


# Each write a caller could make: through a view, rebinding a view, the pool or a counter, and
# writing the pool, an observation's episodes, the intern table or a kept structure.
WRITES = {f"{name}.{kind}": _on_view(name, write) for name in VIEWS for kind, write in VIEW_WRITES.items()}
WRITES.update({f"{name}=": _rebind(name, dict) for name in VIEWS})
WRITES.update({f"{name}+=1": _rebind(name, lambda c: c + 1) for name in COUNTERS})
WRITES.update({
    "pool=": _rebind("pool", lambda pool: [1]),
    "pool+=": _rebind("pool", lambda pool: pool + type(pool)([1])),
    "pool.append": lambda store: store.pool.append(1),
    "observation.episodes.append": lambda store: store.observations[1].episodes.append(99),
    "interned[]": lambda store: operator.setitem(store.interned, "chop_fruit", "mix_fruit"),
    "centroid_rows": lambda store: store.centroid_rows.blocks.clear(),
    "logic_rows": lambda store: store.logic_rows.blocks.clear(),
    "semantic_postings": lambda store: store.semantic_postings.lists.clear(),
    "action_postings": lambda store: store.action_postings.lists.clear(),
})


def _full_store():
    """A store holding something in each view, and every kept structure."""
    store = MemoryStore(Config(dim=16, action_verbs=VERBS))
    for rid, video in ((1, "v1"), (2, "v2")):
        store.ingest(ObservationRecord(rid, video, 0.0, [Description("@a chop the fruit"), Description("mix the fruit")],
                                       [Conclusion("knowledge", "@a is tall")], [Percept("face", one_hot(1, 16), "a")]))
    assert store.distill() == [1]
    store.retrieve("chop the fruit")  # each scan once
    assert all(getattr(store, name) for name in VIEWS)
    return store


@pytest.mark.parametrize("write", WRITES.values(), ids=WRITES.keys())
def test_a_callers_write_to_the_store_raises(tmp_path, write):
    store = _full_store()
    with pytest.raises((TypeError, AttributeError)):
        write(store)
    path = str(tmp_path / "snap.json")
    store.save(path)
    assert snapshot_dict(store) == snapshot_dict(_full_store()) == snapshot_dict(MemoryStore.load(path))


def _actions(store) -> dict:
    return {i: n.action for i, n in store.episodic.items()}


def test_a_text_entry_of_another_action_cannot_be_planted(tmp_path):
    # A rewritten text entry, and its episode put back under its id holding it, once left
    # check() == [] and a store whose reload read another action for that episode.
    store = MemoryStore(Config(dim=16, action_verbs=VERBS))
    store.ingest(ObservationRecord(1, "v", 0.0, [Description("chop the fruit"), Description("mix the fruit")], [], []))
    d, v_e, _ = entry = (*store.texts["chop the fruit"][:2], "mix_fruit")
    with pytest.raises(TypeError):
        store.texts[d] = entry
    with pytest.raises(TypeError):
        store.episodic[1] = replace(store.episodic[1], text=entry)
    path = str(tmp_path / "snap.json")
    store.save(path)
    assert _actions(store) == _actions(MemoryStore.load(path)) == {1: "chop_fruit", 2: "mix_fruit"}


def test_the_intern_table_cannot_be_written(tmp_path):
    # An intern table entry of another action once gave a live episode that action, check() == [],
    # and a reload that read the text's own.
    store = MemoryStore(Config(dim=16, action_verbs=VERBS))
    with pytest.raises(AttributeError):
        store.interned["chop_fruit"] = "mix_fruit"
    store.ingest(ObservationRecord(1, "v", 0.0, [Description("chop the fruit")], [], []))
    path = str(tmp_path / "snap.json")
    store.save(path)
    assert _actions(store) == _actions(MemoryStore.load(path)) == {1: "chop_fruit"}


def test_a_semantic_node_replaced_under_its_id_is_followed_and_a_prune_leaves_no_stale_posting():
    # Node 1 planted under its id with anchor 2 for anchor 1: the postings built again follow it,
    # and the prune that removes it drops it from the lists of its own anchors, so the next
    # consolidate under anchor 2 meets no id that the layer no longer holds.
    store = MemoryStore(Config(dim=16))
    for i in (1, 2):
        resolve_anchor(store, Percept("face", one_hot(i, 16), f"p{i}"))
    assert consolidate_semantic(store, "trait", "alice is very tall", frozenset({1})) == [("created", 1)]
    assert consolidate_semantic(store, "trait", "bob likes green tea", frozenset({2})) == [("created", 2)]
    plant(store, semantic={1: replace(store.semantic[1], anchors=frozenset({2}))})
    assert store.check() == []
    assert [semantic_candidates(store, frozenset({a})) for a in (1, 2)] == [[], [1, 2]]
    assert consolidate_semantic(store, "trait", "zzz qqq", frozenset({2})) == \
        [("weakened", 1), ("pruned", 1), ("created", 3)]
    assert store.check() == []
    assert consolidate_semantic(store, "trait", "zzz qqq", frozenset({2})) == [("reinforced", 3)]
    assert [semantic_candidates(store, frozenset({a})) for a in (1, 2)] == [[], [2, 3]]
    assert store.semantic[3].weight == 2


def test_an_episode_replaced_under_its_id_is_followed_by_the_action_postings(tmp_path):
    # Episode 1 planted under its id with another text: distill's evidence lists follow its action,
    # and the store saves and loads as it is.
    path = str(tmp_path / "snap.json")
    store = MemoryStore(Config(dim=16, action_verbs=VERBS))
    store.ingest(ObservationRecord(1, "v1", 0.0, [Description("chop the fruit"),
                                                  Description("mix the fruit")], [], []))
    assert dict(store._action_postings) == {"chop_fruit": [1], "mix_fruit": [2]}
    plant(store, episodic={1: replace(store.episodic[1], text=store.text_entry("mix the bowl"))})
    assert store.check() == []
    assert {k: v for k, v in store._action_postings.items() if v} == {"mix_bowl": [1], "mix_fruit": [2]}
    store.save(path)
    loaded = MemoryStore.load(path)
    assert [n.action for n in loaded.episodic.values()] == ["mix_bowl", "mix_fruit"]


def test_an_index_vector_cannot_be_rebound_and_a_write_into_its_row_is_saved(tmp_path):
    # A logic node is set once, so its index vectors stay views of its rows: a write into one is
    # what the next scan reads and a save stores.
    path = str(tmp_path / "snap.json")
    store, rng, records = MemoryStore(Config(**CONFIG)), random.Random(3), []
    for _ in range(12):
        _step(store, "ingest", rng, records, path)
    _insert_logic(store, rng)
    assert all(getattr(store, name) for name in LAYERS)
    _check_kept_state(store)
    node = store.logic[1]
    with pytest.raises(FrozenInstanceError):
        node.i_goal = node.i_goal.copy()
    node.i_goal[...] = store.embed("wash the bowl")
    _check_kept_state(store)
    store.save(path)
    assert np.array_equal(MemoryStore.load(path).logic[1].i_goal, node.i_goal)
