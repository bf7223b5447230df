"""Property: the state a store keeps for its scans always describes its nodes.

The store keeps, without storing them, the anchor centroid rows, postings
from each anchor to the semantic nodes that hold it, postings from each
action to its episodic nodes, and the logic index rows that each node's
``i_goal``/``i_step`` views. Hypothesis draws sequences of ingest, apply,
distill, auto_fuse, fuse, save/load, clone, hand-inserted episodic, semantic
and logic nodes, a node replaced under its id on each of the four layers, a
semantic or a logic node deleted and another inserted (which keeps the
count), and a caller's write through a logic node's ``i_goal`` or ``i_step``
view. After every step, the anchor scan, ``consolidate_semantic``'s
candidates, the evidence lists ``distill`` reads, and the answers of
``match_logic``, retrieve's logic layer and ``_resolve_goal_node`` must
equal a brute-force recomputation from the nodes alone, ids and score bits
included.
"""

import importlib
import os
import random
from dataclasses import fields, replace

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
    SnapshotIoError,
    auto_fuse,
    cosine,
    fuse_logic_nodes,
)
from memstrata.core import current
from memstrata.distill import LogicNode
from memstrata.ingest import (
    EntityAnchor,
    EpisodicNode,
    SemanticNode,
    action_postings,
    consolidate_semantic,
    resolve_anchor,
    semantic_candidates,
)
from memstrata.retrieve import make_query
from conftest import one_hot

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

OPS = ("ingest", "ingest", "apply", "apply", "distill", "auto_fuse", "fuse", "reload", "clone",
       "episodic", "semantic", "logic", "assign", "replace", "swap", "swap_logic")
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
    elif op == "episodic" and store.observations:
        meta = store.observations[rng.choice(sorted(store.observations))]
        node_id = store.next_node_id
        store.next_node_id += 1
        store.episodic[node_id] = EpisodicNode(node_id, store.text_entry(rng.choice(LINES)), meta)
        meta.episodes.append(node_id)
    elif op == "semantic":
        _insert_semantic(store, rng)
    elif op == "logic" and store.episodic:
        _insert_logic(store, rng)
    elif op == "assign" and store.logic:  # a write through the view, as ema_update's
        node = store.logic[rng.choice(sorted(store.logic))]
        getattr(node, rng.choice(("i_goal", "i_step")))[...] = store.embed(rng.choice(PROBES))
    elif op == "replace":
        for layer in LAYERS:
            _replace(store, rng, layer)
    elif op == "swap" and store.semantic:
        del store.semantic[rng.choice(sorted(store.semantic))]
        _insert_semantic(store, rng)
    elif op == "swap_logic" and store.logic:
        del store.logic[rng.choice(sorted(store.logic))]
        _insert_logic(store, rng)
    return store


def _anchor_set(store, rng) -> frozenset:
    ids = rng.sample(sorted(store.anchors), min(len(store.anchors), rng.randint(0, 2)))
    return store.intern(frozenset(ids))


def _insert_semantic(store, rng):
    text = rng.choice(FACTS)
    node_id = store.next_node_id
    store.next_node_id += 1
    store.semantic[node_id] = SemanticNode(node_id, "knowledge", text, store.embed(text),
                                           _anchor_set(store, rng))


def _insert_logic(store, rng):
    goal, step = rng.choice(PROBES), rng.choice(LINES)
    logic_id = store.next_logic_id
    store.next_logic_id += 1
    store.logic[logic_id] = LogicNode(
        logic_id, goal, store.embed(goal), store.embed(step), ProceduralDag.single_path(["wash_bowl"]),
        {rng.choice(sorted(store.episodic))}, 0.5, ("wash_bowl",))


def _replace(store, rng, layer):
    """Put a new node under an existing id of ``layer``: another text, anchor set,
    centroid or pair of index vectors, the rest as it was."""
    nodes = getattr(store, layer)
    if not nodes:
        return
    i = rng.choice(sorted(nodes))
    old = nodes[i]
    if layer == "anchors":
        face = None if old.centroid_face is None else one_hot(rng.randrange(DIM), DIM)
        nodes[i] = EntityAnchor(i, old.label, face, old.centroid_voice, old.face_count, old.voice_count)
    elif layer == "episodic":
        nodes[i] = EpisodicNode(i, store.text_entry(rng.choice(LINES)), old.obs, old.anchors,
                                old.outcome, old.attrs)
    elif layer == "semantic":
        nodes[i] = SemanticNode(i, old.type, old.attrs, old.v_s, _anchor_set(store, rng), old.weight)
    else:
        nodes[i] = LogicNode(i, old.c, store.embed(rng.choice(PROBES)), store.embed(rng.choice(LINES)),
                             old.dag, old.episodic_links, old.score, old.steps)


def _first_best(scores: dict):
    """The lowest id of the highest score, and that score, or None."""
    if not scores:
        return None
    best = max(scores.values())
    return next(i for i in sorted(scores) if scores[i] == best), best


def _check_kept_state(store):
    if current(store.centroid_rows, store.anchors):  # else resolve_anchor builds them again
        rows = store.centroid_rows.blocks["face"]
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
    got = {action: list(ids) for action, ids in action_postings(store).lists.items() if ids}
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


def test_a_swap_that_keeps_the_count_is_followed_live_cloned_and_loaded(tmp_path):
    # Semantic node 2 (anchor 1) goes and node 5 (anchor 2) comes: the layer holds
    # two nodes before and after, so only its version tells the postings apart.
    store = MemoryStore(Config(dim=16))
    for rid, person, fact in ((1, "a", "@a is tall"), (2, "b", "@b is short")):
        store.ingest(ObservationRecord(rid, "v", float(rid), [Description("walk home")],
                                       [Conclusion("knowledge", fact)],
                                       [Percept("face", one_hot(rid, 16), person)]))
    assert {i: set(n.anchors) for i, n in store.semantic.items()} == {2: {1}, 4: {2}}
    del store.semantic[2]
    store.semantic[5] = SemanticNode(5, "knowledge", "@b is very tall", store.embed("@b is very tall"),
                                     store.intern(frozenset({2})))
    store.next_node_id = 6
    assert store.check() == []
    path = str(tmp_path / "swap.json")
    store.save(path)
    stores = [store, store.clone(), MemoryStore.load(path)]
    assert [semantic_candidates(s, frozenset({2})) for s in stores] == [[4, 5]] * 3
    assert [consolidate_semantic(s, "knowledge", "@b is very tall", frozenset({2})) for s in stores] \
        == [[("reinforced", 5)]] * 3


SET_ONCE = ([("config", f.name) for f in fields(Config)] + [("store", "config")]
            + [("layer_weights", "factual"), ("layer_weights", "factual.epi")]
            + [("episodic", f.name) for f in fields(EpisodicNode)]
            + [("semantic", f.name) for f in fields(SemanticNode)])


@pytest.mark.parametrize("kind, name", SET_ONCE, ids=[".".join(case) for case in SET_ONCE])
def test_no_field_of_a_config_an_episode_or_a_semantic_node_can_be_assigned(kind, name):
    # What the kept postings and the text entries' actions read is set once: a store's config is the
    # one it was built with, and a node changes only by a new node put under its id.
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
                  "semantic": store.semantic[2]}[kind]
        with pytest.raises(AttributeError):  # FrozenInstanceError, or a property without a setter
            setattr(target, name, getattr(target, name))
    assert store.config == Config(dim=16, action_verbs=VERBS)
    assert store.check() == []


def test_a_semantic_node_replaced_under_its_id_is_followed_and_a_prune_leaves_no_stale_posting():
    # Node 1 put under its id with anchor 2 for anchor 1: the postings follow it, and the prune
    # that removes it drops it from the lists of its own anchors, so the next consolidate under
    # anchor 2 meets no id that the layer no longer holds.
    store = MemoryStore(Config(dim=16))
    for i in (1, 2):
        resolve_anchor(store, Percept("face", one_hot(i, 16), f"p{i}"))
    assert consolidate_semantic(store, "trait", "alice is very tall", frozenset({1})) == [("created", 1)]
    assert consolidate_semantic(store, "trait", "bob likes green tea", frozenset({2})) == [("created", 2)]
    store.semantic[1] = replace(store.semantic[1], anchors=frozenset({2}))
    assert store.check() == []
    assert [semantic_candidates(store, frozenset({a})) for a in (1, 2)] == [[], [1, 2]]
    assert consolidate_semantic(store, "trait", "zzz qqq", frozenset({2})) == \
        [("weakened", 1), ("pruned", 1), ("created", 3)]
    assert store.check() == []
    assert consolidate_semantic(store, "trait", "zzz qqq", frozenset({2})) == [("reinforced", 3)]
    assert [semantic_candidates(store, frozenset({a})) for a in (1, 2)] == [[], [2, 3]]
    assert store.semantic[3].weight == 2


def test_an_episode_replaced_under_its_id_is_followed_by_the_action_postings(tmp_path):
    # Episode 1 put under its id with another text: distill's evidence lists follow its action,
    # and the store saves and loads as it is.
    path = str(tmp_path / "snap.json")
    store = MemoryStore(Config(dim=16, action_verbs=VERBS))
    store.ingest(ObservationRecord(1, "v1", 0.0, [Description("chop the fruit"),
                                                  Description("mix the fruit")], [], []))
    assert dict(action_postings(store).lists) == {"chop_fruit": [1], "mix_fruit": [2]}
    store.episodic[1] = replace(store.episodic[1], text=store.text_entry("mix the bowl"))
    assert store.check() == []
    assert {k: v for k, v in action_postings(store).lists.items() if v} == {"mix_bowl": [1], "mix_fruit": [2]}
    store.save(path)
    loaded = MemoryStore.load(path)
    assert [n.action for n in loaded.episodic.values()] == ["mix_bowl", "mix_fruit"]


def _built(path):
    """A store with nodes on every layer, each kept structure built and current."""
    store, rng, records = MemoryStore(Config(**CONFIG)), random.Random(3), []
    for _ in range(12):
        _step(store, "ingest", rng, records, path)
    _step(store, "logic", rng, records, path)
    assert all(getattr(store, name) for name in LAYERS)
    _check_kept_state(store)
    return store, rng


def test_a_vector_assigned_over_its_row_is_reported_while_the_rows_are_current(tmp_path):
    path = str(tmp_path / "snap.json")
    store, rng = _built(path)
    node = store.logic[1]
    node.i_goal = node.i_goal.copy()  # equal values, not the row
    assert store.check() == ["logic 1: i_goal is not its row of the goal rows"]
    with pytest.raises(SnapshotIoError, match="i_goal is not its row"):
        store.save(path)
    _step(store, "swap_logic", rng, [], path)  # the rows are built again at the next use
    assert store.check() == []
    _check_kept_state(store)
    assert store.check() == []


@pytest.mark.parametrize("layer", LAYERS)
def test_a_layer_rebound_to_a_dict_is_reported_and_never_taken_as_fresh(tmp_path, layer):
    path = str(tmp_path / "snap.json")
    store, rng = _built(path)

    setattr(store, layer, dict(getattr(store, layer)))
    kind = "anchor" if layer == "anchors" else layer
    assert store.check() == [f"{kind} layer is a dict, not a Layer"]
    with pytest.raises(SnapshotIoError, match=f"{kind} layer is a dict, not a Layer"):
        store.save(path)
    _check_kept_state(store)
    for _ in range(4):  # a dict has no version that a replacement could move
        _replace(store, rng, layer)
        _check_kept_state(store)
        # the anchor scan, through resolve_anchor, which moves the centroid it picks
        v = one_hot(rng.randrange(DIM), DIM)
        scores = {i: cosine(v, a.centroid_face) for i, a in store.anchors.items() if a.centroid_face is not None}
        best = _first_best(scores)
        want = best[0] if best and best[1] >= store.config.tau_anchor else store.next_anchor_id
        assert resolve_anchor(store, Percept("face", v, "probe")) == want
