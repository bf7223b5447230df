"""Property: the state a store keeps for its scans always describes its nodes.

The store keeps, without storing them, postings from each anchor to the
semantic nodes that hold it, postings from each action to its episodic
nodes, and the logic index rows that each node's ``i_goal``/``i_step``
views. Hypothesis draws sequences of ingest, apply, distill, auto_fuse,
fuse, save/load, clone, hand-inserted episodic, semantic and logic nodes,
and a caller's assignment of a logic node's ``i_goal`` or ``i_step``. After
every step, ``consolidate_semantic``'s candidates, the evidence lists
``distill`` reads, and the answers of ``match_logic``, retrieve's logic
layer and ``_resolve_goal_node`` must equal a brute-force recomputation
from the nodes alone, ids and score bits included.
"""

import importlib
import os
import random

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
from memstrata.ingest import EpisodicNode, SemanticNode, action_postings, semantic_candidates
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
       "episodic", "semantic", "logic", "assign")
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
        text = rng.choice(FACTS)
        anchors = frozenset(rng.sample(sorted(store.anchors), min(len(store.anchors), rng.randint(0, 2))))
        node_id = store.next_node_id
        store.next_node_id += 1
        store.semantic[node_id] = SemanticNode(node_id, "knowledge", text, store.embed(text),
                                               store.intern(anchors))
    elif op == "logic" and store.episodic:
        goal, step = rng.choice(PROBES), rng.choice(LINES)
        logic_id = store.next_logic_id
        store.next_logic_id += 1
        store.logic[logic_id] = LogicNode(
            logic_id, goal, store.embed(goal), store.embed(step), ProceduralDag.single_path(["wash_bowl"]),
            {rng.choice(sorted(store.episodic))}, 0.5, ("wash_bowl",))
    elif op == "assign" and store.logic:
        node = store.logic[rng.choice(sorted(store.logic))]
        setattr(node, rng.choice(("i_goal", "i_step")), store.embed(rng.choice(PROBES)))
    return store


def _first_best(scores: dict):
    """The lowest id of the highest score, and that score, or None."""
    if not scores:
        return None
    best = max(scores.values())
    return next(i for i in sorted(scores) if scores[i] == best), best


def _check_kept_state(store):
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
