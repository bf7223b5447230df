import random
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from memstrata import (
    Config,
    Constraint,
    Description,
    GOAL,
    MemoryStore,
    NoMatch,
    ObservationRecord,
    PathExplosion,
    Predicate,
    ProceduralDag,
    START,
    UnknownAnchor,
    aggregate_character_behaviors,
    get_procedure_with_evidence,
    goal_reach_probability,
    query_step_sequence,
    transition_prob,
)
from memstrata.dag import satisfies
from conftest import FRUIT_STEPS, ProbeEmbedder, fruit_salad_store, plant, procedures_store


def ready_store():
    store = fruit_salad_store()
    store.distill()
    return store


# -- brute-force oracles ------------------------------------------------------


def brute_force_paths(dag):
    """All simple START->GOAL paths by plain recursive DFS."""
    out = []

    def walk(v, path):
        if v == GOAL:
            out.append(tuple(path))
            return
        for child in dag.adj[v]:
            if child not in path:  # acyclic anyway; simple-path guard
                walk(child, path + [child])

    walk(START, [START])
    return {p for p in out}


def random_dag(rng, max_steps=8):
    """Random layered DAG, <= 10 nodes, every step on a START->GOAL path."""
    n = rng.randint(1, max_steps)
    labels = [f"s{i:02d}" for i in range(n)]
    dag = ProceduralDag()
    for i, label in enumerate(labels):
        attrs = {}
        if rng.random() < 0.7:
            attrs["tool"] = rng.choice(["bowl", "plate", "knife"])
        if rng.random() < 0.4:
            attrs["room"] = rng.choice(["kitchen", "garage"])
        dag.add_node(label, attrs)
    dag.add_edge(START, labels[0], count=float(rng.randint(0, 5)))
    for i, label in enumerate(labels):
        targets = labels[i + 1:]
        chosen = [t for t in targets if rng.random() < 0.5][:3]
        if not chosen:
            dag.add_edge(label, GOAL, count=float(rng.randint(0, 5)))
        else:
            for t in chosen:
                dag.add_edge(label, t, count=float(rng.randint(0, 5)))
            if rng.random() < 0.3:
                dag.add_edge(label, GOAL, count=float(rng.randint(0, 5)))
    # guarantee reachability for any skipped heads
    for label in labels[1:]:
        if not any(label in dag.adj[src] for src in dag.adj):
            dag.add_edge(START, label, count=float(rng.randint(0, 5)))
    return dag


def random_constraint(rng):
    preds = []
    for _ in range(rng.randint(0, 2)):
        key = rng.choice(["tool", "room"])
        op = rng.choice(["eq", "neq", "has", "not_has", "in", "not_in"])
        if op in ("in", "not_in"):
            value = rng.sample(["bowl", "plate", "knife", "kitchen"], rng.randint(1, 2))
        else:
            value = rng.choice(["bowl", "plate", "knife", "kitchen", "garage"])
        preds.append(Predicate(key, op, value))
    return Constraint(preds)


def wrap_in_store(dag, goal_text="wrapped procedure", **config):
    """Minimal store exposing one logic node around the given DAG; ``config`` sets other
    Config fields."""
    from memstrata import LogicNode

    store = MemoryStore(Config(dim=64, **config))
    store.ingest(ObservationRecord(1, "v", 0.0, [Description("seed")], [], []))
    node = LogicNode(
        id=1, c=goal_text, i_goal=store.embed(goal_text),
        i_step=store.embed(goal_text), dag=dag, episodic_links={1},
        steps=tuple(sorted(dag.step_labels())))
    plant(store, logic={1: node}, next_logic_id=2)
    return store


# -- get_procedure_with_evidence ------------------------------------------------


def test_get_procedure_empty_layer_raises():
    store = MemoryStore(Config(dim=16))
    with pytest.raises(NoMatch):
        get_procedure_with_evidence(store, "anything")


def test_get_procedure_identity_goal():
    store = ready_store()
    pe = get_procedure_with_evidence(store, store.logic[1].c)
    assert pe.logic_id == 1
    assert pe.similarity == pytest.approx(1.0, abs=1e-12)
    times = [(e.t, e.id) for e in pe.evidence]
    assert times == sorted(times)
    # the store's own DAG, sealed: no write reaches it, and a builder of it is the caller's own
    assert pe.dag is store.logic[1].dag
    with pytest.raises(FrozenInstanceError):
        pe.dag.adj[START]["chop_fruit"].count += 99
    mine = pe.dag.copy()
    mine.add_edge(START, "chop_fruit", count=99.0)
    assert store.logic[1].dag.adj[START]["chop_fruit"].count == 0.0


def test_get_procedure_below_threshold_raises():
    store = ready_store()
    with pytest.raises(NoMatch):
        get_procedure_with_evidence(store, "zebra xylophone quartz")


def test_get_procedure_tie_breaks_lowest_id():
    from memstrata import LogicNode

    store = MemoryStore(Config(dim=16))
    v = np.zeros(16)
    v[0] = 1.0
    store.ingest(ObservationRecord(1, "v", 0.0, [Description("seed")], [], []))
    plant(store, logic={logic_id: LogicNode(
        id=logic_id, c="same goal", i_goal=v.copy(), i_step=v.copy(),
        dag=ProceduralDag.single_path(["x"]), episodic_links={1}, steps=("x",)) for logic_id in (1, 2)})
    # both nodes have identical i_goal; embed("same goal") though differs
    store.embedder.embed = lambda text: v  # force identity similarity
    pe = get_procedure_with_evidence(store, "same goal")
    assert pe.logic_id == 1


# -- query_step_sequence -----------------------------------------------------------


def test_single_path_empty_constraint():
    store = ready_store()
    paths = query_step_sequence(store, store.logic[1].c)
    assert len(paths) == 1
    assert paths[0].steps == ("chop_fruit", "mix_fruit", "serve_salad")
    assert paths[0].probability == pytest.approx(1.0, abs=1e-12)


def test_branch_probabilities_from_counts():
    dag = ProceduralDag()
    for label in ("a", "b", "c"):
        dag.add_node(label)
    dag.add_edge(START, "a", gamma=1.0)
    dag.add_edge("a", "b", count=3.0, gamma=0.0)
    dag.add_edge("a", "c", count=1.0, gamma=0.0)
    dag.add_edge("b", GOAL, gamma=1.0)
    dag.add_edge("c", GOAL, gamma=1.0)
    store = wrap_in_store(dag)
    paths = query_step_sequence(store, "wrapped procedure")
    assert [(p.steps, round(p.probability, 6)) for p in paths] == [
        (("a", "b"), 0.75), (("a", "c"), 0.25)]


def test_constraint_excludes_branch():
    dag = ProceduralDag()
    dag.add_node("a")
    dag.add_node("b", {"tool": "bowl"})
    dag.add_node("c", {"tool": "plate"})
    dag.add_edge(START, "a")
    dag.add_edge("a", "b", count=3.0)
    dag.add_edge("a", "c", count=1.0)
    dag.add_edge("b", GOAL)
    dag.add_edge("c", GOAL)
    store = wrap_in_store(dag)
    paths = query_step_sequence(store, "wrapped procedure",
                                Constraint([Predicate("tool", "neq", "bowl")]))
    assert [p.steps for p in paths] == [("a", "c")]


def test_path_explosion_guard():
    # diamond ladder: 2^12 paths exceeds max_paths=1000
    dag = ProceduralDag()
    prev = START
    for i in range(12):
        a, b, join = f"a{i:02d}", f"b{i:02d}", f"j{i:02d}"
        for label in (a, b, join):
            dag.add_node(label)
        dag.add_edge(prev, a)
        dag.add_edge(prev, b)
        dag.add_edge(a, join)
        dag.add_edge(b, join)
        prev = join
    dag.add_edge(prev, GOAL)
    store = wrap_in_store(dag, max_paths=1000)
    with pytest.raises(PathExplosion):
        query_step_sequence(store, "wrapped procedure")


def test_query_step_sequence_matches_brute_force_on_random_dags():
    rng = random.Random(31)
    for _ in range(200):
        dag = random_dag(rng)
        store = wrap_in_store(dag)
        constraint = random_constraint(rng)
        got = query_step_sequence(store, "wrapped procedure", constraint)
        expected = {
            path[1:-1]
            for path in brute_force_paths(dag)
            if all(satisfies(dag.nodes[v].attrs, constraint) for v in path[1:-1])
        }
        assert {p.steps for p in got} == expected
        # empty constraint: probabilities over all paths sum to 1
        full = query_step_sequence(store, "wrapped procedure", Constraint())
        assert sum(p.probability for p in full) == pytest.approx(1.0, abs=1e-9)
        # determinism incl. ordering
        again = query_step_sequence(store, "wrapped procedure", constraint)
        assert [(p.steps, p.probability) for p in again] == \
               [(p.steps, p.probability) for p in got]


def test_constraint_monotonicity():
    rng = random.Random(57)
    for _ in range(50):
        dag = random_dag(rng)
        store = wrap_in_store(dag)
        base = random_constraint(rng)
        extended = Constraint(list(base.predicates) + [Predicate("tool", "eq", "bowl")])
        base_set = {p.steps for p in query_step_sequence(store, "wrapped procedure", base)}
        ext_set = {p.steps for p in query_step_sequence(store, "wrapped procedure", extended)}
        assert ext_set <= base_set


# -- aggregate_character_behaviors ---------------------------------------------------


def test_aggregate_unknown_anchor():
    store = ready_store()
    with pytest.raises(UnknownAnchor):
        aggregate_character_behaviors(store, 999)


def test_aggregate_no_links_empty():
    store = ready_store()
    from memstrata import Percept
    from conftest import one_hot

    store.ingest(ObservationRecord(
        900, "z1", 0.0, [Description("@tom naps")], [],
        [Percept("face", one_hot(7, 512), "tom")]))
    tom = store.anchor_by_label("tom")
    assert aggregate_character_behaviors(store, tom) == []


def test_aggregate_links_through_evidence():
    store = ready_store()
    jack = store.anchor_by_label("jack")
    nodes = aggregate_character_behaviors(store, jack)
    assert [n.id for n in nodes] == [1]


def test_aggregate_two_procedures_one_actor():
    store = fruit_salad_store(extra_sources=False)
    from memstrata import Percept
    from conftest import one_hot

    rid = 700
    for video in ("y1", "y2"):
        for ti, text in enumerate(["@jack grab the plank", "@jack slice the plank"]):
            rid += 1
            store.ingest(ObservationRecord(
                rid, video, float(ti), [Description(text)], [],
                [Percept("face", one_hot(3, 512), "jack")] if ti == 0 else []))
    store.distill()
    jack = store.anchor_by_label("jack")
    nodes = aggregate_character_behaviors(store, jack)
    assert len(nodes) == 2
    assert [n.id for n in nodes] == sorted(n.id for n in nodes)


# -- expected hitting time -------------------------------------------------------------


def test_expected_steps_forced_chain():
    dag = ProceduralDag.single_path(["a"])
    assert goal_reach_probability(dag, "a") == pytest.approx(1.0, abs=1e-12)
    assert goal_reach_probability(dag, START) == pytest.approx(2.0, abs=1e-12)


def test_expected_steps_goal_is_zero():
    dag = ProceduralDag.single_path(["a"])
    assert goal_reach_probability(dag, GOAL) == 0.0


def test_expected_steps_branch_hand_dp():
    # a -> b -> GOAL (P=0.5) and a -> GOAL (P=0.5): E[a] = 1*0.5 + 2*0.5
    dag = ProceduralDag()
    dag.add_node("a")
    dag.add_node("b")
    dag.add_edge(START, "a", gamma=1.0)
    dag.add_edge("a", "b", count=1.0, gamma=0.0)
    dag.add_edge("a", GOAL, count=1.0, gamma=0.0)
    dag.add_edge("b", GOAL, gamma=1.0)
    assert goal_reach_probability(dag, "a") == pytest.approx(1.5, abs=1e-12)


def test_expected_steps_monte_carlo_oracle():
    rng = random.Random(99)
    dag = random_dag(rng, max_steps=5)
    sim_rng = random.Random(1234)
    walks = 200_000
    total = 0
    for _ in range(walks):
        v, steps = START, 0
        while v != GOAL:
            outs = sorted(dag.adj[v])
            probs = [transition_prob(dag, v, dst) for dst in outs]
            v = sim_rng.choices(outs, weights=probs)[0]
            steps += 1
        total += steps
    estimate = total / walks
    assert goal_reach_probability(dag, START) == pytest.approx(estimate, abs=0.02)


def _shuffled(dag, rng):
    """The same DAG with its nodes and edges inserted in a random order."""
    dup = ProceduralDag()
    labels = dag.step_labels()
    rng.shuffle(labels)
    for label in labels:
        dup.add_node(label, dag.nodes[label].attrs)
    edges = list(dag.edges())
    rng.shuffle(edges)
    for src, dst, stat in edges:
        dup.add_edge(src, dst, stat.count, stat.gamma)
    return dup


def test_expected_steps_match_a_memoised_recursion_bit_for_bit():
    rng = random.Random(11)
    for _ in range(300):
        dag = _shuffled(random_dag(rng), rng)
        order = dag.topological_order()
        assert sorted(order) == sorted(dag.nodes)
        assert all(order.index(src) < order.index(dst) for src, dst, _ in dag.edges())
        memo = {GOAL: 0.0}

        def expected(v):
            if v not in memo:
                memo[v] = 1.0 + sum(transition_prob(dag, v, dst) * expected(dst)
                                    for dst in sorted(dag.adj[v]))
            return memo[v]

        for label in dag.nodes:
            assert goal_reach_probability(dag, label) == expected(label)
    dag.add_edge(GOAL, START)
    assert dag.topological_order() is None


def test_expected_steps_invalid_inputs():
    from memstrata import InvalidDag

    dag = ProceduralDag.single_path(["a"])
    with pytest.raises(InvalidDag):
        goal_reach_probability(dag, "ghost")
    dag.add_edge("a", "a")
    with pytest.raises(InvalidDag):
        goal_reach_probability(dag, "a")


# -- determinism ------------------------------------------------------------------------


def test_symbolic_outputs_repeat_identically():
    store = ready_store()
    goal = store.logic[1].c
    first_paths = query_step_sequence(store, goal)
    first_pe = get_procedure_with_evidence(store, goal)
    for _ in range(100):
        paths = query_step_sequence(store, goal)
        assert [(p.steps, p.probability, p.step_success) for p in paths] == \
               [(p.steps, p.probability, p.step_success) for p in first_paths]
        pe = get_procedure_with_evidence(store, goal)
        assert pe.logic_id == first_pe.logic_id
        assert [e.id for e in pe.evidence] == [e.id for e in first_pe.evidence]


def test_a_goal_whose_pair_of_norms_overflows_with_the_procedures_matches_nothing():
    # Goal and procedure embed as np.full(8, 1e200), whose x·x overflows: their cosine is 0,
    # below theta, where a NaN from inf/inf would pass `sim < theta` and match.
    def vector_of(text):
        return np.full(8, 1e200) if text.startswith(("procedure", "zzz")) else None

    store = procedures_store(Config(dim=8, pool_trigger=50), ProbeEmbedder(8, vector_of),
                             [FRUIT_STEPS])
    assert store.distill() == [1]
    with pytest.raises(NoMatch):
        query_step_sequence(store, "zzz unrelated")
