import gc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from memstrata import (
    Constraint,
    GOAL,
    MissingEdge,
    NotAStepNode,
    PathExplosion,
    Predicate,
    ProceduralDag,
    START,
    check_valid,
    enumerate_paths,
    satisfies,
    success_rate,
    transition_prob,
)
from memstrata.dag import DagNode, EdgeStat, record_trial
from conftest import ladder_dag


def branch_dag(n_b=3.0, n_c=1.0, gamma=0.0):
    dag = ProceduralDag()
    for label in ("a", "b", "c"):
        dag.add_node(label)
    dag.add_edge(START, "a", gamma=1.0)
    dag.add_edge("a", "b", count=n_b, gamma=gamma)
    dag.add_edge("a", "c", count=n_c, gamma=gamma)
    dag.add_edge("b", GOAL, gamma=1.0)
    dag.add_edge("c", GOAL, gamma=1.0)
    return dag


def test_transition_prob_frequency_form():
    dag = branch_dag(3.0, 1.0, gamma=0.0)
    assert transition_prob(dag, "a", "b") == 0.75
    assert transition_prob(dag, "a", "c") == 0.25


def test_transition_prob_single_edge_normalizes():
    dag = ProceduralDag.single_path(["x"])
    assert transition_prob(dag, START, "x") == 1.0
    assert transition_prob(dag, "x", GOAL) == 1.0


def test_transition_prob_uniform_prior():
    dag = branch_dag(0.0, 0.0, gamma=1.0)
    assert transition_prob(dag, "a", "b") == 0.5
    assert transition_prob(dag, "a", "c") == 0.5


def test_transition_prob_missing_edge():
    dag = branch_dag()
    with pytest.raises(MissingEdge):
        transition_prob(dag, "b", "c")


def test_transition_prob_rows_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(50):
        dag = branch_dag(float(rng.integers(0, 20)), float(rng.integers(0, 20)),
                         gamma=float(rng.choice([0.0, 1.0, 2.5])))
        for src in dag.adj:
            outs = dag.adj[src]
            if not outs:
                continue
            total = sum(transition_prob(dag, src, dst) for dst in outs)
            assert abs(total - 1.0) <= 1e-9


def test_transition_prob_scaling_invariance_in_frequency_mode():
    d1 = branch_dag(3.0, 1.0, gamma=0.0)
    d2 = branch_dag(30.0, 10.0, gamma=0.0)
    assert transition_prob(d1, "a", "b") == transition_prob(d2, "a", "b")


def test_transition_prob_strictly_increases_with_observation():
    dag = branch_dag(3.0, 1.0, gamma=1.0)
    before = transition_prob(dag, "a", "c")
    dag.adj["a"]["c"].count += 1.0
    assert transition_prob(dag, "a", "c") > before


def test_success_rate_prior_and_posterior():
    dag = ProceduralDag.single_path(["x"])
    assert success_rate(dag, "x") == 0.5
    for _ in range(8):
        record_trial(dag, "x", True)
    for _ in range(2):
        record_trial(dag, "x", False)
    assert success_rate(dag, "x") == 9 / 12


def test_success_rate_rejects_sentinels():
    dag = ProceduralDag.single_path(["x"])
    with pytest.raises(NotAStepNode):
        success_rate(dag, START)
    with pytest.raises(NotAStepNode):
        success_rate(dag, "ghost")


def test_satisfies_empty_constraint():
    assert satisfies({}, Constraint()) is True
    assert satisfies({"tool": "bowl"}, Constraint()) is True


def test_satisfies_neq():
    c = Constraint([Predicate("tool", "neq", "bowl")])
    assert satisfies({"tool": "bowl"}, c) is False
    assert satisfies({"tool": "plate"}, c) is True
    assert satisfies({}, c) is True  # missing key passes negative ops


def test_satisfies_missing_key_rules():
    assert satisfies({}, Constraint([Predicate("tool", "not_has", "*")])) is True
    assert satisfies({}, Constraint([Predicate("tool", "has", "*")])) is False
    assert satisfies({}, Constraint([Predicate("tool", "eq", "bowl")])) is False
    assert satisfies({}, Constraint([Predicate("n", "leq", "3")])) is False
    assert satisfies({}, Constraint([Predicate("n", "not_in", ["1"])])) is True


def test_satisfies_numeric_and_set_ops():
    attrs = {"weight": "3.5", "tool": "bowl"}
    assert satisfies(attrs, Constraint([Predicate("weight", "leq", "4")]))
    assert satisfies(attrs, Constraint([Predicate("weight", "geq", 3)]))
    assert not satisfies(attrs, Constraint([Predicate("weight", "geq", "10")]))
    assert satisfies(attrs, Constraint([Predicate("tool", "in", ["bowl", "plate"])]))
    assert not satisfies(attrs, Constraint([Predicate("tool", "not_in", ["bowl"])]))
    # non-numeric attribute fails numeric comparisons
    assert not satisfies({"tool": "bowl"}, Constraint([Predicate("tool", "leq", "3")]))


@pytest.mark.parametrize("op", ["in", "not_in"])
@pytest.mark.parametrize("value", ["knife", 3, None, {"knife"}], ids=["str", "int", "none", "set"])
def test_predicate_in_refuses_a_value_that_is_not_a_list_or_tuple(op, value):
    # A string would be tested by its characters: "k" is in "knife".
    with pytest.raises(ValueError, match=f"predicate {op} needs a list or tuple of values"):
        Predicate("tool", op, value)
    assert satisfies({"tool": "k"}, Constraint([Predicate("tool", op, ("k", "bowl"))])) is (op == "in")


def test_satisfies_conjunction():
    attrs = {"tool": "bowl", "room": "kitchen"}
    c = Constraint([Predicate("tool", "eq", "bowl"), Predicate("room", "eq", "garage")])
    assert satisfies(attrs, c) is False


def test_check_valid_ok_on_single_path():
    assert check_valid(ProceduralDag.single_path(["a"])) == []


def test_check_valid_detects_self_loop():
    dag = ProceduralDag.single_path(["a"])
    dag.add_edge("a", "a")
    assert "cycle" in check_valid(dag)


def test_check_valid_detects_unreachable_goal():
    dag = ProceduralDag.single_path(["a"])
    dag.add_node("stranded")
    dag.add_edge("a", "stranded")
    violations = check_valid(dag)
    assert any(v.startswith("unreachable-goal") for v in violations)
    # Independent reachability oracle by DFS over the adjacency
    seen, stack = set(), ["stranded"]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(dag.adj[v])
    assert GOAL not in seen


def test_check_valid_degree_rules():
    dag = ProceduralDag.single_path(["a"])
    dag.add_edge("a", START)
    assert any("start" in v or v == "cycle" for v in check_valid(dag))
    dag2 = ProceduralDag.single_path(["a"])
    dag2.add_edge(GOAL, "a")
    assert any("goal" in v or v == "cycle" for v in check_valid(dag2))


def test_enumerate_paths_orders_and_guards():
    dag = branch_dag()
    paths = enumerate_paths(dag)
    assert paths == [[START, "a", "b", GOAL], [START, "a", "c", GOAL]]
    with pytest.raises(PathExplosion):
        enumerate_paths(dag, max_paths=1)
    with pytest.raises(PathExplosion):
        enumerate_paths(dag, max_path_len=2)


def test_enumerate_paths_leaves_no_garbage_cycle():
    # A failed or successful call must free its paths without the cycle
    # collector, which a recursive closure referring to itself would need.
    ladder, line = ladder_dag(12), branch_dag()
    gc.collect()
    gc.disable()
    try:
        try:
            enumerate_paths(ladder, max_paths=1000)
        except PathExplosion:
            pass
        else:
            raise AssertionError("the ladder has 4096 paths")
        assert gc.collect() == 0
        assert len(enumerate_paths(line)) == 2
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerate_paths_matches_a_recursive_walk():
    def recursive(dag, path, out):
        if path[-1] == GOAL:
            out.append(list(path))
        for child in sorted(dag.adj.get(path[-1], ())):
            recursive(dag, path + [child], out)
        return out

    for dag in (ladder_dag(1), ladder_dag(5), branch_dag()):
        assert enumerate_paths(dag) == recursive(dag, [START], [])
    assert enumerate_paths(ladder_dag(5), max_path_len=7) == recursive(ladder_dag(5), [START], [])
    with pytest.raises(PathExplosion, match="longer than 6"):
        enumerate_paths(ladder_dag(5), max_path_len=6)
    with pytest.raises(PathExplosion, match="longer than 1 "):
        enumerate_paths(branch_dag(), max_path_len=1)
    assert enumerate_paths(ProceduralDag()) == []


def _rows(dag):
    return ({label: (dict(n.attrs), n.success_alpha, n.success_beta) for label, n in dag.nodes.items()},
            {(src, dst): (e.count, e.gamma) for src, dst, e in dag.edges()})


def test_a_builder_copy_is_independent():
    # A copy has maps of its own and a copy of each writable edge stat, and shares the frozen
    # nodes, which its methods replace: no write into it, through its methods or into its maps
    # and stats, reaches the DAG it was made from.
    dag = branch_dag()
    dag.add_node("d", {"tool": ["knife"]})
    before = _rows(dag)
    dup = dag.copy()
    dup.adj["a"]["b"].count += 100
    dup.nodes["a"] = DagNode({"x": 1}, success_beta=9.0)
    with pytest.raises(FrozenInstanceError):
        dup.nodes["b"].success_alpha = 2.0
    dup.add_edge("a", "c", count=5.0)
    record_trial(dup, "c", True)
    dup.add_node("e")
    dup.adj["d"]["e"] = dup.adj["a"]["b"]
    del dup.adj[START]["a"]
    assert _rows(dag) == before
    with pytest.raises(TypeError, match="read-only"):
        dup.nodes["d"].attrs["tool"].append("fork")  # attrs are read-only everywhere
    # A copy of a sealed DAG shares each frozen node and stat, which its methods replace.
    sealed = dag.sealed()
    built = sealed.copy()
    built.add_edge("a", "b", count=1.0)
    record_trial(built, "b", False)
    assert _rows(sealed) == before
    assert built.nodes["c"] is sealed.nodes["c"] and built.adj["a"]["c"] is sealed.adj["a"]["c"]
    assert built.adj["a"]["b"].count == 4.0 and built.nodes["b"].success_beta == 2.0


def test_edge_stats_compare_by_value_whether_a_builders_or_sealed():
    # A builder's stat is writable and a sealed DAG's frozen; both compare by their values, as a
    # plain EdgeStat does, and only the frozen one hashes.
    dag = branch_dag()
    sealed = dag.sealed()
    assert EdgeStat(0.0, 1.0) == ProceduralDag.single_path(["a"]).adj[START]["a"]
    assert dag.adj["a"]["b"] == sealed.adj["a"]["b"] == EdgeStat(3.0, 0.0) != EdgeStat(3.0, 1.0)
    assert dag.adj == sealed.adj and sealed.copy().adj == dag.adj
    built = sealed.copy()
    built.add_edge("a", "c", count=1.0)  # a writable stat beside the shared frozen ones
    assert built.adj != sealed.adj and built.adj["a"]["c"] == EdgeStat(2.0, 0.0)
    assert hash(sealed.adj["a"]["b"]) == hash(EdgeStat(3.0, 0.0))
    with pytest.raises(TypeError, match="unhashable"):
        hash(built.adj["a"]["c"])
