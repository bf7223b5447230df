"""DAG validity: one sweep, run where a DAG enters, and kept by construction.

``check_valid`` is the one validity sweep. It is run where a DAG enters the
engine: a save's and a load's sweep, the inputs to ``fuse()``, a fusion's
union and ``goal_reach_probability``. It never raises on a DAG's containers
or on an edge to or from a label that is no node; it reports them. The DAGs
the engine builds itself (a distilled single path, an applied record's pairs)
are valid by construction, which the property below checks in place of a
runtime assert. A store's DAGs are sealed, so a fault reaches one only by a
plant (``conftest.plant``) of a caller's builder in its place.
"""

import re
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from memstrata import (
    GOAL,
    START,
    Description,
    InvalidDag,
    InvalidInput,
    ObservationRecord,
    ProceduralDag,
    SnapshotIoError,
    check_valid,
    fuse,
)
from memstrata.dag import DagNode, EdgeStat
from memstrata.symbolic import goal_reach_probability
from conftest import fruit_salad_store, plant

# -- check() never raises on a DAG's containers ---------------------------------------------


def _first_out(dag, step):
    return next(iter(dag.adj[step]))


CONTAINER_FAULTS = {
    "node": (lambda dag, step: dag.nodes.__setitem__(step, None), "not-a-dag-node: {step}"),
    "edge-stat": (lambda dag, step: dag.adj[step].__setitem__(_first_out(dag, step), None),
                  "not-an-edge-stat: {step}->{next}"),
    "out-edge-map": (lambda dag, step: dag.adj.__setitem__(step, None), "out-edge-map-not-a-dict: {step}"),
    "no-out-edge-map": (lambda dag, step: dag.adj.pop(step), "no-out-edge-map: {step}"),
    "unknown-target": (lambda dag, step: dag.adj[step].__setitem__("zzz", EdgeStat()),
                       "unknown-edge-target: {step}->zzz"),
}


def _faulty(fault, faults):
    """A distilled store with a builder of its first DAG in that DAG's place, the fault written
    into it; a valid builder of the DAG; the first step's label; and the fault's report."""
    store = fruit_salad_store()
    store.distill()
    logic_id = min(store.logic)
    node = store.logic[logic_id]
    dag, valid = node.dag.copy(), node.dag.copy()
    step = sorted(dag.step_labels())[0]
    write, expected = faults[fault]
    expected = expected.format(step=step, next=_first_out(dag, step))
    write(dag, step)
    plant(store, logic={logic_id: replace(node, dag=dag)})
    return store, logic_id, dag, valid, expected


@pytest.mark.parametrize("fault", CONTAINER_FAULTS)
def test_each_container_fault_is_reported_and_refused_by_every_boundary(tmp_path, fault):
    store, logic_id, dag, valid, expected = _faulty(fault, CONTAINER_FAULTS)
    assert check_valid(dag)[0] == expected
    assert store.check()[0] == f"logic {logic_id}: {expected}"
    with pytest.raises(SnapshotIoError, match=re.escape(f"logic {logic_id}: {expected}") + "$"):
        store.save(str(tmp_path / "snap.json"))
    for name, pair in (("first", (dag, valid)), ("second", (valid, dag))):
        with pytest.raises(InvalidInput, match=re.escape(f"{name} input DAG invalid: {expected}") + "$"):
            fuse(*pair, store.embedder)
    with pytest.raises(InvalidDag, match=re.escape(f"invalid DAG: {expected}") + "$"):
        goal_reach_probability(dag, START)


# -- check_valid judges each value before it compares it -------------------------------------

def _edge(dag, step, **value):
    """Replace the first out-edge stat of ``step`` by one with ``value``."""
    dst = _first_out(dag, step)
    dag.adj[step][dst] = replace(dag.adj[step][dst], **value)


def _node(dag, step, **value):
    dag.nodes[step] = replace(dag.nodes[step], **value)


VALUE_FAULTS = {
    "label": (lambda dag, step: dag.nodes.__setitem__(5, dag.nodes[step]) or dag.adj.__setitem__(5, {}),
              "step label 5 is not a str"),
    "count": (lambda dag, step: _edge(dag, step, count="1"), "{step}->{next} count '1' is not a finite number"),
    "gamma": (lambda dag, step: _edge(dag, step, gamma=None), "{step}->{next} gamma None is not a finite number"),
    "alpha": (lambda dag, step: _node(dag, step, success_alpha="x"), "{step} success_alpha 'x' is not a finite number"),
    "beta": (lambda dag, step: _node(dag, step, success_beta=float("nan")),
             "{step} success_beta nan is not a finite number"),
}


@pytest.mark.parametrize("boundary", ["check_valid", "check", "fuse", "goal_reach_probability"])
@pytest.mark.parametrize("fault", VALUE_FAULTS)
def test_a_value_check_valid_would_compare_is_reported_not_raised(fault, boundary):
    # A step label that is no str is sorted, and a count, gamma or Beta parameter that is no
    # finite number compared: each is reported first, at every boundary a DAG enters by.
    store, logic_id, dag, valid, expected = _faulty(fault, VALUE_FAULTS)
    if boundary == "check_valid":
        assert check_valid(dag)[0] == expected
    elif boundary == "check":
        assert store.check()[0] == f"logic {logic_id}: {expected}"
    elif boundary == "fuse":
        with pytest.raises(InvalidInput, match=re.escape(f"second input DAG invalid: {expected}") + "$"):
            fuse(valid, dag, store.embedder)
    else:
        with pytest.raises(InvalidDag, match=re.escape(f"invalid DAG: {expected}") + "$"):
            goal_reach_probability(dag, START)


def test_an_edge_from_no_node_is_no_cycle():
    dag = ProceduralDag.single_path(["a", "b"])
    dag.adj["zzz"] = {"b": EdgeStat()}
    assert check_valid(dag) == ["unknown-edge-source: zzz"]


# -- check_valid against a brute-force closure -----------------------------------------------

STEPS = ("a", "b", "c", "d", "e")
STRANGERS = ("x", "y")  # labels that are never nodes
STATS = (0.0, 1.0, 2.5) * 4 + (-1.0,)  # now and then negative
BETAS = (1.0, 3.0) * 4 + (0.5,)  # now and then below the prior


@st.composite
def label_graphs(draw):
    """A DAG-shaped value of any structure, with well-formed containers: START and GOAL,
    each usually present, some steps, edges between them, and now and then an edge to or
    from a stranger; or, now and then, a path from START to GOAL that is clean but for one
    edge into it from a stranger, which an order that counted it as an in-edge would take
    for a cycle."""
    if draw(st.integers(0, 7)) == 0:
        dag = ProceduralDag.single_path(draw(st.lists(st.sampled_from(STEPS), unique=True)))
        target = draw(st.sampled_from(sorted(set(dag.nodes) - {START})))
        dag.adj[draw(st.sampled_from(STRANGERS))] = {target: EdgeStat()}
        return dag
    labels = [label for label in (START, GOAL) if draw(st.integers(0, 19))]
    labels += draw(st.lists(st.sampled_from(STEPS), unique=True))
    dag = ProceduralDag.__new__(ProceduralDag)
    dag.nodes = {label: DagNode({}, draw(st.sampled_from(BETAS)), draw(st.sampled_from(BETAS)))
                 for label in labels}
    dag.adj = {label: {} for label in labels}
    ends = st.sampled_from(labels or STRANGERS)
    anywhere = st.sampled_from(labels + list(STRANGERS))
    edges = draw(st.lists(st.tuples(ends, ends), max_size=7))
    if draw(st.integers(0, 3)) == 0:
        edges += draw(st.lists(st.tuples(anywhere, anywhere), max_size=2))
    stats = st.builds(EdgeStat, st.sampled_from(STATS), st.sampled_from(STATS))
    for src, dst in edges:
        dag.adj.setdefault(src, {})[dst] = draw(stats)
    return dag


def closure_oracle(dag) -> list[str]:
    """The rules spelled from the transitive closure of the edges, in check_valid's order.
    An edge from a stranger is reported, and is no path: no edge leads to a stranger, so it
    starts no path from START and breaks no cycle."""
    nodes, adj = dag.nodes, dag.adj
    missing = [rule for rule, label in (("missing-start", START), ("missing-goal", GOAL))
               if label not in nodes]
    if missing:
        return missing
    out = []
    for src, outs in adj.items():
        if src not in nodes:
            out.append(f"unknown-edge-source: {src}")
        for dst, stat in outs.items():
            if dst not in nodes:
                out.append(f"unknown-edge-target: {src}->{dst}")
            if stat.count < 0:
                out.append(f"negative-count: {src}->{dst}")
            if stat.gamma < 0:
                out.append(f"negative-gamma: {src}->{dst}")
    if any(START in outs for outs in adj.values()):
        out.append("start-has-in-edges")
    if adj[GOAL]:
        out.append("goal-has-out-edges")
    out += [f"beta-params-below-prior: {label}" for label, node in nodes.items()
            if node.success_alpha < 1.0 or node.success_beta < 1.0]
    edges = {(src, dst) for src, outs in adj.items() for dst in outs}
    if any(dst not in nodes for _, dst in edges):
        return out  # no order can be taken over an edge to no node
    paths = set(edges)  # (u, v): a path of one edge or more
    while True:
        longer = paths | {(u, w) for u, v in paths for v2, w in paths if v == v2}
        if longer == paths:
            break
        paths = longer
    if any((v, v) in paths for v in nodes):
        return out + ["cycle"]
    for label in nodes:
        if label not in (START, GOAL):
            if (START, label) not in paths:
                out.append(f"unreachable-from-start: {label}")
            if (label, GOAL) not in paths:
                out.append(f"unreachable-goal: {label}")
    return out


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(label_graphs())
def test_check_valid_equals_a_brute_force_closure(dag):
    assert check_valid(dag) == closure_oracle(dag)


# -- the engine's own DAG writes keep every DAG valid ----------------------------------------

PROCEDURE = ("chop the fruit", "mix the fruit", "serve the salad")
OTHER_LINES = ("wash the bowl", "grab the knife", "pour the juice", "slice the fruit")


@st.composite
def records(draw):
    """A record's lines: the procedure's steps in order or reversed, a step repeated (a self
    pair), and steps the store has not seen, in any mix."""
    shape = draw(st.sampled_from(("forward", "reversed", "mixed")))
    if shape == "forward":
        lines = list(PROCEDURE)
    elif shape == "reversed":
        lines = list(reversed(PROCEDURE))
    else:
        lines = draw(st.lists(st.sampled_from(PROCEDURE + OTHER_LINES), min_size=1, max_size=6))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(lines) - 1))
        lines.insert(at, lines[at])
    return lines


@settings(derandomize=True, database=None, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(records(), min_size=1, max_size=12))
def test_applies_and_pool_distills_keep_every_dag_valid(batches):
    store = fruit_salad_store(dim=64, extra_sources=False, pool_trigger=3)
    store.distill()
    for rid, lines in enumerate(batches, start=100):
        rec = ObservationRecord(rid, f"w{rid % 4}", float(rid), [Description(line) for line in lines], [], [])
        store.ingest(rec)
        store.apply(rec)
        assert {logic_id: check_valid(node.dag) for logic_id, node in store.logic.items()} == \
            {logic_id: [] for logic_id in store.logic}
