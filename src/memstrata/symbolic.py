"""Deterministic symbolic query functions over distilled procedures.

Everything here is a pure read of an immutable snapshot: fixed similarity
lookups, exhaustive DFS path enumeration, boolean predicate filtering, and
closed-form expectations. No sampling, no model calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import cosine
from .dag import (
    GOAL,
    Constraint,
    ProceduralDag,
    check_valid,
    enumerate_paths,
    satisfies,
    success_rate,
    transition_prob,
)
from .errors import InvalidDag, NoMatch, UnknownAnchor


@dataclass(slots=True)
class PathResult:
    steps: tuple
    probability: float
    step_success: dict


@dataclass(slots=True)
class ProcedureEvidence:
    logic_id: int
    goal: str
    similarity: float
    dag: ProceduralDag
    evidence: list


def _resolve_goal_node(store, goal: str):
    """Logic node with max cosine(embed(goal), i_goal); lowest id on ties."""
    goal_vec = store.embed(goal)
    if not store._logic:
        raise NoMatch("logic layer is empty")
    rows = store._logic_rows["goal"]
    sims = cosine(goal_vec, rows)
    best = sims.argmax()
    sim = float(sims[best])
    if sim < store.config.theta_retrieve:
        raise NoMatch(f"best goal similarity {sim:.6f} below threshold")
    return store._logic[rows.ids[best]], sim


def constrained_paths(dag: ProceduralDag, constraint: Constraint | None,
                      max_paths: int = 10000, max_path_len: int = 64):
    """START->GOAL paths whose every step node satisfies the constraint.

    Each surviving path carries its probability (product of transition
    estimates along its edges) and the per-step success rates. Sorted by
    descending probability, then lexicographic labels. Also returns the
    unconstrained path count.
    """
    paths = enumerate_paths(dag, max_paths, max_path_len)
    results = []
    for path in paths:
        inner = tuple(path[1:-1])
        if constraint is not None and not all(
            satisfies(dag.nodes[v].attrs, constraint) for v in inner
        ):
            continue
        prob = 1.0
        for src, dst in zip(path, path[1:]):
            prob *= transition_prob(dag, src, dst)
        results.append(
            PathResult(inner, prob, {v: success_rate(dag, v) for v in inner})
        )
    results.sort(key=lambda r: (-r.probability, r.steps))
    return results, len(paths)


def get_procedure_with_evidence(store, goal: str) -> ProcedureEvidence:
    """Best-matching procedure plus its timestamp-ordered episodic evidence."""
    store.retrieval_calls += 1
    node, sim = _resolve_goal_node(store, goal)
    evidence = sorted(
        map(store._episodic.__getitem__, node.episodic_links), key=lambda e: (e.t, e.id)
    )
    return ProcedureEvidence(node.id, node.c, sim, node.dag.copy(), evidence)


def query_step_sequence(store, goal: str, constraint: Constraint | None = None):
    """All constraint-satisfying START->GOAL paths of the matched procedure."""
    store.retrieval_calls += 1
    node, _ = _resolve_goal_node(store, goal)
    results, _total = constrained_paths(
        node.dag, constraint, store.config.max_paths, store.config.max_path_len
    )
    return results


def _character_nodes(store, person: int):
    if person not in store._anchors:
        raise UnknownAnchor(f"no anchor {person}")
    linked = {
        ep_id for ep_id, node in store._episodic.items() if person in node.anchors
    }
    return [node for node in store._logic.values() if node.episodic_links & linked]


def aggregate_character_behaviors(store, person: int):
    """Logic nodes whose evidence references the given entity anchor."""
    store.retrieval_calls += 1
    return _character_nodes(store, person)


def goal_reach_probability(dag: ProceduralDag, from_node: str) -> float:
    """Expected steps to absorption at GOAL from the given node.

    On a valid DAG every node reaches GOAL, so absorption probability is
    trivially 1; the informative scalar is the expected hitting time under
    the transition estimates: E[GOAL]=0, E[v] = 1 + sum_j P(j|v) E[j].
    """
    if violations := check_valid(dag):
        raise InvalidDag(f"invalid DAG: {violations[0]}")
    if from_node not in dag.nodes:
        raise InvalidDag(f"unknown node {from_node!r}")
    order = dag.topological_order()
    expected = {GOAL: 0.0}
    for v in reversed(order):
        if v == GOAL:
            continue
        outs = sorted(dag.adj[v])
        if not outs:
            # Unreachable on a valid DAG (only GOAL lacks out-edges).
            expected[v] = 0.0
            continue
        expected[v] = 1.0 + sum(
            transition_prob(dag, v, dst) * expected[dst] for dst in outs
        )
    return expected[from_node]
