"""Incremental maintenance: gate, refine indexes by EMA, update DAG statistics.

A new observation either updates its best-matching logic node (when the
similarity clears delta_gate) or accumulates in the candidate pool until a
pool-scoped distillation cycle fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import cosine
from .dag import GOAL, START, ProceduralDag, assert_valid, record_trial
from .distill import distill, extract_action
from .errors import DimensionMismatch, NotIngested


@dataclass(slots=True)
class UpdateReport:
    """What one maintenance step did, one record at a time."""

    record_id: int
    matched: int | None = None
    similarity: float | None = None
    ema_applied: bool = False
    incremented: list = field(default_factory=list)
    expanded_nodes: list = field(default_factory=list)
    expanded_edges: list = field(default_factory=list)
    repaired_edges: list = field(default_factory=list)
    rejected: list = field(default_factory=list)
    trials: int = 0
    pooled: bool = False
    pool_size: int = 0
    distilled: list = field(default_factory=list)


def match_logic(store, o_vec: np.ndarray):
    """Best logic node by max(cos to i_goal, cos to i_step); None if empty.

    Ties break toward the lowest LogicId.
    """
    ids = sorted(store.logic)
    if not ids:
        return None
    sims = np.maximum(cosine(o_vec, [store.logic[i].i_goal for i in ids]),
                      cosine(o_vec, [store.logic[i].i_step for i in ids]))
    best = int(np.argmax(sims))
    return ids[best], float(sims[best])


def ema_update(node, o_vec: np.ndarray, beta: float) -> None:
    """i <- beta*i + (1-beta)*o for both index vectors; the result is not normalized."""
    if o_vec.shape != node.i_goal.shape:
        raise DimensionMismatch(
            f"observation vector shape {o_vec.shape} vs index {node.i_goal.shape}"
        )
    node.i_goal = beta * node.i_goal + (1.0 - beta) * o_vec
    node.i_step = beta * node.i_step + (1.0 - beta) * o_vec


def _apply_pairs(dag: ProceduralDag, actions, attr_source, report: UpdateReport) -> None:
    """Fold a record's consecutive action pairs into the DAG.

    Existing edges take a +1 count; unseen pairs expand the graph with
    N=1, gamma=1 provided acyclicity is preserved, otherwise the pair is
    rejected. New nodes left off a START->GOAL path afterwards get
    prior-only (N=0) edges from START / to GOAL so the DAG stays valid.
    """
    new_nodes = []
    for a, b in zip(actions, actions[1:]):
        if a == b:
            report.rejected.append((a, b))
            continue
        if dag.has_edge(a, b):
            dag.adj[a][b].count += 1.0
            report.incremented.append((a, b))
            continue
        if a in dag.nodes and b in dag.nodes and dag.has_path(b, a):
            report.rejected.append((a, b))
            continue
        for label in (a, b):
            if label not in dag.nodes:
                dag.add_node(label, attrs=attr_source.get(label, {}))
                new_nodes.append(label)
                report.expanded_nodes.append(label)
        dag.add_edge(a, b, count=1.0, gamma=1.0)
        report.expanded_edges.append((a, b))

    for label in new_nodes:
        if not dag.has_path(START, label):
            dag.add_edge(START, label, count=0.0, gamma=1.0)
            report.repaired_edges.append((START, label))
    for label in new_nodes:
        if not dag.has_path(label, GOAL):
            dag.add_edge(label, GOAL, count=0.0, gamma=1.0)
            report.repaired_edges.append((label, GOAL))


def _record_actions(store, rec):
    actions = []
    attr_source: dict[str, dict] = {}
    for desc in rec.descriptions:
        action = extract_action(desc.text, store.config.action_verbs)
        if action:
            actions.append((action, desc.outcome))
            attr_source.setdefault(action, dict(desc.attrs))
    return actions, attr_source


def apply_observation(store, rec) -> UpdateReport:
    """Algorithm phase 3 for one already-ingested record."""
    meta = store.observations.get(rec.id)
    if meta is None:
        raise NotIngested(f"observation {rec.id} was never ingested")

    o_vec = store.embed(" ".join(d.text for d in rec.descriptions))
    report = UpdateReport(record_id=rec.id)

    best = match_logic(store, o_vec)
    if best is not None and best[1] > store.config.delta_gate:
        logic_id, sim = best
        report.matched, report.similarity = logic_id, sim
        node = store.logic[logic_id]
        actions, attr_source = _record_actions(store, rec)
        ema_update(node, o_vec, store.config.beta_ema)
        report.ema_applied = True

        _apply_pairs(node.dag, [a for a, _ in actions], attr_source, report)
        for action, outcome in actions:
            if action in node.dag.nodes and action not in (START, GOAL):
                record_trial(node.dag, action, outcome == "success")
                report.trials += 1
        node.episodic_links.update(meta.episodes)
        assert_valid(node.dag, "apply_observation")
        return report

    report.pooled = True
    if best is not None:
        report.similarity = best[1]
    store.pool.append(rec.id)
    report.pool_size = len(store.pool)
    if len(store.pool) >= store.config.pool_trigger:
        episode_ids = set().union(*(store.observations[i].episodes for i in store.pool))
        report.distilled = distill(store, episode_ids=episode_ids)
        store.pool.clear()
        report.pool_size = 0
    return report

