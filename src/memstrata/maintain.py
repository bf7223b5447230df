"""Incremental maintenance: gate, refine indexes by EMA, update DAG statistics.

A new observation either updates its best-matching logic node (when the
similarity clears delta_gate) or accumulates in the candidate pool until a
pool-scoped distillation cycle fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import cosine
from .dag import GOAL, START, ProceduralDag, record_trial
from .distill import distill
from .errors import DimensionMismatch, NotIngested
from .ingest import record_fault


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

    Ties break toward the lowest LogicId. The store's goal rows and step
    rows are scanned in place.
    """
    if not store._logic:
        return None
    goal, step = store._logic_rows.values()
    sims = np.maximum(cosine(o_vec, goal), cosine(o_vec, step))
    best = sims.argmax()
    return goal.ids[best], float(sims[best])


def ema_update(node, o_vec: np.ndarray, beta: float) -> None:
    """i <- beta*i + (1-beta)*o for both index vectors; the result is not normalized.

    Both are written in place, so a node's views of the store's logic rows
    stay its rows; each new vector is computed whole before either write.
    """
    if o_vec.shape != node.i_goal.shape:
        raise DimensionMismatch(
            f"observation vector shape {o_vec.shape} vs index {node.i_goal.shape}"
        )
    pull = (1.0 - beta) * o_vec
    goal, step = beta * node.i_goal + pull, beta * node.i_step + pull
    node.i_goal[...], node.i_step[...] = goal, step


def _apply_pairs(dag: ProceduralDag, actions, attr_source, report: UpdateReport) -> None:
    """Fold a record's consecutive action pairs into the builder ``dag``.

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
            dag.add_edge(a, b, count=1.0)
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


def apply_observation(store, rec) -> UpdateReport:
    """Algorithm phase 3 for one already-ingested record, refused before any mutation unless
    ``record_fault`` accepts it. The record is judged whole, but only its id is read: what is
    applied is the episodes that ingest stored under that id, their texts, actions, outcomes
    and attrs, in order."""
    if fault := record_fault(rec, store.config.dim):
        raise fault
    meta = store._observations.get(rec.id)
    if meta is None:
        raise NotIngested(f"observation {rec.id} was never ingested")

    episodes = list(map(store._episodic.__getitem__, meta.episodes))
    joined = " ".join(n.d for n in episodes)
    entry = store._texts.get(joined)  # a one-description record's text was embedded at ingest
    o_vec = store.embed(joined) if entry is None else entry[1]
    report = UpdateReport(record_id=rec.id)

    best = match_logic(store, o_vec)
    if best is not None and best[1] > store.config.delta_gate:
        logic_id, sim = best
        report.matched, report.similarity = logic_id, sim
        node = store._logic[logic_id]
        steps = [n for n in episodes if n.action]
        attr_source = {n.action: n.attrs for n in reversed(steps)}  # each action's first attrs
        ema_update(node, o_vec, store.config.beta_ema)
        report.ema_applied = True

        dag = node.dag.copy()  # a builder that shares every node and stat it does not replace
        _apply_pairs(dag, [n.action for n in steps], attr_source, report)
        for n in steps:
            if n.action in dag.nodes and n.action not in (START, GOAL):
                record_trial(dag, n.action, n.outcome == "success")
                report.trials += 1
        store._logic[logic_id] = replace(node, dag=dag.sealed(),
                                         episodic_links=node.episodic_links.union(meta.episodes))
        return report

    report.pooled = True
    if best is not None:
        report.similarity = best[1]
    # The pool is assigned last, so a distill that raises leaves it as it was.
    pool = store._pool if rec.id in store._pool else store._pool + (rec.id,)  # pooled once
    report.pool_size = len(pool)
    if len(pool) >= store.config.pool_trigger:
        episode_ids = set().union(*(store._observations[i].episodes for i in pool))
        report.distilled = distill(store, episode_ids=episode_ids)
        pool = ()
        report.pool_size = 0
    store._pool = pool
    return report

