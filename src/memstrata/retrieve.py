"""Hybrid retrieval: query classification, blended scoring, type-aware re-ranking.

Stage I scores every layer by cosine (logic nodes by the goal/step blend)
and keeps candidates above theta_retrieve; Stage II multiplies by the
query-type layer weight. Constraint and character queries get the top
logic node's symbolic outputs attached alongside the episodic evidence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .core import _is_int, cosine
from .dag import Constraint
from .errors import InvalidInput
from .symbolic import _character_nodes, constrained_paths

CONSTRAINT_CUES = (
    "without", "only", "avoid", "must", "cannot", "unless",
    "broken", "unavailable", "instead",
)
CHARACTER_CUES = (
    "personality", "what kind of person", "usually", "habit", "tends to",
)

_LAYER_RANK = {"epi": 0, "sem": 1, "logic": 2}


def _has_cue(text: str, cue: str) -> bool:
    if " " in cue:
        return cue in text
    return re.search(rf"\b{re.escape(cue)}\b", text) is not None


def classify(text: str, classifier=None) -> str:
    """Rule-tier query classification; constraint cues outrank character cues.

    An external classifier, when configured, may override only texts the
    rules marked factual.
    """
    lowered = text.lower()
    if any(_has_cue(lowered, cue) for cue in CONSTRAINT_CUES):
        return "constraint"
    if any(_has_cue(lowered, cue) for cue in CHARACTER_CUES):
        return "character"
    if classifier is not None:
        result = classifier(text)
        if result not in ("factual", "constraint", "character"):
            raise InvalidInput(f"classifier returned unknown type {result!r}")
        return result
    return "factual"


@dataclass(slots=True)
class Query:
    text: str
    q_vec: np.ndarray
    qtype: str
    constraint: Constraint | None = None
    person: int | None = None


def make_query(store, text: str, qtype: str | None = None,
               constraint: Constraint | None = None, person: int | None = None) -> Query:
    if qtype is None:
        qtype = classify(text, store.classifier)
    if qtype not in ("factual", "constraint", "character"):
        raise InvalidInput(f"unknown query type {qtype!r}")
    if constraint is not None and qtype != "constraint":
        raise InvalidInput("constraint predicates require a constraint-type query")
    return Query(text, store.embed(text), qtype, constraint, person)


@dataclass(slots=True)
class RankedItem:
    layer: str
    node_id: int
    score_init: float
    score_final: float


@dataclass(slots=True)
class AnswerContext:
    """Evidence bundle for downstream answer generation."""

    evidence: list = field(default_factory=list)  # episodic ids, best first
    top_logic: int | None = None
    procedure_goal: str | None = None
    paths: list | None = None
    paths_total: int | None = None
    character_nodes: list | None = None


@dataclass(slots=True)
class RetrievalResult:
    ranked: list
    answer_context: AnswerContext


def score_logic(q_vec: np.ndarray, node, alpha: float) -> float:
    """alpha * cos(q, i_goal) + (1-alpha) * cos(q, i_step)."""
    return float(_logic_scores(q_vec, [node.i_goal], [node.i_step], alpha)[0])


def _logic_scores(q_vec: np.ndarray, goals, steps, alpha: float) -> np.ndarray:
    """``score_logic`` of each node, from a scan of the goal indexes and one of the step indexes."""
    return alpha * cosine(q_vec, goals) + (1.0 - alpha) * cosine(q_vec, steps)


def retrieve(store, q: Query, k: int, include_logic: bool = True) -> RetrievalResult:
    """Two-stage retrieval over all three layers; deterministic top-k."""
    if not (_is_int(k) and k >= 1):  # a negative k would slice off the last items
        raise InvalidInput(f"k must be an int of at least 1, got {k!r}")
    store.retrieval_calls += 1
    theta = store.config.theta_retrieve
    weights = store.config.layer_weights[q.qtype]
    episodic, semantic = store._episodic, store._semantic
    layers = [
        ("epi", list(episodic), cosine(q.q_vec, [n.v_e for n in episodic.values()])),
        ("sem", list(semantic), cosine(q.q_vec, [n.v_s for n in semantic.values()])),
    ]
    if include_logic:
        goal, step = store._logic_rows.values()
        layers.append(("logic", goal.ids, _logic_scores(q.q_vec, goal, step, store.config.alpha)))
    items = []
    for layer, ids, scores in layers:
        for hit in np.flatnonzero(scores > theta):
            score = float(scores[hit])
            items.append(RankedItem(layer, ids[hit], score, score * weights[layer]))

    items.sort(key=lambda it: (-it.score_final, _LAYER_RANK[it.layer], it.node_id))
    ranked = items[:k]

    context = AnswerContext(
        evidence=[it.node_id for it in items if it.layer == "epi"][:k]
    )
    if q.qtype in ("constraint", "character") and include_logic:
        top_logic = next((it for it in items if it.layer == "logic"), None)
        if top_logic is not None:
            node = store._logic[top_logic.node_id]
            context.top_logic = node.id
            context.procedure_goal = node.c
            if q.qtype == "constraint":
                context.paths, context.paths_total = constrained_paths(
                    node.dag, q.constraint,
                    store.config.max_paths, store.config.max_path_len,
                )
        if q.qtype == "character" and q.person is not None:
            context.character_nodes = [n.id for n in _character_nodes(store, q.person)]
    return RetrievalResult(ranked, context)


@dataclass(slots=True)
class ProcedureAnswer:
    mode: str
    steps: tuple
    paths: list | None
    calls: int


def answer_procedure(store, goal: str, use_logic: bool = True,
                     constraint: Constraint | None = None, k: int = 10) -> ProcedureAnswer:
    """Answer a procedural question, counting store accesses.

    With the logic layer, one symbolic call returns the full step
    structure. The episodic-only baseline walks the best-matching source
    timeline hop by hop, paying one retrieval call per hop.
    """
    from .symbolic import query_step_sequence

    start_calls = store.retrieval_calls
    if use_logic:
        paths = query_step_sequence(store, goal, constraint)
        steps = paths[0].steps if paths else ()
        return ProcedureAnswer("logic", steps, paths, store.retrieval_calls - start_calls)

    result = retrieve(store, make_query(store, goal, "factual"), k, include_logic=False)
    current = None
    for item in result.ranked:
        if item.layer == "epi":
            current = store._episodic[item.node_id]
            break
    steps = []
    while current is not None:
        if current.action:
            steps.append(current.action)
        hop = retrieve(store, make_query(store, current.d, "factual"), k, include_logic=False)
        nxt = None
        for item in hop.ranked:
            if item.layer != "epi":
                continue
            node = store._episodic[item.node_id]
            if node.video != current.video:
                continue
            if (node.t, node.id) <= (current.t, current.id):
                continue
            if nxt is None or (node.t, node.id) < (nxt.t, nxt.id):
                nxt = node
        current = nxt
    return ProcedureAnswer("episodic", tuple(steps), None, store.retrieval_calls - start_calls)
