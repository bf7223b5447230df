"""Property: a store, its load and its clone stay alike under any further
operations.

Hypothesis draws sequences of ingest, apply, distill, auto_fuse and fuse
calls, run on three forks of one store in turn: the live store, a fork
that is saved and loaded again at each ``reload``, and a fork that is
cloned again at each ``clone``. After every operation the three must
return the same value (or raise the same error), save to the same bytes,
pass ``check()``, and give the same rankings, ids and scores bit for bit,
and the same symbolic answers.
"""

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from memstrata import (
    START,
    Conclusion,
    Config,
    Description,
    MemoryEngineError,
    MemoryStore,
    ObservationRecord,
    Percept,
    aggregate_character_behaviors,
    auto_fuse,
    fuse_logic_nodes,
    get_procedure_with_evidence,
    goal_reach_probability,
    query_step_sequence,
)
from memstrata.store import _dag_rows
from conftest import one_hot

DIM = 32
VERBS = ("chop", "mix", "serve", "wash", "blend")
LINES = ("chop the fruit", "mix the fruit", "serve the salad", "wash the bowl",
         "blend the fruit", "walk to the store")
PERSONS = ("jack", "ana")
QUERIES = (("how do I make the fruit salad", "constraint"), ("what did jack chop", "factual"),
           ("what is ana like", "character"))

# Whole procedures, so that distill finds more than one and fuse has pairs to fuse.
PROCEDURES = (LINES[:3], (LINES[3], LINES[4], LINES[2]), (LINES[0], LINES[4], LINES[2]))

ingest_op = st.tuples(
    st.just("ingest"),
    st.sampled_from(("v1", "v2", "v3", "v4")),
    st.lists(st.tuples(st.sampled_from(LINES), st.booleans(),
                       st.sampled_from(({}, {"tool": "bowl"}, {"n": 1.5}))), max_size=4)
    | st.sampled_from(PROCEDURES).map(lambda lines: [(line, True, {}) for line in lines]),
    st.sampled_from((None,) + PERSONS),
    st.sampled_from(("face", "voice")),
    st.sampled_from((None, "bowls are downstairs", "fruit is sweet")),
)
ops = st.lists(st.one_of(ingest_op, ingest_op, st.tuples(st.just("apply"), st.integers(0, 40)),
                         st.just(("distill",)), st.just(("auto_fuse",)), st.just(("fuse",)),
                         st.just(("reload",)), st.just(("clone",))), max_size=20)


def _record(op, rid, clock):
    _, video, lines, person, percept_kind, conclusion = op
    mention = f"@{person} " if person else ""
    return ObservationRecord(
        rid, video, float(clock.get(video, 0)),
        [Description(mention + text, dict(attrs), "success" if ok else "failure")
         for text, ok, attrs in lines],
        [Conclusion("knowledge", mention + conclusion)] if conclusion else [],
        [Percept(percept_kind, one_hot(PERSONS.index(person), DIM), person)] if person else [])


def _run(store, op, records):
    """What one operation returns, as a comparable value, or the error it raises."""
    kind = op[0]
    try:
        if kind == "ingest":
            return store.ingest(records[-1])
        if kind == "apply":
            return repr(store.apply(records[op[1] % len(records)])) if records else None
        if kind == "distill":
            return store.distill()
        if kind == "auto_fuse":
            return [(r.new_id, r.removed) for r in auto_fuse(store)]
        if kind == "fuse" and len(store.logic) > 1:
            report = fuse_logic_nodes(store, *sorted(store.logic)[:2])
            return report.new_id, report.removed
    except MemoryEngineError as exc:
        return type(exc).__name__, str(exc)
    return None


def _answer(call):
    try:
        return call()
    except MemoryEngineError as exc:
        return type(exc).__name__, str(exc)


def _answers(store) -> list:
    """Each query's ranking and answer context, ids and scores bit for bit, and
    the symbolic answers of the first query's goal and of each person."""
    answers = []
    for text, qtype in QUERIES:
        result = store.retrieve(text, qtype, k=8)
        ctx = result.answer_context
        answers.append(([(it.layer, it.node_id, float(it.score_init).hex(),
                          float(it.score_final).hex()) for it in result.ranked],
                        ctx.evidence, ctx.top_logic, ctx.procedure_goal, ctx.paths_total,
                        [(p.steps, p.probability.hex()) for p in ctx.paths or []],
                        [n.id for n in ctx.character_nodes or []]))
    goal = QUERIES[0][0]
    answers.append(_answer(lambda: [(p.steps, p.probability.hex(), sorted(p.step_success.items()))
                                    for p in query_step_sequence(store, goal)]))
    evidence = _answer(lambda: get_procedure_with_evidence(store, goal))
    if not isinstance(evidence, tuple):
        evidence = (evidence.logic_id, evidence.goal, evidence.similarity.hex(),
                    _dag_rows(evidence.dag), [(e.id, e.t, e.d) for e in evidence.evidence])
    answers.append(evidence)
    answers += [_answer(lambda: [n.id for n in aggregate_character_behaviors(store, person)])
                for person in range(1, len(PERSONS) + 1)]
    answers += [float(goal_reach_probability(store.logic[i].dag, START)).hex() for i in sorted(store.logic)]
    return answers


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops)
def test_live_loaded_and_cloned_stores_stay_alike(tmp_path_factory, sequence):
    path = os.path.join(tmp_path_factory.mktemp("forks"), "snap.json")
    live = MemoryStore(Config(dim=DIM, action_verbs=VERBS, pool_trigger=3))
    live.save(path)
    forks = {"live": live, "loaded": MemoryStore.load(path), "cloned": live.clone()}
    records, clock = [], {}
    for op in sequence:
        if op[0] == "reload":
            forks["loaded"].save(path)
            forks["loaded"] = MemoryStore.load(path)
        elif op[0] == "clone":
            forks["cloned"] = forks["cloned"].clone()
        else:
            if op[0] == "ingest":
                records.append(_record(op, len(records) + 1, clock))
                clock[op[1]] = clock.get(op[1], 0) + 1
            returned = {name: _run(store, op, records) for name, store in forks.items()}
            assert returned["loaded"] == returned["live"] == returned["cloned"], op
        state = {}
        for name, store in forks.items():
            assert store.check() == [], name
            store.save(path)
            state[name] = (open(path, "rb").read(), _answers(store))
        assert state["loaded"] == state["live"], op
        assert state["cloned"] == state["live"], op
