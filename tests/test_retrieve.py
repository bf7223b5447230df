import numpy as np
import pytest

from memstrata import (
    Config,
    Constraint,
    Description,
    MemoryStore,
    ObservationRecord,
    Predicate,
    answer_procedure,
    classify,
    make_query,
    retrieve,
    score_logic,
)
from memstrata.errors import InvalidInput, UnknownAnchor
from conftest import fruit_salad_store, plant, texts_store


def ready_store():
    store = fruit_salad_store()
    store.distill()
    return store


# -- classification ------------------------------------------------------------


def test_classify_factual():
    assert classify("When did Jack chop the fruit?") == "factual"


def test_classify_constraint_cues():
    assert classify("What should Jack do if the bowl is broken?") == "constraint"
    assert classify("Make the salad without a bowl") == "constraint"
    assert classify("You must avoid the knife") == "constraint"


def test_classify_character_cues():
    assert classify("What kind of person is Tom?") == "character"
    assert classify("Tom usually cooks late") == "character"
    assert classify("Describe her personality") == "character"


def test_classify_constraint_outranks_character():
    assert classify("What kind of person must avoid onions?") == "constraint"


def test_classify_single_word_cues_respect_boundaries():
    # "only" must not fire inside "commonly"
    assert classify("Tom commonly cooks rice") == "factual"


def test_classify_external_oracle_overrides_factual_only():
    oracle_calls = []

    def oracle(text):
        oracle_calls.append(text)
        return "character"

    assert classify("tell me about tom", oracle) == "character"
    assert classify("make it without salt", oracle) == "constraint"
    assert oracle_calls == ["tell me about tom"]


# -- scoring ---------------------------------------------------------------------


def test_score_logic_blend_arithmetic():
    store = ready_store()
    node = store.logic[1]
    assert score_logic(node.i_goal, node, 0.3) == pytest.approx(
        0.3 * 1.0 + 0.7 * float(np.dot(node.i_goal, node.i_step)), abs=1e-9)
    # orthogonal-to-goal probe isolates the step term
    probe = np.zeros(512)
    probe[(np.nonzero(node.i_goal == 0)[0])[0]] = 1.0
    assert score_logic(probe, node, 0.3) == pytest.approx(
        0.7 * float(np.dot(probe, node.i_step) / np.linalg.norm(node.i_step)), abs=1e-9)


def test_score_logic_synthetic_sims():
    class FakeNode:
        pass

    node = FakeNode()
    node.i_goal = np.array([1.0, 0.0])
    node.i_step = np.array([0.0, 1.0])
    assert score_logic(np.array([1.0, 0.0]), node, 0.3) == pytest.approx(0.3)
    assert score_logic(np.array([0.0, 1.0]), node, 0.3) == pytest.approx(0.7)


@pytest.mark.parametrize("k", [0, -1, True, 2.5, "5", None])
def test_retrieve_refuses_a_k_that_is_not_a_positive_int_before_counting_the_call(k):
    # k = -1 would slice off the last item, and True would pass for 1.
    store = fruit_salad_store(dim=32)
    for call in (lambda: retrieve(store, make_query(store, "chop the fruit"), k),
                 lambda: store.retrieve("chop the fruit", k=k)):
        with pytest.raises(InvalidInput, match=f"k must be an int of at least 1, got {k!r}"):
            call()
    assert store.retrieval_calls == 0


def test_retrieve_empty_store():
    store = MemoryStore(Config(dim=16))
    result = store.retrieve("anything at all", k=5)
    assert result.ranked == []
    assert result.answer_context.evidence == []


def test_retrieve_factual_weights_identity():
    store = ready_store()
    result = store.retrieve("When did Jack chop the fruit?", k=3)
    assert result.ranked
    top = result.ranked[0]
    assert top.layer == "epi"
    assert store.episodic[top.node_id].action == "chop_fruit"
    for item in result.ranked:
        weight = store.config.layer_weights["factual"][item.layer]
        assert item.score_final == pytest.approx(item.score_init * weight, abs=1e-12)


def test_retrieve_constraint_boosts_logic_over_tied_episodic():
    # Exact tie at score_init 0.5: constraint weights {logic 1.5, epi 1.0}
    # must rank the logic node first (0.75 > 0.5).
    from memstrata import LogicNode, ProceduralDag, Query

    tied = np.array([0.5, np.sqrt(0.75), 0.0, 0.0])
    store = texts_store(Config(dim=4), {"x": tied.copy()})
    node = LogicNode(id=1, c="g", i_goal=tied.copy(), i_step=tied.copy(),
                     dag=ProceduralDag.single_path(["x"]), episodic_links={1}, steps=("x",))
    plant(store, logic={1: node}, next_logic_id=2)

    q = Query("synthetic", np.array([1.0, 0.0, 0.0, 0.0]), "constraint")
    result = retrieve(store, q, 5)
    assert [(it.layer, it.score_init, it.score_final) for it in result.ranked] == [
        ("logic", pytest.approx(0.5), pytest.approx(0.75)),
        ("epi", pytest.approx(0.5), pytest.approx(0.5)),
    ]


def test_retrieve_within_layer_order_preserved():
    store = ready_store()
    for qtype in ("factual", "constraint", "character"):
        result = retrieve(store, make_query(store, "jack chop fruit bowl salad", qtype), 50)
        for layer in ("epi", "sem", "logic"):
            layer_items = [it for it in result.ranked if it.layer == layer]
            inits = [it.score_init for it in layer_items]
            assert inits == sorted(inits, reverse=True)


def test_retrieve_threshold_filters():
    store = ready_store()
    result = store.retrieve("completely unrelated zebra xylophone", k=10)
    assert all(it.score_init > store.config.theta_retrieve for it in result.ranked)


def test_retrieve_constraint_attaches_paths():
    store = ready_store()
    constraint = Constraint([Predicate("tool", "neq", "bowl")])
    result = store.retrieve(
        "How should Jack make the fruit salad without the bowl?",
        constraint=constraint, k=5)
    ctx = result.answer_context
    assert ctx.top_logic == 1
    assert ctx.paths_total == 1
    assert ctx.paths == []  # the only path passes through tool=bowl
    assert ctx.evidence


def test_retrieve_character_attaches_nodes():
    store = ready_store()
    jack = store.anchor_by_label("jack")
    result = store.retrieve("What kind of person is Jack? he usually cooks",
                            person=jack, k=5)
    assert result.answer_context.character_nodes == [1]


@pytest.mark.parametrize("person", [True, 1.0], ids=["bool", "float"])
def test_retrieve_refuses_a_person_that_is_not_an_int(person):
    store = ready_store()
    assert store.anchor_by_label("jack") == 1  # True and 1.0 equal 1
    calls = store.retrieval_calls
    with pytest.raises(UnknownAnchor):
        store.retrieve("What kind of person is Jack? he usually cooks", person=person, k=5)
    assert store.retrieval_calls == calls


def test_make_query_rejects_constraint_on_factual():
    store = ready_store()
    with pytest.raises(InvalidInput):
        make_query(store, "when?", "factual", Constraint([Predicate("a", "has", "*")]))


def test_retrieve_deterministic_ranking():
    store = ready_store()
    a = store.retrieve("jack fruit salad bowl", k=10)
    b = store.retrieve("jack fruit salad bowl", k=10)
    assert [(i.layer, i.node_id, i.score_init, i.score_final) for i in a.ranked] == \
           [(i.layer, i.node_id, i.score_init, i.score_final) for i in b.ranked]


# -- boundary alpha properties ----------------------------------------------------


def test_alpha_boundaries_match_single_term_argmax():
    store = fruit_salad_store(extra_sources=False)
    store.distill()
    # add a second, different procedure for a meaningful argmax
    rid = 500
    for video in ("x1", "x2"):
        for ti, text in enumerate(["grab the plank", "slice the plank"]):
            rid += 1
            store.ingest(ObservationRecord(rid, video, float(ti), [Description(text)], [], []))
    store.distill()
    assert len(store.logic) >= 2
    rng = np.random.default_rng(8)
    from memstrata.core import cosine

    for _ in range(20):
        q = rng.normal(size=512)
        q /= np.linalg.norm(q)
        ids = sorted(store.logic)
        by_goal = max(ids, key=lambda i: (cosine(q, store.logic[i].i_goal), -i))
        by_step = max(ids, key=lambda i: (cosine(q, store.logic[i].i_step), -i))
        top_a1 = max(ids, key=lambda i: (score_logic(q, store.logic[i], 1.0), -i))
        top_a0 = max(ids, key=lambda i: (score_logic(q, store.logic[i], 0.0), -i))
        assert top_a1 == by_goal
        assert top_a0 == by_step


# -- procedural answering (round-count analogue) ------------------------------------


def test_answer_procedure_logic_touches_store_once():
    store = ready_store()
    answer = answer_procedure(store, store.logic[1].c)
    assert answer.mode == "logic"
    assert answer.calls == 1
    assert answer.steps == ("chop_fruit", "mix_fruit", "serve_salad")


def test_answer_procedure_baseline_needs_three_plus_calls():
    store = ready_store()
    answer = answer_procedure(store, "How should Jack make the fruit salad?",
                              use_logic=False)
    assert answer.mode == "episodic"
    assert answer.calls >= 3
    assert answer.steps == ("chop_fruit", "mix_fruit", "serve_salad")
