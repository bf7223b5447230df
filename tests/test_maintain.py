import json

import numpy as np
import pytest

from memstrata import (
    Config,
    ConfigError,
    Description,
    DimensionMismatch,
    HashingEmbedder,
    InvalidInput,
    MemoryStore,
    NotIngested,
    ObservationRecord,
    apply_observation,
    check_valid,
    ema_update,
    match_logic,
)
from memstrata.store import snapshot_dict
from conftest import fruit_salad_store, plant
from maintain_model import apply_against_model

MAINT_VERBS = ("chop", "mix", "serve", "wash", "blend")


def maintained_store(**config):
    """Fruit-salad store after distillation, ready for phase 3; ``config`` sets other Config fields."""
    store = fruit_salad_store(**config)
    store.distill()
    return store


def record(rid, video, t, texts, outcomes=None):
    outcomes = outcomes or ["success"] * len(texts)
    return ObservationRecord(
        rid, video, t,
        [Description(text, outcome=out) for text, out in zip(texts, outcomes)],
        [], [],
    )


# -- match_logic ---------------------------------------------------------------


def test_match_logic_empty_layer():
    store = MemoryStore(Config(dim=16))
    assert match_logic(store, np.zeros(16)) is None


def test_match_logic_identity():
    store = maintained_store()
    node = store.logic[1]
    logic_id, sim = match_logic(store, node.i_goal.copy())
    assert logic_id == 1
    assert sim == 1.0


def test_match_logic_tie_breaks_low_id():
    store = MemoryStore(Config(dim=16))
    from memstrata import LogicNode, ProceduralDag

    v = np.zeros(16)
    v[0] = 1.0
    plant(store, logic={logic_id: LogicNode(
        id=logic_id, c="c", i_goal=v.copy(), i_step=v.copy(),
        dag=ProceduralDag.single_path(["x"]), episodic_links={1}, steps=("x",)) for logic_id in (1, 2)})
    assert match_logic(store, v)[0] == 1


# -- ema -------------------------------------------------------------------------


def test_ema_beta_one_keeps_indexes():
    store = maintained_store()
    node = store.logic[1]
    before_goal = node.i_goal.copy()
    ema_update(node, np.ones(512), 1.0)
    assert np.array_equal(node.i_goal, before_goal)


def test_ema_beta_zero_replaces():
    store = maintained_store()
    node = store.logic[1]
    o = store.embed("wash the bowl")
    ema_update(node, o, 0.0)
    assert np.array_equal(node.i_goal, o)
    assert np.array_equal(node.i_step, o)


def test_ema_direct_arithmetic():
    store = maintained_store()
    node = store.logic[1]
    e1 = np.zeros(512); e1[0] = 1.0
    e2 = np.zeros(512); e2[1] = 1.0
    node.i_goal[...] = e1  # into its row: the node is set once
    ema_update(node, e2, 0.9)
    assert node.i_goal[0] == pytest.approx(0.9, abs=1e-12)
    assert node.i_goal[1] == pytest.approx(0.1, abs=1e-12)


def test_ema_dimension_mismatch():
    store = maintained_store()
    with pytest.raises(DimensionMismatch):
        ema_update(store.logic[1], np.zeros(7), 0.9)


def test_ema_closed_form_after_random_updates():
    store = maintained_store()
    node = store.logic[1]
    beta = store.config.beta_ema
    rng = np.random.default_rng(2)
    i0 = node.i_goal.copy()
    observations = []
    for _ in range(50):
        o = rng.normal(size=512)
        o /= np.linalg.norm(o)
        observations.append(o)
        ema_update(node, o, beta)
    t = len(observations)
    expected = beta ** t * i0
    for k, o in enumerate(observations, start=1):
        expected = expected + (1 - beta) * beta ** (t - k) * o
    assert np.max(np.abs(node.i_goal - expected)) <= 1e-9


def test_ema_norm_bound_unit_inputs():
    store = maintained_store()
    node = store.logic[1]
    rng = np.random.default_rng(3)
    for _ in range(30):
        o = rng.normal(size=512)
        o /= np.linalg.norm(o)
        ema_update(node, o, 0.9)
        assert np.linalg.norm(node.i_goal) <= 1.0 + 1e-12
        assert np.linalg.norm(node.i_step) <= 1.0 + 1e-12


# -- apply_observation -------------------------------------------------------------


def test_apply_requires_prior_ingest():
    store = maintained_store()
    with pytest.raises(NotIngested):
        apply_observation(store, record(999, "vx", 0.0, ["chop the fruit"]))


def test_apply_embeds_no_text_that_ingest_embedded():
    # A one-description record's joined text is its description's text, which ingest embedded:
    # apply takes that vector, so only a record of several descriptions embeds its joined text.
    # Embedders are deterministic, so the store saves the bytes it would have otherwise.
    class Counting(HashingEmbedder):
        def __init__(self, dim):
            super().__init__(dim)
            self.texts = []

        def embed(self, text):
            self.texts.append(text)
            return super().embed(text)

    stores = [maintained_store(), maintained_store()]
    stores[1].embedder = Counting(512)
    records = [record(20, "v7", 0.0, ["chop the fruit"]),
               record(21, "v7", 1.0, ["chop the fruit", "mix the fruit in a bowl"]),
               record(22, "v8", 0.0, ["@jack mix the fruit in a bowl"], ["failure"]),
               record(23, "v8", 1.0, [])]
    for store in stores:
        for rec in records:
            store.ingest(rec)
    stores[1].embedder.texts.clear()
    reports = [[store.apply(rec) for rec in records] for store in stores]
    assert stores[1].embedder.texts == ["chop the fruit mix the fruit in a bowl", ""]
    assert reports[0] == reports[1] and any(report.matched for report in reports[0])
    assert json.dumps(snapshot_dict(stores[0])) == json.dumps(snapshot_dict(stores[1]))


def test_apply_matching_record_increments_and_shifts_indexes():
    store = maintained_store()
    node = store.logic[1]
    goal_before = node.i_goal.copy()
    n_before = node.dag.adj["chop_fruit"]["mix_fruit"].count
    rec = record(100, "v9", 0.0, ["chop the fruit", "mix the fruit", "serve the salad"])
    store.ingest(rec)
    report = store.apply(rec)
    assert report.matched == 1
    assert report.similarity > store.config.delta_gate
    assert ("chop_fruit", "mix_fruit") in report.incremented
    # a new node, with a new DAG and evidence, is put under the id: the one held before is as it was
    before, node = node, store.logic[1]
    assert node.dag.adj["chop_fruit"]["mix_fruit"].count == n_before + 1
    assert before.dag.adj["chop_fruit"]["mix_fruit"].count == n_before
    assert node.i_goal is before.i_goal and not np.array_equal(node.i_goal, goal_before)
    # links grew by the record's episodes
    assert set(store.observations[100].episodes) <= node.episodic_links
    assert before.episodic_links.isdisjoint(store.observations[100].episodes)


def test_apply_reads_the_episodes_stored_under_the_record_id():
    # A record applied under an ingested id is judged whole, but only its id is read: the matched
    # DAG takes the texts, actions, outcomes and attrs of the episodes that ingest stored.
    stored = ObservationRecord(100, "v9", 0.0, [
        Description("chop the fruit"), Description("mix the fruit", outcome="failure"),
        Description("blend the rest", {"tool": "blender"})], [], [])
    other = ObservationRecord(100, "w1", 5.0, [
        Description("wash the bowl", {"tool": "sponge"}), Description("blend the rest", {"tool": "fork"})], [], [])
    stores = [maintained_store(), maintained_store()]
    for store in stores:
        store.ingest(stored)
    beta = stores[1].logic[1].dag.nodes["mix_fruit"].success_beta
    reports = [stores[0].apply(stored), stores[1].apply(other)]
    assert reports[0] == reports[1]
    assert reports[1].matched == 1 and reports[1].incremented == [("chop_fruit", "mix_fruit")]
    assert reports[1].expanded_edges == [("mix_fruit", "blend_rest")]
    dag = stores[1].logic[1].dag
    assert "wash_bowl" not in dag.nodes and dag.nodes["blend_rest"].attrs == {"tool": "blender"}
    assert dag.nodes["mix_fruit"].success_beta == beta + 1  # the stored failure
    assert json.dumps(snapshot_dict(stores[0])) == json.dumps(snapshot_dict(stores[1]))


def test_apply_gating_pools_low_similarity():
    store = maintained_store()
    node = store.logic[1]
    goal_before = node.i_goal.copy()
    edges_before = {(s, d): e.count for s, d, e in node.dag.edges()}
    rec = record(101, "w1", 0.0, ["walk around the block"])
    store.ingest(rec)
    report = store.apply(rec)
    assert report.pooled
    assert report.matched is None
    assert len(store.pool) == 1
    # gating invariant: nothing on the node changed
    assert np.array_equal(node.i_goal, goal_before)
    assert {(s, d): e.count for s, d, e in node.dag.edges()} == edges_before


def test_a_pooled_record_is_its_observation_id():
    # A pool-scoped distill reads only which observations wait, so the pool
    # holds their ids, in apply order, and no vector or action of them.
    store = maintained_store()
    rec = record(101, "w1", 0.0, ["walk around the block"])
    store.ingest(rec)
    assert store.apply(rec).pooled
    assert store.pool == (rec.id,)


def test_a_record_applied_again_is_pooled_once():
    # pool_trigger counts observations: one record applied three times waits as one,
    # and no pool-scoped distill runs over it alone.
    store = maintained_store(pool_trigger=3)
    rec = record(101, "w1", 0.0, ["grab a towel", "wash the window"])
    store.ingest(rec)
    reports = [store.apply(rec) for _ in range(3)]
    assert all(r.pooled and not r.distilled for r in reports)
    assert [r.pool_size for r in reports] == [1, 1, 1]
    assert store.pool == (101,) and store.check() == []


def test_apply_expands_new_step_and_stays_valid():
    store = maintained_store()
    node = store.logic[1]
    rec = record(102, "v9", 0.0,
                 ["chop the fruit", "wash the bowl", "mix the fruit", "serve the salad"])
    store.ingest(rec)
    report = store.apply(rec)
    node = store.logic[1]  # the node the apply put under the id
    assert report.matched == 1
    assert ("chop_fruit", "wash_bowl") in report.expanded_edges
    assert ("wash_bowl", "mix_fruit") in report.expanded_edges
    assert check_valid(node.dag) == []
    assert node.dag.adj["chop_fruit"]["wash_bowl"].count == 1.0
    assert node.dag.adj["chop_fruit"]["wash_bowl"].gamma == 1.0


def test_apply_rejects_cycle_pair():
    store = maintained_store()
    node = store.logic[1]
    rec = record(103, "v9", 0.0, ["mix the fruit", "chop the fruit"])
    store.ingest(rec)
    report = store.apply(rec)
    node = store.logic[1]  # the node the apply put under the id
    assert report.matched == 1
    assert report.rejected == [("mix_fruit", "chop_fruit")]
    assert not node.dag.has_edge("mix_fruit", "chop_fruit")
    assert check_valid(node.dag) == []


def test_apply_repairs_trailing_new_node():
    # Record ends on a brand-new action: without repair the node would
    # dangle with no path to GOAL and the DAG invariant would break.
    store = maintained_store()
    node = store.logic[1]
    rec = record(104, "v9", 0.0, ["chop the fruit", "mix the fruit", "blend the rest"])
    store.ingest(rec)
    report = store.apply(rec)
    node = store.logic[1]  # the node the apply put under the id
    assert report.matched == 1
    assert ("mix_fruit", "blend_rest") in report.expanded_edges
    assert ("blend_rest", "GOAL") in report.repaired_edges
    assert node.dag.adj["blend_rest"]["GOAL"].count == 0.0  # prior-only repair
    assert check_valid(node.dag) == []


def test_apply_outcome_trials_update_success_stats():
    store = maintained_store()
    node = store.logic[1]
    alpha_before = node.dag.nodes["mix_fruit"].success_alpha
    beta_before = node.dag.nodes["mix_fruit"].success_beta
    rec = record(105, "v9", 0.0, ["chop the fruit", "mix the fruit"],
                 outcomes=["success", "failure"])
    store.ingest(rec)
    report = store.apply(rec)
    node = store.logic[1]  # the node the apply put under the id
    assert report.matched == 1
    assert node.dag.nodes["mix_fruit"].success_alpha == alpha_before
    assert node.dag.nodes["mix_fruit"].success_beta == beta_before + 1


def test_apply_count_monotonicity():
    store = maintained_store()
    node = store.logic[1]
    history = []
    for i in range(5):
        rec = record(200 + i, f"m{i}", 0.0,
                     ["chop the fruit", "mix the fruit", "serve the salad"])
        store.ingest(rec)
        store.apply(rec)
        history.append({(s, d): e.count for s, d, e in node.dag.edges()})
    for prev, cur in zip(history, history[1:]):
        for edge, count in prev.items():
            assert cur[edge] >= count


def test_pool_trigger_runs_distillation():
    store = maintained_store(pool_trigger=3)
    reports = []
    for i in range(3):
        rec = record(300 + i, f"p{i}", 0.0, ["grab a towel", "wash the window"])
        store.ingest(rec)
        reports.append(store.apply(rec))
    assert all(r.pooled for r in reports)
    assert reports[-1].distilled  # pool of 3 reached the trigger
    assert store.pool == ()
    new_node = store.logic[reports[-1].distilled[0]]
    assert new_node.steps == ("grab_towel", "wash_window")


def _nan_verifier(store):
    store.set_verifier(lambda pattern, evidence: float("nan"))


@pytest.mark.parametrize("config, setup, error", [
    ({}, _nan_verifier, InvalidInput),
    ({"verifier": "external"}, lambda store: None, ConfigError),  # never registered
], ids=["nan-verifier", "unregistered"])
def test_a_refused_pool_distill_leaves_the_pool_as_it_was(tmp_path, config, setup, error):
    store = MemoryStore(Config(dim=64, pool_trigger=2, **config))
    setup(store)
    first, second = (record(i, f"v{i}", 0.0, ["chop the fruit", "mix the fruit"]) for i in (1, 2))
    store.ingest(first)
    store.ingest(second)
    assert store.apply(first).pool_size == 1
    with pytest.raises(error):
        store.apply(second)  # fills the pool, whose distill raises before it creates a node
    assert store.pool == (1,) and store.check() == []
    store.save(str(tmp_path / "snapshot.json"))


def test_reference_model_matches_apply_empty():
    store = maintained_store()
    assert apply_against_model(store, []) == ([], [])


def test_reference_model_matches_apply_with_expansion_and_rejection():
    store = maintained_store()
    records = []
    specs = [
        ("v9", ["chop the fruit", "mix the fruit", "serve the salad"]),
        ("v9", ["chop the fruit", "wash the bowl", "mix the fruit"]),
        ("v9", ["mix the fruit", "chop the fruit"]),          # rejected pair
        ("w1", ["walk around the block"]),                    # pooled
        ("v9", ["chop the fruit", "serve the salad"]),        # new shortcut edge
    ]
    for i, (video, texts) in enumerate(specs):
        rec = record(400 + i, video, float(i), texts)
        store.ingest(rec)
        records.append(rec)
    mismatches, reports = apply_against_model(store, records)
    assert mismatches == []
    assert reports[2].rejected == [("mix_fruit", "chop_fruit")]
    assert reports[3].pooled and reports[4].expanded_edges
