import importlib
import itertools
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from memstrata import (
    Config,
    Description,
    FusionCycle,
    GOAL,
    HashingEmbedder,
    InvalidInput,
    InvalidPrior,
    MemoryStore,
    ObservationRecord,
    ProceduralDag,
    START,
    align_nodes,
    auto_fuse,
    check_valid,
    enumerate_paths,
    fuse,
    fuse_logic_nodes,
    pool_beta,
)
from memstrata.dag import DagNode
from memstrata.maintain import UpdateReport, _apply_pairs
from conftest import (DISH_STEPS, FRUIT_STEPS, FRUIT_VERBS, ProbeEmbedder, fruit_salad_store,
                      one_hot, plant, procedures_store)

EMB = HashingEmbedder(512)


def label_paths(dag):
    return {tuple(p[1:-1]) for p in enumerate_paths(dag)}


def total_count(dag):
    return sum(stat.count for _, _, stat in dag.edges())


# -- alignment -------------------------------------------------------------------


def test_align_identical_labels_perfect_matching():
    g1 = ProceduralDag.single_path(["chop_fruit", "mix_fruit"])
    g2 = ProceduralDag.single_path(["chop_fruit", "mix_fruit"])
    al = align_nodes(g1, g2, EMB)
    step_pairs = [(a, b, s) for a, b, s in al.pairs if a not in (START, GOAL)]
    assert step_pairs == [("chop_fruit", "chop_fruit", 1.0), ("mix_fruit", "mix_fruit", 1.0)]
    assert al.unmatched1 == [] and al.unmatched2 == []


def test_align_sentinels_always_pair():
    g1 = ProceduralDag.single_path([])
    g2 = ProceduralDag.single_path([])
    al = align_nodes(g1, g2, EMB)
    assert (START, START, 1.0) in al.pairs
    assert (GOAL, GOAL, 1.0) in al.pairs


def test_align_disjoint_labels_all_unmatched():
    g1 = ProceduralDag.single_path(["boil_egg", "peel_egg"])
    g2 = ProceduralDag.single_path(["sand_plank", "paint_plank"])
    al = align_nodes(g1, g2, EMB)
    assert [(a, b) for a, b, _ in al.pairs] == [(START, START), (GOAL, GOAL)]
    assert al.unmatched1 == ["boil_egg", "peel_egg"]
    assert al.unmatched2 == ["paint_plank", "sand_plank"]


def test_align_maximizes_total_weight_vs_permutation_oracle():
    # Dominant diagonal, verified against enumeration of all 3! matchings.
    labels1 = sorted(["grab_bowl", "pour_milk", "stir_mix"])
    labels2 = sorted(["grab_bowl cup", "pour_milk jug", "stir_mix spoon"])
    from memstrata.core import cosine

    sim = np.array([
        [cosine(EMB.embed(a), EMB.embed(b)) for b in labels2] for a in labels1
    ])
    best = max(
        (sum(sim[i, p[i]] for i in range(3)), p)
        for p in itertools.permutations(range(3))
    )
    g1, g2 = ProceduralDag.single_path(labels1), ProceduralDag.single_path(labels2)
    al = align_nodes(g1, g2, EMB, tau_align=0.5)
    got = [(a, b) for a, b, _ in al.pairs if a not in (START, GOAL)]
    expected = [(labels1[i], labels2[best[1][i]]) for i in range(3)]
    assert got == sorted(expected)
    got_total = sum(s for a, _, s in al.pairs if a not in (START, GOAL))
    assert got_total == pytest.approx(best[0], abs=1e-12)


def test_align_drops_pairs_below_threshold():
    g1 = ProceduralDag.single_path(["mix_fruit"])
    g2 = ProceduralDag.single_path(["mix_gravel"])  # shares only "mix": sim 0.5
    al = align_nodes(g1, g2, EMB)
    assert [(a, b) for a, b, _ in al.pairs] == [(START, START), (GOAL, GOAL)]
    assert al.unmatched1 == ["mix_fruit"]


def test_align_equal_weight_ties_lexicographic():
    # Both cross pairings score 1.0 total either way; lexicographic rule
    # must pick aa->aa, bb->bb ordering by (label1, label2).
    g1 = ProceduralDag.single_path(["step_aa", "step_bb"])
    g2 = ProceduralDag()
    g2.add_node("step_aa"); g2.add_node("step_bb")
    g2.add_edge(START, "step_bb"); g2.add_edge("step_bb", "step_aa")
    g2.add_edge("step_aa", GOAL)
    al = align_nodes(g1, g2, EMB)
    got = [(a, b) for a, b, _ in al.pairs if a not in (START, GOAL)]
    assert got == [("step_aa", "step_aa"), ("step_bb", "step_bb")]


def _brute_optimum(sim, rows, cols):
    rows = list(rows)
    if not rows:
        return 0.0
    return max(sum(sim[r][c] for r, c in zip(rows, perm))
               for perm in itertools.permutations(cols))


def _brute_lexicographic(sim):
    # The greedy rule of _lexicographic_optimal_assignment, every opt(rest)
    # taken over all permutations.
    eps = importlib.import_module("memstrata.fuse")._EPS
    size = len(sim)
    cols = list(range(size))
    target = _brute_optimum(sim, range(size), cols)
    assignment = []
    for row in range(size):
        for col in cols:
            rest = _brute_optimum(sim, range(row + 1, size), [c for c in cols if c != col])
            if sim[row][col] + rest >= target - eps:
                assignment.append((row, col))
                cols.remove(col)
                target -= sim[row][col]
                break
    return assignment


def _random_alignment_matrix(rng, kind):
    size = rng.randint(1, 7)
    if kind == "grid":  # many equal totals
        return np.array([[rng.choice((0.0, 1 / 3, 2 / 3, 1.0)) for _ in range(size)]
                         for _ in range(size)])
    if kind == "uniform":
        return np.array([[rng.random() for _ in range(size)] for _ in range(size)])
    # as align_nodes pads the shorter side: zero rows or columns
    sim = np.zeros((size, size))
    rows, cols = rng.randint(1, size), rng.randint(1, size)
    sim[:rows, :cols] = [[rng.choice((0.0, 1 / 3, 2 / 3, 1.0, rng.random())) for _ in range(cols)]
                         for _ in range(rows)]
    return sim


@pytest.mark.parametrize("kind", ["grid", "uniform", "padded"])
def test_assignment_matches_permutation_oracle(kind):
    fuse_module = importlib.import_module("memstrata.fuse")
    rng = random.Random(f"assignment-{kind}")
    for _ in range(400):
        sim = _random_alignment_matrix(rng, kind)
        rows = sim.tolist()
        size = len(rows)
        col_of, u, v = fuse_module._solve(rows)
        assert sorted(col_of) == list(range(size))
        best = _brute_optimum(rows, range(size), range(size))
        assert abs(sum(rows[r][c] for r, c in enumerate(col_of)) - best) <= 1e-12
        for r in range(size):  # dual feasible, tight on the matching
            for c in range(size):
                assert u[r] + v[c] <= -rows[r][c] + 1e-12
            assert abs(u[r] + v[col_of[r]] + rows[r][col_of[r]]) <= 1e-12
        assert fuse_module._lexicographic_optimal_assignment(sim) == _brute_lexicographic(rows)


def test_import_loads_no_scipy():
    # scipy.optimize, once fusion's solver, loaded 321 modules and raised
    # the peak RSS of every CLI process from 29 to 78 MB before any work.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, memstrata, memstrata.cli; "
             "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


# -- beta pooling -----------------------------------------------------------------


def test_pool_beta_priors():
    assert pool_beta((1, 1), (1, 1)) == (1, 1)


def test_pool_beta_paper_formula():
    assert pool_beta((3, 5), (5, 3)) == (7, 7)


def test_pool_beta_equals_single_batch_posterior():
    rng = random.Random(17)
    for _ in range(100):
        trials = [rng.random() < 0.6 for _ in range(rng.randint(0, 30))]
        cut = rng.randint(0, len(trials)) if trials else 0
        first, second = trials[:cut], trials[cut:]
        a1 = (1 + sum(first), 1 + len(first) - sum(first))
        a2 = (1 + sum(second), 1 + len(second) - sum(second))
        pooled = pool_beta(a1, a2)
        batch = (1 + sum(trials), 1 + len(trials) - sum(trials))
        assert pooled == batch


def test_pool_beta_rejects_subprior():
    with pytest.raises(InvalidPrior):
        pool_beta((0.5, 1), (1, 1))


# -- fusion -----------------------------------------------------------------------


def chain(labels, counts=None):
    dag = ProceduralDag.single_path(labels)
    if counts:
        edges = list(zip([START] + list(labels), list(labels) + [GOAL]))
        for (src, dst), n in zip(edges, counts):
            dag.adj[src][dst].count = float(n)
    return dag


def test_fuse_self_doubles_counts_keeps_gammas():
    g = chain(["alpha_x", "beta_y"], counts=[2, 3, 4])
    fused = fuse(g, g.copy(), EMB)
    assert label_paths(fused) == {("alpha_x", "beta_y")}
    assert fused.adj[START]["alpha_x"].count == 4.0
    assert fused.adj[START]["alpha_x"].gamma == 1.0
    assert fused.adj["alpha_x"]["beta_y"].count == 6.0
    assert total_count(fused) == 2 * total_count(g)


def test_fuse_branches_at_divergence():
    g1 = chain(["prep_food", "boil_egg"])
    g2 = chain(["prep_food", "fry_egg"])
    fused = fuse(g1, g2, EMB)
    assert label_paths(fused) == {("prep_food", "boil_egg"), ("prep_food", "fry_egg")}
    assert check_valid(fused) == []


def test_fuse_cycle_fails_atomically():
    g1 = chain(["alpha_x", "beta_y"])
    g2 = chain(["beta_y", "alpha_x"])
    snap1 = {(s, d): (e.count, e.gamma) for s, d, e in g1.edges()}
    snap2 = {(s, d): (e.count, e.gamma) for s, d, e in g2.edges()}
    with pytest.raises(FusionCycle):
        fuse(g1, g2, EMB)
    assert {(s, d): (e.count, e.gamma) for s, d, e in g1.edges()} == snap1
    assert {(s, d): (e.count, e.gamma) for s, d, e in g2.edges()} == snap2


def test_fuse_rejects_invalid_input():
    g1 = chain(["alpha_x"])
    bad = chain(["beta_y"])
    bad.add_edge("beta_y", "beta_y")
    with pytest.raises(InvalidInput):
        fuse(g1, bad, EMB)


def test_fuse_attrs_first_argument_precedence_and_beta_pooling():
    g1 = chain(["mix_fruit"])
    g2 = chain(["mix_fruit"])
    g1.nodes["mix_fruit"] = DagNode({"tool": "bowl"}, success_alpha=4.0)
    g2.nodes["mix_fruit"] = DagNode({"tool": "plate", "room": "kitchen"}, success_beta=2.0)
    fused = fuse(g1, g2, EMB)
    node = fused.nodes["mix_fruit"]
    assert node.attrs == {"tool": "bowl", "room": "kitchen"}
    assert (node.success_alpha, node.success_beta) == (4.0, 2.0)


def test_fuse_path_preservation_and_count_conservation():
    rng = random.Random(23)
    vocab = [f"act_{c}{i}" for c in "abcdef" for i in range(3)]
    for _ in range(50):
        shared_prefix = rng.sample(vocab, rng.randint(0, 2))
        rest = [w for w in vocab if w not in shared_prefix]
        mid1 = [w for w in rng.sample(rest, rng.randint(0, 2))]
        rest2 = [w for w in rest if w not in mid1]
        mid2 = [w for w in rng.sample(rest2, rng.randint(0, 2))]
        rest3 = [w for w in rest2 if w not in mid2]
        shared_suffix = rng.sample(rest3, rng.randint(0, 2))
        g1 = chain(shared_prefix + mid1 + shared_suffix,
                   counts=[rng.randint(0, 5) for _ in range(len(shared_prefix + mid1 + shared_suffix) + 1)])
        g2 = chain(shared_prefix + mid2 + shared_suffix,
                   counts=[rng.randint(0, 5) for _ in range(len(shared_prefix + mid2 + shared_suffix) + 1)])
        try:
            fused = fuse(g1, g2, EMB)
        except FusionCycle:
            continue
        assert label_paths(g1) | label_paths(g2) <= label_paths(fused)
        assert total_count(fused) == pytest.approx(total_count(g1) + total_count(g2))
        assert check_valid(fused) == []


def test_fuse_commutative_paths_and_stats():
    g1 = chain(["prep_food", "boil_egg"], counts=[1, 2, 3])
    g2 = chain(["prep_food", "fry_egg"], counts=[4, 5, 6])
    f12 = fuse(g1, g2, EMB)
    f21 = fuse(g2, g1, EMB)
    assert label_paths(f12) == label_paths(f21)
    e12 = {(s, d): (e.count, e.gamma) for s, d, e in f12.edges()}
    e21 = {(s, d): (e.count, e.gamma) for s, d, e in f21.edges()}
    assert e12 == e21


# -- store-level fusion --------------------------------------------------------


def two_procedure_store():
    store = fruit_salad_store(extra_sources=False)
    store.distill()
    # second variant: blend instead of mix, from fresh sources
    from memstrata import Description, ObservationRecord

    rid = 100
    for video in ("w1", "w2", "w3"):
        for ti, text in enumerate([
            "@jack chop the fruit", "@jack blend the fruit", "@jack serve the salad"]):
            rid += 1
            store.ingest(ObservationRecord(rid, video, float(ti), [Description(text)], [], []))
    store.distill()
    return store


def test_fuse_logic_nodes_replaces_pair():
    store = two_procedure_store()
    assert sorted(store.logic) == [1, 2]
    report = fuse_logic_nodes(store, 1, 2)
    assert sorted(store.logic) == [report.new_id] == [3]
    node = store.logic[3]
    assert label_paths(node.dag) == {
        ("chop_fruit", "blend_fruit", "serve_salad"),
        ("chop_fruit", "mix_fruit", "serve_salad"),
    }
    assert node.episodic_links  # union of both evidence sets
    assert store.check() == []


def test_a_fuse_rebuilds_the_logic_rows_and_nothing_else_the_store_keeps():
    # A fuse changes only the logic layer: each anchor keeps its centroid views, and the store its
    # centroid rows and both postings, the same objects; its logic rows are what a full rebuild
    # makes, and each logic node views its own.
    store = two_procedure_store()
    views = {i: (a.centroid_face, a.centroid_voice) for i, a in store.anchors.items()}
    assert any(face is not None for face, _ in views.values())
    kept = [store._centroid_rows, store._semantic_postings, store._action_postings]
    fuse_logic_nodes(store, 1, 2)
    assert all(store.anchors[i].centroid_face is face and store.anchors[i].centroid_voice is voice
               for i, (face, voice) in views.items())
    assert all(now is before for now, before in
               zip([store._centroid_rows, store._semantic_postings, store._action_postings], kept))
    rows = store._logic_rows
    for key, block in rows.items():
        assert all(getattr(store.logic[i], f"i_{key}") is row for i, row in zip(block.ids, block.rows))
    fused = {key: (block.ids, np.array(block.rows)) for key, block in rows.items()}
    store._build_kept()
    assert store._logic_rows is not rows
    for key, block in store._logic_rows.items():
        assert block.ids == fused[key][0] == [3]
        assert np.array_equal(np.array(block.rows), fused[key][1])


def test_fuse_logic_nodes_aligns_once_and_builds_fuse_result(monkeypatch):
    fuse_module = importlib.import_module("memstrata.fuse")  # not the function
    store = two_procedure_store()
    a, b = store.logic[1].dag.copy(), store.logic[2].dag.copy()
    expected = fuse(a, b, store.embedder, store.config.tau_align)
    calls = []

    def counted(*args):
        calls.append(args)
        return align_nodes(*args)
    monkeypatch.setattr(fuse_module, "align_nodes", counted)
    report = fuse_logic_nodes(store, 1, 2)
    assert len(calls) == 1
    fused = store.logic[report.new_id].dag
    assert {(s, d): (e.count, e.gamma) for s, d, e in fused.edges()} == \
        {(s, d): (e.count, e.gamma) for s, d, e in expected.edges()}
    assert {label: (n.attrs, n.success_alpha, n.success_beta)
            for label, n in fused.nodes.items()} == \
        {label: (n.attrs, n.success_alpha, n.success_beta)
         for label, n in expected.nodes.items()}


class NanForStirPot:
    """The built-in vectors, but NaN for the action label ``stir_pot``."""

    def __init__(self, dim):
        self.dim = dim
        self.builtin = HashingEmbedder(dim)

    def embed(self, text):
        v = self.builtin.embed(text)
        return np.full_like(v, np.nan) if text == "stir_pot" else v


def test_fuse_logic_nodes_refuses_an_embedder_vector_that_is_not_finite():
    # An applied pair adds a step label that nothing embeds until a fuse aligns it; the
    # alignment embeds through the store, which refuses the vector before any change.
    store = MemoryStore(Config(dim=64, action_verbs=FRUIT_VERBS), NanForStirPot(64))
    rid = 0
    for middle, videos in (("mix", ("v1", "v2", "v3")), ("blend", ("w1", "w2", "w3"))):
        for video in videos:
            for t, text in enumerate(["chop the fruit", f"{middle} the fruit", "serve the salad"]):
                rid += 1
                store.ingest(ObservationRecord(rid, video, float(t), [Description(text)], [], []))
        store.distill()
    assert sorted(store.logic) == [1, 2]
    for node in list(store.logic.values()):
        dag = node.dag.copy()
        _apply_pairs(dag, ["chop_fruit", "stir_pot"], {}, UpdateReport(0))
        plant(store, logic={node.id: replace(node, dag=dag.sealed())})
    assert store.check() == []
    with pytest.raises(InvalidInput, match="^embedder output for 'stir_pot' is not 64 finite floats$"):
        fuse_logic_nodes(store, 1, 2)
    assert sorted(store.logic) == [1, 2] and store.check() == []


@pytest.mark.parametrize("ids", [(True, 2), (1, 2.0), (True, 2.0)], ids=["bool", "float", "both"])
def test_fuse_logic_nodes_refuses_an_id_that_is_not_an_int(ids):
    store = two_procedure_store()
    with pytest.raises(InvalidInput, match="^no logic node "):
        fuse_logic_nodes(store, *ids)
    assert sorted(store.logic) == [1, 2] and store.next_logic_id == 3 and store.check() == []


def test_a_fuse_of_goal_vectors_whose_sum_overflows_makes_a_savable_store(tmp_path):
    # 1.7e308 + 1.0e308 overflows; the halves' sum, the mean, is finite.
    def vector_of(text):
        if text.startswith("procedure"):
            return one_hot(7, 8) * (1.7e308 if "chop" in text else 1.0e308)
        return None

    store = procedures_store(Config(dim=8), ProbeEmbedder(8, vector_of), [FRUIT_STEPS, DISH_STEPS])
    assert store.distill() == [1, 2] and store.check() == []
    report = fuse_logic_nodes(store, 1, 2)
    assert store.check() == []
    assert store.logic[report.new_id].i_goal[7] == 1.7e308 / 2 + 1.0e308 / 2
    store.save(str(tmp_path / "snap.json"))


def test_auto_fuse_uses_goal_similarity_trigger():
    store = two_procedure_store()
    n1, n2 = store.logic[1], store.logic[2]
    from memstrata.core import cosine

    sim = cosine(n1.i_goal, n2.i_goal)
    reports = auto_fuse(store)
    if sim >= store.config.tau_align:
        assert len(reports) == 1
        assert len(store.logic) == 1
    else:
        assert reports == []
        assert len(store.logic) == 2
