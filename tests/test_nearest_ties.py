"""Every nearest-vector decision against a brute-force pairwise scan.

The engine scores a layer with one list-form ``cosine`` call and picks with
``np.argmax``/``np.argmin``. Here each decision is recomputed by scoring
node by node with the pairwise ``cosine`` and taking the first best in id
order. Texts over a six-word vocabulary give exact ties (two of the words
share a bucket at dim 16), and texts with no tokens give zero vectors;
one-hot percepts and their means give tied anchor centroids. Every
threshold is 0.5, which a one-word text scores exactly against a text of
four words in four buckets, so each comparison is also met with equality.

An engine pick may differ from the brute-force pick only when their
brute-force scores are within 1e-12, and never when their vectors are bit
for bit the same: then the lowest id must win.
"""

import importlib
import random
from types import SimpleNamespace

import numpy as np
import pytest

from memstrata import (
    Conclusion,
    Config,
    Description,
    FusionCycle,
    MemoryStore,
    NoMatch,
    ObservationRecord,
    Percept,
    cosine,
)
from memstrata.ingest import EntityAnchor
from memstrata.retrieve import make_query
from conftest import plant

ingest = importlib.import_module("memstrata.ingest")
maintain = importlib.import_module("memstrata.maintain")
fuse = importlib.import_module("memstrata.fuse")
retrieve = importlib.import_module("memstrata.retrieve")
symbolic = importlib.import_module("memstrata.symbolic")

WORDS = ("chop", "mix", "serve", "bowl", "fruit", "jack")
DIM = 16
LAYERS = ("epi", "sem", "logic")  # rank order of equal final scores
SEEDS = range(12)
CONFIG = dict(dim=DIM, tau_anchor=0.5, tau_pos=0.5, tau_neg=0.5, theta_retrieve=0.5,
              tau_align=0.5)
# one-hots and their means: e0 scores exactly 0.5 against the last
PERCEPTS = [np.eye(DIM)[i] for i in range(4)] + [np.eye(DIM)[:2].mean(axis=0),
                                                  np.eye(DIM)[:4].mean(axis=0)]


def _text(rng):
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(0, 4)))


def _percept(rng, kind, hint):
    return Percept(kind, rng.choice(PERCEPTS).copy(), hint)


def _brute(ids, score, pick=max):
    """Pairwise scores by id, and the first id in ``ids`` with the ``pick`` score."""
    scores = {i: score(i) for i in ids}
    best = pick(scores.values())
    return scores, next(i for i in ids if scores[i] == best)


def _same_pick(got, want, scores, vectors):
    """True for the brute-force pick or a near tie of it (score within
    1e-12) whose vectors differ; ``vectors`` maps an id to the tuple of
    vectors its score reads."""
    if got == want:
        return True
    same = all(np.array_equal(a, b) for a, b in zip(vectors[got], vectors[want]))
    return abs(scores[got] - scores[want]) <= 1e-12 and not same


def _logic_stubs(rng, store, n):
    """Logic nodes holding only what the scans read: id, i_goal, i_step;
    about a third copy the vectors of an earlier node."""
    for i in range(1, n + 1):
        if i > 1 and rng.random() < 0.3:
            twin = store.logic[rng.randrange(1, i)]
            goal, step = twin.i_goal.copy(), twin.i_step.copy()
        else:
            goal, step = store.embed(_text(rng)), store.embed(_text(rng))
        plant(store, logic={i: SimpleNamespace(id=i, i_goal=goal, i_step=step)})


def _ingested_store(rng, monkeypatch):
    """A store built through ``ingest``; each anchor and semantic decision
    is checked against the brute force as it is made. It starts with
    anchors whose centroids repeat, which ingestion alone rarely makes."""
    store = MemoryStore(Config(**CONFIG))
    cfg, anchors = store.config, {}
    for i in range(1, 7):
        kind = rng.choice(("face", "voice"))
        anchors[i] = EntityAnchor(i, rng.choice(("jack", "tom")), **{
            f"centroid_{kind}": rng.choice(PERCEPTS).copy(), f"{kind}_count": 1})
    plant(store, anchors=anchors, next_anchor_id=7)
    real_anchor, real_consolidate = ingest.resolve_anchor, ingest.consolidate_semantic

    def resolve_anchor(st, percept):
        slot = f"centroid_{percept.kind}"
        ids = [i for i in sorted(st.anchors) if getattr(st.anchors[i], slot) is not None]
        vectors = {i: (getattr(st.anchors[i], slot),) for i in ids}
        new_id = st.next_anchor_id
        got = real_anchor(st, percept)
        if not ids:
            assert got == new_id
            return got
        scores, want = _brute(ids, lambda i: cosine(percept.vector, vectors[i][0]))
        if scores[want] >= cfg.tau_anchor:
            assert _same_pick(got, want, scores, vectors)
        else:
            assert got == new_id
        return got

    def consolidate_semantic(st, ctype, text, anchors, **kwargs):
        ids = [i for i in sorted(st.semantic) if anchors <= st.semantic[i].anchors]
        vectors = {i: (st.semantic[i].v_s,) for i in ids}
        weights = {i: st.semantic[i].weight for i in ids}
        new_id = st.next_node_id
        events = real_consolidate(st, ctype, text, anchors, **kwargs)
        want = [("created", new_id)]
        if ids:
            v = st.embed(text)
            scores, best = _brute(ids, lambda i: cosine(v, vectors[i][0]))
            _, worst = _brute(ids, lambda i: cosine(v, vectors[i][0]), pick=min)
            if scores[best] > cfg.tau_pos:
                assert [kind for kind, _ in events] == ["reinforced"]
                assert _same_pick(events[0][1], best, scores, vectors)
                return events
            if scores[worst] < cfg.tau_neg:
                picked = events[0][1]
                assert events[0][0] == "weakened" and _same_pick(picked, worst, scores, vectors)
                want = [("weakened", picked)] + (
                    [("pruned", picked)] if weights[picked] <= 1 else []) + want
        assert events == want
        return events

    monkeypatch.setattr(ingest, "resolve_anchor", resolve_anchor)
    monkeypatch.setattr(ingest, "consolidate_semantic", consolidate_semantic)
    for rid in range(1, 61):
        kind = rng.choice(("face", "voice"))
        percepts = [_percept(rng, kind, rng.choice(("jack", "tom")))]
        if rng.random() < 0.5:
            percepts.append(_percept(rng, kind, "tom"))
        conclusions = [Conclusion("knowledge", _text(rng)) for _ in range(rng.randint(0, 2))]
        if percepts[0].hint == "jack" and rng.random() < 0.7:
            conclusions.append(Conclusion("character", "@jack " + _text(rng)))
        store.ingest(ObservationRecord(
            rid, "v", float(rid), [Description(_text(rng))], conclusions, percepts))
    monkeypatch.undo()
    return store


@pytest.mark.parametrize("seed", SEEDS)
def test_ingest_decisions_match_brute_force(seed, monkeypatch):
    store = _ingested_store(random.Random(seed), monkeypatch)
    assert len(store.anchors) > 1 and len(store.semantic) > 1


@pytest.mark.parametrize("seed", SEEDS)
def test_logic_matches_match_brute_force(seed):
    rng = random.Random(seed)
    store = MemoryStore(Config(**CONFIG))
    _logic_stubs(rng, store, rng.randint(1, 12))
    ids = sorted(store.logic)
    vectors = {i: (store.logic[i].i_goal, store.logic[i].i_step) for i in ids}
    for _ in range(20):
        text = _text(rng)
        o_vec = store.embed(text)
        scores, want = _brute(
            ids, lambda i: max(cosine(o_vec, vectors[i][0]), cosine(o_vec, vectors[i][1])))
        got, sim = maintain.match_logic(store, o_vec)
        assert _same_pick(got, want, scores, vectors)
        assert type(sim) is float and abs(sim - scores[want]) <= 1e-12

        goal_scores, goal_want = _brute(ids, lambda i: cosine(o_vec, vectors[i][0]))
        if goal_scores[goal_want] < store.config.theta_retrieve:
            with pytest.raises(NoMatch):
                symbolic._resolve_goal_node(store, text)
        else:
            node, sim = symbolic._resolve_goal_node(store, text)
            goal_only = {i: (v[0],) for i, v in vectors.items()}
            assert _same_pick(node.id, goal_want, goal_scores, goal_only)
            assert type(sim) is float and abs(sim - goal_scores[goal_want]) <= 1e-12


def test_empty_logic_layer_has_no_match():
    store = MemoryStore(Config(dim=DIM))
    assert maintain.match_logic(store, store.embed("chop")) is None
    with pytest.raises(NoMatch):
        symbolic._resolve_goal_node(store, "chop")


@pytest.mark.parametrize("seed", SEEDS)
def test_auto_fuse_pair_order_matches_brute_force(seed, monkeypatch):
    # Every attempt is refused, so auto_fuse walks all eligible pairs in
    # its order; the brute force lists them by lowest pair of ids.
    rng = random.Random(seed)
    store = MemoryStore(Config(**CONFIG))
    _logic_stubs(rng, store, rng.randint(2, 10))
    attempts = []

    def refuse(st, id_a, id_b):
        attempts.append((id_a, id_b))
        raise FusionCycle("refused")
    monkeypatch.setattr(fuse, "fuse_logic_nodes", refuse)
    assert fuse.auto_fuse(store) == []
    ids = sorted(store.logic)
    want = [(a, b) for n, a in enumerate(ids) for b in ids[n + 1:]
            if cosine(store.logic[a].i_goal, store.logic[b].i_goal) >= store.config.tau_align]
    assert attempts == want


@pytest.mark.parametrize("seed", SEEDS)
def test_retrieve_ranking_matches_brute_force(seed, monkeypatch):
    rng = random.Random(seed)
    store = _ingested_store(rng, monkeypatch)
    _logic_stubs(rng, store, rng.randint(1, 6))
    cfg = store.config
    vectors = {("epi", i): (n.v_e,) for i, n in store.episodic.items()}
    vectors.update({("sem", i): (n.v_s,) for i, n in store.semantic.items()})
    vectors.update({("logic", i): (n.i_goal, n.i_step) for i, n in store.logic.items()})
    for _ in range(10):
        q = make_query(store, _text(rng) or "jack", "factual")
        weights = cfg.layer_weights["factual"]
        scores = {}
        for key, vecs in vectors.items():
            init = (cfg.alpha * cosine(q.q_vec, vecs[0]) + (1 - cfg.alpha) * cosine(q.q_vec, vecs[1])
                    if key[0] == "logic" else cosine(q.q_vec, vecs[0]))
            if init > cfg.theta_retrieve:
                scores[key] = init * weights[key[0]]
        # the whole ranking: items at exactly theta would sort last
        want = sorted(scores, key=lambda key: (-scores[key], LAYERS.index(key[0]), key[1]))
        ranked = retrieve.retrieve(store, q, len(vectors)).ranked
        got = [(item.layer, item.node_id) for item in ranked]
        assert len(got) == len(want)
        assert all(_same_pick(g, w, scores, vectors) for g, w in zip(got, want))
        assert all(type(item.score_init) is float and type(item.score_final) is float
                   for item in ranked)
