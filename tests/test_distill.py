import itertools
import json
import random
from types import SimpleNamespace

import numpy as np
import pytest

from memstrata import (
    ActionSequence,
    Config,
    Description,
    InvalidInput,
    LogicNode,
    MemoryStore,
    ObservationRecord,
    PathExplosion,
    Pattern,
    ProceduralDag,
    check_valid,
    enumerate_paths,
    extract_action,
    extract_action_sequences,
    prefixspan,
    verify_default,
)
from memstrata.dag import GOAL, START
from memstrata.core import norm, tokenize
from memstrata.distill import (_STOPWORDS, _covered_by_existing, _normalized_mean, closed_patterns,
                               distill)
from memstrata.store import snapshot_dict
from conftest import (DISH_STEPS, FRUIT_STEPS, ProbeEmbedder, fruit_salad_store, ladder_dag, plant,
                      procedures_store, random_corpus, simple_chain_store)
from distill_model import every_distinct_step_pattern, reference_distill
from test_symbolic import brute_force_paths, random_dag

VERBS = ("chop", "mix", "serve")


# -- brute-force oracle: exhaustive subsequence enumeration -------------------


def brute_force_patterns(sequences, sigma):
    """All length>=2 subsequences with support >= sigma, by enumeration."""
    n = len(sequences)
    found = {}
    for seq in sequences:
        subs = set()
        for length in range(2, len(seq) + 1):
            for idxs in itertools.combinations(range(len(seq)), length):
                subs.add(tuple(seq[i] for i in idxs))
        for sub in subs:
            found[sub] = found.get(sub, 0) + 1
    return {
        sub: count / n for sub, count in found.items() if count / n >= sigma - 1e-9
    }


# -- action extraction --------------------------------------------------------


def test_extract_action_verb_plus_object():
    assert extract_action("Jack chops fruit", VERBS) == "chop_fruit"
    assert extract_action("Jack mixes fruit", VERBS) == "mix_fruit"


def test_extract_action_skips_stopwords():
    assert extract_action("Jack chops the fruit", VERBS) == "chop_fruit"
    assert extract_action("he served up the salad", VERBS) == "serve_salad"


def test_extract_action_verb_alone():
    assert extract_action("Jack serves", VERBS) == "serve"


def reference_match_verb(token, verbs):
    """The verb match before the lookup map: each verb tested in lexicon order."""
    for verb in verbs:
        if token == verb or (token.startswith(verb)
                             and token[len(verb):] in ("", "s", "es", "ed", "d", "ing")):
            return verb
    return None


def reference_extract_action(text, verbs):
    tokens = tokenize(text)
    for i, token in enumerate(tokens):
        verb = reference_match_verb(token, verbs)
        if verb is not None:
            rest = [t for t in tokens[i + 1:] if t not in _STOPWORDS]
            return f"{verb}_{rest[0]}" if rest else verb
    return "_".join(tokens) or None


def _tokens_for(verbs):
    forms = [verb + suffix for verb in verbs for suffix in ("", "s", "es", "ed", "d", "ing")]
    return forms + ["", "s", "ed", "x", "chopp", "choppe", "addeds", "mixs", "adde"]


def test_extract_action_by_lookup_matches_the_verb_loop_on_the_default_lexicon():
    verbs = Config().action_verbs
    tokens = _tokens_for(verbs)
    assert len(set(tokens) - {"", "s", "ed"}) >= 144
    for token in tokens:
        for text in (token, f"Jack {token} the fruit", f"{token} {token} bowl"):
            assert extract_action(text, verbs) == reference_extract_action(text, verbs), text


def test_extract_action_by_lookup_takes_the_first_of_overlapping_verbs():
    assert extract_action("jack adds salt", ("add", "adds")) == "add_salt"
    assert extract_action("jack adds salt", ("adds", "add")) == "adds_salt"
    rng = random.Random(13)
    pool = ["add", "adds", "added", "adde", "s", "es", "e", "chop", "chops", "cho", "mix",
            "mixes", "mi", "pour", "pours", "d"]
    for _ in range(300):
        verbs = tuple(rng.sample(pool, rng.randint(1, 6)))
        for token in _tokens_for(pool):
            text = f"he {token} the salt"
            assert extract_action(text, verbs) == reference_extract_action(text, verbs), (text, verbs)


def test_extract_action_fallback_full_description():
    assert extract_action("the bowl is broken", VERBS) == "the_bowl_is_broken"


def test_extract_action_empty():
    assert extract_action("", VERBS) is None
    assert extract_action("!!!", VERBS) is None


def test_extract_action_sequences_groups_and_orders():
    store = MemoryStore(Config(dim=32, action_verbs=VERBS))
    store.ingest(ObservationRecord(1, "v2", 0.0, [Description("chop fruit")], [], []))
    store.ingest(ObservationRecord(2, "v1", 0.0, [Description("serve salad")], [], []))
    store.ingest(ObservationRecord(3, "v1", 1.0, [Description("mix fruit")], [], []))
    seqs = extract_action_sequences(store)
    assert [(s.video, s.actions) for s in seqs] == [
        ("v1", ["serve_salad", "mix_fruit"]),
        ("v2", ["chop_fruit"]),
    ]


def test_extract_action_sequences_lexicon_example():
    store = MemoryStore(Config(dim=64, action_verbs=VERBS))
    store.ingest(ObservationRecord(
        1, "v1", 0.0,
        [Description("Jack chops fruit"), Description("Jack mixes fruit")], [], []))
    seqs = extract_action_sequences(store)
    assert len(seqs) == 1
    assert seqs[0].actions == ["chop_fruit", "mix_fruit"]


def test_extract_action_sequences_empty_store():
    store = MemoryStore(Config(dim=16))
    assert extract_action_sequences(store) == []


# -- prefixspan ----------------------------------------------------------------


def seqs(*action_lists):
    return [ActionSequence(f"v{i}", list(a)) for i, a in enumerate(action_lists)]


def test_prefixspan_no_shared_order():
    assert prefixspan(seqs(["a", "b"], ["b", "a"]), 1.0) == []


def test_prefixspan_support_two_thirds():
    patterns = prefixspan(seqs(["a", "b", "c"], ["a", "c"], ["a", "b"]), 0.6)
    # brute force: ab in 2/3, ac in 2/3; bc only in 1/3
    assert {(p.steps, round(p.support, 6)) for p in patterns} == {
        (("a", "b"), round(2 / 3, 6)),
        (("a", "c"), round(2 / 3, 6)),
    }


def test_prefixspan_order_sensitivity():
    patterns = prefixspan(seqs(["cut", "blanch"], ["cut", "blanch"]), 1.0)
    assert [p.steps for p in patterns] == [("cut", "blanch")]
    reverse = prefixspan(seqs(["blanch", "cut"], ["blanch", "cut"]), 1.0)
    assert [p.steps for p in reverse] == [("blanch", "cut")]


def test_prefixspan_non_contiguous_subsequence():
    patterns = prefixspan(seqs(["a", "x", "b"], ["a", "b"]), 1.0)
    assert ("a", "b") in {p.steps for p in patterns}


def test_prefixspan_counts_each_sequence_once():
    patterns = prefixspan(seqs(["a", "b", "a", "b"]), 1.0)
    ab = [p for p in patterns if p.steps == ("a", "b")]
    assert ab and ab[0].support == 1.0


def test_prefixspan_output_sorted():
    patterns = prefixspan(seqs(["a", "b", "c"], ["a", "b", "c"], ["a", "c"]), 0.5)
    keys = [(-p.support, p.steps) for p in patterns]
    assert keys == sorted(keys)


def test_prefixspan_supporting_videos():
    patterns = prefixspan(seqs(["a", "b"], ["c", "d"], ["a", "b"]), 0.5)
    ab = next(p for p in patterns if p.steps == ("a", "b"))
    assert ab.supporting_videos == ("v0", "v2")


def test_prefixspan_matches_brute_force_on_random_corpora():
    rng = random.Random(42)
    for _ in range(200):
        corpus = random_corpus(rng)
        sigma = rng.choice([0.3, 0.5, 0.75, 1.0])
        sequences = [ActionSequence(f"v{i}", s) for i, s in enumerate(corpus)]
        mined = {p.steps: p.support for p in prefixspan(sequences, sigma)}
        expected = brute_force_patterns(corpus, sigma)
        assert mined == expected


def test_prefixspan_support_antimonotone():
    rng = random.Random(9)
    for _ in range(50):
        corpus = random_corpus(rng)
        sequences = [ActionSequence(f"v{i}", s) for i, s in enumerate(corpus)]
        mined = {p.steps: p.support for p in prefixspan(sequences, 0.3)}
        for steps, support in mined.items():
            for shorter_len in range(2, len(steps)):
                for idxs in itertools.combinations(range(len(steps)), shorter_len):
                    sub = tuple(steps[i] for i in idxs)
                    if sub in mined:
                        assert mined[sub] >= support - 1e-12


# -- closed patterns -------------------------------------------------------------


def _is_subsequence(small, big) -> bool:
    it = iter(big)
    return all(step in it for step in small)


def closed_by_filter(sequences, sigma):
    """prefixspan's patterns with distinct steps and no distinct-step proper
    super-pattern of equal support, in prefixspan's order."""
    mined = every_distinct_step_pattern(sequences, sigma)
    return [p for p in mined
            if not any(q.support == p.support and len(q.steps) > len(p.steps)
                       and _is_subsequence(p.steps, q.steps) for q in mined)]


def test_closed_patterns_match_filtered_prefixspan_on_repeat_heavy_corpora():
    # Alphabets of 2-6 letters, so that most corpora repeat actions within a
    # sequence; order and supporting videos included.
    rng = random.Random(4004)
    with_repeats = 0
    for _ in range(2000):
        corpus = random_corpus(rng, max_sequences=7, max_len=rng.randint(2, 8),
                               alphabet=rng.randint(2, 6))
        sigma = rng.choice([0.2, 0.3, 0.5, 0.75, 1.0])
        sequences = [ActionSequence(f"v{i}", s) for i, s in enumerate(corpus)]
        assert closed_patterns(sequences, sigma) == closed_by_filter(sequences, sigma), corpus
        with_repeats += any(len(set(s)) < len(s) for s in corpus)
    assert with_repeats > 1000


def test_closed_patterns_ignore_super_patterns_with_a_repeated_action():
    # a -> b -> a holds both a -> b and b -> a at equal support, but it
    # repeats an action, so both stay closed and both become nodes.
    sequences = seqs(["a", "b", "a"], ["a", "b", "a"])
    assert [p.steps for p in closed_patterns(sequences, 1.0)] == [("a", "b"), ("b", "a")]
    store = simple_chain_store(actions=("alpha_one", "beta_two", "alpha_one"))
    assert [store.logic[i].steps for i in store.distill()] == [
        ("alpha_one", "beta_two"), ("beta_two", "alpha_one")]


def test_verifier_is_offered_only_closed_patterns():
    # Fruit salad's fragments have the full procedure's support, so the
    # verifier never sees them.
    store = fruit_salad_store()
    calls = []
    store.set_verifier(lambda pattern, related: calls.append(pattern.steps) or pattern.support)
    store.distill()
    assert calls == [("chop_fruit", "mix_fruit", "serve_salad")]


def _repeat_heavy_records(rng):
    # Up to six sources over a 2-6-letter alphabet, ingested interleaved.
    corpus = random_corpus(rng, max_sequences=6, max_len=7, alphabet=rng.randint(2, 6))
    queues = [[(f"v{k}", float(i), action) for i, action in enumerate(actions)]
              for k, actions in enumerate(corpus)]
    records = []
    while any(queues):
        video, t, action = rng.choice([q for q in queues if q]).pop(0)
        records.append(ObservationRecord(
            len(records) + 1, video, t,
            [Description(action, {"tool": rng.choice("ab")}, rng.choice(["success", "failure"]))],
            [], []))
    return records


def test_distill_matches_the_prefixspan_reference_on_random_stores():
    # Each store is distilled two or three times, on pool subsets and on
    # the whole store, with records ingested in between; the closed miner
    # and the old candidate loop must create the same ids at every call and
    # leave byte-identical snapshots.
    rng = random.Random(5005)
    created = 0
    for _ in range(2000):
        records = _repeat_heavy_records(rng)
        config = Config(dim=16, action_verbs=("nonexistentverb",),
                        sigma_support=rng.choice([0.2, 0.3, 0.5, 0.75]))
        stores = [MemoryStore(config), MemoryStore(config)]
        cuts = sorted(rng.sample(range(1, len(records) + 1), min(2, len(records)))) + [len(records)]
        done = 0
        for cut in cuts:
            for store in stores:
                for rec in records[done:cut]:
                    store.ingest(rec)
            done = cut
            ids = sorted(stores[0].episodic)
            pooled = rng.sample(ids, rng.randint(1, len(ids))) if rng.random() < 0.5 else None
            new = distill(stores[0], pooled)
            assert new == reference_distill(stores[1], pooled)
            created += len(new)
        assert json.dumps(snapshot_dict(stores[0]), sort_keys=True) == \
            json.dumps(snapshot_dict(stores[1]), sort_keys=True)
    assert created > 1000


# -- verification ---------------------------------------------------------------


def test_verify_default_rules():
    assert verify_default(Pattern(("a",), 1.0, ("v0",)), []) == 0.0
    assert verify_default(Pattern(("a", "b"), 0.66, ("v0",)), []) == 0.66


def test_verify_threshold_filters_low_support(tmp_path):
    # support 0.2 < tau_verify 0.25 -> no logic node
    store = MemoryStore(Config(dim=64, sigma_support=0.2, action_verbs=("go",)))
    rid = 0
    for video in ("a", "b", "c", "d", "e"):
        rid += 1
        steps = ["go north", "go south"] if video == "a" else [f"sit {video}"]
        store.ingest(ObservationRecord(
            rid, video, 0.0, [Description(s) for s in steps], [], []))
    created = store.distill()
    assert created == []


# -- distillation ----------------------------------------------------------------


def test_distill_fruit_salad_creates_exactly_one_node():
    store = fruit_salad_store()
    created = store.distill()
    assert len(created) == 1
    node = store.logic[created[0]]
    assert node.steps == ("chop_fruit", "mix_fruit", "serve_salad")
    labels = [START, "chop_fruit", "mix_fruit", "serve_salad", GOAL]
    assert [l for l in labels if l in node.dag.nodes] == labels
    assert node.dag.has_edge(START, "chop_fruit")
    assert node.dag.has_edge("chop_fruit", "mix_fruit")
    assert node.dag.has_edge("mix_fruit", "serve_salad")
    assert node.dag.has_edge("serve_salad", GOAL)


def test_distill_no_repeats_no_nodes():
    # Two disjoint sources: every length-2 pattern has support 0.5 < 0.6.
    store = MemoryStore(Config(dim=64, sigma_support=0.6, action_verbs=("nonexistentverb",)))
    store.ingest(ObservationRecord(1, "a", 0.0, [Description("alpha one"), Description("beta two")], [], []))
    store.ingest(ObservationRecord(2, "b", 0.0, [Description("gamma three"), Description("delta four")], [], []))
    assert store.distill() == []


def test_distill_attrs_copied_from_evidence():
    store = fruit_salad_store()
    node = store.logic[store.distill()[0]]
    assert node.dag.nodes["mix_fruit"].attrs == {"tool": "bowl"}
    assert node.dag.nodes["chop_fruit"].attrs == {"tool": "knife"}


def test_distill_outcome_seeds_beta_stats():
    store = MemoryStore(Config(dim=64, action_verbs=("nonexistentverb",)))
    rid = 0
    for video in ("a", "b"):
        rid += 1
        store.ingest(ObservationRecord(rid, video, 0.0, [
            Description("alpha one", outcome="failure" if video == "a" else "success"),
            Description("beta two"),
        ], [], []))
    node = store.logic[store.distill()[0]]
    # alpha_one: 1 success + 1 failure over the prior (1,1) -> (2,2)
    assert node.dag.nodes["alpha_one"].success_alpha == 2.0
    assert node.dag.nodes["alpha_one"].success_beta == 2.0
    assert node.dag.nodes["beta_two"].success_alpha == 3.0


def test_distill_index_vectors():
    store = simple_chain_store()
    node = store.logic[store.distill()[0]]
    assert np.array_equal(node.i_goal, store.embed(node.c))
    step_mean = np.mean([store.embed(s) for s in node.steps], axis=0)
    step_mean /= np.linalg.norm(step_mean)
    assert np.allclose(node.i_step, step_mean, atol=1e-12)
    assert abs(np.linalg.norm(node.i_step) - 1.0) <= 1e-9


def test_distill_rerun_is_noop():
    store = fruit_salad_store()
    first = store.distill()
    assert store.distill() == []
    assert len(store.logic) == len(first)


def test_distill_links_cover_every_step():
    store = fruit_salad_store()
    node = store.logic[store.distill()[0]]
    linked_actions = {store.episodic[i].action for i in node.episodic_links}
    assert set(node.steps) <= linked_actions


def test_distill_custom_goal_namer():
    store = simple_chain_store()
    store.set_goal_namer(lambda pattern: "do " + "+".join(pattern.steps))
    node = store.logic[store.distill()[0]]
    assert node.c.startswith("do ")
    assert np.array_equal(node.i_goal, store.embed(node.c))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), "0.9", None, True])
def test_distill_refuses_bad_verifier_score_unchanged(bad):
    # A fourth source that stops after mixing: the fragment chop -> mix has
    # support 4/5 and is offered before the full procedure (3/5); the bad
    # score on that last candidate must stop the node for the first.
    store = fruit_salad_store()
    for rid, (t, text) in enumerate([(0.0, "chop the fruit"), (1.0, "mix the fruit")], start=100):
        store.ingest(ObservationRecord(rid, "v4", t, [Description(text)], [], []))
    calls = []

    def verifier(pattern, related):
        calls.append(pattern.steps)
        return bad if len(pattern.steps) == 3 else pattern.support
    store.set_verifier(verifier)
    before = json.dumps(snapshot_dict(store), sort_keys=True)
    with pytest.raises(InvalidInput, match="finite real number"):
        store.distill()
    assert calls == [("chop_fruit", "mix_fruit"), ("chop_fruit", "mix_fruit", "serve_salad")]
    assert store.logic == {} and store.next_logic_id == 1
    assert json.dumps(snapshot_dict(store), sort_keys=True) == before


def test_distill_verifier_numpy_score_stored_as_float(tmp_path):
    # json cannot write an np.float32; the node keeps a plain float
    store = fruit_salad_store()
    store.set_verifier(lambda pattern, related: np.float32(pattern.support))
    node = store.logic[store.distill()[0]]
    assert type(node.score) is float and node.score == 0.75
    store.save(str(tmp_path / "snap.json"))


# -- cover check and verification evidence ----------------------------------------


def test_covered_by_existing_matches_path_enumeration_oracle():
    # Covered means: a subsequence of the step labels of some START -> GOAL
    # path of some logic DAG, found here by enumerating every path.
    rng = random.Random(606)
    covered = 0
    for _ in range(300):
        dags = [random_dag(rng) for _ in range(rng.randint(1, 2))]
        assert all(check_valid(dag) == [] for dag in dags)
        store = SimpleNamespace(_logic={i: SimpleNamespace(dag=d) for i, d in enumerate(dags)},
                                config=Config())
        inner = [p[1:-1] for dag in dags for p in brute_force_paths(dag)]
        labels = sorted({label for dag in dags for label in dag.step_labels()})
        pool = labels + ["zz_foreign", START, GOAL]
        for _ in range(20):
            steps = tuple(rng.sample(pool, rng.randint(1, min(4, len(pool)))))
            if rng.random() < 0.5:  # DAG labels only, so that cover is common
                steps = tuple(rng.sample(labels, rng.randint(1, min(4, len(labels)))))
            expected = any(_is_subsequence(steps, path) for path in inner)
            assert _covered_by_existing(steps, store) == expected, (steps, inner)
            covered += expected
    assert covered > 500


def _ladder_store(texts):
    store = MemoryStore(Config(dim=128, action_verbs=("nonexistentverb",), max_paths=4))
    v = store.embed("ladder")
    plant(store, logic={1: LogicNode(id=1, c="ladder", i_goal=v, i_step=v.copy(), dag=ladder_dag(3))},
          next_logic_id=2)
    rid = 0
    for video in ("s1", "s2"):
        for ti, text in enumerate(texts):
            rid += 1
            store.ingest(ObservationRecord(rid, video, float(ti), [Description(text)], [], []))
    return store


def test_distill_beside_a_dag_over_max_paths():
    # The ladder has 8 START -> GOAL paths, over max_paths = 4, and distill
    # must not raise PathExplosion beside it. rung0_a -> rung2_b lies on a
    # ladder path; alpha_one and beta_two are not ladder steps.
    with pytest.raises(PathExplosion):
        enumerate_paths(ladder_dag(3), max_paths=4)
    store = _ladder_store(["rung0 a", "alpha one", "rung2 b", "beta two"])
    created = store.distill()
    assert [store.logic[i].steps for i in created] == [
        ("rung0_a", "alpha_one", "rung2_b", "beta_two")]
    assert store.distill() == []
    assert _ladder_store(["rung0 a", "rung2 b"]).distill() == []


def _random_store(rng):
    # Sources ingested interleaved, so ids and timestamps disagree across
    # sources; equal timestamps, two-description records and descriptions
    # with no action too.
    store = MemoryStore(Config(dim=32, action_verbs=("nonexistentverb",),
                               sigma_support=rng.choice([0.3, 0.5])))
    queues = [[(f"v{k}", float(i // 2), a) for i, a in enumerate(actions)]
              for k, actions in enumerate(random_corpus(rng, max_sequences=5, max_len=6))]
    rid = 0
    while any(queues):
        video, t, action = rng.choice([q for q in queues if q]).pop(0)
        rid += 1
        texts = [action] + rng.choice([[], [], [""], ["c"]])
        store.ingest(ObservationRecord(
            rid, video, t,
            [Description(x, {"tool": rng.choice("ab"), rng.choice("pq"): rid},
                         rng.choice(["success", "failure"])) for x in texts],
            [], []))
    return store


def test_verifier_sees_every_episodic_node_of_its_steps_in_id_order():
    rng = random.Random(707)
    calls = 0
    for _ in range(150):
        store = _random_store(rng)
        seen = []

        def verifier(pattern, related):
            seen.append((pattern.steps, [e.id for e in related]))
            return verify_default(pattern, related)
        store.set_verifier(verifier)
        # The candidate pool mines a subset; evidence is still store-wide.
        all_ids = sorted(store.episodic)
        pooled = rng.sample(all_ids, len(all_ids) // 2) if rng.random() < 0.5 else None
        created = distill(store, pooled)
        for steps, ids in seen:
            expected = [i for i in sorted(store.episodic)
                        if store.episodic[i].action in set(steps)]
            assert ids == expected, steps
        calls += len(seen)
        for logic_id in created:
            node = store.logic[logic_id]
            evidence = [e for e in store.episodic.values() if e.action in node.steps]
            assert node.episodic_links == {e.id for e in evidence}
            for step in node.steps:
                mine = sorted((e for e in evidence if e.action == step), key=lambda e: (e.t, e.id))
                stats = node.dag.nodes[step]
                assert stats.attrs == {k: v for e in reversed(mine) for k, v in e.attrs.items()}
                assert stats.success_alpha == 1 + sum(e.outcome == "success" for e in mine)
                assert stats.success_beta == 1 + sum(e.outcome != "success" for e in mine)
        assert store.check() == []
    assert calls > 100


def test_distill_over_step_vectors_whose_sum_overflows_makes_a_savable_store(tmp_path):
    # The three step vectors of each procedure are np.full(8, 1.5e308): their sum overflows,
    # their mean does not.
    embedder = ProbeEmbedder(8, lambda text: np.full(8, 1.5e308))
    store = procedures_store(Config(dim=8), embedder, [FRUIT_STEPS, DISH_STEPS])
    assert store.distill() == [1, 2]
    assert store.check() == []
    store.save(str(tmp_path / "snap.json"))


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e150, 1e200])
def test_normalized_mean_whose_mean_is_finite_is_the_plain_quotient_bit_for_bit(scale):
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 7):
        vectors = [rng.normal(size=8) * scale for _ in range(n)]
        mean = np.mean(vectors, axis=0)
        with np.errstate(over="ignore"):
            n_mean = norm(mean)
        want = mean / n_mean if n_mean > 0.0 else mean
        assert _normalized_mean(vectors).tobytes() == want.tobytes()
