"""Acceptance suite: one test per criterion, printing a PASS line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is calibrated elsewhere.
"""

import os
import random
import time

import numpy as np

from memstrata import (
    Config,
    Constraint,
    Description,
    GOAL,
    HashingEmbedder,
    MemoryStore,
    ObservationRecord,
    Percept,
    ProceduralDag,
    START,
    answer_procedure,
    fuse,
    pool_beta,
    prefixspan,
    retrieve,
    make_query,
    score_logic,
    transition_prob,
)
from memstrata.cli import run_cli
from memstrata.distill import ActionSequence
from memstrata.maintain import ema_update
from memstrata.symbolic import (
    aggregate_character_behaviors,
    get_procedure_with_evidence,
    goal_reach_probability,
    query_step_sequence,
)
from conftest import fruit_salad_store, jsonl_lines, one_hot, random_corpus, texts_store
from maintain_model import apply_against_model
from test_distill import brute_force_patterns
from test_symbolic import brute_force_paths, random_constraint, random_dag, wrap_in_store

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _report(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


# -- random fixture stores for the determinism suite ---------------------------


VERBS = ("chop", "mix", "serve", "wash", "grab", "pour", "slice", "blend")
OBJECTS = ("fruit", "bowl", "salad", "towel", "plank", "milk", "window", "box")
PERSONS = ("jack", "tom", "ana")


def random_fixture_store(seed):
    rng = random.Random(seed)
    store = MemoryStore(Config(dim=128, action_verbs=VERBS))
    script_len = rng.randint(2, 4)
    verbs = rng.sample(VERBS, script_len)
    objects = [rng.choice(OBJECTS) for _ in range(script_len)]
    script = [f"@{rng.choice(PERSONS)} {v} the {o}" for v, o in zip(verbs, objects)]
    rid = 0
    for vi in range(rng.randint(2, 4)):
        video = f"v{vi}"
        for ti, line in enumerate(script):
            rid += 1
            percepts = []
            for person in sorted(p for p in PERSONS if f"@{p}" in line):
                percepts.append(
                    Percept("face", one_hot(PERSONS.index(person), 128), person))
            attrs = {"tool": rng.choice(OBJECTS)} if rng.random() < 0.5 else {}
            store.ingest(ObservationRecord(
                rid, video, float(ti), [Description(line, attrs)], [], percepts))
        if rng.random() < 0.5:
            rid += 1
            store.ingest(ObservationRecord(
                rid, video, float(script_len),
                [Description(f"{rng.choice(VERBS)} the {rng.choice(OBJECTS)}")], [], []))
    store.distill()
    for _ in range(rng.randint(1, 3)):
        rid += 1
        texts = [s.replace("@", "") for s in rng.sample(script, min(2, len(script)))]
        rec = ObservationRecord(rid, f"u{rid}", 0.0, [Description(t) for t in texts], [], [])
        store.ingest(rec)
        store.apply(rec)
    return store, rng


def render_outputs(store, goal, constraint, person):
    """Canonical text over every symbolic operation, full float precision."""
    lines = []
    try:
        pe = get_procedure_with_evidence(store, goal)
        lines.append(f"proc {pe.logic_id} {pe.c!r} sim={pe.similarity!r}")
        for src, dst, stat in sorted(pe.dag.edges(), key=lambda e: (e[0], e[1])):
            lines.append(f"edge {src}->{dst} n={stat.count!r} g={stat.gamma!r}")
        lines.append("evidence " + ",".join(str(e.id) for e in pe.evidence))
        lines.append(f"expect {goal_reach_probability(pe.dag, START)!r}")
    except Exception as exc:  # NoMatch on sparse stores is part of the output
        lines.append(f"proc-error {type(exc).__name__}")
    try:
        for path in query_step_sequence(store, goal, constraint):
            rates = ",".join(f"{k}={v!r}" for k, v in path.step_success.items())
            lines.append(f"path {'|'.join(path.steps)} p={path.probability!r} {rates}")
    except Exception as exc:
        lines.append(f"paths-error {type(exc).__name__}")
    if person is not None:
        try:
            nodes = aggregate_character_behaviors(store, person)
            lines.append("character " + ",".join(str(n.id) for n in nodes))
        except Exception as exc:
            lines.append(f"character-error {type(exc).__name__}")
    return "\n".join(lines).encode()


def test_criterion_1_determinism_suite(tmp_path):
    start = time.monotonic()
    for seed in range(20):
        store, rng = random_fixture_store(1000 + seed)
        if store.logic:
            goal = store.logic[min(store.logic)].c
        else:
            goal = "no procedure distilled"
        constraint = random_constraint(rng)
        person = min(store.anchors) if store.anchors else None
        reference = render_outputs(store, goal, constraint, person)
        for _ in range(100):
            assert render_outputs(store, goal, constraint, person) == reference
        path = str(tmp_path / f"snap{seed}.json")
        store.save(path)
        reloaded = MemoryStore.load(path)
        assert render_outputs(reloaded, goal, constraint, person) == reference
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(1, f"(20 stores x 100 reps + reload, {elapsed:.1f}s)")


# -- criterion 2: posterior consistency ------------------------------------------


def random_true_chain(rng):
    """Short trunk chain with one binary branch on the trunk.

    Every walk visits the branch node, so its two estimated edges see
    roughly 10000/(steps+1) samples each.
    """
    n_steps = rng.randint(2, 3)
    labels = [f"n{i}" for i in range(n_steps)]
    dag = ProceduralDag()
    for label in labels:
        dag.add_node(label)
    order = [START] + labels + [GOAL]
    truth = {}
    branch_at = rng.randint(1, n_steps - 1) if n_steps > 1 else None
    for i, src in enumerate(order[:-1]):
        dst = order[i + 1]
        dag.add_edge(src, dst, count=0.0, gamma=1.0)
        truth[(src, dst)] = 1.0
        if branch_at is not None and i == branch_at and i + 2 < len(order):
            skip = order[i + 2]
            p = rng.uniform(0.4, 0.6)
            dag.add_edge(src, skip, count=0.0, gamma=1.0)
            truth[(src, dst)] = p
            truth[(src, skip)] = 1.0 - p
    return dag, truth


def max_estimation_error(dag, truth):
    return max(
        abs(transition_prob(dag, src, dst) - truth[(src, dst)])
        for src, dst in truth
    )


def test_criterion_2_posterior_consistency():
    start = time.monotonic()
    rng = random.Random(20240817)
    improved = 0
    for _ in range(5):
        dag, truth = random_true_chain(rng)
        sampled = 0
        err_at_100 = None
        v = START
        while sampled < 10_000:
            outs = sorted(dag.adj[v])
            if not outs:
                v = START
                continue
            probs = [truth[(v, dst)] for dst in outs]
            dst = rng.choices(outs, weights=probs)[0]
            dag.adj[v][dst].count += 1.0
            sampled += 1
            if sampled == 100:
                err_at_100 = max_estimation_error(dag, truth)
            v = dst if dst != GOAL else START
        final_err = max_estimation_error(dag, truth)
        assert final_err < 0.02
        if final_err < err_at_100:
            improved += 1
    assert improved >= 4
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(2, f"(5 chains, improved {improved}/5, {elapsed:.1f}s)")


# -- criterion 3: fusion exactness -------------------------------------------------


def test_criterion_3_fusion_exactness():
    start = time.monotonic()
    rng = random.Random(33)
    for _ in range(100):
        trials = [rng.random() < rng.random() for _ in range(rng.randint(0, 40))]
        cut = rng.randint(0, len(trials)) if trials else 0
        a, b = trials[:cut], trials[cut:]
        pooled = pool_beta(
            (1 + sum(a), 1 + len(a) - sum(a)), (1 + sum(b), 1 + len(b) - sum(b)))
        assert pooled == (1 + sum(trials), 1 + len(trials) - sum(trials))

    emb = HashingEmbedder(256)
    vocab = [f"task_{c}{i}" for c in "abcdefgh" for i in range(2)]
    fused_pairs = 0
    for _ in range(50):
        rng.shuffle(vocab)
        prefix = vocab[: rng.randint(0, 2)]
        mid1 = vocab[2: 2 + rng.randint(0, 2)]
        mid2 = vocab[4: 4 + rng.randint(0, 2)]
        suffix = vocab[6: 6 + rng.randint(0, 2)]
        g1 = ProceduralDag.single_path(prefix + mid1 + suffix)
        g2 = ProceduralDag.single_path(prefix + mid2 + suffix)
        fused = fuse(g1, g2, emb)
        union = {tuple(p[1:-1]) for p in brute_force_paths(g1)} | {
            tuple(p[1:-1]) for p in brute_force_paths(g2)}
        got = {tuple(p[1:-1]) for p in brute_force_paths(fused)}
        assert got == union
        fused_pairs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(3, f"(100 splits exact, {fused_pairs} fused pairs, {elapsed:.1f}s)")


# -- criterion 4: pattern-mining oracle ----------------------------------------------


def test_criterion_4_pattern_mining_oracle():
    start = time.monotonic()
    rng = random.Random(44)
    for _ in range(200):
        corpus = random_corpus(rng, max_sequences=6, max_len=6, alphabet=5)
        sigma = rng.choice([0.25, 0.4, 0.6, 1.0])
        sequences = [ActionSequence(f"v{i}", seq) for i, seq in enumerate(corpus)]
        mined = {p.steps: p.support for p in prefixspan(sequences, sigma)}
        assert mined == brute_force_patterns(corpus, sigma)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(4, f"(200 corpora vs enumeration, {elapsed:.1f}s)")


# -- criterion 5: path-query oracle ----------------------------------------------------


def test_criterion_5_path_query_oracle():
    from memstrata.dag import satisfies

    start = time.monotonic()
    rng = random.Random(55)
    for _ in range(200):
        dag = random_dag(rng)
        store = wrap_in_store(dag)
        constraint = random_constraint(rng)
        got = query_step_sequence(store, "wrapped procedure", constraint)
        expected = {
            p[1:-1] for p in brute_force_paths(dag)
            if all(satisfies(dag.nodes[v].attrs, constraint) for v in p[1:-1])
        }
        assert {p.steps for p in got} == expected
        full = query_step_sequence(store, "wrapped procedure", Constraint())
        assert abs(sum(p.probability for p in full) - 1.0) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(5, f"(200 DAGs vs enumeration, {elapsed:.1f}s)")


# -- criterion 6: EMA closed form --------------------------------------------------------


def test_criterion_6_ema_closed_form():
    store = fruit_salad_store()
    store.distill()
    node = store.logic[1]
    beta = store.config.beta_ema
    rng = np.random.default_rng(66)
    i0_goal, i0_step = node.i_goal.copy(), node.i_step.copy()
    observations = []
    for _ in range(50):
        o = rng.normal(size=512)
        o /= np.linalg.norm(o)
        observations.append(o)
        ema_update(node, o, beta)
    t = len(observations)
    for i0, live in ((i0_goal, node.i_goal), (i0_step, node.i_step)):
        expected = beta ** t * i0
        for k, o in enumerate(observations, start=1):
            expected = expected + (1 - beta) * beta ** (t - k) * o
        assert np.max(np.abs(live - expected)) <= 1e-9
    _report(6, "(50 updates, 1e-9 per component)")


# -- criterion 7: incremental = batch -----------------------------------------------------


MAINT_LINES = [
    "chop the fruit", "mix the fruit", "serve the salad", "wash the bowl",
    "grab the towel", "pour the milk", "slice the plank",
]


def test_criterion_7_incremental_equals_batch():
    # apply_observation against a plain-dict reference model
    # (tests/maintain_model.py) that shares no code with memstrata.maintain.
    start = time.monotonic()
    rng = random.Random(77)
    seen = dict.fromkeys(("matched", "incremented", "expanded_edges", "start_repairs",
                          "goal_repairs", "rejected", "failures", "pool_fired"), 0)
    for _ in range(200):
        store = fruit_salad_store(pool_trigger=rng.choice([2, 3, 1000]))
        store.distill()
        records = []
        rid = 5000
        for _ in range(rng.randint(2, 6)):
            rid += 1
            lines = [rng.choice(MAINT_LINES) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.3:
                lines = ["mix the fruit", "chop the fruit"] + lines  # cycle bait
            rec = ObservationRecord(rid, f"m{rid}", 0.0, [
                Description(t, outcome="failure" if rng.random() < 0.3 else "success")
                for t in lines], [], [])
            store.ingest(rec)
            records.append(rec)
        mismatches, reports = apply_against_model(store, records)
        assert mismatches == []
        for rec, report in zip(records, reports):  # what the sequences exercised
            seen["matched"] += report.matched is not None
            seen["pool_fired"] += report.pooled and report.pool_size == 0
            seen["failures"] += report.matched is not None and any(
                d.outcome == "failure" for d in rec.descriptions)
            seen["start_repairs"] += sum(src == START for src, _ in report.repaired_edges)
            seen["goal_repairs"] += sum(dst == GOAL for _, dst in report.repaired_edges)
            for key in ("incremented", "expanded_edges", "rejected"):
                seen[key] += len(getattr(report, key))
    assert all(seen.values()), seen
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(7, f"(200 record sequences against a reference model, {seen}, {elapsed:.1f}s)")


# -- criterion 8: retrieval ranking contract -----------------------------------------------


def test_criterion_8_retrieval_ranking_contract():
    from memstrata.core import cosine

    store = fruit_salad_store(extra_sources=False)
    store.distill()
    rid = 800
    for video in ("x1", "x2"):
        for ti, text in enumerate(["grab the plank", "slice the plank"]):
            rid += 1
            store.ingest(ObservationRecord(rid, video, float(ti), [Description(text)], [], []))
    store.distill()
    assert len(store.logic) >= 2

    rng = np.random.default_rng(88)
    ids = sorted(store.logic)
    for _ in range(50):
        q = rng.normal(size=512)
        q /= np.linalg.norm(q)
        by_goal = max(ids, key=lambda i: (cosine(q, store.logic[i].i_goal), -i))
        by_step = max(ids, key=lambda i: (cosine(q, store.logic[i].i_step), -i))
        assert max(ids, key=lambda i: (score_logic(q, store.logic[i], 1.0), -i)) == by_goal
        assert max(ids, key=lambda i: (score_logic(q, store.logic[i], 0.0), -i)) == by_step

    for qtype in ("factual", "constraint", "character"):
        result = retrieve(store, make_query(store, "jack fruit plank salad bowl", qtype), 100)
        for layer in ("epi", "sem", "logic"):
            inits = [it.score_init for it in result.ranked if it.layer == layer]
            assert inits == sorted(inits, reverse=True)

    # 1e4 random episodic vectors, one per distinct text, in a valid store; theta
    # below -1 makes every node a candidate.
    from memstrata import Query

    dim = 64
    big = texts_store(Config(dim=dim, theta_retrieve=-2.0),
                      {f"text {i}": rng.normal(size=dim) for i in range(10_000)}, "r")
    assert len(big.episodic) == 10_000 and big.check() == []
    for _ in range(5):
        q = rng.normal(size=dim)
        got = retrieve(big, Query("oracle", q, "factual"), 10).ranked
        scan = sorted(((cosine(q, n.v_e), n.id) for n in big.episodic.values()),
                      key=lambda pair: (-pair[0], pair[1]))[:10]
        assert [(it.layer, it.node_id) for it in got] == [("epi", i) for _, i in scan]
        assert all(abs(it.score_final - s) <= 1e-12 for it, (s, _) in zip(got, scan))
    _report(8, "(alpha boundaries, order preservation, 1e4-vector retrieve oracle)")


# -- criteria 9 and 10: end-to-end fixture + round-count analogue ----------------------------


def fixture9_records():
    records = []
    rid = 0
    for video in ("v1", "v2", "v3"):
        for ti, (text, attrs) in enumerate([
            ("@jack chop the fruit", {"tool": "knife"}),
            ("@jack mix the fruit in a bowl", {"tool": "bowl"}),
            ("@jack serve the salad", {"tool": "plate"}),
        ]):
            rid += 1
            rec = {"id": rid, "video": video, "t": float(ti),
                   "descriptions": [{"text": text, "attrs": attrs}]}
            if ti == 0:
                vec = [0.0] * 512
                vec[3] = 1.0
                rec["percepts"] = [{"kind": "face", "vector": vec, "hint": "jack"}]
            if ti == 2:
                rec["conclusions"] = [
                    {"type": "character", "text": "@jack is a careful cook"}]
            records.append(rec)
    records.append({
        "id": 10, "video": "home", "t": 0.0,
        "descriptions": ["the bowl at home is broken"],
        "conclusions": [
            {"type": "knowledge", "text": "the store downstairs has bowls one minute away"}],
    })
    return records


def run_fixture9(tmp_path, capsys):
    obs = os.path.join(DATA_DIR, "fruit_salad.jsonl")
    # the committed fixture must match its in-test definition
    with open(obs, "r", encoding="utf-8") as fh:
        assert fh.read() == jsonl_lines(fixture9_records())
    store_dir = str(tmp_path / "store")
    sections = []
    for title, argv in [
        ("ingest", ["ingest", obs]),
        ("distill", ["distill"]),
        ("constraint-query", [
            "query", "--text",
            "How should Jack make the fruit salad without the bowl that is broken?",
            "--where", "tool=neq:bowl", "-k", "5"]),
        ("factual-query", [
            "query", "--text", "When did Jack chop the fruit?", "-k", "3"]),
    ]:
        assert run_cli(["--store", store_dir] + argv) == 0
        sections.append(f"== {title} ==\n" + capsys.readouterr().out)
    return store_dir, "".join(sections)


def test_criterion_9_end_to_end_fixture(tmp_path, capsys):
    store_dir, output = run_fixture9(tmp_path, capsys)

    assert "distilled: 1 logic nodes" in output
    assert "paths_total: 1" in output
    assert "paths_surviving: 0" in output  # no path avoids tool=bowl
    constraint_block = output.split("== constraint-query ==")[1].split("== factual")[0]
    assert "procedure: logic:1" in constraint_block
    # the blocking fact itself is the top-ranked surviving evidence
    assert '1. epi:11' in constraint_block
    assert 'evidence: epi:11 t=0.000000 "the bowl at home is broken"' in constraint_block
    factual_block = output.split("== factual-query ==")[1]
    first_ranked = [l for l in factual_block.splitlines() if l.startswith("1. ")][0]
    assert first_ranked.startswith("1. epi:1 ")  # the chopping episode

    golden_path = os.path.join(DATA_DIR, "fixture9_golden.txt")
    with open(golden_path, "r", encoding="utf-8") as fh:
        golden = fh.read()
    assert output == golden
    _report(9, "(golden file byte-identical)")


def test_criterion_10_round_count_analogue(tmp_path, capsys):
    store_dir, _ = run_fixture9(tmp_path, capsys)
    store = MemoryStore.load(os.path.join(store_dir, "snapshot.json"))

    logic_answer = answer_procedure(
        store, "procedure: chop_fruit → mix_fruit → serve_salad", use_logic=True)
    assert logic_answer.calls == 1
    assert logic_answer.steps == ("chop_fruit", "mix_fruit", "serve_salad")

    baseline = answer_procedure(
        store, "How should Jack make the fruit salad?", use_logic=False)
    assert baseline.calls >= 3
    assert baseline.steps == ("chop_fruit", "mix_fruit", "serve_salad")
    _report(10, f"(1 call vs {baseline.calls} baseline calls)")
