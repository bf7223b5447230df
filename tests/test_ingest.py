import hashlib
import json
import random

import numpy as np
import pytest

from memstrata import (
    Conclusion,
    Config,
    DanglingMention,
    Description,
    DuplicateObservation,
    MalformedRecord,
    MemoryStore,
    ObservationRecord,
    Percept,
    consolidate_semantic,
    read_observation_lines,
    record_from_dict,
    resolve_anchor,
)
from memstrata.core import COSINE_BLOCK
from memstrata.ingest import EntityAnchor
from memstrata.store import snapshot_dict
from conftest import fruit_salad_store, one_hot


def small_store(dim=16, **overrides):
    return MemoryStore(Config(dim=dim, **overrides))


# -- anchors ----------------------------------------------------------------


def test_resolve_anchor_empty_store_creates():
    store = small_store()
    anchor_id = resolve_anchor(store, Percept("face", one_hot(0, 16), "jack"))
    assert anchor_id == 1
    assert store.anchors[1].count == 1
    assert store.anchors[1].label == "jack"


def test_resolve_anchor_identity_match_increments():
    store = small_store()
    v = one_hot(0, 16)
    a1 = resolve_anchor(store, Percept("face", v, "jack"))
    a2 = resolve_anchor(store, Percept("face", v.copy(), "jack2"))
    assert a1 == a2
    assert store.anchors[a1].count == 2
    assert store.anchors[a1].label == "jack"  # label keeps the first hint


def test_resolve_anchor_orthogonal_vectors_split():
    # cosine(e0, e1) = 0 < tau_anchor = 0.75 by the core oracle
    store = small_store()
    a1 = resolve_anchor(store, Percept("face", one_hot(0, 16), "jack"))
    a2 = resolve_anchor(store, Percept("face", one_hot(1, 16), "tom"))
    assert a1 != a2
    assert len(store.anchors) == 2


def test_resolve_anchor_kind_separation():
    # A voice percept never matches a face centroid.
    store = small_store()
    a1 = resolve_anchor(store, Percept("face", one_hot(0, 16), "jack"))
    a2 = resolve_anchor(store, Percept("voice", one_hot(0, 16), "jack"))
    assert a1 != a2


def test_anchor_centroid_is_running_mean():
    store = small_store()
    resolve_anchor(store, Percept("face", one_hot(0, 16), "jack"))
    nudged = one_hot(0, 16)
    nudged[1] = 0.1  # cosine to e0 stays ~0.995 >= 0.75
    resolve_anchor(store, Percept("face", nudged, "jack"))
    expected = (one_hot(0, 16) + nudged) / 2
    assert np.allclose(store.anchors[1].centroid_face, expected)


def test_anchor_count_conservation():
    store = small_store()
    rng = np.random.default_rng(5)
    n = 40
    for i in range(n):
        kind = "face" if i % 3 else "voice"
        v = rng.normal(size=16)
        resolve_anchor(store, Percept(kind, v / np.linalg.norm(v), f"p{i}"))
    assert sum(a.count for a in store.anchors.values()) == n == store.percept_count


# -- the centroid rows ----------------------------------------------------------


def _percept_records(seed, n, dim=16, people=80):
    """Records of one description and a noisy face (for some people also a
    voice) percept each; at tau_anchor 0.95 most people get their own
    anchor, and repeats update them."""
    rng = np.random.default_rng(seed)
    faces, voices = rng.normal(size=(people, dim)), rng.normal(size=(people, dim))
    records = []
    for rid in range(1, n + 1):
        p = int(rng.integers(people))
        percepts = [Percept("face", faces[p] + 0.02 * rng.normal(size=dim), f"p{p}")]
        if p % 3 == 0:
            percepts.append(Percept("voice", voices[p] + 0.02 * rng.normal(size=dim), f"p{p}"))
        records.append(ObservationRecord(rid, "v", float(rid), [Description(f"@p{p} chop the fruit")],
                                         [Conclusion("character", f"@p{p} is careful")], percepts))
    return records


def _built(records):
    store = small_store(tau_anchor=0.95)
    for rec in records:
        store.ingest(rec)
    return store


def _snapshot_bytes(store):
    return json.dumps(snapshot_dict(store), sort_keys=True, separators=(",", ":")).encode()


def test_clone_is_independent_of_the_original():
    records = _percept_records(1, 900, people=400)
    store = _built(records[:600])
    assert len(store.centroid_rows.blocks["face"].ids) > COSINE_BLOCK  # more than one chunk
    before = _snapshot_bytes(store)
    centroids = {i: (a.centroid_face.copy() if a.centroid_face is not None else None,
                     a.centroid_voice.copy() if a.centroid_voice is not None else None)
                 for i, a in store.anchors.items()}
    twin = store.clone()
    for rec in records[600:]:
        twin.ingest(rec)
    assert twin.check() == [] and store.check() == []
    assert _snapshot_bytes(store) == before
    for i, (face, voice) in centroids.items():
        for kept, now in ((face, store.anchors[i].centroid_face),
                          (voice, store.anchors[i].centroid_voice)):
            assert (kept is None and now is None) or np.array_equal(kept, now)
    # The clone, and the original after it, each go on as an uninterrupted build.
    straight = _snapshot_bytes(_built(records))
    assert _snapshot_bytes(twin) == straight
    for rec in records[600:]:
        store.ingest(rec)
    assert _snapshot_bytes(store) == straight


def test_resume_from_a_snapshot_equals_an_uninterrupted_build(tmp_path):
    records = _percept_records(2, 400)
    _built(records).save(str(tmp_path / "straight.json"))
    _built(records[:170]).save(str(tmp_path / "part.json"))
    resumed = MemoryStore.load(str(tmp_path / "part.json"))
    for rec in records[170:]:
        resumed.ingest(rec)
    resumed.save(str(tmp_path / "resumed.json"))
    digest = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("straight.json", "resumed.json")]
    assert digest[0] == digest[1]


def test_check_reports_a_centroid_that_is_not_its_row():
    store = _built(_percept_records(3, 60))
    assert store.check() == []
    faced = store.centroid_rows.blocks["face"].ids[1]
    anchor = store.anchors[faced]
    anchor.centroid_face = anchor.centroid_face.copy()  # equal values, not the row
    assert store.check() == [f"anchor {faced}: face centroid is not its row of the face rows"]

    store = _built(_percept_records(3, 60))
    rows = store.centroid_rows.blocks["face"].rows
    rows[0], rows[1] = rows[1], rows[0]  # each anchor's view sits at the other's row
    assert store.check() == [f"anchor {i}: face centroid is not its row of the face rows"
                             for i in store.centroid_rows.blocks["face"].ids[:2]]

    store = _built(_percept_records(3, 60))
    voiced = store.centroid_rows.blocks["voice"].ids[0]
    store.anchors[voiced].centroid_voice = None
    store.anchors[voiced].centroid_face = one_hot(0, 16)
    store.anchors[voiced].face_count, store.anchors[voiced].voice_count = 1, 0  # counts that fit
    assert store.check() == [
        f"anchor {voiced}: face centroid is not its row of the face rows",
        f"voice centroid rows of anchors without a voice centroid: [{voiced}]"]


def test_anchors_inserted_by_a_caller_join_the_rows_at_the_next_percept():
    store = small_store()
    store.anchors[1] = EntityAnchor(1, "jack", centroid_face=one_hot(0, 16), face_count=1)
    store.next_anchor_id = 2
    assert store.check() == ["anchor 1: face centroid is not its row of the face rows"]
    assert resolve_anchor(store, Percept("face", one_hot(0, 16), "jack")) == 1
    assert store.check() == []
    # once more, now that the rows exist
    store.anchors[2] = EntityAnchor(2, "tom", centroid_face=one_hot(1, 16), face_count=1)
    store.next_anchor_id = 3
    assert resolve_anchor(store, Percept("face", one_hot(1, 16), "tom")) == 2
    assert store.check() == []
    face = store.centroid_rows.blocks["face"]
    assert face.ids == [1, 2]
    assert all(store.anchors[i].centroid_face is row for i, row in zip(face.ids, face.rows))


def _stale_norms(store):
    """The (kind, row) of each kept norm that is not, bit for bit, the norm
    the row form of ``cosine`` computes for its row."""
    stale = []
    for kind, block in store.centroid_rows.blocks.items():
        kept = np.concatenate(block.norms() or [np.zeros(0)]).view(np.uint64)
        fresh = [np.sqrt(np.vecdot(c, c)) for c in block.chunks()]
        fresh = np.concatenate(fresh).view(np.uint64) if fresh else kept
        stale += [(kind, int(i)) for i in np.flatnonzero(kept != fresh)]
    return stale


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_kept_centroid_norms_stay_those_of_their_rows(tmp_path, seed):
    # A scan takes each centroid's norm from beside its row; every write to a
    # row, a clone and a load must leave it what the scan once computed.
    records = _percept_records(seed, 500, people=400)  # two face chunks
    store = _built(records[:250])
    twin = store.clone()
    assert _stale_norms(store) == _stale_norms(twin) == []
    for rec in records[250:380]:
        twin.ingest(rec)
    assert _stale_norms(twin) == [] and _stale_norms(store) == []
    path = str(tmp_path / "snap.json")
    twin.save(path)
    loaded = MemoryStore.load(path)
    for rec in records[380:]:
        loaded.ingest(rec)
        twin.ingest(rec)
    assert len(loaded.centroid_rows.blocks["face"].ids) > COSINE_BLOCK
    assert _stale_norms(loaded) == [] and loaded.check() == []
    assert _snapshot_bytes(loaded) == _snapshot_bytes(twin)
    block = loaded.centroid_rows.blocks["face"]
    block.rows[COSINE_BLOCK + 1] *= 2.0  # a write without renorm
    assert _stale_norms(loaded) == [("face", COSINE_BLOCK + 1)]
    assert loaded.check() == [f"anchor {block.ids[COSINE_BLOCK + 1]}: kept face norm is not "
                              "its row's norm"]


# -- ingest -------------------------------------------------------------------


def test_ingest_two_descriptions_no_conclusions():
    store = small_store()
    rec = ObservationRecord(1, "v1", 0.0,
                            [Description("open the door"), Description("close the door")], [], [])
    episodes, events = store.ingest(rec)
    assert len(episodes) == 2
    assert events == []
    assert len(store.episodic) == 2


def test_ingest_duplicate_observation():
    store = small_store()
    rec = ObservationRecord(1, "v1", 0.0, [Description("x y")], [], [])
    store.ingest(rec)
    with pytest.raises(DuplicateObservation):
        store.ingest(rec)


def test_ingest_dangling_mention():
    store = small_store()
    rec = ObservationRecord(1, "v1", 0.0, [Description("@ghost waves")], [], [])
    with pytest.raises(DanglingMention):
        store.ingest(rec)
    # atomic: nothing was written
    assert not store.episodic and not store.observations


def test_ingest_mention_resolves_to_existing_anchor():
    store = small_store()
    store.ingest(ObservationRecord(
        1, "v1", 0.0, [Description("@jack waves")], [],
        [Percept("face", one_hot(0, 16), "jack")]))
    episodes, _ = store.ingest(ObservationRecord(
        2, "v1", 1.0, [Description("@jack leaves")], [], []))
    node = store.episodic[episodes[0]]
    assert node.anchors == {1}


def test_ingest_timestamps_must_not_regress():
    store = small_store()
    store.ingest(ObservationRecord(1, "v1", 5.0, [Description("a b")], [], []))
    with pytest.raises(MalformedRecord):
        store.ingest(ObservationRecord(2, "v1", 4.0, [Description("c d")], [], []))
    # other sources have their own clocks
    store.ingest(ObservationRecord(3, "v2", 0.0, [Description("e f")], [], []))


def test_episodic_vectors_recomputable_and_append_only():
    store = small_store()
    store.ingest(ObservationRecord(1, "v1", 0.0, [Description("grab the bowl")], [], []))
    before = dict(store.episodic)
    store.ingest(ObservationRecord(2, "v1", 1.0, [Description("fill the bowl")], [], []))
    for node_id, node in before.items():
        assert store.episodic[node_id] is node
        assert np.array_equal(node.v_e, store.embed(node.d))


def _vector_per_text(store):
    """Each episodic text's vector, after asserting that every node with the
    text holds that one array object and that it is the store's."""
    by_text = {}
    for node in store.episodic.values():
        assert by_text.setdefault(node.d, node.v_e) is node.v_e
        assert store.texts[node.d][1] is node.v_e
    assert store.texts.keys() == by_text.keys()
    return by_text


def test_nodes_with_equal_text_share_one_vector(tmp_path):
    store = fruit_salad_store(dim=64)  # three sources of the same three texts
    store.distill()
    built = _vector_per_text(store)
    assert len(built) < len(store.episodic)
    path = str(tmp_path / "snap.json")
    store.save(path)
    loaded = MemoryStore.load(path)
    assert _vector_per_text(loaded).keys() == built.keys()
    twin = store.clone()
    for text, vec in _vector_per_text(twin).items():
        assert vec is not built[text] and np.array_equal(vec, built[text])
    ids, _ = twin.ingest(ObservationRecord(
        100, "v4", 0.0, [Description("@jack chop the fruit"), Description("@jack peel the fruit")], [], []))
    assert twin.episodic[ids[0]].v_e is twin.texts["@jack chop the fruit"][1]
    _vector_per_text(twin)
    assert _vector_per_text(store).keys() == built.keys()
    assert store.check() == [] and loaded.check() == [] and twin.check() == []


def test_check_reports_a_vector_that_is_not_its_texts():
    store = fruit_salad_store(dim=64)
    assert store.check() == []
    first, repeat = [i for i, n in sorted(store.episodic.items()) if n.d == "@jack chop the fruit"][:2]
    store.episodic[repeat].v_e = store.episodic[first].v_e.copy()  # equal values, not the text's
    store.episodic[first].d = "@jack chop the fruits"  # a text the store holds no vector for
    assert store.check() == [f"episodic {i}: v_e is not the store's vector for its text"
                             for i in (first, repeat)] + [
        f"episodic {first}: action 'chop_fruit' is not the one its text gives"]  # nor its action


# -- semantic consolidation ---------------------------------------------------


def test_semantic_repeat_reinforces():
    store = MemoryStore(Config(dim=512))
    rec1 = ObservationRecord(1, "v1", 0.0, [Description("@jack waves")],
                             [Conclusion("character", "@jack is tidy")],
                             [Percept("face", one_hot(0, 512), "jack")])
    store.ingest(rec1)
    rec2 = ObservationRecord(2, "v1", 1.0, [Description("@jack waves again")],
                             [Conclusion("character", "@jack is tidy")], [])
    _, events = store.ingest(rec2)
    # determinism of embed makes sim = 1.0 >= tau_pos
    assert events == [("reinforced", 2)]
    sems = list(store.semantic.values())
    assert len(sems) == 1
    assert sems[0].weight == 2


def test_semantic_dissimilar_weakens_then_prunes():
    # Texts share only the @jack token: cosine = 1/(sqrt(3)*sqrt(6)) = 0.236
    # by the core oracle, below tau_neg = 0.3.
    store = MemoryStore(Config(dim=512))
    store.ingest(ObservationRecord(
        1, "v1", 0.0, [Description("@jack waves")],
        [Conclusion("character", "@jack is tidy")],
        [Percept("face", one_hot(0, 512), "jack")]))
    _, events = store.ingest(ObservationRecord(
        2, "v1", 1.0, [Description("@jack hums")],
        [Conclusion("character", "@jack collects vintage stamp albums weekly")], []))
    assert ("weakened", 2) in events
    assert ("pruned", 2) in events
    assert any(kind == "created" for kind, _ in events)
    remaining = list(store.semantic.values())
    assert len(remaining) == 1
    assert remaining[0].attrs == "@jack collects vintage stamp albums weekly"


def test_semantic_idempotence_weight_equals_repetitions():
    store = MemoryStore(Config(dim=512))
    store.ingest(ObservationRecord(
        1, "v1", 0.0, [Description("@jack waves")], [],
        [Percept("face", one_hot(0, 512), "jack")]))
    k = 5
    for i in range(k):
        store.ingest(ObservationRecord(
            10 + i, "v1", float(i + 1), [],
            [Conclusion("character", "@jack is tidy")], []))
    sems = list(store.semantic.values())
    assert len(sems) == 1
    assert sems[0].weight == k


def test_consolidate_candidates_require_anchor_superset():
    store = MemoryStore(Config(dim=512))
    store.ingest(ObservationRecord(
        1, "v1", 0.0, [Description("@jack and @tom wave")], [],
        [Percept("face", one_hot(0, 512), "jack"),
         Percept("face", one_hot(1, 512), "tom")]))
    # node anchored to jack only
    consolidate_semantic(store, "character", "@jack is tidy", {1})
    # same text but requiring {jack, tom}: the jack-only node is not a
    # candidate (its anchors are not a superset), so a new node appears
    events = consolidate_semantic(store, "character", "@jack is tidy", {1, 2})
    assert events[-1][0] == "created"
    assert len(store.semantic) == 2


def test_reinforce_wins_over_weaken_when_both_present():
    store = MemoryStore(Config(dim=512))
    store.ingest(ObservationRecord(
        1, "v1", 0.0, [Description("@jack waves")], [],
        [Percept("face", one_hot(0, 512), "jack")]))
    consolidate_semantic(store, "c", "@jack is tidy", {1})
    consolidate_semantic(store, "c", "@jack is tidy", {1})          # weight 2
    consolidate_semantic(store, "c", "@jack collects vintage stamp albums weekly", {1})
    weights = {n.attrs: n.weight for n in store.semantic.values()}
    assert weights["@jack is tidy"] == 1  # weakened by the stamp conclusion
    # identical text matches the tidy node above tau_pos -> reinforced,
    # even though the stamp node sits below tau_neg (0.236 by hand)
    events = consolidate_semantic(store, "c", "@jack is tidy", {1})
    assert events == [("reinforced", 2)]
    assert {n.attrs: n.weight for n in store.semantic.values()} == {
        "@jack is tidy": 2,
        "@jack collects vintage stamp albums weekly":
            weights["@jack collects vintage stamp albums weekly"],
    }


# -- record parsing -----------------------------------------------------------


def test_record_from_dict_accepts_string_and_object_descriptions():
    rec = record_from_dict({
        "id": 1, "video": "v", "t": 0,
        "descriptions": ["plain text", {"text": "rich", "attrs": {"k": "v"}, "outcome": "failure"}],
    })
    assert rec.descriptions[0].attrs == {}
    assert rec.descriptions[1].outcome == "failure"


@pytest.mark.parametrize("obj", [
    {"video": "v", "t": 0},
    {"id": "x", "video": "v", "t": 0},
    {"id": 1, "video": "", "t": 0},
    {"id": 1, "video": "v", "t": 0, "descriptions": [{"text": "x", "outcome": "maybe"}]},
    {"id": 1, "video": "v", "t": 0, "percepts": [{"kind": "gait", "vector": [1.0], "hint": "h"}]},
    {"id": 1, "video": "v", "t": 0, "percepts": [{"kind": "face", "vector": "no", "hint": "h"}]},
    {"id": True, "video": "v", "t": 0},
    {"id": 1, "video": "v", "t": True},
    {"id": 1, "video": "v", "t": float("nan")},
    {"id": 1, "video": "v", "t": float("inf")},
    {"id": 1, "video": "v", "t": 10 ** 400},
    {"id": 1, "video": "v", "t": 0,
     "percepts": [{"kind": "face", "vector": [10 ** 400, 0.0], "hint": "h"}]},
    {"id": 1, "video": "v", "t": 0,
     "percepts": [{"kind": "face", "vector": [True, 0.0], "hint": "h"}]},
    {"id": 1, "video": "v", "t": 0, "conclusions": [[5, None]]},
    {"id": 1, "video": "v", "t": 0, "conclusions": [["knowledge", 5]]},
])
def test_record_from_dict_rejects_malformed(obj):
    with pytest.raises(MalformedRecord):
        record_from_dict(obj)


@pytest.mark.parametrize("key", ["descriptions", "conclusions", "percepts"])
@pytest.mark.parametrize("value", [5, None, "chop", {"text": "chop"}, True, 1.5])
def test_record_from_dict_refuses_record_containers_that_are_not_lists(key, value):
    with pytest.raises(MalformedRecord, match=f"{key} must be a list"):
        record_from_dict({"id": 1, "video": "v", "t": 0, key: value})


FULL_RECORD = {
    "id": 7, "video": "v", "t": 1.5,
    "descriptions": ["@jack chop the fruit",
                     {"text": "@jack mix the fruit", "attrs": {"tool": "bowl", "n": 2},
                      "outcome": "failure"}],
    "conclusions": [{"type": "character", "text": "@jack is careful"},
                    ["knowledge", "bowls are downstairs"]],
    "percepts": [{"kind": "face", "hint": "jack", "vector": [1.0, 0, 0, 0]}],
}


def _all_paths(value, path=()):
    """Paths to every value in ``value``, containers included."""
    if path:
        yield path
    if isinstance(value, (dict, list)):
        for key in (sorted(value) if isinstance(value, dict) else range(len(value))):
            yield from _all_paths(value[key], path + (key,))


def test_record_mutation_sweep_raises_only_typed_errors():
    # Every value of a full record, leaf or container, replaced in turn:
    # parsing and then ingesting either succeed with a clean store or raise
    # a MemoryEngineError that leaves the store as it was.
    from memstrata import MemoryEngineError

    base = small_store(dim=4)
    base.ingest(ObservationRecord(1, "v", 0.0, [Description("@ana wash the bowl")], [],
                                  [Percept("voice", one_hot(1, 4), "ana")]))
    before = json.dumps(snapshot_dict(base), sort_keys=True)
    escaped = []
    for where in _all_paths(FULL_RECORD):
        for value in ("x", None, [], {}, -1, 2**70, 1.5, True):
            obj = json.loads(json.dumps(FULL_RECORD))
            entry = obj
            for key in where[:-1]:
                entry = entry[key]
            entry[where[-1]] = value
            store = base.clone()
            try:
                store.ingest(record_from_dict(obj))
            except MemoryEngineError:
                if json.dumps(snapshot_dict(store), sort_keys=True) != before:
                    escaped.append((where, value, "store changed"))
                continue
            except Exception as exc:
                escaped.append((where, value, repr(exc)))
                continue
            if store.check():
                escaped.append((where, value, store.check()[0]))
    assert escaped == []


def _old_percept_check(vec):
    """The per-element check the C-level pass replaced."""
    return all(type(x) in (int, float) for x in vec)


@pytest.mark.parametrize("bad", [True, False, "1", None, [1.0], {"x": 1.0}, np.float64(1.0)])
def test_record_from_dict_refuses_non_number_percept_entries(bad):
    for at in (0, 4, 8):
        vec = [0.5, 1, -2.0, 0, 3.25, 7, 0.0, -1, 2.5]
        vec[at] = bad
        assert not _old_percept_check(vec)
        with pytest.raises(MalformedRecord, match="list of numbers"):
            record_from_dict({"id": 1, "video": "v", "t": 0,
                              "percepts": [{"kind": "face", "vector": vec, "hint": "h"}]})


def test_percept_check_matches_the_per_element_check():
    rng = random.Random(5)
    pool = [0, 1, -3, 2**70, 0.5, -0.0, 1e300, True, False, "0", None, [], {}, np.float64(0.5)]
    for _ in range(400):
        vec = [rng.choice(pool[:7]) for _ in range(rng.randint(0, 6))]
        if vec and rng.random() < 0.5:
            vec[rng.randrange(len(vec))] = rng.choice(pool)
        obj = {"id": 1, "video": "v", "t": 0, "percepts": [{"kind": "face", "vector": vec, "hint": "h"}]}
        if _old_percept_check(vec):
            assert record_from_dict(obj).percepts[0].vector.tolist() == [float(x) for x in vec]
        else:
            with pytest.raises(MalformedRecord):
                record_from_dict(obj)


def test_ingest_rejects_bad_api_record_fields_unchanged():
    store = small_store(dim=4)
    store.ingest(ObservationRecord(1, "v", 1.0, [Description("@jack chop the fruit")], [],
                                   [Percept("face", one_hot(0, 4), "jack")]))
    before = json.dumps(snapshot_dict(store), sort_keys=True)
    nan_face = np.array([np.nan, 0.0, 0.0, 0.0])
    # JSON's NaN/-Infinity parse; ingest refuses them for JSONL and API records alike.
    jsonl = read_observation_lines(['{"version": 1}'] + [
        '{"id": 2, "video": "v", "t": 2, "descriptions": ["@jack mix"], '
        '"percepts": [{"kind": "face", "vector": [%s, 0, 0, 0], "hint": "jack"}]}' % x
        for x in ("NaN", "-Infinity")] + [
        '{"id": 2, "video": "v", "t": 2, "descriptions": '
        '[{"text": "mix", "attrs": %s}]}' % attrs
        for attrs in ('{"k": NaN}', '{"k": Infinity}', '{"k": [1, [2, -Infinity]]}',
                      '{"k": "x", "m": {"n": [{"o": NaN}]}}')])
    for rec in jsonl + [
        ObservationRecord(2, "v", 2.0, [Description("@jack mix")], [],
                          [Percept("face", nan_face, "jack")]),
        ObservationRecord(2, "v", float("nan"), [Description("mix")], [], []),
        ObservationRecord(2, "v", float("inf"), [Description("mix")], [], []),
        ObservationRecord(True, "v", 2.0, [Description("mix")], [], []),
        # np.int64 and np.float32 are refused: json cannot write them into a snapshot
        ObservationRecord(np.int64(2), "v", 2.0, [Description("mix")], [], []),
        ObservationRecord(2, "v", np.float32(2.0), [Description("mix")], [], []),
    ]:
        with pytest.raises(MalformedRecord):
            store.ingest(rec)
    assert json.dumps(snapshot_dict(store), sort_keys=True) == before
    assert store.check() == []
    # The clock still guards the source after the refused NaN timestamp.
    with pytest.raises(MalformedRecord):
        store.ingest(ObservationRecord(3, "v", 0.0, [Description("mix")], [], []))


def test_read_observation_lines_requires_header():
    with pytest.raises(MalformedRecord):
        read_observation_lines(['{"id": 1, "video": "v", "t": 0}'])
    records = read_observation_lines([
        '{"version": 1}', '{"id": 1, "video": "v", "t": 0, "descriptions": ["x y"]}'])
    assert len(records) == 1
