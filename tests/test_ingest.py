import hashlib
import importlib
import json
import math
import random
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from memstrata import (
    Conclusion,
    Config,
    DanglingMention,
    Description,
    DimensionMismatch,
    DuplicateObservation,
    HashingEmbedder,
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
from memstrata.ingest import MAX_ATTRS_VALUES, EntityAnchor, _attrs_fault, _number_vector
from memstrata.store import snapshot_dict
from conftest import bench_gen, fruit_salad_store, one_hot, plant

ingest = importlib.import_module("memstrata.ingest")


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
    assert len(store._centroid_rows["face"].ids) > COSINE_BLOCK  # more than one chunk
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


def test_a_centroid_is_its_row_and_a_write_into_it_is_saved(tmp_path):
    # An anchor is set once, so no centroid can be rebound away from its row: a write into a
    # centroid is a write into the row that the next percept scans and a save stores.
    path = str(tmp_path / "snap.json")
    store = _built(_percept_records(3, 60))
    faced = store._centroid_rows["face"].ids[1]
    anchor = store.anchors[faced]
    assert anchor.centroid_face is store._centroid_rows["face"].rows[1]
    for name in ("centroid_face", "centroid_voice", "face_count", "voice_count"):
        with pytest.raises(FrozenInstanceError):
            setattr(anchor, name, getattr(anchor, name))
    anchor.centroid_face[0] += 1.0
    assert store.check() == []
    store.save(path)
    assert np.array_equal(MemoryStore.load(path).anchors[faced].centroid_face, anchor.centroid_face)


def test_planted_anchors_are_rows_that_the_next_percept_scans():
    store = small_store()
    plant(store, anchors={1: EntityAnchor(1, "jack", centroid_face=one_hot(0, 16), face_count=1)},
          next_anchor_id=2)
    assert store.check() == []
    assert resolve_anchor(store, Percept("face", one_hot(0, 16), "jack")) == 1
    assert store.check() == []
    # once more, now that the rows hold a row
    plant(store, anchors={2: EntityAnchor(2, "tom", centroid_face=one_hot(1, 16), face_count=1)},
          next_anchor_id=3)
    assert resolve_anchor(store, Percept("face", one_hot(1, 16), "tom")) == 2
    assert store.check() == []
    face = store._centroid_rows["face"]
    assert face.ids == [1, 2]
    assert all(store.anchors[i].centroid_face is row for i, row in zip(face.ids, face.rows))


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_a_clone_and_a_load_of_two_chunks_ingest_on_alike(tmp_path, seed):
    # A scan takes each centroid's norm from its row: rows written in a clone
    # and rows rebuilt by a load go on to the same picks and the same bytes.
    records = _percept_records(seed, 500, people=400)  # two face chunks
    twin = _built(records[:250]).clone()
    for rec in records[250:380]:
        twin.ingest(rec)
    path = str(tmp_path / "snap.json")
    twin.save(path)
    loaded = MemoryStore.load(path)
    for rec in records[380:]:
        loaded.ingest(rec)
        twin.ingest(rec)
    assert len(loaded._centroid_rows["face"].ids) > COSINE_BLOCK
    assert loaded.check() == [] and twin.check() == []
    assert _snapshot_bytes(loaded) == _snapshot_bytes(twin) == _snapshot_bytes(_built(records))


def test_a_centroid_whose_square_overflows_scans_without_a_warning():
    # 1e200 is finite, but its x·x is not: the scan gives it cosine 0, silently.
    store = small_store()
    rec = ObservationRecord(1, "v", 0.0, [], [], [Percept("face", np.full(16, 1e200), "big")])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        store.ingest(rec)
        store.ingest(ObservationRecord(2, "v", 1.0, [], [], [Percept("face", one_hot(0, 16), "jack")]))
    assert [a.label for a in store.anchors.values()] == ["big", "jack"]
    assert store.check() == []


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
        assert vec is built[text] and not vec.flags.writeable  # read-only, so shared
    ids, _ = twin.ingest(ObservationRecord(
        100, "v4", 0.0, [Description("@jack chop the fruit"), Description("@jack peel the fruit")], [], []))
    assert twin.episodic[ids[0]].v_e is twin.texts["@jack chop the fruit"][1]
    _vector_per_text(twin)
    assert _vector_per_text(store).keys() == built.keys()
    assert store.check() == [] and loaded.check() == [] and twin.check() == []


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


def test_jsonl_percept_conversion_matches_record_from_dict():
    # read_observation_lines converts a vector json made in one C pass, and gives one that
    # holds 0.0 or 1.0 (a json true or false converts to those), or that the pass refuses,
    # to the per-element test: every bit, refusal and message is record_from_dict's.
    rng = random.Random(6)
    pool = [0.25, -1.5, 1e300, float("nan"), 2, -3, 0, 1, 0.0, 1.0, -0.0, 2**70, 10**400, True, False,
            "0", None, [], {}]
    for _ in range(600):
        vec = [rng.choice(pool[:4]) for _ in range(rng.randint(0, 6))]
        for _ in range(rng.randint(0, 2)):
            if vec:
                vec[rng.randrange(len(vec))] = rng.choice(pool)
        line = json.dumps({"id": 1, "video": "v", "t": 0,
                           "percepts": [{"kind": "face", "vector": vec, "hint": "h"}]})
        results = []
        for parse in (lambda: record_from_dict(json.loads(line)),
                      lambda: read_observation_lines(['{"version": 1}', line])[0]):
            try:
                arr = parse().percepts[0].vector
                results.append((arr.dtype, arr.shape, arr.tobytes()))
            except MalformedRecord as exc:
                results.append(str(exc))
        assert results[0] == results[1], vec


def _percept_line(vec):
    return json.dumps({"id": 1, "video": "v", "t": 0, "percepts": [{"kind": "face", "vector": vec, "hint": "h"}]})


@pytest.mark.parametrize("at", [0, 255, 511])
def test_jsonl_percept_conversion_at_full_dim_matches_record_from_dict(at):
    # A 512-float vector as the bench writes one, with one entry replaced first, in the middle
    # or last: both entry points give the same bits or the same refusal, and every vector they
    # give is a C-contiguous, writable float64 array that owns its data.
    rng = np.random.default_rng(at)
    base = np.round(rng.standard_normal(512), 6).tolist()
    for bad in (base[at], 0.25, True, False, "0", None, [], {}, [1.0], 0, 1, 0.0, 1.0, -0.0, 2**70,
                10**400, float("nan"), float("-inf"), 1e308):
        vec = list(base)
        vec[at] = bad
        line = _percept_line(vec)
        results = []
        for parse in (lambda: record_from_dict(json.loads(line)),
                      lambda: read_observation_lines(['{"version": 1}', line])[0]):
            try:
                arr = parse().percepts[0].vector
            except MalformedRecord as exc:
                results.append(str(exc))
                continue
            assert arr.dtype == np.float64 and arr.shape == (512,), bad
            assert arr.flags.c_contiguous and arr.flags.writeable and arr.flags.owndata, bad
            results.append(arr.tobytes())
        assert results[0] == results[1], bad
        if type(bad) is float and not math.isfinite(bad):  # both readers refuse it, as ingest does
            assert results[0] == "percept vector for 'h' has a non-finite value", bad
        elif type(bad) is float or type(bad) is int and abs(bad) < 2**1024:  # a float64 value
            assert results[0] == np.array(vec, np.float64).tobytes(), bad
        else:
            assert results[0] in ("percept vector must be a list of numbers",
                                  "percept vector for 'h' overflows a float"), bad


def _flat(attrs):
    """Whether ``attrs`` is a flat dict, the oracle's own test: str keys, str, int, bool or None
    values, and no more keys than an attrs object may write."""
    return (all(type(k) is str for k in attrs) and len(attrs) <= MAX_ATTRS_VALUES
            and all(type(x) in (str, int, bool, type(None)) for x in attrs.values()))


def test_ingest_refuses_attrs_as_the_full_walk_does():
    # The full _attrs_fault walk is the oracle for each drawn attrs dict: a refusal carries its
    # message and leaves the snapshot bytes as they were; an accepted dict is the node's.
    rng = random.Random(27)
    looped = {"a": 1}
    looped["self"] = looped
    leaves = ["x", "", 0, -7, 2**70, True, False, None]
    odd = [0.5, -0.0, float("nan"), float("inf"), float("-inf"), [1, "y"], [[2.5, None]], {"n": 1},
           {"n": [float("nan")]}, looped, (1, 2), {1, 2}, b"x", np.float64(1.0)]
    cases = [{}, {f"k{i}": i for i in range(MAX_ATTRS_VALUES + 1)}, {f"k{i}": None for i in range(MAX_ATTRS_VALUES + 1)},
             looped, {1: "x"}, {True: "x"}, {None: 1}, {"a": 1, 2.5: "x"}]
    for _ in range(400):
        attrs = {f"k{i}": rng.choice(leaves) for i in range(rng.randint(0, 5))}
        if rng.random() < 0.5:
            attrs[rng.choice([f"k{rng.randint(0, 5)}", 3, True, False, None, 1.5])] = rng.choice(leaves + odd)
        cases.append(attrs)
    cases.append({f"k{i}": i for i in range(MAX_ATTRS_VALUES)})  # last: each snapshot would write it
    assert sum(map(_flat, cases)) > 100 and sum(not _flat(a) for a in cases) > 100

    store = small_store(dim=4)
    store.ingest(ObservationRecord(1, "v", 1.0, [Description("chop the fruit")], [], []))
    for rid, attrs in enumerate(cases, start=2):
        oracle = _attrs_fault([attrs])
        assert oracle is None or not _flat(attrs), attrs.keys()
        rec = ObservationRecord(rid, "v", float(rid), [Description("chop the fruit", attrs)], [], [])
        if oracle is None:
            (node_id,), _ = store.ingest(rec)
            assert store.episodic[node_id].attrs == attrs
            continue
        before = json.dumps(snapshot_dict(store), sort_keys=True)
        with pytest.raises(MalformedRecord) as refused:
            store.ingest(rec)
        assert str(refused.value) == f"attrs of 'chop the fruit' {oracle}"
        assert json.dumps(snapshot_dict(store), sort_keys=True) == before
    assert store.check() == []


def test_a_generated_corpus_takes_the_fast_paths(monkeypatch):
    # On the bench's seeded records, a percept vector goes through the per-element test only when
    # it holds a rounded 0.0 (json's false reads as one), and no flat attrs dict is walked: a change
    # that sends every record down the slow paths fails here.
    gen = bench_gen()
    monkeypatch.setattr(gen, "RECORDS", 300)
    monkeypatch.setattr(gen, "SESSIONS", 20)
    tested, walked = [], []

    def number_vector(vec, hint):
        tested.append(vec)
        return _number_vector(vec, hint)

    def attrs_fault(dicts):
        walked.extend(dicts)
        return _attrs_fault(dicts)

    monkeypatch.setattr(ingest, "_number_vector", number_vector)
    monkeypatch.setattr(ingest, "_attrs_fault", attrs_fault)
    records = read_observation_lines(gen.lifecycle_inputs(7)["lines"]())
    store = MemoryStore(Config())
    for rec in records:
        store.ingest(rec)
    vectors = sum(len(rec.percepts) for rec in records)
    flat = [d.attrs for rec in records for d in rec.descriptions if d.attrs and _flat(d.attrs)]
    assert vectors > 300 and len(tested) < vectors / 100
    assert len(flat) > 300 and [a for a in walked if _flat(a)] == []


def test_ingest_embeds_each_new_text_and_each_conclusion_once(monkeypatch):
    # A HashingEmbedder subclass is not the built-in embedder, so ingest embeds every
    # vector before its first mutation to refuse a bad one; consolidate_semantic takes the
    # conclusion's vector from it instead of embedding the text again.
    class Counting(HashingEmbedder):
        calls = 0

        def embed(self, text):
            self.calls += 1
            return super().embed(text)

    gen = bench_gen()
    monkeypatch.setattr(gen, "RECORDS", 300)
    monkeypatch.setattr(gen, "SESSIONS", 20)
    records = read_observation_lines(gen.lifecycle_inputs(7)["lines"]())
    store = MemoryStore(Config(), Counting(Config().dim))
    for rec in records:
        store.ingest(rec)
    conclusions = sum(len(rec.conclusions) for rec in records)
    assert conclusions > 0 and store.embedder.calls == len(store.texts) + conclusions


def test_ingest_rejects_bad_api_record_fields_unchanged():
    store = small_store(dim=4)
    store.ingest(ObservationRecord(1, "v", 1.0, [Description("@jack chop the fruit")], [],
                                   [Percept("face", one_hot(0, 4), "jack")]))
    before = json.dumps(snapshot_dict(store), sort_keys=True)
    nan_face = np.array([np.nan, 0.0, 0.0, 0.0])
    # JSON's NaN/-Infinity parse; the reader refuses them, and ingest refuses them in records
    # built in code, here from the same attrs as json reads them.
    attrs = ('{"k": NaN}', '{"k": Infinity}', '{"k": [1, [2, -Infinity]]}',
             '{"k": "x", "m": {"n": [{"o": NaN}]}}')
    for line in [
        '{"id": 2, "video": "v", "t": 2, "descriptions": ["@jack mix"], '
        '"percepts": [{"kind": "face", "vector": [%s, 0, 0, 0], "hint": "jack"}]}' % x
        for x in ("NaN", "-Infinity")] + [
        '{"id": 2, "video": "v", "t": 2, "descriptions": [{"text": "mix", "attrs": %s}]}' % a for a in attrs]:
        with pytest.raises(MalformedRecord):
            read_observation_lines(['{"version": 1}', line])
    for rec in [ObservationRecord(2, "v", 2.0, [Description("mix", json.loads(a))], [], []) for a in attrs] + [
        ObservationRecord(2, "v", 2.0, [Description("@jack mix")], [], [Percept("face", face, "jack")])
        for face in (nan_face, np.array([-np.inf, 0.0, 0.0, 0.0]))] + [
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


def _with_a_smell(rid):
    # the face makes a new anchor if ingest starts mutating before it meets the smell
    return ObservationRecord(rid, "v", 2.0, [Description("@ana mix the fruit")], [],
                             [Percept("face", one_hot(1, 4), "ana"),
                              Percept("smell", one_hot(2, 4), "bob")])


@pytest.mark.parametrize("record,error", [
    (_with_a_smell(2), MalformedRecord),
    (ObservationRecord(2, "v", 2.0, [], [], [Percept("face", one_hot(1, 4), 5)]), MalformedRecord),
    (ObservationRecord(2, "v", 2.0, [], [], [Percept("face", [0.0, 1.0, 0.0, 0.0], "ana")]),
     MalformedRecord),
    (ObservationRecord(2, "v", 2.0, [], [], [Percept("face", one_hot(1, 5), "ana")]),
     DimensionMismatch),
    (ObservationRecord(2, "v", 2.0, [Description(5)], [], []), MalformedRecord),
    (ObservationRecord(2, "v", 2.0, [], [Conclusion("knowledge", 5)], []), MalformedRecord),
    (ObservationRecord(2, "v", 2.0, [], [Conclusion(5, "bowls are downstairs")], []), MalformedRecord),
], ids=["percept-kind", "percept-hint", "percept-vector", "percept-dim", "description-text",
        "conclusion-text", "conclusion-type"])
def test_ingest_refuses_a_bad_field_of_a_record_built_in_code_before_any_mutation(record, error):
    # A record built in code skips record_from_dict: ingest checks each field itself, before
    # the first mutation, where a bare KeyError, TypeError or AttributeError used to escape,
    # or an int hint became an anchor label that no snapshot may hold.
    store = small_store(dim=4)
    store.ingest(ObservationRecord(1, "v", 1.0, [Description("@jack chop the fruit")], [],
                                   [Percept("face", one_hot(0, 4), "jack")]))
    before = json.dumps(snapshot_dict(store), sort_keys=True)
    with pytest.raises(error):
        store.ingest(record)
    assert json.dumps(snapshot_dict(store), sort_keys=True) == before
    assert store.check() == [] and len(store.anchors) == 1


def test_read_observation_lines_requires_header():
    with pytest.raises(MalformedRecord):
        read_observation_lines(['{"id": 1, "video": "v", "t": 0}'])
    # As a snapshot's version: true and 1.0 equal 1, but are not the int a header writes.
    for header in ('{"version": true}', '{"version": 1.0}', '{"version": "1"}'):
        with pytest.raises(MalformedRecord, match="expected version header"):
            read_observation_lines([header, '{"id": 1, "video": "v", "t": 0}'])
    records = read_observation_lines([
        '{"version": 1}', '{"id": 1, "video": "v", "t": 0, "descriptions": ["x y"]}'])
    assert len(records) == 1
