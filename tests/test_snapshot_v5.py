"""Snapshot version 5, the only version a load reads: the one canonical form
a load accepts, the stores a save refuses, and a round-trip property over the
record shapes version 5 writes in a way of its own (no descriptions, mixed
outcomes, record ids out of ingest order)."""

import copy
import gc
import json
import os
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from memstrata import (
    Conclusion,
    Config,
    CorruptSnapshot,
    Description,
    DuplicateObservation,
    MemoryStore,
    ObservationRecord,
    Percept,
    SnapshotIoError,
    auto_fuse,
)
from memstrata import store as store_module
from memstrata.ingest import OUTCOMES
from memstrata.store import snapshot_dict, store_from_dict
from conftest import FRUIT_VERBS, one_hot

DIM = 32
V5_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "snapshot_v5_dim8.json")


def shapes_store() -> MemoryStore:
    """Three sources of one three-line record each (record ids 30, 20, 10 in
    ingest order; the middle line names two people and fails on v2), each
    followed by a record with no descriptions, then distill()."""
    store = MemoryStore(Config(dim=DIM, action_verbs=FRUIT_VERBS))
    for rid, video, outcome in ((30, "v1", "success"), (20, "v2", "failure"), (10, "v3", "success")):
        store.ingest(ObservationRecord(rid, video, 1.0, [
            Description("@jack chop the fruit", {"tool": "knife"}),
            Description("@ana and @jack mix the fruit", {"tool": "bowl"}, outcome),
            Description("@ana serve the salad")],
            [Conclusion("character", "@ana is a careful cook")],
            [Percept("face", one_hot(3, DIM), "jack"), Percept("face", one_hot(5, DIM), "ana")]))
        store.ingest(ObservationRecord(rid + 1, video, 2.0, [],
                                       [Conclusion("knowledge", "bowls are downstairs")], []))
    store.distill()
    return store


def test_shapes_store_saves_observations_in_id_order_with_their_nodes(tmp_path):
    path = str(tmp_path / "snap.json")
    store = shapes_store()
    store.save(path)
    data = json.loads(open(path).read())
    assert [row[:3] for row in data["observations"]] == [
        [10, "v3", 1.0], [11, "v3", None], [20, "v2", 1.0], [21, "v2", None],
        [30, "v1", 1.0], [31, "v1", None]]
    assert data["observations"][2][3] == [[6, 0, [1], 0, 0], [7, 1, [1, 2], 1, 1],
                                          [8, 2, [2], 0, 2]]
    assert data["episodic"] == {
        "texts": ["@jack chop the fruit", "@ana and @jack mix the fruit", "@ana serve the salad"],
        "attrs": [{"tool": "knife"}, {"tool": "bowl"}, {}]}
    assert data["logic"][0]["episodic_links"] == [1, 1, 1, 3, 1, 1, 2, 1, 1]
    loaded = MemoryStore.load(path)
    assert loaded.check() == []
    assert loaded.percept_count == 6
    assert set().union(*(loaded.episodic[i].anchors for i in loaded.logic[1].episodic_links)) == {1, 2}
    assert [(n.t, n.video, n.outcome) for n in map(loaded.episodic.get, (6, 7, 8))] == \
           [(1.0, "v2", "success"), (1.0, "v2", "failure"), (1.0, "v2", "success")]
    assert snapshot_dict(loaded) == data


def _swap(rows, i=0, j=1):
    rows[i], rows[j] = rows[j], rows[i]


def _swap_ids(rows):
    rows[0][0], rows[1][0] = rows[1][0], rows[0][0]


def _repeat(rows, at, **changes):
    """Insert a copy of ``rows[at]`` after it, a dict entry with ``changes``."""
    row = rows[at]
    rows.insert(at + 1, dict(row, **changes) if isinstance(row, dict) else copy.deepcopy(row))


def _nodes(data, obs=0):
    return data["observations"][obs][3]


def _links(data):
    return data["logic"][0]["episodic_links"]


def _dag(data, rows):
    return data["logic"][0]["dag"][rows]


def _set(rows, at, column, value):
    rows[at][column] = value


SECTION_ORDER = "ids are not ints in strictly increasing order"
DAG_ROWS = "dag rows are not"
OUTCOME = "episodic outcomes are not indexes into"
EPISODE_IDS = "the episode ids of an observation are not ints in strictly increasing order"
GAPS = "logic 1 episodic links are not ints in strictly increasing order"

CASES = {
    "anchors-swapped": (lambda d: _swap(d["anchors"]), "anchors " + SECTION_ORDER),
    "anchors-repeated": (lambda d: _repeat(d["anchors"], 1, face_count=1), "anchors " + SECTION_ORDER),
    "semantic-swapped": (lambda d: _swap(d["semantic"]), "semantic " + SECTION_ORDER),
    "semantic-repeated": (lambda d: _repeat(d["semantic"], 0, weight=7), "semantic " + SECTION_ORDER),
    "logic-repeated": (lambda d: _repeat(d["logic"], 0, score=0.5), "logic " + SECTION_ORDER),
    "observations-swapped": (lambda d: _swap(d["observations"]), "observation rows' ids"),
    "observation-repeated": (lambda d: _repeat(d["observations"], 1), "observation rows' ids"),
    "episode-ids-swapped": (lambda d: _swap_ids(_nodes(d)), EPISODE_IDS),
    "episode-id-repeated": (lambda d: _set(_nodes(d), 1, 0, _nodes(d)[0][0]), EPISODE_IDS),
    "episode-id-true": (lambda d: _set(_nodes(d), 0, 0, True), EPISODE_IDS),
    "episode-in-two-observations": (
        lambda d: d["observations"].append([40, "v3", 1.0, [list(_nodes(d)[0])]]),
        "an episode is listed by two observations"),
    "node-anchors-repeated": (lambda d: _set(_nodes(d), 0, 2, [1, 1]), "episodic anchors are not"),
    "node-anchors-unsorted": (lambda d: _set(_nodes(d), 1, 2, [2, 1]), "episodic anchors are not"),
    "node-anchors-true": (lambda d: _set(_nodes(d), 0, 2, [True]), "episodic anchors are not"),
    "semantic-anchors-repeated": (lambda d: _set(d["semantic"], 1, "anchors", [2, 2]),
                                  "semantic anchors are not"),
    "outcome-minus-one": (lambda d: _set(_nodes(d), 0, 3, -1), OUTCOME),
    "outcome-past-end": (lambda d: _set(_nodes(d), 0, 3, len(OUTCOMES)), OUTCOME),
    "outcome-true": (lambda d: _set(_nodes(d), 0, 3, True), OUTCOME),
    "outcome-float": (lambda d: _set(_nodes(d), 0, 3, 0.0), OUTCOME),
    "outcome-string": (lambda d: _set(_nodes(d), 0, 3, "success"), OUTCOME),
    "gap-zero": (lambda d: _links(d).__setitem__(1, 0), GAPS),
    "gap-negative": (lambda d: _links(d).__setitem__(3, -1), GAPS),
    "gap-true": (lambda d: _links(d).__setitem__(1, True), GAPS),
    "gap-float": (lambda d: _links(d).__setitem__(1, 1.0), GAPS),
    "first-link-true": (lambda d: _links(d).__setitem__(0, True), GAPS),
    "dag-node-row-5": (lambda d: _dag(d, "nodes")[1].append(0), DAG_ROWS),
    "dag-edge-row-3": (lambda d: _dag(d, "edges")[0].pop(), DAG_ROWS),
    "dag-steps-swapped": (lambda d: _swap(_dag(d, "nodes"), 1, 2), DAG_ROWS),
    "dag-start-not-first": (lambda d: _swap(_dag(d, "nodes"), 0, 1), DAG_ROWS),
    "dag-goal-not-last": (lambda d: _swap(_dag(d, "nodes"), -1, -2), DAG_ROWS),
    "dag-node-repeated": (lambda d: _repeat(_dag(d, "nodes"), 1), DAG_ROWS),
    "dag-edge-repeated": (lambda d: _repeat(_dag(d, "edges"), 1), DAG_ROWS),
    "dag-edges-swapped": (lambda d: _swap(_dag(d, "edges")), DAG_ROWS),
    "dag-node-attrs-null": (lambda d: _set(_dag(d, "nodes"), 1, 1, None), "not a mapping"),
    "dag-node-attrs-list": (lambda d: _set(_dag(d, "nodes"), 1, 1, []), "not a mapping"),
    "t-null-with-episodes": (lambda d: _set(d["observations"], 0, 2, None),
                             "observation 10: t None is not null exactly"),
    "t-zero-without-episodes": (lambda d: _set(d["observations"], 1, 2, 0),
                                "observation 11: t 0 is not null exactly"),
    "t-without-episodes": (lambda d: _set(d["observations"], 1, 2, 2.0),
                           "observation 11: t 2.0 is not null exactly"),
}


@pytest.mark.parametrize("plant,match", CASES.values(), ids=CASES.keys())
def test_non_canonical_v5_rows_rejected(plant, match):
    # One store state, one file: each change below would load as another file.
    data = json.loads(json.dumps(snapshot_dict(shapes_store())))
    assert snapshot_dict(store_from_dict(copy.deepcopy(data))) == data
    plant(data)
    with pytest.raises(CorruptSnapshot, match=match):
        store_from_dict(data)


@pytest.mark.parametrize("actions", ["ab", ["a", 1], {"a": 1}, [None]],
                         ids=["string", "int", "object", "null"])
def test_pool_actions_not_a_list_of_strings_rejected(actions):
    # A string or an object would load as the tuple of its characters or keys.
    store = shapes_store()
    rec = ObservationRecord(40, "v4", 1.0, [Description("walk to the store")], [], [])
    store.ingest(rec)
    assert store.apply(rec).pooled
    data = json.loads(json.dumps(snapshot_dict(store)))
    assert data["pool"][0]["actions"] == ["walk_to_the_store"]
    assert snapshot_dict(store_from_dict(copy.deepcopy(data))) == data
    data["pool"][0]["actions"] = actions
    with pytest.raises(CorruptSnapshot, match="pool entry 40: actions are not a list of strings"):
        store_from_dict(data)


@pytest.mark.parametrize("section,other", [
    ("anchors", {}), ("semantic", {}), ("logic", {}), ("pool", {}), ("video_clock", []),
], ids=["anchors", "semantic", "logic", "pool", "video_clock"])
def test_section_of_another_type_rejected_in_every_version(section, other):
    # A load iterates each section, so an empty one of another type would
    # load as empty and re-save as another file.
    for data in (snapshot_dict(shapes_store()), json.loads(open(V5_FIXTURE).read())):
        data[section] = other
        with pytest.raises(CorruptSnapshot, match=f"snapshot section '{section}' is not a"):
            store_from_dict(data)


@pytest.mark.parametrize("kind,count,violation", [
    ("face", True, "face_count True is not an int of at least 1"),
    ("face", 1.0, "face_count 1.0 is not an int of at least 1"),
    ("face", 2.5, "face_count 2.5 is not an int of at least 1"),
    ("face", -1, "face_count -1 is not an int of at least 1"),
    ("face", 0, "face_count 0 is not an int of at least 1"),
    ("voice", 1, "voice_count 1 is not 0 without a voice centroid"),
], ids=["true", "1.0", "2.5", "-1", "0", "voice-without-centroid"])
def test_face_or_voice_count_no_ingest_gives_rejected(kind, count, violation):
    # The anchor count and the percept count are sums of these: each counts the
    # percepts its centroid is the mean of, so it is an int, at least 1 with
    # that centroid and 0 without it.
    data = json.loads(json.dumps(snapshot_dict(shapes_store())))
    data["anchors"][0][f"{kind}_count"] = count
    with pytest.raises(CorruptSnapshot, match=re.escape(f"anchor 1: {violation}")):
        store_from_dict(data)


def test_anchor_and_percept_counts_are_computed_not_held():
    store = shapes_store()
    anchor = store.anchors[1]
    assert (anchor.count, store.percept_count) == (anchor.face_count + anchor.voice_count, 6)
    with pytest.raises(AttributeError):
        anchor.count = 5
    with pytest.raises(AttributeError):
        store.percept_count = 7


def _t_of_one_episode(store):
    store.episodic[11].t = 1.5


def _t_of_another_type(store):
    store.episodic[11].t = 1  # equal to 1.0, but not the same JSON


@pytest.mark.parametrize("plant,violations", [
    (_t_of_one_episode, ["observation 10: episodes do not share one t"]),
    (_t_of_another_type, ["observation 10: episodes do not share one t"]),
], ids=["t", "t-int"])
def test_store_that_v5_cannot_write_is_reported_and_not_saved(tmp_path, plant, violations):
    # Version 5 stores one t per observation: a store whose nodes disagree
    # would load as another store. Save refuses it with the first violation
    # check() reports.
    path = str(tmp_path / "snap.json")
    store = shapes_store()
    plant(store)
    assert store.check() == violations
    with pytest.raises(SnapshotIoError, match=re.escape(violations[0])):
        store.save(path)
    assert not os.path.exists(path) and not os.path.exists(path + ".tmp")


def test_load_derives_each_action_and_logic_anchor_set_once(tmp_path, monkeypatch):
    # The load's invariant sweep skips what the load has just derived; a
    # procedure's anchors are those of its evidence and held nowhere.
    path = str(tmp_path / "snap.json")
    shapes_store().save(path)
    calls = []
    action = store_module.extract_action
    monkeypatch.setattr(store_module, "extract_action",
                        lambda text, verbs: calls.append(text) or action(text, verbs))
    loaded = MemoryStore.load(path)
    assert sorted(calls) == sorted(loaded.texts)
    assert loaded.check() == []
    assert not hasattr(loaded.logic[1], "anchors")


def test_load_pauses_the_cycle_collector_and_restores_it(tmp_path, monkeypatch):
    path = str(tmp_path / "snap.json")
    shapes_store().save(path)
    seen, build = [], store_module.store_from_dict
    monkeypatch.setattr(store_module, "store_from_dict",
                        lambda data, embedder=None: seen.append(gc.isenabled()) or build(data, embedder))
    MemoryStore.load(path)
    assert seen == [False] and gc.isenabled()
    open(path, "w").write("{")
    with pytest.raises(CorruptSnapshot):
        MemoryStore.load(path)
    assert gc.isenabled()
    gc.disable()  # a caller's paused collector stays paused
    try:
        shapes_store().save(path)
        MemoryStore.load(path)
        assert not gc.isenabled()
    finally:
        gc.enable()


# -- round trip over the shapes version 5 writes its own way -----------------

LINES = ("chop the fruit", "mix the fruit", "serve the salad", "wash the bowl", "walk to the store")
PERSONS = ("jack", "ana")

record_op = st.tuples(
    st.just("ingest"),
    st.integers(1, 40),  # record ids in any order; a repeat is refused and drawn again
    st.sampled_from(("v1", "v2")),
    st.lists(st.tuples(st.sampled_from(LINES), st.sampled_from(OUTCOMES),
                       st.sampled_from(({}, {"tool": "bowl"}, {"n": 1}, {"n": 1.0}))),
             max_size=3),
    st.sampled_from((None,) + PERSONS),
    st.sampled_from((None, "bowls are downstairs")),
)
ops = st.lists(st.one_of(record_op, record_op, st.tuples(st.just("apply"), st.integers(0, 40)),
                         st.just(("distill",)), st.just(("auto_fuse",))), max_size=12)


def _run(store, op, records, clock):
    kind = op[0]
    if kind == "ingest":
        _, rid, video, lines, person, conclusion = op
        mention = f"@{person} " if person else ""
        rec = ObservationRecord(
            rid, video, float(clock.get(video, 0)),
            [Description(mention + text, dict(attrs), outcome) for text, outcome, attrs in lines],
            [Conclusion("knowledge", mention + conclusion)] if conclusion else [],
            [Percept("face", one_hot(PERSONS.index(person), DIM), person)] if person else [])
        try:
            store.ingest(rec)
        except DuplicateObservation:
            return
        clock[video] = clock.get(video, 0) + 1
        records.append(rec)
    elif kind == "apply" and records:
        store.apply(records[op[1] % len(records)])
    elif kind == "distill":
        store.distill()
    elif kind == "auto_fuse":
        auto_fuse(store)


def _episodic_state(store):
    """What a load must give back exactly: every node field, and each
    observation's video and nodes in order."""
    return ({i: (repr(n.t), n.d, n.video, n.anchors, n.action, n.outcome, repr(n.attrs))
             for i, n in store.episodic.items()},
            {i: (m.video, m.episodes) for i, m in store.observations.items()},
            store.percept_count)


@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops)
def test_stores_of_empty_mixed_and_out_of_order_records_round_trip(tmp_path_factory, sequence):
    path = os.path.join(tmp_path_factory.mktemp("shapes"), "snap.json")
    store = MemoryStore(Config(dim=DIM, action_verbs=FRUIT_VERBS, pool_trigger=3))
    records, clock = [], {}
    for op in sequence:
        _run(store, op, records, clock)
        assert store.check() == []
        store.save(path)
        first = open(path, "rb").read()
        loaded = MemoryStore.load(path)
        assert loaded.check() == []
        assert _episodic_state(loaded) == _episodic_state(store)
        loaded.save(path)
        assert open(path, "rb").read() == first
