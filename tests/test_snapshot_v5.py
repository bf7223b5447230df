"""Snapshot version 7, the only version a load reads (this file is named for
version 5, the first whose rows these tests pinned): the one canonical form a
load accepts, the stores a save refuses, and a round-trip property over the
record shapes the snapshot writes in a way of its own (no descriptions, mixed
outcomes, record ids out of ingest order)."""

import copy
import gc
import json
import os
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from memstrata import (
    GOAL,
    START,
    Conclusion,
    Config,
    CorruptSnapshot,
    Description,
    DuplicateObservation,
    MalformedRecord,
    MemoryEngineError,
    MemoryStore,
    ObservationRecord,
    Percept,
    SnapshotIoError,
    auto_fuse,
)
from memstrata import store as store_module
from memstrata.ingest import OUTCOMES
from memstrata.store import snapshot_dict, store_from_dict
from conftest import FRUIT_VERBS, MUTATION_VALUES, one_hot

DIM = 32
V7_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "snapshot_v7_dim8.json")


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


def pooled_shapes_store() -> MemoryStore:
    """shapes_store() with one pool entry, below the pool trigger: record 40, whose
    one line matches no procedure."""
    store = shapes_store()
    rec = ObservationRecord(40, "v4", 1.0, [Description("walk to the store")], [], [])
    store.ingest(rec)
    assert store.apply(rec).pooled and len(store.pool) < store.config.pool_trigger
    return store


def test_shapes_store_saves_observations_in_id_order_with_their_nodes(tmp_path):
    path = str(tmp_path / "snap.json")
    store = shapes_store()
    store.save(path)
    data = json.loads(open(path).read())
    # Observations 10, 11, 20, 21, 30, 31 of v3, v2, v1, each with its own t; the three
    # with descriptions list episodes 10-12, 6-8 and 1-3 (ingested from 30 down).
    assert data["observations"] == {
        "videos": ["v3", "v2", "v1"], "id": [10, 1, 9, 1, 9, 1], "video_at": [0, 0, 1, 1, 2, 2],
        "t": [1.0, 2.0] * 3, "episode_count": [3, 0] * 3}
    assert data["episodic"] == {
        "texts": ["@jack chop the fruit", "@ana and @jack mix the fruit", "@ana serve the salad"],
        "attrs": [{"tool": "knife"}, {"tool": "bowl"}, {}], "anchors": [[1], [1, 2], [2]],
        "id": [10, 1, 1, -6, 1, 1, -7, 1, 1], "text_at": [0, 1, 2] * 3, "anchors_at": [0, 1, 2] * 3,
        "outcome": [0, 0, 0, 0, 1, 0, 0, 0, 0], "attrs_at": [0, 1, 2] * 3}
    assert "video_clock" not in data
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


def _repeat(rows, at, **changes):
    """Insert a copy of ``rows[at]`` after it, a dict entry with ``changes``."""
    row = rows[at]
    rows.insert(at + 1, dict(row, **changes) if isinstance(row, dict) else copy.deepcopy(row))


def _observations(data, column):
    return data["observations"][column]


def _episodes(data, column):
    return data["episodic"][column]


def _links(data):
    return data["logic"][0]["episodic_links"]


def _dag(data, rows):
    return data["logic"][0]["dag"][rows]


def _set(rows, at, column, value):
    rows[at][column] = value


def _episode_in_two_observations(data):
    # observation 40 of v3 at t 1.0 lists episode 10, which observation 10 lists
    for column, value in (("id", 9), ("video_at", 0), ("t", 1.0), ("episode_count", 1)):
        _observations(data, column).append(value)
    for column, value in (("id", 10 - 3), ("text_at", 0), ("anchors_at", 0), ("outcome", 0),
                          ("attrs_at", 0)):
        _episodes(data, column).append(value)


def _swap_first_uses(section, table, column):
    # the first two entries of a table trade places, and every index with them
    def plant(data):
        data[section][table][:2] = data[section][table][1::-1]
        data[section][column] = [{0: 1, 1: 0}.get(at, at) for at in data[section][column]]
    return plant


def _column(section, column, at, value):
    def plant(data):
        data[section][column][at] = value
    return plant


SECTION_ORDER = "ids are not ints in strictly increasing order"
DAG_ROWS = "dag rows are not"
OUTCOME = "episodic outcomes are not indexes into"
OBSERVATION_IDS = "^observation ids are not ints in strictly increasing order$"
EPISODE_IDS = "the episode ids of an observation are not ints in strictly increasing order"
GAPS = "logic 1 episodic links are not ints in strictly increasing order"
VIDEOS, ANCHORS = "^observation video table is not", "^episodic anchors table is not"
COUNTS = "^observation episode counts do not split the episodic columns$"

CASES = {
    "anchors-swapped": (lambda d: _swap(d["anchors"]), "anchors " + SECTION_ORDER),
    "anchors-repeated": (lambda d: _repeat(d["anchors"], 1, face_count=1), "anchors " + SECTION_ORDER),
    "semantic-swapped": (lambda d: _swap(d["semantic"]), "semantic " + SECTION_ORDER),
    "semantic-repeated": (lambda d: _repeat(d["semantic"], 0, weight=7), "semantic " + SECTION_ORDER),
    "logic-repeated": (lambda d: _repeat(d["logic"], 0, score=0.5), "logic " + SECTION_ORDER),
    # observation ids as gaps: 11 then 10 (a gap of -1), and 10 twice (a gap of 0)
    "observations-swapped": (lambda d: _observations(d, "id").__setitem__(slice(0, 2), [11, -1]),
                             OBSERVATION_IDS),
    "observation-repeated": (_column("observations", "id", 1, 0), OBSERVATION_IDS),
    "observation-id-true": (_column("observations", "id", 0, True), OBSERVATION_IDS),
    "video-past-end": (_column("observations", "video_at", 1, 3), VIDEOS),
    "video-true": (_column("observations", "video_at", 2, True), VIDEOS),
    "video-out-of-order": (_swap_first_uses("observations", "videos", "video_at"), VIDEOS),
    "video-unused": (lambda d: _observations(d, "videos").append("v9"), VIDEOS),
    "video-not-a-string": (_column("observations", "videos", 0, 3),
                           "^episodic texts and videos are not all strings"),
    "count-short": (_column("observations", "episode_count", 0, 2), COUNTS),
    "count-negative": (lambda d: _observations(d, "episode_count").__setitem__(slice(0, 2), [4, -1]),
                       COUNTS),
    "count-true": (_column("observations", "episode_count", 1, False), COUNTS),
    # episode ids as differences: 11, 10, 12 (an id below the one before it in its
    # observation), 10 twice, and true for 10
    "episode-ids-swapped": (lambda d: _episodes(d, "id").__setitem__(slice(0, 3), [11, -1, 2]),
                            EPISODE_IDS),
    "episode-id-repeated": (lambda d: _episodes(d, "id").__setitem__(slice(1, 3), [0, 2]), EPISODE_IDS),
    "episode-id-true": (_column("episodic", "id", 0, True), EPISODE_IDS),
    "episode-in-two-observations": (_episode_in_two_observations,
                                    "an episode is listed by two observations"),
    "node-anchors-repeated": (_column("episodic", "anchors", 0, [1, 1]), "episodic anchors are not"),
    "node-anchors-unsorted": (_column("episodic", "anchors", 1, [2, 1]), "episodic anchors are not"),
    "node-anchors-true": (_column("episodic", "anchors", 0, [True]), "episodic anchors are not"),
    "anchors-at-past-end": (_column("episodic", "anchors_at", 0, 3), ANCHORS),
    "anchors-at-out-of-order": (_swap_first_uses("episodic", "anchors", "anchors_at"), ANCHORS),
    "anchors-unused": (lambda d: _episodes(d, "anchors").append([]), ANCHORS),
    "anchors-duplicate": (lambda d: (_episodes(d, "anchors").append([1]),
                                     _episodes(d, "anchors_at").__setitem__(6, 3)), ANCHORS),
    "semantic-anchors-repeated": (lambda d: _set(d["semantic"], 1, "anchors", [2, 2]),
                                  "semantic anchors are not"),
    "outcome-minus-one": (_column("episodic", "outcome", 0, -1), OUTCOME),
    "outcome-past-end": (_column("episodic", "outcome", 0, len(OUTCOMES)), OUTCOME),
    "outcome-true": (_column("episodic", "outcome", 0, True), OUTCOME),
    "outcome-float": (_column("episodic", "outcome", 0, 0.0), OUTCOME),
    "outcome-string": (_column("episodic", "outcome", 0, "success"), OUTCOME),
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
    # every observation has its t, a finite number, with episodes (10) or without (11)
    "t-null-with-episodes": (_column("observations", "t", 0, None),
                             "^observation 10: t None is not a finite number$"),
    "t-zero-without-episodes": (_column("observations", "t", 1, "0"),
                                "^observation 11: t '0' is not a finite number$"),
    "t-without-episodes": (_column("observations", "t", 1, None),
                           "^observation 11: t None is not a finite number$"),
    "t-inf": (_column("observations", "t", 0, float("inf")),
              "^observation 10: t inf is not a finite number$"),
    "observations-unknown-key": (lambda d: d["observations"].__setitem__("clock", []),
                                 "^snapshot observations: not an object with exactly the keys"),
    "episodic-unknown-key": (lambda d: d["episodic"].__setitem__("t", []),
                             "^snapshot episodic: not an object with exactly the keys"),
}


@pytest.mark.parametrize("plant,match", CASES.values(), ids=CASES.keys())
def test_non_canonical_v5_rows_rejected(plant, match):
    # One store state, one file: each change below would load as another file.
    data = json.loads(json.dumps(snapshot_dict(shapes_store())))
    assert snapshot_dict(store_from_dict(copy.deepcopy(data))) == data
    plant(data)
    with pytest.raises(CorruptSnapshot, match=match):
        store_from_dict(data)


@pytest.mark.parametrize("entry", [True, 11.0, "11", 99, {"observation": 11}],
                         ids=["true", "float", "string", "unknown", "object"])
def test_snapshot_pool_entry_that_is_not_an_observation_id_rejected(entry):
    # The pool is the ids of its observations: 11.0 would pass for 11, and true for 1,
    # as an observation's key, and re-save as another file. A load refuses each with
    # the violation check() reports on a store that holds it.
    data = json.loads(open(V7_FIXTURE).read())
    assert data["pool"] == [11]
    store = store_from_dict(copy.deepcopy(data))
    assert snapshot_dict(store) == data
    store.pool[0] = entry
    violation = f"pool entry references unknown observation {entry!r}"
    assert store.check() == [violation]
    data["pool"][0] = entry
    with pytest.raises(CorruptSnapshot, match=f"^{re.escape(violation)}$"):
        store_from_dict(data)


@pytest.mark.parametrize("section,other", [
    ("anchors", {}), ("semantic", {}), ("logic", {}), ("pool", {}),
], ids=["anchors", "semantic", "logic", "pool"])
def test_section_of_another_type_rejected_in_every_version(section, other):
    # A load iterates each section, so an empty one of another type would
    # load as empty and re-save as another file.
    for data in (snapshot_dict(shapes_store()), json.loads(open(V7_FIXTURE).read())):
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


def test_episode_fields_are_read_only_views_of_its_text_entry_and_observation():
    # An episode holds its text entry and its observation, and no copy of
    # them, so that its episodes cannot disagree on a t or a video.
    store = shapes_store()
    node = store.episodic[7]
    assert node.text is store.texts["@ana and @jack mix the fruit"]
    assert node.obs is store.observations[20]
    assert (node.d, node.v_e, node.action) == (*node.text,)
    assert (node.video, node.t) == ("v2", 1.0)
    for name, value in (("d", "x"), ("v_e", np.zeros(DIM)), ("action", "x"), ("video", "v1"),
                        ("t", 1.5), ("t", 1)):
        with pytest.raises(AttributeError):
            setattr(node, name, value)


def _t_of_an_observation(store):
    store.observations[10].t = float("nan")


def _t_a_bool(store):
    store.observations[11].t = True  # an int to Python, but JSON writes it as true


@pytest.mark.parametrize("plant,violations", [
    (_t_of_an_observation, ["observation 10: t nan is not a finite number"]),
    (_t_a_bool, ["observation 11: t True is not a finite number"]),
], ids=["t", "t-int"])
def test_store_that_v5_cannot_write_is_reported_and_not_saved(tmp_path, plant, violations):
    # The snapshot stores each observation's t, a finite number, with episodes or
    # without: a store that holds another would load as another store. Save
    # refuses it with the first violation check() reports.
    path = str(tmp_path / "snap.json")
    store = shapes_store()
    plant(store)
    assert store.check() == violations
    with pytest.raises(SnapshotIoError, match=re.escape(violations[0])):
        store.save(path)
    assert not os.path.exists(path) and not os.path.exists(path + ".tmp")


def _first_edge(store):
    return next(iter(store.logic[1].dag.edges()))[2]


@pytest.mark.parametrize("plant", [
    lambda store: setattr(store.config, "pool_trigger", 0),
    lambda store: setattr(store, "next_node_id", 0),
    lambda store: setattr(store.config, "action_verbs", ("stir",)),
    lambda store: store.logic[1].i_goal.__setitem__(0, np.nan),
    lambda store: setattr(_first_edge(store), "count", -1.0),
], ids=["config", "counter", "derived", "vector", "dag"])
def test_refused_save_leaves_the_snapshot_it_would_replace_as_it_was(tmp_path, plant):
    path = str(tmp_path / "snap.json")
    store = shapes_store()
    store.save(path)
    before = open(path, "rb").read()
    plant(store)
    violations = store.check()
    assert violations
    with pytest.raises(SnapshotIoError, match=re.escape(violations[0]) + "$"):
        store.save(path)
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["snap.json"]  # no temp file left


def _reachable_fields(store) -> list:
    """``(name, owner, key)`` of each field the live-store sweep sets: every config
    field, both anchors' label and counts, every field of one episodic, one semantic and
    one logic node, the pool's entry, one DAG step's attrs and Beta parameters, a str
    and an int key of the episode's and of that step's attrs, one edge's statistics, the
    video, episodes and t of an observation with episodes and of one without, the three id
    counters and one video_clock entry."""
    dag = store.logic[1].dag
    step = dag.nodes[sorted(dag.step_labels())[0]]
    nodes = {"episodic": store.episodic[1], "semantic": store.semantic[min(store.semantic)],
             "logic": store.logic[1]}
    return ([(f"config {f.name}", store.config, f.name) for f in fields(Config)]
            + [(f"anchor {i} {key}", store.anchors[i], key)
               for i in (1, 2) for key in ("label", "face_count", "voice_count")]
            + [(f"{kind} {f.name}", node, f.name) for kind, node in nodes.items() for f in fields(node)]
            + [("pool entry", store.pool, 0)]
            + [(f"dag step {key}", step, key) for key in ("attrs", "success_alpha", "success_beta")]
            + [(f"{name} attrs[{key!r}]", attrs, key) for name, attrs in
               (("episodic 1", store.episodic[1].attrs), ("dag step", step.attrs)) for key in ("tool", 1)]
            + [(f"dag edge {key}", _first_edge(store), key) for key in ("count", "gamma")]
            + [(f"observation {i} {key}", store.observations[i], key)
               for i in (10, 11) for key in ("video", "episodes", "t")]
            + [(key, store, key) for key in ("next_node_id", "next_anchor_id", "next_logic_id")]
            + [("video_clock v1", store.video_clock, "v1")])


def _breach(store, path: str):
    """How ``store`` breaks the rule that a save writes exactly the stores ``check()``
    passes, or None: ``check()`` returns a list; ``save`` refuses with a message that
    ends with ``check()[0]`` when it is not empty, and otherwise writes a file that loads
    with ``check() == []`` and re-saves byte-identically."""
    try:
        violations = store.check()
    except Exception as exc:
        return f"check raised {exc!r}"
    try:
        store.save(path)
    except MemoryEngineError as exc:
        return None if violations and str(exc).endswith(violations[0]) else f"save refused: {exc}"
    except Exception as exc:
        return f"save raised {exc!r}"
    if violations:
        return f"saved despite {violations[0]}"
    try:
        loaded = MemoryStore.load(path)
    except MemoryEngineError as exc:
        return f"load refused the file: {exc}"
    if loaded.check():
        return f"loaded as {loaded.check()[0]}"
    first = open(path, "rb").read()
    loaded.save(path)
    return None if open(path, "rb").read() == first else "re-saved as another file"


def test_live_store_mutation_sweep_saves_only_what_loads(tmp_path):
    # Each field _reachable_fields names, set in turn to each mutation value, then entry 0
    # of each kind of stored vector that a snapshot keeps set to NaN and to inf.
    path = str(tmp_path / "snap.json")
    base = pooled_shapes_store()
    breaches = []
    for at in range(len(_reachable_fields(base))):
        for value in MUTATION_VALUES:
            store = base.clone()
            name, owner, key = _reachable_fields(store)[at]
            if isinstance(owner, (dict, list)):
                owner[key] = copy.deepcopy(value)
            else:
                setattr(owner, key, copy.deepcopy(value))
            if why := _breach(store, path):
                breaches.append((name, value, why))
    for name, vector in (("face centroid", lambda store: store.anchors[1].centroid_face),
                         ("i_goal", lambda store: store.logic[1].i_goal),
                         ("i_step", lambda store: store.logic[1].i_step)):
        for value in (np.nan, np.inf):
            store = base.clone()
            vector(store)[0] = value
            if why := _breach(store, path):
                breaches.append((name, value, why))
    assert breaches == []


@pytest.mark.parametrize("field", ["t", "d", "video", "anchors", "action", "outcome", "attrs",
                                   "text", "obs", "v_e"])
def test_check_reports_an_array_in_an_episode_field(field):
    # An array compares elementwise, so a rule that compared one with == or in would raise.
    # An episode's d, v_e and action are its text entry's, and its video and t its observation's.
    store = shapes_store()
    node, array = store.episodic[1], np.zeros(2)
    if field in ("d", "v_e", "action"):
        node.text = tuple(array if name == field else x for name, x in zip(("d", "v_e", "action"), node.text))
    elif field in ("video", "t"):
        setattr(node.obs, field, array)
    else:
        setattr(node, field, array)
    assert store.check()


# -- rules that no other test reaches: each plant breaks one rule, and only it -------


def _no_evidence(store):
    store.logic[1].episodic_links = set()


def _video_clock_key_not_a_video(store):
    store.video_clock[1] = store.observations[10]


def _video_clock_not_the_latest(store):
    store.video_clock["v1"] = store.observations[30]  # v1's t 1.0, where record 31 has t 2.0


def _pool_entry_of_an_unknown_observation(store):
    store.pool[0] = 99


def _observation_id_not_an_int(store):
    store.observations["50"] = store.observations.pop(40)  # and the pool entry's observation goes


def _missing_episode(store):
    store.observations[10].episodes.append(99)


def _transition_sum_overflows(store):
    # Each count is finite, but their sum is not, so each transition estimate is 0.
    dag = store.logic[1].dag
    dag.add_edge(START, GOAL)
    for stat in dag.adj[START].values():
        stat.count = 1e308


@pytest.mark.parametrize("plant,violations", [
    (_no_evidence, ["logic 1: no episodic evidence"]),
    (_video_clock_key_not_a_video, ["video_clock is not each video's latest observation"]),
    (_video_clock_not_the_latest, ["video_clock is not each video's latest observation"]),
    (_pool_entry_of_an_unknown_observation, ["pool entry references unknown observation 99"]),
    (_observation_id_not_an_int,
     ["pool entry references unknown observation 40", "observation ids are not all ints"]),
    (_missing_episode, ["observation 10: missing episode 99"]),
    (_transition_sum_overflows, ["logic 1: transition probs at START sum to 0.0"]),
], ids=["no-evidence", "video-clock-key", "video-clock-not-latest", "pool-observation",
        "observation-id", "missing-episode", "transition-overflow"])
def test_each_rule_no_other_test_reaches_reports_its_plant(tmp_path, plant, violations):
    path = str(tmp_path / "snap.json")
    store = pooled_shapes_store()
    assert store.check() == []
    plant(store)
    assert store.check() == violations
    with pytest.raises(SnapshotIoError, match=re.escape(violations[0]) + "$"):
        store.save(path)


# -- attrs that JSON cannot carry exactly ---------------------------------------------


@pytest.mark.parametrize("value", [float("nan"), float("inf"), (1, 2), {1: "a"}, [[float("-inf")]],
                                   {"k": {2}}, np.float64(0.5)],
                         ids=["nan", "inf", "tuple", "int-key", "nested-inf", "set", "numpy-float"])
def test_check_reports_attrs_that_json_cannot_carry_exactly(tmp_path, value):
    # json would refuse a non-finite float or a set, or read a tuple back as a list, an int
    # key as a str and a numpy float as a float.
    path = str(tmp_path / "snap.json")
    store = shapes_store()
    store.episodic[2].attrs["n"] = value
    step = store.logic[1].dag.nodes["mix_fruit"]
    step.attrs["n"] = value
    assert store.check() == ["logic 1: mix_fruit attrs hold what JSON cannot carry exactly",
                             "episodic 2: attrs hold what JSON cannot carry exactly"]
    with pytest.raises(SnapshotIoError, match=re.escape(store.check()[0]) + "$"):
        store.save(path)
    del store.episodic[2].attrs["n"], step.attrs["n"]
    store.episodic[2].attrs[1] = "a"
    assert store.check() == ["episodic 2: attrs hold what JSON cannot carry exactly"]


def test_check_accepts_attrs_that_json_carries_and_ends_its_walk_on_a_cycle(tmp_path):
    # A container held twice is written twice and read back equal; one that holds
    # itself cannot be written, so check() reports it and save and ingest refuse it.
    path = str(tmp_path / "snap.json")
    store = shapes_store()
    shared = [1, 2.5, None, True, "x", {"deep": [{"er": -0.0}]}]
    store.episodic[1].attrs.update(n=2**70, shared=shared, again=shared)
    assert store.check() == []
    store.save(path)
    shared[-1]["deep"].append(shared)  # a cycle three containers long
    step = store.logic[1].dag.nodes["mix_fruit"]
    step.attrs["self"] = step.attrs
    assert store.check() == ["logic 1: mix_fruit attrs hold what JSON cannot carry exactly",
                             "episodic 1: attrs hold what JSON cannot carry exactly"]
    with pytest.raises(SnapshotIoError, match=re.escape(store.check()[0]) + "$"):
        store.save(path)
    del step.attrs["self"], store.episodic[1].attrs["shared"], store.episodic[1].attrs["again"]
    before = json.dumps(snapshot_dict(store))
    with pytest.raises(MalformedRecord, match="hold what JSON cannot carry exactly"):
        store.ingest(ObservationRecord(50, "v5", 0.0, [Description("chop the fruit", {"s": shared})],
                                       [], []))
    assert json.dumps(snapshot_dict(store)) == before and 50 not in store.observations


def test_loaded_and_cloned_clocks_are_each_videos_latest_observation(tmp_path):
    # Records 4 and 9 of v list episodes at t 1.0 and 2.0; record 6, ingested last, lists
    # none, at t 3.0. It sets v's clock, though it is neither the first nor the last
    # observation by id, and a clock of episodes alone would stop at 2.0.
    path = str(tmp_path / "snap.json")
    live = MemoryStore(Config(dim=DIM, action_verbs=FRUIT_VERBS))
    for rid, t, lines in ((4, 1.0, ["chop the fruit"]), (9, 2.0, ["mix the fruit"]), (6, 3.0, [])):
        live.ingest(ObservationRecord(rid, "v", t, [Description(line) for line in lines], [], []))
    live.save(path)
    forks = {"live": live, "loaded": MemoryStore.load(path), "cloned": live.clone()}
    for name, fork in forks.items():
        assert fork.video_clock == {"v": fork.observations[6]}, name
        assert fork.video_clock["v"] is fork.observations[6], name
        with pytest.raises(MalformedRecord, match=r"^timestamp 2\.5 for 'v' precedes previous 3\.0$"):
            fork.ingest(ObservationRecord(10, "v", 2.5, [Description("serve the salad")], [], []))
        fork.ingest(ObservationRecord(10, "v", 3.0, [Description("serve the salad")], [], []))
        assert fork.check() == [] and fork.video_clock["v"] is fork.observations[10], name
    assert len({json.dumps(snapshot_dict(fork), sort_keys=True) for fork in forks.values()}) == 1


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_load_refuses_a_non_finite_json_constant(tmp_path, constant):
    path = str(tmp_path / "snap.json")
    shapes_store().save(path)
    text = open(path).read()
    assert '{"tool":"bowl"}' in text
    open(path, "w").write(text.replace('{"tool":"bowl"}', '{"tool":%s}' % constant, 1))
    with pytest.raises(CorruptSnapshot, match=f"snapshot holds {constant}, which is not a finite number"):
        MemoryStore.load(path)


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
    """What a load must give back exactly: every node field, each observation's
    video, t and nodes in order, and each video's clock."""
    return ({i: (repr(n.t), n.d, n.video, n.anchors, n.action, n.outcome, repr(n.attrs))
             for i, n in store.episodic.items()},
            {i: (m.video, repr(m.t), m.episodes) for i, m in store.observations.items()},
            {video: repr(m.t) for video, m in store.video_clock.items()},
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
