"""Snapshot version 8, the only version a load reads (this file is named for
version 5, the first whose rows these tests pinned): the one canonical form a
load accepts, the stores a save refuses, and a round-trip property over the
record shapes the snapshot writes in a way of its own (no descriptions, mixed
outcomes, record ids out of ingest order)."""

import copy
import gc
import json
import os
import re
import resource
import sys
import threading
import time
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from memstrata import (
    GOAL,
    START,
    Conclusion,
    Config,
    ConfigError,
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
from memstrata.dag import EdgeStat
from memstrata.ingest import MAX_ATTRS_DEPTH, MAX_ATTRS_VALUES, OUTCOMES, read_observation_lines
from memstrata.store import snapshot_dict, store_from_dict
from conftest import FRUIT_VERBS, MUTATION_VALUES, one_hot, plant, runs, unruns

DIM = 32
V8_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "snapshot_v8_dim8.json")


def shapes_store(**config) -> MemoryStore:
    """Three sources of one three-line record each (record ids 30, 20, 10 in
    ingest order; the middle line names two people and fails on v2), each
    followed by a record with no descriptions, then distill(). ``config`` sets
    Config fields."""
    store = MemoryStore(Config(**{"dim": DIM, "action_verbs": FRUIT_VERBS, **config}))
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
        "outcome": [[0, 4], 1, [0, 4]], "attrs_at": [0, 1, 2] * 3}  # outcomes 0 0 0 0 1 0 0 0 0
    assert "video_clock" not in data
    assert data["logic"][0]["episodic_links"] == [[1, 3], 3, 1, 1, 2, 1, 1]  # gaps 1 1 1 3 1 1 2 1 1
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


RUN_COLUMNS = ("id", "video_at", "episode_count", "anchors_at", "outcome")


def _respelled(section, column, change):
    """Change a column or table; a run column as the ints it spells, spelled again as runs."""
    if column not in RUN_COLUMNS:
        return change(section[column])
    change(ints := unruns(section[column]))
    section[column] = runs(ints)


def _episode_in_two_observations(data):
    # observation 40 of v3 at t 1.0 lists episode 10, which observation 10 lists
    for column, value in (("id", 9), ("video_at", 0), ("t", 1.0), ("episode_count", 1)):
        _respelled(data["observations"], column, lambda ints: ints.append(value))
    for column, value in (("id", 10 - 3), ("text_at", 0), ("anchors_at", 0), ("outcome", 0),
                          ("attrs_at", 0)):
        _respelled(data["episodic"], column, lambda ints: ints.append(value))


def _swap_first_uses(section, table, column):
    # the first two entries of a table trade places, and every index with them
    def plant(data):
        data[section][table][:2] = data[section][table][1::-1]
        data[section][column] = [{0: 1, 1: 0}.get(at, at) for at in data[section][column]]
    return plant


def _column(section, column, at, value):
    def plant(data):
        _respelled(data[section], column, lambda ints: ints.__setitem__(at, value))
    return plant


SECTION_ORDER = "ids are not ints in strictly increasing order"
DAG_ROWS = "dag rows are not"
OUTCOME = "episodic outcomes are not indexes into"
OBSERVATION_IDS = "^observation ids are not ints in strictly increasing order$"
EPISODE_IDS = "the episode ids of an observation are not ints in strictly increasing order"
GAPS = "logic 1 episodic links are not ints in strictly increasing order"
VIDEOS, ANCHORS = "^observation video table is not", "^episodic anchors table is not"
COUNTS = "^observation episode counts do not split the episodic columns$"


def _not_runs(what):  # an int column holding what is neither an int nor a [value, count] pair
    return f"^{re.escape(what)}: not ints and \\[value, count\\] pairs of a count of at least 3$"


def _nested(levels: int) -> list:
    """``levels`` lists, each holding the next, around a 1."""
    x = 1
    for _ in range(levels):
        x = [x]
    return x

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
    "observation-id-true": (_column("observations", "id", 0, True), _not_runs("observation column 'id'")),
    "video-past-end": (_column("observations", "video_at", 1, 3), VIDEOS),
    "video-true": (_column("observations", "video_at", 2, True),
                   _not_runs("observation column 'video_at'")),
    "video-out-of-order": (_swap_first_uses("observations", "videos", "video_at"), VIDEOS),
    "video-unused": (lambda d: _observations(d, "videos").append("v9"), VIDEOS),
    "video-not-a-string": (_column("observations", "videos", 0, 3),
                           "^episodic texts and videos are not all strings"),
    "count-short": (_column("observations", "episode_count", 0, 2), COUNTS),
    "count-negative": (lambda d: _observations(d, "episode_count").__setitem__(slice(0, 2), [4, -1]),
                       COUNTS),
    "count-true": (_column("observations", "episode_count", 1, False),
                   _not_runs("observation column 'episode_count'")),
    # episode ids as differences: 11, 10, 12 (an id below the one before it in its
    # observation), 10 twice, and true for 10
    "episode-ids-swapped": (lambda d: _episodes(d, "id").__setitem__(slice(0, 3), [11, -1, 2]),
                            EPISODE_IDS),
    "episode-id-repeated": (lambda d: _episodes(d, "id").__setitem__(slice(1, 3), [0, 2]), EPISODE_IDS),
    "episode-id-true": (_column("episodic", "id", 0, True), _not_runs("episodic column 'id'")),
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
    "outcome-true": (_column("episodic", "outcome", 0, True), _not_runs("episodic column 'outcome'")),
    "outcome-float": (_column("episodic", "outcome", 0, 0.0), _not_runs("episodic column 'outcome'")),
    "outcome-string": (_column("episodic", "outcome", 0, "success"),
                       _not_runs("episodic column 'outcome'")),
    "gap-zero": (lambda d: _links(d).__setitem__(1, 0), GAPS),
    "gap-negative": (lambda d: _links(d).__setitem__(3, -1), GAPS),
    "gap-true": (lambda d: _links(d).__setitem__(1, True), _not_runs("logic 1 episodic links")),
    "gap-float": (lambda d: _links(d).__setitem__(1, 1.0), _not_runs("logic 1 episodic links")),
    "first-link-true": (lambda d: _links(d).__setitem__(0, True), _not_runs("logic 1 episodic links")),
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
    # a load runs every rule check() runs: the knife attrs of episodes 1, 6 and 10
    "attrs-past-the-bound": (lambda d: _episodes(d, "attrs").__setitem__(0, {"k": [0] * (MAX_ATTRS_VALUES + 1)}),
                             f"^episodic 1: attrs write more than {MAX_ATTRS_VALUES} values$"),
    # json recurses once a level, so a dict built in code can nest past the recursion limit; a
    # load judges the attrs table first, a level at a time, so it refuses it by its depth
    "attrs-nested-too-deep": (lambda d: _episodes(d, "attrs").__setitem__(1, {"tool": _nested(100_000)}),
                              f"^episodic 2: attrs nest more than {MAX_ATTRS_DEPTH} levels$"),
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
    data = json.loads(open(V8_FIXTURE).read())
    assert data["pool"] == [11]
    assert snapshot_dict(store_from_dict(copy.deepcopy(data))) == data
    violation = f"pool entry references unknown observation {entry!r}"
    data["pool"][0] = entry
    with pytest.raises(CorruptSnapshot, match=f"^{re.escape(violation)}$"):
        store_from_dict(data)


def test_snapshot_pool_that_lists_an_observation_twice_rejected():
    # apply pools a record once, so a repeated id is no store's pool.
    data = json.loads(open(V8_FIXTURE).read())
    violation = "pool entry 11 is listed 2 times, not once"
    data["pool"].append(11)
    with pytest.raises(CorruptSnapshot, match=f"^{re.escape(violation)}$"):
        store_from_dict(data)


@pytest.mark.parametrize("section,other", [
    ("anchors", {}), ("semantic", {}), ("logic", {}), ("pool", {}),
], ids=["anchors", "semantic", "logic", "pool"])
def test_section_of_another_type_rejected_in_every_version(section, other):
    # A load iterates each section, so an empty one of another type would
    # load as empty and re-save as another file.
    for data in (snapshot_dict(shapes_store()), json.loads(open(V8_FIXTURE).read())):
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
    # Python 3.11's frozen slotted dataclass answers an assignment to a name that is no field
    # by calling super(cls, self) with the class from before slots were added: TypeError.
    raised, text = (TypeError, "super") if sys.version_info[:2] == (3, 11) else (AttributeError, "count")
    with pytest.raises(raised, match=text):
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
        # A frozen slotted dataclass raises TypeError, not AttributeError, on Python 3.11.
        with pytest.raises((AttributeError, TypeError)):
            setattr(node, name, value)


def _t_of_an_observation(store):
    plant(store, observations={10: replace(store.observations[10], t=float("nan"))})


def _t_a_bool(store):  # an int to Python, but JSON writes it as true
    plant(store, observations={11: replace(store.observations[11], t=True)})


@pytest.mark.parametrize("fault,violations", [
    (_t_of_an_observation, ["observation 10: t nan is not a finite number"]),
    (_t_a_bool, ["observation 11: t True is not a finite number"]),
], ids=["t", "t-int"])
def test_store_that_v5_cannot_write_is_reported_and_not_saved(tmp_path, fault, violations):
    # The snapshot stores each observation's t, a finite number, with episodes or
    # without: a store that holds another would load as another store. Save
    # refuses it with the first violation check() reports.
    path = str(tmp_path / "snap.json")
    store = shapes_store()
    fault(store)
    assert store.check() == violations
    with pytest.raises(SnapshotIoError, match=re.escape(violations[0])):
        store.save(path)
    assert not os.path.exists(path) and not os.path.exists(path + ".tmp")


def _semantic_weight_zero(store):
    node = store.semantic[min(store.semantic)]
    plant(store, semantic={node.id: replace(node, weight=0)})


def _negative_count(store):  # a builder in place of a sealed DAG, as no engine call and no file puts
    node = store.logic[1]
    dag = node.dag.copy()
    src, dst, _ = next(iter(dag.edges()))
    dag.adj[src][dst] = EdgeStat(-1.0, 1.0)
    plant(store, logic={1: replace(node, dag=dag)})


@pytest.mark.parametrize("fault", [
    _semantic_weight_zero,
    lambda store: plant(store, next_node_id=0),
    lambda store: store.logic[1].i_goal.__setitem__(0, np.nan),
    _negative_count,
], ids=["semantic", "counter", "vector", "dag"])
def test_refused_save_leaves_the_snapshot_it_would_replace_as_it_was(tmp_path, fault):
    path = str(tmp_path / "snap.json")
    store = shapes_store()
    store.save(path)
    before = open(path, "rb").read()
    fault(store)
    violations = store.check()
    assert violations
    with pytest.raises(SnapshotIoError, match=re.escape(violations[0]) + "$"):
        store.save(path)
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["snap.json"]  # no temp file left


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
    # Entry 0 of each kind of stored vector that a snapshot keeps, the one state a caller can
    # still write, set to NaN and to inf; and each config field, which is set once, by a store
    # built with each value a Config takes. The rest of a store is sealed (tests/test_seal.py),
    # and the snapshot mutation sweep puts each value in each of its fields that a file holds.
    path = str(tmp_path / "snap.json")
    base = pooled_shapes_store()
    breaches = []
    for name, vector in (("face centroid", lambda store: store.anchors[1].centroid_face),
                         ("i_goal", lambda store: store.logic[1].i_goal),
                         ("i_step", lambda store: store.logic[1].i_step)):
        for value in (np.nan, np.inf):
            store = base.clone()
            vector(store)[0] = value
            if why := _breach(store, path):
                breaches.append((name, value, why))
    for name in [f.name for f in fields(Config)]:
        for value in MUTATION_VALUES:
            try:
                store = shapes_store(**{name: copy.deepcopy(value)})
            except ConfigError:
                continue
            if why := _breach(store, path):
                breaches.append((f"config {name}", value, why))
    assert breaches == []


@pytest.mark.parametrize("field", ["t", "anchors"])
def test_check_reports_an_array_in_an_episode_field(field):
    # An array compares elementwise, so a rule that compared one with == or in would raise.
    # An episode's t is its observation's.
    store = shapes_store()
    node, array = store.episodic[1], np.zeros(2)
    if field == "t":
        plant(store, observations={30: replace(node.obs, t=array)})
    else:
        plant(store, episodic={1: replace(node, **{field: array})})
    assert store.check()


# -- rules that no other test reaches: each plant breaks one rule, and only it -------


def test_a_pool_entry_of_an_unknown_observation_is_reported_and_not_saved(tmp_path):
    path = str(tmp_path / "snap.json")
    store = pooled_shapes_store()
    assert store.check() == []
    plant(store, pool=(99,))
    violations = ["pool entry references unknown observation 99"]
    assert store.check() == violations
    with pytest.raises(SnapshotIoError, match=re.escape(violations[0]) + "$"):
        store.save(path)


def _no_evidence(data):
    data["logic"][0]["episodic_links"] = []


def _transition_sum_overflows(data):
    # Each count is finite, but their sum is not, so each transition estimate is 0.
    edges = data["logic"][0]["dag"]["edges"]
    edges.append([START, GOAL, 0.0, 1.0])
    edges.sort(key=lambda row: row[:2])
    for row in edges:
        if row[0] == START:
            row[2] = 1e308


@pytest.mark.parametrize("write,fault,violation", [
    (lambda store: store.logic[1].episodic_links.clear(), _no_evidence, "logic 1: no episodic evidence"),
    (lambda store: store.logic[1].dag.add_edge(START, GOAL, 1e308), _transition_sum_overflows,
     "logic 1: transition probs at START sum to 0.0"),
], ids=["no-evidence", "transition-overflow"])
def test_each_rule_no_other_test_reaches_is_kept_by_the_seal_and_by_the_load(write, fault, violation):
    # A store's evidence and DAGs are sealed, so no write breaks these rules on one; a file can,
    # and a load refuses it with the violation check() reports.
    store = pooled_shapes_store()
    before = json.dumps(snapshot_dict(store))
    with pytest.raises((TypeError, AttributeError)):
        write(store)
    assert store.check() == [] and json.dumps(snapshot_dict(store)) == before
    data = json.loads(before)
    fault(data)
    with pytest.raises(CorruptSnapshot, match=f"^{re.escape(violation)}$"):
        store_from_dict(data)


# -- attrs that JSON cannot carry exactly ---------------------------------------------


def _episode_attrs(data):  # the bowl attrs of episodes 2, 7 and 11
    return data["episodic"]["attrs"][1]


def _step_attrs(data):
    return next(row[1] for row in data["logic"][0]["dag"]["nodes"] if row[0] == "mix_fruit")


ATTRS_HELD = ((_episode_attrs, "episodic 2: attrs"), (_step_attrs, "logic 1: mix_fruit attrs"))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), (1, 2), {1: "a"}, [[float("-inf")]],
                                   {"k": {2}}, np.float64(0.5)],
                         ids=["nan", "inf", "tuple", "int-key", "nested-inf", "set", "numpy-float"])
def test_attrs_that_json_cannot_carry_exactly_are_neither_written_nor_loaded(value):
    # json would refuse a non-finite float or a set, or read a tuple back as a list, an int
    # key as a str and a numpy float as a float. A store's attrs are read-only, and a load
    # refuses a snapshot dict that holds one, with what check() reported on such a store.
    store = shapes_store()
    for attrs in (store.episodic[2].attrs, store.logic[1].dag.nodes["mix_fruit"].attrs):
        with pytest.raises(TypeError, match="read-only"):
            attrs["n"] = value
    assert store.check() == []
    base = json.loads(json.dumps(snapshot_dict(store)))
    for where, what in ATTRS_HELD:
        for key in ("n", 1):
            data = copy.deepcopy(base)
            where(data)[key] = value if key == "n" else "a"
            with pytest.raises(CorruptSnapshot, match=f"^{what} hold what JSON cannot carry exactly$"):
                store_from_dict(data)


def test_attrs_that_json_carries_pass_every_boundary_and_a_cycle_is_refused(tmp_path):
    # A container held twice is written twice and read back equal; one that holds itself
    # cannot be written, so ingest and a load refuse it.
    path = str(tmp_path / "snap.json")
    store = shapes_store()
    shared = [1, 2.5, None, True, "x", {"deep": [{"er": -0.0}]}]
    store.ingest(ObservationRecord(50, "v5", 0.0, [Description("chop the fruit", {
        "n": 2**70, "shared": shared, "again": shared})], [], []))
    assert store.check() == []
    store.save(path)
    assert snapshot_dict(MemoryStore.load(path)) == snapshot_dict(store)
    shared[-1]["deep"].append(shared)  # a cycle three containers long
    before = json.dumps(snapshot_dict(store))
    with pytest.raises(MalformedRecord, match="hold what JSON cannot carry exactly"):
        store.ingest(ObservationRecord(51, "v5", 1.0, [Description("chop the fruit", {"s": shared})],
                                       [], []))
    assert json.dumps(snapshot_dict(store)) == before and 51 not in store.observations
    for where, what in ATTRS_HELD:
        data = json.loads(before)
        attrs = where(data)
        attrs.update(s=shared, self=attrs)
        with pytest.raises(CorruptSnapshot, match=f"^{what} hold what JSON cannot carry exactly$"):
            store_from_dict(data)


def _doubled(levels: int):
    """``levels`` nested lists, each holding the next twice: ``levels`` containers, whose
    write emits 2 + 4 + ... + 2**levels values."""
    x = 0
    for _ in range(levels):
        x = [x, x]
    return x


def test_attrs_are_bounded_by_the_values_a_write_emits(tmp_path):
    # A value inside a shared container is written once per place it is reached, so
    # sharing can make a few containers write 2**levels values. {"k": x} writes one value
    # at the top, then x's. Ingest refuses an attrs object past the bound, and a load one
    # in the episodes' table or one entry of a step's attrs past it.
    path = str(tmp_path / "snap.json")
    over = f"attrs write more than {MAX_ATTRS_VALUES} values"
    store = shapes_store()
    shared = [0] * 30000
    at_bound = ({"k": [0] * (MAX_ATTRS_VALUES - 1)}, {"k": _doubled(15)},  # 2**16 - 1 values
                {"a": shared, "b": shared})  # one container twice at one level: 60,002
    for rid, attrs in enumerate(at_bound, start=50):
        store.ingest(ObservationRecord(rid, "v5", float(rid), [Description("mix the fruit", attrs)], [], []))
    # The bound is per attrs object: three episodes that together write 90,003 values pass.
    store.ingest(ObservationRecord(60, "v6", 0.0, [Description("chop the fruit", {"k": shared})] * 3, [], []))
    assert store.check() == []
    store.save(path)
    assert snapshot_dict(MemoryStore.load(path)) == snapshot_dict(store)

    before = json.dumps(snapshot_dict(store))
    for attrs in ({"k": [0] * MAX_ATTRS_VALUES}, {"k": _doubled(40)}):
        with pytest.raises(MalformedRecord, match=re.escape(f"attrs of 'chop the fruit' write more than "
                                                            f"{MAX_ATTRS_VALUES} values") + "$"):
            store.ingest(ObservationRecord(70, "v7", 0.0, [Description("chop the fruit", attrs)], [], []))
    assert json.dumps(snapshot_dict(store)) == before and 70 not in store.observations
    base = json.loads(json.dumps(snapshot_dict(shapes_store())))
    # A bomb of 40 levels is refused at once, in the table or in a step's attrs.
    for attrs in ({"k": [0] * MAX_ATTRS_VALUES}, {"k": _doubled(16)}, {"a": shared, "b": shared, "c": shared},
                  {"k": _doubled(40)}):
        for where, what in ATTRS_HELD:
            data = copy.deepcopy(base)
            entries = where(data)
            entries.clear()
            entries.update(attrs)
            if where is _step_attrs and len(attrs) > 1:
                assert store_from_dict(data).check() == []  # each entry alone is within the bound
                continue
            with pytest.raises(CorruptSnapshot, match=f"^{what[:-6]} {over}$"):
                store_from_dict(data)


def test_a_steps_attrs_merge_its_episodes_attrs_past_the_bound_and_save_and_load(tmp_path):
    # Distill merges the attrs of a step's episodes, each within the bound, into one that is
    # not: a load judges each entry of a step's attrs, as an episode's, so it takes the file.
    path = str(tmp_path / "snap.json")
    store = MemoryStore(Config(dim=DIM, action_verbs=FRUIT_VERBS))
    for rid, key in ((1, "a"), (2, "b")):
        store.ingest(ObservationRecord(rid, f"v{rid}", 0.0, [
            Description("grab the towel"), Description("wash the bowl", {key: [0] * 40000})], [], []))
    assert store.distill() == [1]
    assert store.logic[1].dag.nodes["wash_bowl"].attrs.keys() == {"a", "b"}
    assert store.check() == []
    store.save(path)
    assert snapshot_dict(MemoryStore.load(path)) == snapshot_dict(store)


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


def _nested(levels: int) -> dict:
    """An attrs object that nests ``levels`` levels, itself the first."""
    x = 1
    for _ in range(levels - 1):
        x = [x]
    return {"k": x}


def _deeper(frames: int, fn):
    return fn() if frames == 0 else _deeper(frames - 1, fn)


@pytest.mark.parametrize("frames", [0, 150])
def test_attrs_nested_to_the_bound_pass_every_boundary_and_one_level_more_is_refused(tmp_path, frames):
    # The bound is a rule of the input, not of the reader's stack: run in a thread of its own,
    # where the stack starts empty as in a script, and again 150 frames deeper.
    path = str(tmp_path / "snap.json")
    over = f"nest more than {MAX_ATTRS_DEPTH} levels"

    def lines(levels):
        record = {"id": 1, "video": "v", "t": 0.0, "descriptions": [{"text": "chop it", "attrs": _nested(levels)}],
                  "conclusions": [], "percepts": []}
        return ['{"version": 1}', json.dumps(record)]

    def run():
        store = MemoryStore(Config(dim=DIM))
        store.ingest(read_observation_lines(lines(MAX_ATTRS_DEPTH))[0])
        store.save(path)
        assert MemoryStore.load(path).episodic[1].attrs == _nested(MAX_ATTRS_DEPTH)
        with pytest.raises(MalformedRecord, match=f"^attrs of 'chop it' {over}$"):
            read_observation_lines(lines(MAX_ATTRS_DEPTH + 1))
        with pytest.raises(MalformedRecord, match=f"^attrs of 'chop it' {over}$"):
            store.ingest(ObservationRecord(2, "v", 1.0, [Description("chop it", _nested(MAX_ATTRS_DEPTH + 1))],
                                           [], []))
        text = open(path).read()
        at_bound = "[" * (MAX_ATTRS_DEPTH - 1) + "1" + "]" * (MAX_ATTRS_DEPTH - 1)
        assert text.count(at_bound) == 1
        open(path, "w").write(text.replace(at_bound, "[" + at_bound + "]"))
        with pytest.raises(CorruptSnapshot, match=f"^episodic 1: attrs {over}$"):
            MemoryStore.load(path)
        data = json.loads(json.dumps(snapshot_dict(shapes_store())))
        _step_attrs(data)["k"] = _nested(MAX_ATTRS_DEPTH)["k"]
        store_from_dict(copy.deepcopy(data)).save(path)
        _step_attrs(data)["k"] = _nested(MAX_ATTRS_DEPTH + 1)["k"]
        with pytest.raises(CorruptSnapshot, match=f"^logic 1: mix_fruit attrs {over}$"):
            store_from_dict(data)

    failed = []

    def in_thread():
        try:
            _deeper(frames, run)
        except BaseException as exc:  # raised again below, in the test's own thread
            failed.append(exc)

    thread = threading.Thread(target=in_thread)
    thread.start()
    thread.join()
    if failed:
        raise failed[0]


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_load_refuses_a_non_finite_json_constant(tmp_path, constant):
    path = str(tmp_path / "snap.json")
    shapes_store().save(path)
    text = open(path).read()
    assert '{"tool":"bowl"}' in text
    open(path, "w").write(text.replace('{"tool":"bowl"}', '{"tool":%s}' % constant, 1))
    with pytest.raises(CorruptSnapshot, match=f"snapshot holds {constant}, which is not a finite number"):
        MemoryStore.load(path)


@pytest.mark.parametrize("written, instead, message", [
    ('"pool":[]', '"pool":[],"pool":[]', "snapshot repeats the key 'pool' in one object"),  # top level
    ('"label":"ana"', '"label":"jack","label":"ana"', "snapshot repeats the key 'label' in one object"),
    ('"pool":[]', '"pool":[%s]' % ("9" * 5000), "snapshot is not valid JSON: Exceeds the limit .*"),
])
def test_load_refuses_text_that_json_would_read_another_way(tmp_path, written, instead, message):
    # json would keep the last value of a repeated key; an int longer than int() converts raises
    # a bare ValueError.
    path = str(tmp_path / "snap.json")
    shapes_store().save(path)
    text = open(path).read()
    assert text.count(written) == 1
    open(path, "w").write(text.replace(written, instead))
    with pytest.raises(CorruptSnapshot, match=f"^{message}$"):
        MemoryStore.load(path)


def test_load_derives_each_action_and_logic_anchor_set_once(tmp_path, monkeypatch):
    # The load's invariant sweep tests no action; a procedure's anchors are
    # those of its evidence and held nowhere.
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


# -- run columns -------------------------------------------------------------

# Int columns as runs of drawn lengths: long runs, alternations, negatives and ints past int64.
run_ints = st.lists(st.tuples(st.integers(-3, 3) | st.integers(-2**70, 2**70), st.integers(1, 9)),
                    max_size=30).map(lambda rs: [value for value, n in rs for _ in range(n)])


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(run_ints)
def test_run_codec_spells_as_a_groupby_oracle_and_reads_back(ints):
    spelled = store_module._runs(ints)
    assert spelled == runs(ints)
    assert store_module._unruns(json.loads(json.dumps(spelled)), len(ints), "c") == ints
    if ints:  # the counts are summed before a pair is expanded
        with pytest.raises(CorruptSnapshot, match=f"^c: more than {len(ints) - 1} ints$"):
            store_module._unruns(spelled, len(ints) - 1, "c")


# Records in blocks of one source, line count and outcome, so that every run column holds long runs
# and alternations; record ids drawn apart (negative and past int64 too) and ingested in any order.
record_blocks = st.lists(st.tuples(st.sampled_from(("v1", "v2", "v3")), st.integers(0, 3),
                                   st.sampled_from(OUTCOMES), st.integers(1, 8)), min_size=1, max_size=8)


@settings(derandomize=True, database=None, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(record_blocks, st.data())
def test_run_columns_round_trip_through_save_and_load(tmp_path_factory, blocks, data):
    shapes = [(video, lines, outcome) for video, lines, outcome, n in blocks for _ in range(n)]
    rids = data.draw(st.lists(st.integers(-2**70, 2**70) | st.integers(-20, 20),
                              min_size=len(shapes), max_size=len(shapes), unique=True))
    store = MemoryStore(Config(dim=DIM, action_verbs=FRUIT_VERBS))
    for rid, (video, lines, outcome) in zip(rids, shapes):
        store.ingest(ObservationRecord(rid, video, 0.0, [Description(text, {}, outcome)
                                                         for text in LINES[:lines]], [], []))
    store.distill()
    path = os.path.join(tmp_path_factory.mktemp("runs"), "snap.json")
    store.save(path)
    text = open(path).read()
    saved = json.loads(text)
    # each run column is the oracle's spelling of the ints the store gives it
    metas = [meta for _, meta in sorted(store.observations.items())]
    nodes = [store.episodic[i] for meta in metas for i in meta.episodes]
    videos, anchors = saved["observations"]["videos"], saved["episodic"]["anchors"]
    gaps = lambda ids: [b - a for a, b in zip([0] + ids, ids)]
    assert saved["observations"]["id"] == runs(gaps(sorted(store.observations)))
    assert saved["observations"]["video_at"] == runs([videos.index(m.video) for m in metas])
    assert saved["observations"]["episode_count"] == runs([len(m.episodes) for m in metas])
    assert saved["episodic"]["id"] == runs(gaps([n.id for n in nodes]))
    assert saved["episodic"]["anchors_at"] == runs([anchors.index(sorted(n.anchors)) for n in nodes])
    assert saved["episodic"]["outcome"] == runs([OUTCOMES.index(n.outcome) for n in nodes])
    assert [node["episodic_links"] for node in saved["logic"]] == [
        runs(gaps(sorted(store.logic[node["id"]].episodic_links))) for node in saved["logic"]]
    loaded = MemoryStore.load(path)
    assert loaded.check() == []
    assert _episodic_state(loaded) == _episodic_state(store)
    loaded.save(path)
    assert open(path).read() == text


def _holder(data, section):
    """The object that holds a section's columns: the first procedure's, for "logic"."""
    return data[section] if section != "logic" else data["logic"][0]


def _respell(source, section, column, spelling):
    def plant(data):
        _holder(data, section)[column] = spelling
    return source, section, column, plant, spelling


# One file per store state: each spelling below but the canonical one is refused, the ones
# marked True although they spell the very ints the column holds.
NON_CANONICAL = {
    "count-2": (_respell("shapes", "observations", "video_at", [[0, 2], 1, 1, 2, 2]), True),
    "count-2-in-links": (_respell("shapes", "logic", "episodic_links", [[1, 3], 3, [1, 2], 2, 1, 1]),
                         True),
    "count-0": (_respell("shapes", "episodic", "outcome", [[0, 4], [5, 0], 1, [0, 4]]), True),
    "count-negative": (_respell("shapes", "episodic", "outcome", [[0, 4], [1, -1], 1, [0, 4]]), True),
    "count-true": (_respell("shapes", "episodic", "outcome", [[0, 4], [1, True], [0, 4]]), True),
    "count-float": (_respell("shapes", "episodic", "outcome", [[0, 4.0], 1, [0, 4]]), False),
    "count-string": (_respell("shapes", "episodic", "outcome", [[0, "4"], 1, [0, 4]]), False),
    "run-split-pair-then-int": (_respell("shapes", "episodic", "outcome", [[0, 3], 0, 1, [0, 4]]), True),
    "run-split-int-then-pair": (_respell("shapes", "episodic", "outcome", [0, [0, 3], 1, [0, 4]]), True),
    "run-split-two-pairs": (_respell("v8", "episodic", "anchors_at", [[0, 5], [0, 6], [1, 3]]), True),
    "three-equal-ints": (_respell("v8", "episodic", "anchors_at", [[0, 11], 1, 1, 1]), True),
    "pair-of-1": (_respell("shapes", "episodic", "outcome", [[0, 4], [1], [0, 4]]), False),
    "pair-of-3": (_respell("shapes", "episodic", "outcome", [[0, 4, 0], 1, [0, 4]]), True),
    "pair-in-text_at": (_respell("v8", "episodic", "text_at",
                                 [[0, 1], 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 3, 4, 5]), True),
    "pair-in-attrs_at": (_respell("v8", "episodic", "attrs_at", [0, 1, 2, 0, 1, 2, 0, 1, 2, [3, 5]]),
                         True),
    "pair-in-t": (_respell("v8", "observations", "t",
                           [0.0, 1.0, 2.0, 0.0, 1.0, 2.0, 0.0, 1.0, 2.0, [0.0, 2]]), True),
}


@pytest.mark.parametrize("case,same_ints", NON_CANONICAL.values(), ids=NON_CANONICAL.keys())
def test_non_canonical_runs_rejected(case, same_ints):
    source, section, column, plant, spelling = case
    data = (json.loads(json.dumps(snapshot_dict(shapes_store()))) if source == "shapes"
            else json.loads(open(V8_FIXTURE).read()))
    assert snapshot_dict(store_from_dict(copy.deepcopy(data))) == data
    if same_ints:  # so only its spelling is at fault
        assert unruns(spelling) == unruns(_holder(data, section)[column])
    plant(data)
    with pytest.raises(CorruptSnapshot):
        store_from_dict(data)


@pytest.mark.parametrize("section,column,spelling", [
    ("episodic", "id", [[1, 10**12]]),
    ("observations", "episode_count", [[10**9, 3], [1, 6], 3, 2]),  # 11 counts, as the file holds
    ("logic", "episodic_links", [[1, 10**12]]),
], ids=["episode-ids", "episode-counts", "links"])
def test_a_run_is_refused_before_it_can_allocate(tmp_path, section, column, spelling):
    # A small file cannot ask a load for 10**12 ints: a run column's counts are summed against
    # the rows the file holds before a pair is expanded, and counts against its episodes.
    data = json.loads(open(V8_FIXTURE).read())
    _holder(data, section)[column] = spelling
    path = str(tmp_path / "snap.json")
    open(path, "w").write(json.dumps(data))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB
    start = time.perf_counter()
    with pytest.raises(CorruptSnapshot):
        MemoryStore.load(path)
    assert time.perf_counter() - start < 1.0
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak < 32 * 1024
