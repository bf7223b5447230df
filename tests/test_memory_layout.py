"""What a live store holds once: slotted engine records, and one object for
each distinct episodic text, action, video, outcome and anchor set, whether
the store was built by ingest, loaded from a snapshot or cloned. What an
operation leaves behind: no cyclic garbage, and one support record per
supporter set in a miner's output."""

import dataclasses
import gc
import importlib
import json
import pkgutil
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import memstrata
from memstrata import (
    START,
    ActionSequence,
    Config,
    Description,
    EntityAnchor,
    EpisodicNode,
    MemoryStore,
    ObservationMeta,
    ObservationRecord,
    aggregate_character_behaviors,
    auto_fuse,
    closed_patterns,
    constrained_paths,
    get_procedure_with_evidence,
    goal_reach_probability,
    prefixspan,
    query_step_sequence,
    read_observation_lines,
)
from memstrata import ingest as ingest_module
from memstrata.core import FrozenDict
from conftest import FRUIT_VERBS, fruit_salad_store, plant, random_corpus

DIM = 16


def _engine_dataclasses() -> list:
    found = []
    for info in pkgutil.iter_modules(memstrata.__path__):
        module = importlib.import_module(f"memstrata.{info.name}")
        found += [cls for cls in vars(module).values() if isinstance(cls, type)
                  and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__]
    return found


def test_no_engine_dataclass_gives_its_instances_a_dict():
    # An instance has no __dict__ exactly when every class of its MRO but
    # object declares __slots__ without "__dict__".
    classes = _engine_dataclasses()
    assert {"Config", "EntityAnchor", "EpisodicNode", "SemanticNode", "LogicNode", "DagNode",
            "EdgeStat", "Pattern", "RankedItem", "UpdateReport"} <= {c.__name__ for c in classes}
    with_dict = [cls.__qualname__ for cls in classes
                 if not all("__dict__" not in vars(k).get("__slots__", ("__dict__",))
                            for k in cls.__mro__[:-1])]
    assert with_dict == []
    node = EpisodicNode(1, ("x", None, None), ObservationMeta("v", (1,), 0.0))
    # A frozen slotted dataclass raises TypeError, not AttributeError, on Python 3.11.
    with pytest.raises((AttributeError, TypeError)):
        node.note = "an ad-hoc attribute"


def test_an_episode_holds_six_slots_and_shares_its_text_entry_and_observation(tmp_path):
    # d, v_e and action are read from the store's one entry for the text, and
    # video and t from the one observation that lists the episode.
    assert EpisodicNode.__slots__ == ("id", "text", "obs", "anchors", "outcome", "attrs")
    path = str(tmp_path / "snap.json")
    store = fruit_salad_store(32, pool_trigger=3, delta_gate=0.99)
    store.distill()
    for rec in _pool_records(100):
        store.ingest(rec)
        store.apply(rec)
    store.save(path)
    for built in (store, MemoryStore.load(path), store.clone()):
        nodes = list(built.episodic.values())
        assert len({id(n.obs) for n in nodes}) == sum(bool(m.episodes) for m in built.observations.values())
        assert len({id(n.text) for n in nodes}) == len(built.texts)
        assert all(n.obs is built.observations[rid] for rid, m in built.observations.items()
                   for n in map(built.episodic.get, m.episodes))


def test_a_loaded_episode_and_observation_equal_constructed_ones_field_for_field(tmp_path):
    # A load sets each slot a column at a time, with no __init__: every field is set, each
    # to what the live store's episode or observation holds, and the object equals one
    # constructed from its fields.
    path = str(tmp_path / "snap.json")
    store = fruit_salad_store(32)
    store.ingest(ObservationRecord(50, "v9", 4.0, [], [], []))  # an observation of no episode
    store.save(path)
    loaded = MemoryStore.load(path)
    for live, held, cls in ((store.episodic, loaded.episodic, EpisodicNode),
                            (store.observations, loaded.observations, ObservationMeta)):
        assert held.keys() == live.keys()
        for key, obj in held.items():
            values = [getattr(obj, f.name) for f in dataclasses.fields(cls)]
            assert type(obj) is cls and obj == cls(*values)
            assert list(map(type, values)) == [type(getattr(live[key], f.name)) for f in dataclasses.fields(cls)]
    for node_id, node in loaded.episodic.items():
        twin = store.episodic[node_id]
        assert (node.id, node.d, node.action, node.video, node.t, node.anchors, node.outcome, node.attrs) == \
            (twin.id, twin.d, twin.action, twin.video, twin.t, twin.anchors, twin.outcome, twin.attrs)
        assert node.v_e.tobytes() == twin.v_e.tobytes()
    assert {i: (m.video, m.episodes, m.t) for i, m in loaded.observations.items()} == \
        {i: (m.video, m.episodes, m.t) for i, m in store.observations.items()}


def test_anchor_by_label_gives_the_lowest_id():
    store = MemoryStore(Config(dim=DIM))
    plant(store, anchors={anchor_id: EntityAnchor(anchor_id, label)
                          for anchor_id, label in ((2, "jack"), (3, "ana"), (5, "jack"))})
    assert [store.anchor_by_label(label) for label in ("jack", "ana", "tom")] == [2, 3, None]


def test_plant_refuses_a_layer_key_that_no_store_holds_in_that_place():
    # Each layer iterates in ascending id, so a new key goes above every key held; a replacement
    # keeps its place.
    store = MemoryStore(Config(dim=DIM))
    plant(store, anchors={3: EntityAnchor(3, "jack")})
    with pytest.raises(ValueError, match="anchors key 2 is not above every key held"):
        plant(store, anchors={2: EntityAnchor(2, "ana")})
    plant(store, anchors={3: EntityAnchor(3, "ana"), 4: EntityAnchor(4, "tom")})
    assert [(i, a.label) for i, a in store.anchors.items()] == [(3, "ana"), (4, "tom")]


TEXTS = ("@jack chop the fruit", "@ana chop the fruit", "@ana and @jack mix the fruit",
         "serve the salad", "walk to the store")
CONCLUSIONS = ("@ana is a careful cook", "@jack likes fruit", "bowls are downstairs")
PEOPLE = {"jack": 3, "ana": 5}  # hint -> the one-hot index of its face


def _lines(records) -> list:
    """JSONL lines, so that every record's strings are new objects, as a
    parse of a real stream gives them."""
    lines, clock = [json.dumps({"version": 1})], {}
    for rid, (video, descriptions, conclusions, hinted) in enumerate(records, start=1):
        t = clock[video] = clock.get(video, -1.0) + 1.0
        lines.append(json.dumps({
            "id": rid, "video": video, "t": t,
            "descriptions": [{"text": TEXTS[i], "outcome": outcome, "attrs": {"tool": tool}}
                             for i, outcome, tool in descriptions],
            "conclusions": [{"type": "character", "text": CONCLUSIONS[i]} for i in conclusions],
            "percepts": [{"kind": "face", "hint": hint,
                          "vector": [float(j == PEOPLE[hint]) for j in range(DIM)]}
                         for hint in PEOPLE if rid == 1 or hinted],
        }))
    return lines


RECORDS = st.lists(st.tuples(
    st.sampled_from(("v1", "v2", "v3")),
    st.lists(st.tuples(st.integers(0, len(TEXTS) - 1), st.sampled_from(("success", "failure")),
                       st.sampled_from(("knife", "bowl"))), max_size=3),
    st.lists(st.integers(0, len(CONCLUSIONS) - 1), max_size=2),
    st.booleans(),
), min_size=1, max_size=12)


def _held_once(store) -> None:
    """Every field value below is one object per distinct value, and anchor
    sets are frozensets shared by the episodic and semantic layers."""
    nodes = list(store.episodic.values())
    for name in ("d", "action", "video", "outcome"):
        values = [getattr(n, name) for n in nodes]
        assert len(set(map(id, values))) == len(set(values)), name
    sets = [n.anchors for n in nodes + list(store.semantic.values())]
    assert all(type(s) is frozenset for s in sets)
    assert len(set(map(id, sets))) == len(set(sets))
    # equal attrs are one object, read-only, whose value is that of its canonical JSON
    attrs = [n.attrs for n in nodes]
    assert all(type(a) is FrozenDict for a in attrs)
    assert len(set(map(id, attrs))) == len({json.dumps(a, sort_keys=True) for a in attrs})


@settings(derandomize=True, database=None, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=RECORDS)
def test_each_distinct_value_is_one_object_when_ingested_loaded_and_cloned(tmp_path, records):
    store = MemoryStore(Config(dim=DIM, action_verbs=FRUIT_VERBS))
    for rec in read_observation_lines(_lines(records)):
        store.ingest(rec)
    texts = [TEXTS[i] for _, descriptions, _, _ in records for i, _, _ in descriptions]
    assert sorted({n.d for n in store.episodic.values()}) == sorted(set(texts))
    path = str(tmp_path / "snap.json")
    store.save(path)
    loaded = MemoryStore.load(path)
    for built in (store, loaded, store.clone()):
        _held_once(built)
        assert built.check() == []
    assert [(n.d, n.action, n.video, n.outcome, n.anchors, n.attrs) for n in loaded.episodic.values()] \
        == [(n.d, n.action, n.video, n.outcome, n.anchors, n.attrs) for n in store.episodic.values()]


def test_ingest_parses_each_text_once(monkeypatch):
    parsed = []
    parse = ingest_module.parse_mentions
    monkeypatch.setattr(ingest_module, "parse_mentions", lambda text: parsed.append(text) or parse(text))
    store = MemoryStore(Config(dim=DIM, action_verbs=FRUIT_VERBS))
    [rec] = read_observation_lines(_lines([("v1", [(0, "success", "knife"), (2, "failure", "bowl")],
                                            [0], True)]))
    store.ingest(rec)
    assert parsed == [TEXTS[0], TEXTS[2], CONCLUSIONS[0]]


# -- what an operation leaves behind ----------------------------------------------


def _pool_records(first_id: int) -> list:
    # Two sources of one procedure that the fruit salad's node does not match.
    return [ObservationRecord(first_id + k, f"later{k}", 0.0,
                              [Description(text) for text in
                               ("chop the fruit", "mix the fruit", "pour the juice")], [], [])
            for k in range(2)]


def test_no_operation_leaves_cyclic_garbage(tmp_path):
    # What an operation builds is freed by refcount once it is dropped: a
    # reference cycle would keep it, and all it holds, alive until the next
    # full collection.
    path = str(tmp_path / "snap.json")
    rng = random.Random(19)
    corpus = [ActionSequence(f"v{i}", actions)
              for i, actions in enumerate(random_corpus(rng, max_sequences=6, max_len=10, alphabet=4))]

    def run(name, operation, *args):
        result = operation(*args)
        assert gc.collect() == 0, name
        return result

    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        store = run("ingest", lambda: fruit_salad_store(32, pool_trigger=2, delta_gate=0.99, tau_align=0.5))
        assert run("distill", store.distill) == [1]
        records = _pool_records(100)
        for rec in records:
            run("ingest", store.ingest, rec)
        reports = [run("apply", store.apply, rec) for rec in records]
        assert reports[-1].distilled == [2]
        assert run("auto_fuse", auto_fuse, store)
        run("retrieve", store.retrieve, "how do I make the salad")
        fused = store.logic[max(store.logic)]
        run("query_step_sequence", query_step_sequence, store, fused.c)
        run("get_procedure_with_evidence", get_procedure_with_evidence, store, fused.c)
        run("aggregate_character_behaviors", aggregate_character_behaviors, store,
            store.anchor_by_label("jack"))
        run("goal_reach_probability", goal_reach_probability, fused.dag, START)
        run("constrained_paths", constrained_paths, fused.dag, None)
        run("save", store.save, path)
        loaded = run("load", MemoryStore.load, path)
        run("clone", loaded.clone)
        assert run("prefixspan", prefixspan, corpus, 0.3)
        assert run("closed_patterns", closed_patterns, corpus, 0.3)
    finally:
        if collecting:
            gc.enable()


@pytest.mark.parametrize("miner", [prefixspan, closed_patterns])
def test_patterns_with_one_supporter_set_share_one_support_record(miner):
    rng = random.Random(1919)
    shared = 0
    for _ in range(200):
        corpus = random_corpus(rng, max_sequences=6, max_len=8, alphabet=rng.randint(2, 5))
        sigma = rng.choice([0.2, 0.3, 0.5])
        sequences = [ActionSequence(f"v{i}", actions) for i, actions in enumerate(corpus)]
        by_videos = {}
        for p in miner(sequences, sigma):
            first = by_videos.setdefault(p.supporting_videos, p)
            assert p.supporting_videos is first.supporting_videos
            assert p.support is first.support
            shared += p is not first
    assert shared > 100
