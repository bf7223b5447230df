"""What a live store holds once: slotted engine records, and one object for
each distinct episodic text, action, video, outcome and anchor set, whether
the store was built by ingest, loaded from a snapshot or cloned."""

import dataclasses
import importlib
import json
import pkgutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import memstrata
from memstrata import Config, EntityAnchor, EpisodicNode, MemoryStore, read_observation_lines
from memstrata import ingest as ingest_module
from conftest import FRUIT_VERBS

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
    node = EpisodicNode(1, 0.0, "x")
    with pytest.raises(AttributeError):
        node.note = "an ad-hoc attribute"


def test_anchor_by_label_gives_the_lowest_id_in_any_dict_order():
    store = MemoryStore(Config(dim=DIM))
    for anchor_id, label in ((5, "jack"), (2, "jack"), (3, "ana")):
        store.anchors[anchor_id] = EntityAnchor(anchor_id, label)
    assert [store.anchor_by_label(label) for label in ("jack", "ana", "tom")] == [2, 3, None]


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
    assert len({id(n.attrs) for n in nodes}) == len(nodes)  # each node's own dict


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
