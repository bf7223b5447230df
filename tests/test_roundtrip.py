"""Property: every store the API can build saves, loads clean and re-saves
to the same bytes.

Hypothesis draws sequences of ingest, apply, distill and auto_fuse calls;
after each call the store is saved, loaded, checked and saved again.
"""

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from memstrata import (
    Conclusion,
    Config,
    Description,
    MemoryStore,
    ObservationRecord,
    Percept,
    auto_fuse,
)
from conftest import one_hot

DIM = 32
VERBS = ("chop", "mix", "serve", "wash", "blend")
LINES = ("chop the fruit", "mix the fruit", "serve the salad", "wash the bowl",
         "blend the fruit", "walk to the store")
PERSONS = ("jack", "ana")

ingest_op = st.tuples(
    st.just("ingest"),
    st.sampled_from(("v1", "v2", "v3")),
    st.lists(st.tuples(st.sampled_from(LINES), st.booleans()), min_size=1, max_size=4),
    st.sampled_from((None,) + PERSONS),
    st.sampled_from(("face", "voice")),
    st.sampled_from((None, "bowls are downstairs", "fruit is sweet")),
)
apply_op = st.tuples(st.just("apply"), st.integers(0, 40))
ops = st.lists(st.one_of(ingest_op, ingest_op, apply_op, st.just(("distill",)),
                         st.just(("auto_fuse",))), max_size=14)


def _run(store, op, records, clock):
    kind = op[0]
    if kind == "ingest":
        _, video, lines, person, percept_kind, conclusion = op
        mention = f"@{person} " if person else ""
        rec = ObservationRecord(
            len(records) + 1, video, float(clock.get(video, 0)),
            [Description(mention + text, outcome="success" if ok else "failure")
             for text, ok in lines],
            [Conclusion("knowledge", mention + conclusion)] if conclusion else [],
            [Percept(percept_kind, one_hot(PERSONS.index(person), DIM), person)]
            if person else [])
        clock[video] = clock.get(video, 0) + 1
        store.ingest(rec)
        records.append(rec)
    elif kind == "apply" and records:
        store.apply(records[op[1] % len(records)])
    elif kind == "distill":
        store.distill()
    elif kind == "auto_fuse":
        auto_fuse(store)


@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops)
def test_every_saved_store_loads_clean_and_resaves_identically(tmp_path_factory, sequence):
    path = os.path.join(tmp_path_factory.mktemp("roundtrip"), "snap.json")
    store = MemoryStore(Config(dim=DIM, action_verbs=VERBS, pool_trigger=3))
    records, clock = [], {}
    for op in sequence:
        _run(store, op, records, clock)
        assert store.check() == []
        store.save(path)
        first = open(path, "rb").read()
        loaded = MemoryStore.load(path)
        assert loaded.check() == []
        loaded.save(path)
        assert open(path, "rb").read() == first
