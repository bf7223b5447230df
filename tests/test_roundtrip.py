"""Property: every store the API can build saves, loads clean and re-saves
to the same bytes.

Hypothesis draws sequences of ingest, apply, distill, fuse and auto_fuse calls,
at vector scales up to 1.5e308 in the second test; after each call the store is
saved, loaded, checked and saved again.
"""

import os
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from memstrata import (
    Conclusion,
    Config,
    Description,
    FusionCycle,
    HashingEmbedder,
    MemoryStore,
    ObservationRecord,
    Percept,
    auto_fuse,
    fuse_logic_nodes,
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


def _run(store, op, records, clock, percept_scale=1.0):
    kind = op[0]
    if kind == "ingest":
        _, video, lines, person, percept_kind, conclusion = op
        mention = f"@{person} " if person else ""
        rec = ObservationRecord(
            len(records) + 1, video, float(clock.get(video, 0)),
            [Description(mention + text, outcome="success" if ok else "failure")
             for text, ok in lines],
            [Conclusion("knowledge", mention + conclusion)] if conclusion else [],
            [Percept(percept_kind, one_hot(PERSONS.index(person), DIM) * percept_scale, person)]
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
    elif kind == "fuse" and len(store.logic) >= 2:
        ids = sorted(store.logic)
        first = op[1] % len(ids)
        second = (first + 1 + op[2] % (len(ids) - 1)) % len(ids)
        try:
            fuse_logic_nodes(store, ids[first], ids[second])
        except FusionCycle:  # refused before any change
            pass


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
        first = Path(path).read_bytes()
        loaded = MemoryStore.load(path)
        assert loaded.check() == []
        loaded.save(path)
        assert Path(path).read_bytes() == first


# 1e150 squares to 1e300; at 1e200 and above a vector's x·x overflows, and at 1.5e308
# the sum of two entries does.
SCALES = (1.0, 1e150, 1e200, 1.5e308)


class ScaledEmbedder(HashingEmbedder):
    """The default embedding, a unit vector, times ``scale``."""

    name = "scaled-hash"

    def __init__(self, dim, scale):
        super().__init__(dim)
        self.scale = scale

    def embed(self, text):
        return super().embed(text) * self.scale


# Two procedures, each in three videos of its own, that every example starts from, so
# that a distill has patterns to mine and a fuse has pairs. "fruit" in every step makes
# it the largest entry of both goal vectors, and of each procedure's step mean.
BASE = [(("ingest", f"{name}{i}", [(f"{verb} the fruit", True) for verb in verbs], None, "face",
          None), 1.0)
        for name, verbs in (("p", ("chop", "mix", "serve")), ("q", ("wash", "blend", "serve")))
        for i in range(3)]
fuse_op = st.tuples(st.just("fuse"), st.integers(0, 40), st.integers(0, 40))
scaled_ops = st.lists(st.tuples(st.one_of(ingest_op, ingest_op, apply_op, st.just(("distill",)),
                                          fuse_op, st.just(("auto_fuse",))),
                                st.sampled_from(SCALES)), max_size=12)


@settings(derandomize=True, database=None, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(SCALES), scaled_ops)
def test_every_store_of_any_finite_scale_saves_loads_and_resaves_identically(
        tmp_path_factory, scale, sequence):
    # Each step's scale multiplies the percept an ingest carries.
    path = os.path.join(tmp_path_factory.mktemp("scaled"), "snap.json")
    store = MemoryStore(Config(dim=DIM, action_verbs=VERBS, pool_trigger=3),
                        ScaledEmbedder(DIM, scale))
    records, clock = [], {}
    for op, percept_scale in BASE + sequence:
        _run(store, op, records, clock, percept_scale)
        assert store.check() == []
        store.save(path)
        first = Path(path).read_bytes()
        MemoryStore.load(path, embedder=ScaledEmbedder(DIM, scale)).save(path)
        assert Path(path).read_bytes() == first

