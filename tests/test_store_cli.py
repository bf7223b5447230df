import base64
import copy
import fcntl
import json
import os
import re
import signal
import socket
import stat
import struct
import subprocess
import sys
import warnings
from dataclasses import FrozenInstanceError, replace
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memstrata import (
    GOAL,
    START,
    Conclusion,
    Config,
    ConfigError,
    CorruptSnapshot,
    Description,
    DimensionMismatch,
    EmbedderMismatch,
    HashingEmbedder,
    InvalidInput,
    MalformedRecord,
    MemoryEngineError,
    MemoryStore,
    ObservationRecord,
    Percept,
    SnapshotIoError,
    StoreLocked,
    load_config,
    read_observations,
)
from memstrata.cli import _WriterLock, run_cli
from memstrata.core import dump_config
from memstrata import store as store_module
from memstrata.ingest import OUTCOMES
from memstrata.store import snapshot_dict, store_from_dict
from conftest import (
    FRUIT_VERBS,
    MUTATION_VALUES,
    edge_rows,
    fruit_salad_store,
    jsonl_lines,
    packed,
    plant,
    respelled,
    runs,
    unpacked,
)


def ready_store():
    store = fruit_salad_store()
    store.distill()
    return store


# The version 3 vector encoding, written out from its definition: base64 of a
# little-endian bitmask of the entries whose bit pattern is non-zero, then
# those entries as little-endian float64.


def encode_vector(values) -> str:
    entries = [struct.pack("<d", x) for x in values]
    mask = bytearray((len(entries) + 7) // 8)
    for i, entry in enumerate(entries):
        if entry != bytes(8):
            mask[i // 8] |= 1 << (i % 8)
    return base64.b64encode(bytes(mask) + b"".join(e for e in entries if e != bytes(8))).decode()


def decode_vector(text: str, dim: int) -> list:
    raw = base64.b64decode(text)
    head = (dim + 7) // 8
    values = iter(struct.unpack(f"<{(len(raw) - head) // 8}d", raw[head:]))
    return [next(values) if raw[i // 8] >> (i % 8) & 1 else 0.0 for i in range(dim)]


# -- snapshots -----------------------------------------------------------------


def test_round_trip_empty_store(tmp_path):
    path = str(tmp_path / "snap.json")
    store = MemoryStore(Config(dim=8))
    store.save(path)
    loaded = MemoryStore.load(path)
    assert loaded.stats() == store.stats()
    assert loaded.config.to_dict() == store.config.to_dict()


def test_round_trip_preserves_rankings_bytewise(tmp_path):
    path = str(tmp_path / "snap.json")
    store = ready_store()
    query = "How should Jack make the fruit salad without the bowl?"
    before = store.retrieve(query, k=10)
    store.save(path)
    loaded = MemoryStore.load(path)
    after = loaded.retrieve(query, k=10)
    assert [(i.layer, i.node_id, repr(i.score_init), repr(i.score_final))
            for i in before.ranked] == \
           [(i.layer, i.node_id, repr(i.score_init), repr(i.score_final))
            for i in after.ranked]


def test_round_trip_vectors_bit_equal(tmp_path):
    path = str(tmp_path / "snap.json")
    store = ready_store()
    # EMA drift produces non-trivial decimals to round-trip
    rec = ObservationRecord(999, "vz", 0.0,
                            [Description("chop the fruit"), Description("mix the fruit")], [], [])
    store.ingest(rec)
    store.apply(rec)
    store.save(path)
    loaded = MemoryStore.load(path)
    assert np.array_equal(loaded.logic[1].i_goal, store.logic[1].i_goal)
    assert np.array_equal(loaded.logic[1].i_step, store.logic[1].i_step)
    assert np.array_equal(loaded.anchors[1].centroid_face, store.anchors[1].centroid_face)


def test_two_saves_byte_identical(tmp_path):
    store = ready_store()
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    store.save(p1)
    store.save(p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_save_load_save_byte_identical(tmp_path):
    store = ready_store()
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    store.save(p1)
    MemoryStore.load(p1).save(p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_save_load_save_byte_identical_with_integer_timestamps(tmp_path):
    store = MemoryStore(Config(dim=8))
    store.ingest(ObservationRecord(1, "v", 0, [Description("chop the fruit")], [], []))
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    store.save(p1)
    MemoryStore.load(p1).save(p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_truncated_snapshot_rejected(tmp_path):
    path = str(tmp_path / "snap.json")
    store = ready_store()
    store.save(path)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CorruptSnapshot):
        MemoryStore.load(path)


def test_dangling_reference_rejected(tmp_path):
    path = str(tmp_path / "snap.json")
    store = ready_store()
    store.save(path)
    data = json.loads(Path(path).read_text())
    data["logic"][0]["episodic_links"] = [424242]
    Path(path).write_text(json.dumps(data))
    with pytest.raises(CorruptSnapshot):
        MemoryStore.load(path)


@pytest.mark.parametrize("section,field", [
    ("logic", "i_goal"), ("logic", "i_step"), ("anchors", "face")])
def test_non_finite_snapshot_vector_rejected(tmp_path, section, field):
    path = str(tmp_path / "snap.json")
    ready_store().save(path)
    data = json.loads(Path(path).read_text())
    vec = decode_vector(data[section][0][field], data["config"]["dim"])
    vec[0] = float("nan")
    data[section][0][field] = encode_vector(vec)
    Path(path).write_text(json.dumps(data))
    with pytest.raises(CorruptSnapshot, match="finite floats"):
        MemoryStore.load(path)


@pytest.mark.parametrize("field,value", [
    ("face", 5), ("face", 1.5), ("face", "nested"), ("face", "short"), ("voice", 0.25)])
def test_snapshot_centroid_of_another_shape_rejected(tmp_path, field, value):
    # A centroid is copied into its row: nothing may broadcast into one.
    path = str(tmp_path / "snap.json")
    ready_store().save(path)
    data = json.loads(Path(path).read_text())
    face = data["anchors"][0]["face"]
    data["anchors"][0][field] = {"nested": [face], "short": face[:-1]}.get(value, value)
    Path(path).write_text(json.dumps(data))
    with pytest.raises(CorruptSnapshot):
        MemoryStore.load(path)


def _first_edge(data):
    return data["logic"][0]["dag"]["edges"][0]


@pytest.mark.parametrize("where,value", [
    (lambda d: (d["observations"]["t"], 0), float("nan")),
    (lambda d: (d["logic"][0], "score"), float("nan")),
    (lambda d: (d["logic"][0]["dag"]["nodes"][1], 2), float("nan")),
    (lambda d: (d["logic"][0]["dag"]["nodes"][1], 3), float("inf")),
    (lambda d: (_first_edge(d), 2), float("nan")),
    (lambda d: (_first_edge(d), 2), "3"),
    (lambda d: (_first_edge(d), 3), float("inf")),
    # v1's clock is its latest observation's t: record 3's, at t 2.0
    (lambda d: (d["observations"]["t"], 2), float("nan")),
], ids=["episodic-t", "logic-score", "dag-success_alpha", "dag-success_beta",
        "edge-count", "edge-count-str", "edge-gamma", "video_clock"])
def test_non_finite_snapshot_scalar_rejected(tmp_path, where, value):
    path = str(tmp_path / "snap.json")
    ready_store().save(path)
    data = json.loads(Path(path).read_text())
    entry, key = where(data)
    entry[key] = value
    Path(path).write_text(json.dumps(data))
    with pytest.raises(CorruptSnapshot, match="is not a finite number"):
        MemoryStore.load(path)


@pytest.mark.parametrize("where", [
    lambda d: (d["anchors"][0], "face_count"),
    lambda d: (d["semantic"][0], "weight"),
    lambda d: (d["counters"], "node"),
    lambda d: (d["episodic"]["id"], 0),
    lambda d: (d["observations"]["id"], 0),
], ids=["anchor-face_count", "semantic-weight", "counter-node", "episodic-id",
        "observation-id"])
def test_mistyped_snapshot_number_rejected(tmp_path, where):
    # The invariant sweep compares these numbers; a string must be refused
    # as a corrupt snapshot, not escape as a TypeError.
    path = str(tmp_path / "snap.json")
    ready_store().save(path)
    data = json.loads(Path(path).read_text())
    entry, key = where(data)
    entry[key] = "x"
    Path(path).write_text(json.dumps(data))
    with pytest.raises(CorruptSnapshot):
        MemoryStore.load(path)


@pytest.mark.parametrize("steps", ["chop_fruit", {"chop_fruit": 1}, None, 5],
                         ids=["str", "object", "null", "int"])
def test_snapshot_logic_steps_that_are_not_a_list_rejected(steps):
    # A str's characters or an object's keys would load as steps, and re-save as another file.
    data = json.loads(json.dumps(snapshot_dict(ready_store())))
    data["logic"][0]["steps"] = steps
    with pytest.raises(CorruptSnapshot, match=f"logic {data['logic'][0]['id']}: steps are not a list$"):
        store_from_dict(data)


def _leaf_paths(value, path=()):
    """Paths to every scalar and every empty list or object in ``value``."""
    if isinstance(value, (dict, list)) and value:
        keys = sorted(value) if isinstance(value, dict) else range(len(value))
        for key in keys:
            yield from _leaf_paths(value[key], path + (key,))
    else:
        yield path


def _attrs_keys(data):
    """Paths to a new key in each attrs object: each of the episodic attrs table's, and
    each DAG step's."""
    yield from (("episodic", "attrs", i, "n") for i in range(len(data["episodic"]["attrs"])))
    yield from (("logic", i, "dag", "nodes", j, 1, "n") for i, node in enumerate(data["logic"])
                for j in range(len(node["dag"]["nodes"])))


def test_snapshot_mutation_sweep_raises_only_typed_errors(tmp_path):
    # Each leaf of a snapshot, and a new key in each attrs object, set in turn to each
    # mutation value: a load refuses it with a typed error, or gives a store that passes
    # check() and saves.
    path = str(tmp_path / "snap.json")
    store = fruit_salad_store(dim=32)
    store.distill()
    store.save(path)
    base = json.loads(Path(path).read_text())
    escaped = []
    for where in chain(_leaf_paths(base), _attrs_keys(base)):
        for value in MUTATION_VALUES:
            data = copy.deepcopy(base)
            entry = data
            for key in where[:-1]:
                entry = entry[key]
            entry[where[-1]] = value
            try:
                loaded = store_from_dict(data)
                violations = loaded.check()
            except MemoryEngineError:
                continue
            except Exception as exc:
                escaped.append((where, value, repr(exc)))
                continue
            if violations:
                escaped.append((where, value, violations[0]))
                continue
            try:
                loaded.save(path)
            except Exception as exc:
                escaped.append((where, value, f"loaded, then save raised {exc!r}"))
    assert escaped == []


def test_save_refuses_non_finite_value_with_typed_error(tmp_path):
    path = str(tmp_path / "snap.json")
    store = ready_store()
    plant(store, logic={1: replace(store.logic[1], score=float("nan"))})  # no engine call makes it
    assert store.check() == ["logic 1: score nan is not a finite number"]
    with pytest.raises(SnapshotIoError, match=re.escape(store.check()[0]) + "$"):
        store.save(path)
    assert not os.path.exists(path) and not os.path.exists(path + ".tmp")


def test_save_syncs_file_then_directory(tmp_path, monkeypatch):
    path = str(tmp_path / "snap.json")
    synced = []
    real_fsync = os.fsync

    def fsync(fd):
        st = os.fstat(fd)
        # the file is synced before it replaces the snapshot, the
        # directory after
        synced.append((stat.S_ISDIR(st.st_mode), st.st_ino, os.path.exists(path)))
        real_fsync(fd)
    monkeypatch.setattr(os, "fsync", fsync)
    ready_store().save(path)
    assert synced == [(False, os.stat(path).st_ino, False),
                      (True, os.stat(str(tmp_path)).st_ino, True)]


# -- snapshot v2: recomputed vectors and the embedder record -------------------


class WordLengthEmbedder:
    """A custom embedder: 1.0 per token at index len(token) mod dim."""

    def __init__(self, dim):
        self.dim = dim

    def embed(self, text):
        v = np.zeros(self.dim)
        for token in text.split():
            v[len(token) % self.dim] += 1.0
        n = np.linalg.norm(v)
        return v / n if n else v


def _custom_store():
    store = MemoryStore(Config(dim=16), embedder=WordLengthEmbedder(16))
    for rid, (video, text) in enumerate([
            ("v1", "chop the fruit"), ("v1", "mix the fruit"), ("v2", "chop the fruit"),
            ("v2", "mix the fruit"), ("v2", "serve the salad bowl")], start=1):
        store.ingest(ObservationRecord(
            rid, video, float(rid), [Description(text)],
            [Conclusion("knowledge", "bowls are in the kitchen")] if rid == 5 else [], []))
    store.distill()
    assert store.logic and store.semantic
    return store


def _ranking(store, query):
    return [(i.layer, i.node_id, repr(i.score_final)) for i in store.retrieve(query, k=10).ranked]


def test_custom_embedder_store_reloads_with_its_embedder(tmp_path):
    path = str(tmp_path / "snap.json")
    store = _custom_store()
    store.save(path)
    loaded = MemoryStore.load(path, embedder=WordLengthEmbedder(16))
    for query in ("chop fruit", "where are the bowls?", "serve the salad"):
        assert _ranking(loaded, query) == _ranking(store, query)
    assert loaded.check() == []


def test_custom_embedder_store_refused_without_its_embedder(tmp_path):
    path = str(tmp_path / "snap.json")
    _custom_store().save(path)
    with pytest.raises(EmbedderMismatch) as err:
        MemoryStore.load(path)
    message = str(err.value)
    assert "test_store_cli.WordLengthEmbedder" in message
    assert HashingEmbedder.name in message


class CountingEmbedder(HashingEmbedder):
    """The default embedding, under its own name, counting its calls."""

    name = "counting-hash"

    def __init__(self, dim):
        super().__init__(dim)
        self.calls = 0

    def embed(self, text):
        self.calls += 1
        return super().embed(text)


def test_load_embeds_each_text_once(tmp_path):
    path = str(tmp_path / "snap.json")
    store = fruit_salad_store(dim=64)
    store.distill()
    store.embedder = CountingEmbedder(64)
    store.save(path)
    embedder = CountingEmbedder(64)
    loaded = MemoryStore.load(path, embedder=embedder)
    texts = {node.d for node in loaded.episodic.values()}
    assert len(texts) < len(loaded.episodic)
    assert embedder.calls == len(texts) + len(loaded.semantic)


def test_load_with_an_embedder_of_another_dim_is_a_mismatch(tmp_path):
    path = str(tmp_path / "snap.json")
    _custom_store().save(path)
    for embedder in (WordLengthEmbedder(8), HashingEmbedder(8), object()):
        with pytest.raises(EmbedderMismatch):
            MemoryStore.load(path, embedder=embedder)


@pytest.mark.parametrize("dim", [None, 8, 16.0, "16", True])
def test_store_refuses_an_embedder_of_another_dim(dim):
    embedder = WordLengthEmbedder(16)
    if dim is None:
        del embedder.dim
    else:
        embedder.dim = dim
    with pytest.raises(ConfigError, match="embedder dim"):
        MemoryStore(Config(dim=16), embedder=embedder)


class FixedOutputEmbedder:
    """Declares the store's dim, then returns ``output`` for every text."""

    def __init__(self, dim, output):
        self.dim = dim
        self.output = output

    def embed(self, text):
        return self.output


def _refusal(output):
    """What ``store.embed`` raises for an embedder ``output`` that is not 8 finite floats."""
    return DimensionMismatch if isinstance(output, np.ndarray) and output.shape != (8,) else InvalidInput


# The embedder's output is refused where the store takes it, before any mutation, and the
# store holds each vector it took read-only: no store holds another, so check() has no rule on it.


@pytest.mark.parametrize("output", [np.ones(3) / np.sqrt(3), np.full(8, np.nan)],
                         ids=["3-vector", "nan"])
def test_a_bad_embedder_is_refused_at_ingest_and_retrieve(output):
    cfg = Config(dim=8, action_verbs=("chop", "mix"))
    records = [ObservationRecord(
        rid, video, 0.0, [Description("chop the fruit"), Description("mix the fruit")],
        [Conclusion("knowledge", "fruit is sweet")], []) for rid, video in enumerate(("v1", "v2"), start=1)]
    store = MemoryStore(cfg, embedder=FixedOutputEmbedder(8, output))
    with pytest.raises(_refusal(output)):
        store.ingest(records[0])
    with pytest.raises(_refusal(output)):
        store.retrieve("chop the fruit")
    assert not store.episodic and not store.texts and store.check() == []


@pytest.mark.parametrize("output", [
    None, "text", 1.0, [0.0] * 8, np.zeros(8, dtype=np.int64), np.zeros(8, dtype=complex),
    np.zeros(8, dtype=object), np.zeros((8, 1)), np.zeros((1, 8)), np.full(8, np.inf),
    np.float64(0.5), np.zeros(0)])
def test_any_embedder_output_that_is_not_a_vector_is_refused(output):
    rec = ObservationRecord(1, "v1", 0.0, [Description("chop the fruit")], [], [])
    store = MemoryStore(Config(dim=8), embedder=FixedOutputEmbedder(8, output))
    with pytest.raises(_refusal(output)):
        store.ingest(rec)
    assert not store.episodic and store.check() == []


class OneTextEmbedder(HashingEmbedder):
    """The hashing embedder but for ``text``: there it returns ``output``, or raises
    when ``output`` is None."""

    def __init__(self, dim, text, output):
        super().__init__(dim)
        self.text, self.output = text, output

    def embed(self, text):
        if text != self.text:
            return super().embed(text)
        if self.output is None:
            raise RuntimeError(f"cannot embed {text!r}")
        return self.output


@pytest.mark.parametrize("text", ["@jack mix the fruit", "@jack likes fruit"],
                         ids=["description", "conclusion"])
@pytest.mark.parametrize("output", [np.ones(3) / np.sqrt(3), np.full(8, np.nan), None],
                         ids=["3-vector", "nan", "raises"])
def test_a_refused_ingest_leaves_the_store_as_it_was(tmp_path, text, output):
    # The record's percept, its new episode and its conclusion would each change the
    # store; a bad vector for its new text or its conclusion is refused before any of them.
    store = MemoryStore(Config(dim=8, action_verbs=("chop", "mix")),
                        embedder=OneTextEmbedder(8, text, output))
    jack = np.eye(8)[3]
    store.ingest(ObservationRecord(1, "v1", 0.0, [Description("@jack chop the fruit")],
                                   [Conclusion("character", "@jack likes sweet things")],
                                   [Percept("face", jack, "jack")]))
    before = str(tmp_path / "before.json")
    store.save(before)
    rec = ObservationRecord(2, "v1", 1.0, [Description("@jack mix the fruit")],
                            [Conclusion("character", "@jack likes fruit")],
                            [Percept("face", jack, "jack")])
    with pytest.raises(RuntimeError if output is None else _refusal(output)):
        store.ingest(rec)
    assert store.check() == []
    after = str(tmp_path / "after.json")
    store.save(after)
    assert Path(after).read_bytes() == Path(before).read_bytes()
    assert store.anchors[1].face_count == 1 and 2 not in store.observations


def test_check_accepts_any_finite_float_vector():
    # The rule is shape, dtype kind and finiteness: no norm, no sparsity.
    for output in (np.zeros(8), np.full(8, 1e300), np.arange(8, dtype=np.float32)):
        store = MemoryStore(Config(dim=8), embedder=FixedOutputEmbedder(8, output))
        store.ingest(ObservationRecord(1, "v1", 0.0, [Description("chop the fruit")], [], []))
        assert store.check() == []


def test_load_of_a_finite_vector_whose_square_overflows_warns_nothing(tmp_path):
    # x·x of np.full(8, 1e300) overflows; the vector is finite all the same.
    path = str(tmp_path / "snap.json")
    embedder = FixedOutputEmbedder(8, np.full(8, 1e300))
    store = MemoryStore(Config(dim=8), embedder=embedder)
    store.ingest(ObservationRecord(1, "v1", 0.0, [Description("chop the fruit")], [], []))
    store.save(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert MemoryStore.load(path, embedder=embedder).check() == []


def test_a_percept_whose_square_overflows_ingests_whole_and_warns_nothing(tmp_path):
    # Record 2's second face, finite, has an x·x that overflows: it scores 0 against the first
    # anchor and founds its own, after the first face has matched the first anchor.
    face = np.zeros(8)
    face[0] = 1.0
    store = MemoryStore(Config(dim=8))
    store.ingest(ObservationRecord(1, "v1", 0.0, [Description("@jack chop the fruit")], [],
                                   [Percept("face", face, "jack")]))
    paths = [str(tmp_path / "snap.json"), str(tmp_path / "again.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        store.ingest(ObservationRecord(2, "v1", 1.0, [Description("@jill mix the fruit")], [],
                                       [Percept("face", face, "jack"),
                                        Percept("face", np.full(8, 1e200), "jill")]))
        assert sorted(store.observations) == [1, 2]
        assert [(a.label, a.face_count) for a in store.anchors.values()] == [("jack", 2), ("jill", 1)]
        assert store.check() == []
        store.save(paths[0])
        MemoryStore.load(paths[0]).save(paths[1])
    with open(paths[0], "rb") as first, open(paths[1], "rb") as second:
        assert first.read() == second.read()


def test_retrieve_and_distill_over_vectors_whose_square_overflows_warn_nothing():
    store = MemoryStore(Config(dim=8), embedder=FixedOutputEmbedder(8, np.full(8, 1e300)))
    for i in range(6):
        store.ingest(ObservationRecord(i + 1, f"v{i % 3}", float(i),
                                       [Description("chop the fruit"), Description("mix the fruit")],
                                       [], []))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert store.retrieve("chop the fruit").ranked == []  # every score is below theta
        assert store.distill() == [1, 2]
        assert store.check() == []


def test_v9_snapshot_names_embedder_and_stores_nothing_derivable(tmp_path):
    path = str(tmp_path / "snap.json")
    store = ready_store()
    store.save(path)
    text = Path(path).read_text()
    assert "\n" not in text[:-1] and text.endswith("\n")
    data = json.loads(text)
    assert data["version"] == 9
    assert data["embedder"] == {"name": "hashing-fnv1a64", "dim": 512}
    assert data["observations"]["id"] and data["semantic"]
    assert all("v" not in entry for entry in data["semantic"])
    assert "video_clock" not in data  # each video's latest observation gives it
    # each distinct video, text, anchor set and attrs once, in first-use order as the file
    # lists the nodes, and one column per observation field and per episode field, ids as
    # differences, text_at and attrs_at packed and each other int column in runs: no vector,
    # action, video or own t
    metas = [meta for _, meta in sorted(store.observations.items())]
    nodes = [store.episodic[i] for meta in metas for i in meta.episodes]
    videos = list(dict.fromkeys(meta.video for meta in metas))
    texts = list(dict.fromkeys(node.d for node in nodes))
    anchors = list(dict.fromkeys(tuple(sorted(node.anchors)) for node in nodes))
    attrs = [json.loads(a) for a in dict.fromkeys(json.dumps(node.attrs, sort_keys=True)
                                                  for node in nodes)]
    assert len(texts) < len(nodes) and len(attrs) < len(nodes) and len(videos) < len(metas)
    obs_ids, ep_ids = sorted(store.observations), [node.id for node in nodes]
    assert data["observations"] == {
        "videos": videos, "id": runs([b - a for a, b in zip([0] + obs_ids, obs_ids)]),
        "video_at": runs([videos.index(meta.video) for meta in metas]),
        "t": [meta.t for meta in metas], "episode_count": runs([len(meta.episodes) for meta in metas])}
    assert data["episodic"] == {
        "texts": texts, "attrs": attrs, "anchors": list(map(list, anchors)),
        "id": runs([b - a for a, b in zip([0] + ep_ids, ep_ids)]),
        "text_at": packed([texts.index(n.d) for n in nodes]),
        "anchors_at": runs([anchors.index(tuple(sorted(n.anchors))) for n in nodes]),
        "outcome": runs([OUTCOMES.index(n.outcome) for n in nodes]),
        "attrs_at": packed([attrs.index(n.attrs) for n in nodes])}
    assert any(type(x) is list for x in data["episodic"]["outcome"])  # a run, here
    # no anchor count, percept count or logic anchors; links as gaps, in runs; DAGs as rows, each
    # edge by its ends' node rows
    assert "percept_count" not in data and "count" not in data["anchors"][0]
    node, logic = store.logic[1], data["logic"][0]
    links = sorted(node.episodic_links)
    assert "anchors" not in logic and len(links) > 1
    assert logic["episodic_links"] == runs([links[0]] + [b - a for a, b in zip(links, links[1:])])
    labels = [START] + sorted(node.dag.step_labels()) + [GOAL]
    assert logic["dag"]["nodes"] == [
        [label, node.dag.nodes[label].attrs, node.dag.nodes[label].success_alpha,
         node.dag.nodes[label].success_beta] for label in labels]
    assert logic["dag"]["edges"] == edge_rows(logic["dag"]["nodes"], [[src, dst, stat.count, stat.gamma]
                                                                      for src, dst, stat in node.dag.edges()])
    # every stored vector is the v3 encoding of the store's own floats
    anchor = store.anchors[1]
    assert logic["i_goal"] == encode_vector(node.i_goal.tolist())
    assert logic["i_step"] == encode_vector(node.i_step.tolist())
    assert data["anchors"][0]["face"] == encode_vector(anchor.centroid_face.tolist())


# snapshot_v8_dim8.json holds the store of snapshot_v7_dim8.json, which the
# version 7 writer wrote from a Config(dim=8, delta_gate=0.9) store: three
# sources of "@jack chop the fruit", "@jack mix the fruit in a bowl", "@jack
# serve the salad" at t 0, 1, 2 (record ids 1-9, attrs {"step": i}; on each
# source's first a "jack" face percept, of [0,0,0,1,0,0,0,0],
# [0,.6,0,.8,0,0,0,0] and [0,0,0,.9,.1,0,1e-310,0] in turn; the character
# conclusion "@jack is a careful cook" on each last), then distill(); then
# source v4 (record 10: chop, mix, "walk the dog") ingested and applied
# (matched, EMA), and source v5 (record 11: "wash the car", "dry the car")
# ingested and applied (pooled).
# It was loaded by the version 7 reader and saved by the version 8 writer.
# snapshot_v9_dim8.json holds the same store, built again from this recipe and
# saved by the version 9 writer: it is snapshot_v8_dim8.json with the version,
# text_at, attrs_at and edge rows spelled anew, and nothing else. It pins the
# version 9 bytes across changes to the code that writes them.
V9_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "snapshot_v9_dim8.json")


def test_v9_fixture_loads_and_saves_byte_identically(tmp_path):
    store = MemoryStore.load(V9_FIXTURE)
    assert store.check() == []
    stats = store.stats()
    assert (stats["anchors"], stats["episodic"], stats["logic"], stats["pool"]) == (1, 14, 1, 1)
    assert store.pool == (11,)
    path = str(tmp_path / "snap.json")
    store.save(path)
    assert Path(path).read_bytes() == Path(V9_FIXTURE).read_bytes()


# snapshot_v{1,...,8}_dim8.json were written by the version 1-8 writers from
# this recipe or a shorter form of it. No reader of those versions is kept:
# each is refused by its number, as an unknown one is.
@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8])
def test_snapshot_of_an_older_version_refused_by_its_number(version):
    path = os.path.join(os.path.dirname(__file__), "data", f"snapshot_v{version}_dim8.json")
    assert json.loads(Path(path).read_text())["version"] == version
    with pytest.raises(CorruptSnapshot, match=f"^unsupported snapshot version {version}$"):
        MemoryStore.load(path)


def test_load_links_each_procedure_to_its_episodes_own_ids(tmp_path):
    # As ingest links them: a loaded store holds each episode id once, not
    # once more per link. Ids above 256, which Python does not cache.
    path = str(tmp_path / "snap.json")
    store = MemoryStore(Config(dim=32, action_verbs=FRUIT_VERBS))
    for rid in range(1, 101):
        store.ingest(ObservationRecord(rid, f"v{rid}", 0.0, [
            Description("chop the fruit"), Description("mix the fruit"),
            Description("serve the salad")], [], []))
    store.distill()
    store.save(path)
    loaded = MemoryStore.load(path)
    links = [i for node in loaded.logic.values() for i in node.episodic_links]
    assert max(links) > 256
    assert all(i is loaded.episodic[i].id for i in links)
    data = json.loads(Path(path).read_text())
    data["logic"][0]["episodic_links"][-1] = 10**6  # the last link, to no episode
    with pytest.raises(CorruptSnapshot, match="^logic 1: dangling episodic link$"):
        store_from_dict(data)


_TABLE_OF = {"text_at": "texts", "attrs_at": "attrs"}  # the episodic table a packed index column indexes


def _retable(data, column, key):
    """Rebuild the episodic table that index column ``column`` indexes in first-use
    order, with ``key(position, value)`` deciding which episodes share an entry."""
    tables = data["episodic"]
    name = _TABLE_OF[column]

    def change(indexes):
        values = [tables[name][at] for at in indexes]
        first: dict = {}
        tables[name] = []
        for position, value in enumerate(values):
            indexes[position] = first.setdefault(key(position, value), len(tables[name]))
            if indexes[position] == len(tables[name]):
                tables[name].append(value)
    tables[column] = respelled(tables[column], change)


def _repeat_position(data, column):
    seen = set()
    return next(i for i, at in enumerate(unpacked(data["episodic"][column])) if at in seen or seen.add(at))


def _index(column, value):
    def plant(data):
        at = _repeat_position(data, column)
        data["episodic"][column] = respelled(data["episodic"][column],
                                             lambda indexes: indexes.__setitem__(at, value(data)))
    return plant


def _duplicate_entry(column, reorder=False):
    # the first repeat gets an entry of its own, equal to the one it repeats
    def plant(data):
        at = _repeat_position(data, column)
        _retable(data, column, lambda position, value: (
            position == at, json.dumps(value, sort_keys=True)))
        if reorder:  # the same keys in another order: {"step": .., "n": 1}, {"n": 1, "step": ..}
            attrs, k = data["episodic"]["attrs"], unpacked(data["episodic"]["attrs_at"])[at]
            attrs[attrs.index(attrs[k])]["n"] = 1
            attrs[k] = {"n": 1, **attrs[k]}
    return plant


def _unused_entry(name, entry):
    def plant(data):
        data["episodic"][name].append(entry)
    return plant


def _swap_first_uses(column):
    # the first two entries trade places, and every index with them
    def plant(data):
        tables = data["episodic"]
        name = _TABLE_OF[column]
        tables[name][:2] = tables[name][1::-1]
        tables[column] = respelled(tables[column], lambda indexes: indexes.__setitem__(
            slice(None), [{0: 1, 1: 0}.get(at, at) for at in indexes]))
    return plant


def _column_length(section, column, change):
    def plant(data):
        if column in _TABLE_OF:  # a packed column, as the indexes it spells
            data[section][column] = respelled(data[section][column], change)
        else:
            change(data[section][column])
    return plant


TEXTS, ATTRS = "episodic text table", "episodic attrs table"
# an index that no packed column can hold leaves the column a JSON list, the version 8 spelling
NOT_PACKED = "^episodic column '{}': not a str of packed ints$"
EPISODE_COLUMNS = "^episodic columns are not of one length$"
OBSERVATION_COLUMNS = "^observation columns are not of one length$"


@pytest.mark.parametrize("plant,match", [
    (_index("text_at", lambda d: -1), NOT_PACKED.format("text_at")),
    (_index("text_at", lambda d: True), NOT_PACKED.format("text_at")),
    (_index("text_at", lambda d: 1.0), NOT_PACKED.format("text_at")),
    (_index("text_at", lambda d: len(d["episodic"]["texts"])), TEXTS),
    (_index("text_at", lambda d: "0"), NOT_PACKED.format("text_at")),
    (_index("attrs_at", lambda d: -1), NOT_PACKED.format("attrs_at")),
    (_index("attrs_at", lambda d: True), NOT_PACKED.format("attrs_at")),
    (_index("attrs_at", lambda d: len(d["episodic"]["attrs"])), ATTRS),
    (_duplicate_entry("text_at"), TEXTS), (_duplicate_entry("attrs_at"), ATTRS),
    (_duplicate_entry("attrs_at", reorder=True), ATTRS),
    (_unused_entry("texts", "an unused text"), TEXTS), (_unused_entry("attrs", {"unused": 1}), ATTRS),
    (_swap_first_uses("text_at"), TEXTS), (_swap_first_uses("attrs_at"), ATTRS),
    # the *-row-* cases: a column one entry longer or shorter than the others of its section; a
    # run column (outcome) longer than them is refused before it is expanded
    (_column_length("episodic", "outcome", lambda column: column.append(1)),
     "^episodic column 'outcome': more than 14 ints$"),
    (_column_length("episodic", "attrs_at", list.pop), EPISODE_COLUMNS),
    (_column_length("observations", "t", lambda column: column.append(0.0)), OBSERVATION_COLUMNS),
    (_column_length("observations", "episode_count", list.pop), OBSERVATION_COLUMNS),
], ids=["text-minus-one", "text-true", "text-float", "text-past-end", "text-string",
        "attrs-minus-one", "attrs-true", "attrs-past-end", "text-duplicate", "attrs-duplicate",
        "attrs-duplicate-reordered", "text-unused", "attrs-unused", "text-out-of-order",
        "attrs-out-of-order", "episode-row-6", "episode-row-4", "observation-row-5",
        "observation-row-3"])
def test_non_canonical_v5_tables_rejected(plant, match):
    # One store state, one file: no other tables for the same nodes load.
    data = json.loads(Path(V9_FIXTURE).read_text())
    assert store_from_dict(copy.deepcopy(data)).check() == []
    plant(data)
    with pytest.raises(CorruptSnapshot, match=match):
        store_from_dict(data)


def _put(*path_and_value):
    *path, value = path_and_value

    def plant(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return plant


def _drop(*path):
    def plant(data):
        for key in path[:-1]:
            data = data[key]
        del data[path[-1]]
    return plant


KEY_PLANTS = {
    "anchor-count": (_put("anchors", 0, "count", 3), "anchor"),
    "percept_count": (_put("percept_count", 3), "top level"),
    "logic-anchors": (_put("logic", 0, "anchors", [1]), "logic node"),
    "semantic-v": (_put("semantic", 0, "v", "AA=="), "semantic node"),
    "counters-extra": (_put("counters", "video", 1), "counters"),
    "dag-extra": (_put("logic", 0, "dag", "paths", 2), "dag"),
    "episodic-extra": (_put("episodic", "vectors", []), "episodic"),
    "observations-extra": (_put("observations", "clock", []), "observations"),
    "video-clock": (_put("video_clock", {"v1": 2.0}), "top level"),  # a load derives the clock
    "config-alpha-missing": (_drop("config", "alpha"), "config"),
}


@pytest.mark.parametrize("plant,kind", KEY_PLANTS.values(), ids=KEY_PLANTS.keys())
def test_object_with_keys_the_writer_does_not_write_rejected(plant, kind):
    # A load reads only the keys the writer writes: any other would be dropped,
    # and a missing config key defaulted, so the file would re-save as another.
    data = json.loads(Path(V9_FIXTURE).read_text())
    assert store_from_dict(copy.deepcopy(data)).check() == []
    plant(data)
    with pytest.raises(CorruptSnapshot, match=f"^snapshot {kind}: not an object with exactly the keys"):
        store_from_dict(data)


COUNTER_PLANTS = {
    "logic-counter-at-a-logic-id": (_put("counters", "logic", 1), "logic 1: id beyond counter"),
    "semantic-id-at-the-node-counter": (_put("semantic", 0, "id", 16),
                                        "semantic 16: id beyond counter"),
    "node-counter-float": (_put("counters", "node", 16.0),
                           "counter node: 16.0 is not a positive int"),
    "anchor-counter-float": (_put("counters", "anchor", 2.0),
                             "counter anchor: 2.0 is not a positive int"),
}


@pytest.mark.parametrize("plant,violation", COUNTER_PLANTS.values(), ids=COUNTER_PLANTS.keys())
def test_snapshot_counter_that_would_hand_out_a_held_id_rejected(plant, violation):
    # The next distill, fuse or ingest takes its id from the counter: one at or
    # below a held id overwrites that node, and a float one makes float ids.
    data = json.loads(Path(V9_FIXTURE).read_text())
    assert data["counters"] == {"anchor": 2, "logic": 2, "node": 16}
    plant(data)
    with pytest.raises(CorruptSnapshot, match=f"^{re.escape(violation)}$"):
        store_from_dict(data)


@pytest.mark.parametrize("name", ["next_node_id", "next_anchor_id", "next_logic_id"])
def test_check_reports_a_counter_that_is_not_a_positive_int(name):
    data = json.loads(Path(V9_FIXTURE).read_text())
    counter = {"next_node_id": "node", "next_anchor_id": "anchor", "next_logic_id": "logic"}[name]
    for value in (float(data["counters"][counter]), True, "x", None):
        planted = copy.deepcopy(data)
        planted["counters"][counter] = value
        violation = f"counter {counter}: {value!r} is not a positive int"
        with pytest.raises(CorruptSnapshot, match=f"^{re.escape(violation)}$"):
            store_from_dict(planted)


@pytest.mark.parametrize("name", ["next_node_id", "next_anchor_id", "next_logic_id"])
def test_store_whose_counter_is_not_a_positive_int_is_reported_and_not_saved(tmp_path, name):
    # A load refuses such a counter, so a save must not write one.
    path = str(tmp_path / "snap.json")
    store = MemoryStore.load(V9_FIXTURE)
    plant(store, **{name: float(getattr(store, name))})
    violation = store.check()[0]
    assert violation.startswith(f"counter {name.split('_')[1]}: ")
    with pytest.raises(SnapshotIoError, match=re.escape(violation)):
        store.save(path)
    assert not os.path.exists(path) and not os.path.exists(path + ".tmp")


def test_attrs_are_one_entry_per_canonical_json(tmp_path):
    # 1, 1.0 and true are distinct JSON; key order, nested too, is not.
    path = str(tmp_path / "snap.json")
    store = MemoryStore(Config(dim=8))
    attrs = [{"n": 1}, {"n": 1.0}, {"n": True}, {"n": 1},
             {"a": {"x": 1, "y": [2]}, "b": 0}, {"b": 0, "a": {"y": [2], "x": 1}}]
    for rid, a in enumerate(attrs, start=1):
        store.ingest(ObservationRecord(rid, "v", float(rid), [Description("chop the fruit", a)],
                                       [], []))
    store.save(path)
    data = json.loads(Path(path).read_text())
    assert data["episodic"]["texts"] == ["chop the fruit"]
    assert data["episodic"]["attrs_at"] == packed([0, 1, 2, 0, 3, 3])
    loaded = MemoryStore.load(path)
    assert [repr(loaded.episodic[i].attrs) for i in sorted(loaded.episodic)][:4] == \
           ["{'n': 1}", "{'n': 1.0}", "{'n': True}", "{'n': 1}"]
    assert snapshot_dict(loaded) == snapshot_dict(store)


@pytest.mark.parametrize("verbs", ["chop", {"chop": 1, "mix": 2}, 5], ids=["str", "object", "int"])
def test_a_snapshot_whose_action_verbs_are_not_a_list_is_refused(tmp_path, verbs):
    # tuple() would split a string into its letters, or take an object's keys, and the store
    # would re-save as another file.
    path = str(tmp_path / "snap.json")
    fruit_salad_store(dim=32).save(path)
    data = json.loads(Path(path).read_text())
    data["config"]["action_verbs"] = verbs
    with pytest.raises(ConfigError, match="action_verbs must be a list of non-empty strings"):
        Config.from_dict(data["config"])
    with pytest.raises(CorruptSnapshot, match="snapshot config invalid: action_verbs"):
        store_from_dict(data)


def test_a_stores_action_verbs_are_fixed_so_check_derives_no_action(tmp_path, monkeypatch):
    # A load derives each action from the store's verbs, which no caller can change after
    # ingest: check() re-derives none of them, and the store loads with the actions it held.
    path = str(tmp_path / "snap.json")
    store = fruit_salad_store(dim=32)
    store.distill()
    with pytest.raises(FrozenInstanceError):
        store.config.action_verbs = ("serve",)
    with pytest.raises(AttributeError):
        store.config = replace(store.config, action_verbs=("serve",))
    calls = []
    real = store_module.extract_action
    monkeypatch.setattr(store_module, "extract_action",
                        lambda text, verbs: calls.append(text) or real(text, verbs))
    assert store.check() == [] and calls == []
    store.save(path)
    loaded = MemoryStore.load(path)
    assert [n.action for n in loaded.episodic.values()] == [n.action for n in store.episodic.values()]
    assert loaded.episodic[1].action == "chop_fruit"


@pytest.mark.parametrize("trigger", [0, "5"], ids=["zero", "string"])
def test_an_invalid_config_is_refused_by_construction_and_by_load(tmp_path, trigger):
    # No store can hold an invalid config, so none is saved; a snapshot that holds one is refused.
    path = str(tmp_path / "snap.json")
    store = fruit_salad_store(dim=32)
    store.distill()
    message = f"pool_trigger must be a positive integer, got {trigger!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        replace(store.config, pool_trigger=trigger)
    with pytest.raises(FrozenInstanceError):
        store.config.pool_trigger = trigger
    store.save(path)
    data = json.loads(Path(path).read_text())
    data["config"]["pool_trigger"] = trigger
    with pytest.raises(CorruptSnapshot, match=re.escape(f"snapshot config invalid: {message}")):
        store_from_dict(data)


SPECIAL_FLOATS = np.array([0.0, -0.0, 5e-324, -2.2e-308, 1.5, np.inf, np.nan])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(1, 600), st.integers(0, 2**32 - 1), st.sampled_from(["dense", "sparse", "special"]))
def test_vector_encoding_is_bit_exact_and_refuses_every_other_string(dim, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "dense":  # every bit pattern: subnormals, inf and NaN payloads included
        vec = np.frombuffer(rng.bytes(8 * dim), dtype="<f8").astype(np.float64)
    elif kind == "sparse":
        vec = np.zeros(dim)
        at = rng.choice(dim, size=min(dim, 6), replace=False)
        vec[at] = rng.choice(SPECIAL_FLOATS, size=len(at)) * rng.choice([1.0, 0.1], size=len(at))
    else:
        vec = rng.choice(SPECIAL_FLOATS, size=dim)
    text = store_module._vec(vec)
    assert text == encode_vector(vec.tolist())
    back = store_module._vec_from(text, dim, "v")
    assert back.dtype == np.float64 and back.shape == (dim,)
    assert back.view(np.uint64).tolist() == vec.view(np.uint64).tolist()
    raw = base64.b64decode(text)
    head = (dim + 7) // 8
    zero_at = next((i for i in range(dim) if not raw[i // 8] >> (i % 8) & 1), None)
    bad = [text[:-4], text[:-1], text + "=", text + "AAAA",
           base64.b64encode(raw + bytes(8)).decode(), base64.b64encode(raw[:-8]).decode(),
           "!" + text[1:], "\u00e9" + text[1:], 5, None, [0.0] * dim]
    if dim % 8:  # a mask bit past the last entry, with a value for it
        stray = raw[:head - 1] + bytes([raw[head - 1] | 0x80]) + raw[head:] + struct.pack("<d", 1.0)
        bad.append(base64.b64encode(stray).decode())
    if zero_at is not None:  # a mask bit on a zero entry, with no value for it
        flipped = bytearray(raw)
        flipped[zero_at // 8] |= 1 << (zero_at % 8)
        bad.append(base64.b64encode(bytes(flipped)).decode())
    for other in bad:
        with pytest.raises(CorruptSnapshot):
            store_module._vec_from(other, dim, "v")


def test_bad_version_rejected(tmp_path):
    path = str(tmp_path / "snap.json")
    Path(path).write_text('{"version": 99}')
    with pytest.raises(CorruptSnapshot):
        MemoryStore.load(path)


@pytest.mark.parametrize("version", [True, 2.0, "3", 5.0, 6.0, 7.0, 8.0, 9.0])
def test_version_of_another_type_rejected(version):
    # 9.0 == 9 in Python: a version must be the int, not just equal it.
    data = json.loads(Path(V9_FIXTURE).read_text())
    data["version"] = version
    with pytest.raises(CorruptSnapshot, match="unsupported snapshot version"):
        store_from_dict(data)


def test_out_of_range_config_rejected(tmp_path):
    path = str(tmp_path / "snap.json")
    store = MemoryStore(Config(dim=8))
    store.save(path)
    data = json.loads(Path(path).read_text())
    data["config"]["alpha"] = 7.0
    Path(path).write_text(json.dumps(data))
    with pytest.raises(CorruptSnapshot):
        MemoryStore.load(path)


def test_check_clean_after_lifecycle():
    store = ready_store()
    rec = ObservationRecord(500, "vy", 0.0,
                            [Description("chop the fruit"), Description("wash the bowl"),
                             Description("mix the fruit")], [], [])
    store.ingest(rec)
    store.apply(rec)
    assert store.check() == []


# -- CLI -----------------------------------------------------------------------------


FIXTURE_RECORDS = []
_rid = 0
for _video in ("v1", "v2", "v3"):
    for _ti, (_text, _attrs) in enumerate([
        ("@jack chop the fruit", {"tool": "knife"}),
        ("@jack mix the fruit in a bowl", {"tool": "bowl"}),
        ("@jack serve the salad", {"tool": "plate"}),
    ]):
        _rid += 1
        _rec = {"id": _rid, "video": _video, "t": float(_ti),
                "descriptions": [{"text": _text, "attrs": _attrs}]}
        if _ti == 0:
            _vec = [0.0] * 512
            _vec[3] = 1.0
            _rec["percepts"] = [{"kind": "face", "vector": _vec, "hint": "jack"}]
        FIXTURE_RECORDS.append(_rec)


@pytest.fixture
def obs_file(tmp_path):
    path = tmp_path / "obs.jsonl"
    path.write_text(jsonl_lines(FIXTURE_RECORDS))
    return str(path)


def _check_clean(store_dir, capsys):
    # the invariant sweep must pass after every CLI command
    assert run_cli(["--store", store_dir, "check"]) == 0
    assert "check: ok" in capsys.readouterr().out


def test_cli_lifecycle(tmp_path, obs_file, capsys):
    store_dir = str(tmp_path / "store")
    assert run_cli(["--store", store_dir, "ingest", obs_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("format: 1\n")
    assert "ingested: 9 records, 9 episodic nodes" in out
    _check_clean(store_dir, capsys)

    assert run_cli(["--store", store_dir, "distill"]) == 0
    out = capsys.readouterr().out
    assert "distilled: 1 logic nodes" in out
    _check_clean(store_dir, capsys)

    assert run_cli(["--store", store_dir, "query", "--text",
                    "How should Jack make the fruit salad without the bowl?",
                    "--where", "tool=neq:bowl", "-k", "5"]) == 0
    out = capsys.readouterr().out
    assert "paths_total: 1" in out
    assert "paths_surviving: 0" in out

    assert run_cli(["--store", store_dir, "proc", "--goal",
                    "procedure: chop_fruit → mix_fruit → serve_salad"]) == 0
    out = capsys.readouterr().out
    assert "path 1: p=1.000000 steps=chop_fruit->mix_fruit->serve_salad" in out
    assert "calls: 1" in out

    assert run_cli(["--store", store_dir, "character", "--person", "jack"]) == 0
    out = capsys.readouterr().out
    assert "behaviors: 1" in out

    assert run_cli(["--store", store_dir, "expect", "--goal",
                    "procedure: chop_fruit → mix_fruit → serve_salad",
                    "--from", "mix_fruit"]) == 0
    out = capsys.readouterr().out
    assert "steps=2.000000" in out

    assert run_cli(["--store", store_dir, "stats"]) == 0
    out = capsys.readouterr().out
    assert "logic: 1" in out

    assert run_cli(["--store", store_dir, "check"]) == 0
    out = capsys.readouterr().out
    assert "check: ok" in out


def test_cli_stats_on_fresh_store(tmp_path, capsys):
    assert run_cli(["--store", str(tmp_path / "fresh"), "stats"]) == 0
    out = capsys.readouterr().out
    assert "episodic: 0" in out
    assert "logic: 0" in out


def test_cli_update_and_fuse(tmp_path, obs_file, capsys):
    store_dir = str(tmp_path / "store")
    run_cli(["--store", store_dir, "ingest", obs_file])
    run_cli(["--store", store_dir, "distill"])
    capsys.readouterr()

    upd = tmp_path / "upd.jsonl"
    upd.write_text(jsonl_lines([
        {"id": 100, "video": "v9", "t": 0.0,
         "descriptions": ["chop the fruit", "mix the fruit", "serve the salad"]},
    ]))
    assert run_cli(["--store", store_dir, "ingest", str(upd)]) == 0
    capsys.readouterr()
    assert run_cli(["--store", store_dir, "update", str(upd)]) == 0
    out = capsys.readouterr().out
    assert "record 100: matched=1" in out
    assert "inc=2" in out

    assert run_cli(["--store", store_dir, "fuse", "--auto"]) == 0
    out = capsys.readouterr().out
    assert "fused: 0 merges" in out  # single node, nothing to fuse
    _check_clean(store_dir, capsys)


def test_cli_fuse_two_nodes(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    records = []
    rid = 0
    for video, middle in [("a1", "mix"), ("a2", "mix"),
                          ("b1", "blend the fruit"), ("b2", "blend the fruit")]:
        texts = ["chop the fruit",
                 f"{middle} the fruit" if middle == "mix" else middle,
                 "serve the salad"]
        for t, text in enumerate(texts):
            rid += 1
            records.append({"id": rid, "video": video, "t": float(t),
                            "descriptions": [text]})
    obs = tmp_path / "variants.jsonl"
    obs.write_text(jsonl_lines(records))
    conf = tmp_path / "engine.json"
    conf.write_text('{"version": 1, "action_verbs": ["chop", "mix", "blend", "serve"]}\n')
    run_cli(["--store", store_dir, "--config", str(conf), "ingest", str(obs)])
    run_cli(["--store", store_dir, "distill"])
    capsys.readouterr()

    # nodes: 1 = the shared chop->serve fragment (support 1.0), then the
    # two full variants in lexicographic order: 2 = blend, 3 = mix
    assert run_cli(["--store", store_dir, "fuse", "--node", "2", "--node", "3"]) == 0
    out = capsys.readouterr().out
    assert "merge: 2+3 -> 4" in out
    assert "align: chop_fruit <-> chop_fruit sim=1.000000" in out
    assert "only-first: blend_fruit" in out
    assert "only-second: mix_fruit" in out
    _check_clean(store_dir, capsys)

    assert run_cli(["--store", store_dir, "proc", "--goal",
                    "procedure: chop_fruit → mix_fruit → serve_salad"]) == 0
    out = capsys.readouterr().out
    assert "paths_total: 2" in out


def test_cli_update_requires_prior_ingest(tmp_path, obs_file, capsys):
    store_dir = str(tmp_path / "store")
    run_cli(["--store", store_dir, "ingest", obs_file])
    capsys.readouterr()
    upd = tmp_path / "upd.jsonl"
    upd.write_text(jsonl_lines([
        {"id": 9999, "video": "vz", "t": 0.0, "descriptions": ["chop the fruit"]}]))
    assert run_cli(["--store", store_dir, "update", str(upd)]) == 2


def test_cli_update_refuses_a_line_whose_attrs_json_cannot_carry(tmp_path, capsys):
    # An ingested id whose update line holds NaN attrs: the reader refuses the file before any
    # record is applied, so the saved snapshot keeps its bytes.
    store_dir = str(tmp_path / "store")
    obs = os.path.join(os.path.dirname(__file__), "data", "fruit_salad.jsonl")
    assert run_cli(["--store", store_dir, "ingest", obs]) == 0
    snapshot = os.path.join(store_dir, "snapshot.json")
    with open(snapshot, "rb") as fh:
        before = fh.read()
    capsys.readouterr()
    upd = tmp_path / "upd.jsonl"
    upd.write_text(jsonl_lines([
        {"id": 1, "video": "v1", "t": 0.0,
         "descriptions": [{"text": "chop the fruit", "attrs": {"tool": float("nan")}}]}]))
    assert "NaN" in upd.read_text()
    assert run_cli(["--store", store_dir, "update", str(upd)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: attrs of 'chop the fruit' hold what JSON cannot carry exactly\n"
    with open(snapshot, "rb") as fh:
        assert fh.read() == before


def test_cli_exit_codes(tmp_path, obs_file, capsys):
    store_dir = str(tmp_path / "store")
    with pytest.raises(SystemExit) as exc:
        run_cli(["--store", store_dir, "frobnicate"])
    assert exc.value.code == 1
    assert run_cli(["--store", store_dir, "ingest", str(tmp_path / "missing.jsonl")]) == 2
    # duplicate ingest of the same ids is a data error
    run_cli(["--store", store_dir, "ingest", obs_file])
    capsys.readouterr()
    assert run_cli(["--store", store_dir, "ingest", obs_file]) == 2


@pytest.mark.parametrize("input_file", ["config", "observations", "snapshot"])
def test_non_utf8_input_is_a_typed_error(tmp_path, obs_file, capsys, input_file):
    # A Latin-1 byte in each file the engine reads: the loader raises its
    # typed error and the CLI reports it without a traceback.
    store_dir = tmp_path / "store"
    if input_file == "config":
        path = tmp_path / "engine.json"
        path.write_bytes(b'{"version": 1, "action_verbs": ["caf\xe9"]}\n')
        args, error, load = ["--config", str(path), "stats"], ConfigError, load_config
    elif input_file == "observations":
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b'{"version": 1}\n{"id": 1, "video": "caf\xe9", "t": 0.0}\n')
        args, error, load = ["ingest", str(path)], MalformedRecord, read_observations
    else:
        assert run_cli(["--store", str(store_dir), "ingest", obs_file]) == 0
        path = store_dir / "snapshot.json"
        path.write_bytes(path.read_bytes().replace(b"fruit", b"fr\xfcit"))
        args, error, load = ["stats"], CorruptSnapshot, MemoryStore.load
    with pytest.raises(error, match="not UTF-8"):
        load(str(path))
    capsys.readouterr()
    assert run_cli(["--store", str(store_dir)] + args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "not UTF-8" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("input_file", ["observations", "snapshot"])
def test_json_nested_past_the_recursion_limit_is_a_typed_error(tmp_path, obs_file, capsys, input_file):
    # json reads a level at a time on the stack: a file that nests past the recursion limit is
    # bad data, refused by the loader's typed error, and the CLI reports it without a traceback.
    store_dir, deep = tmp_path / "store", "[" * 100_000 + "1" + "]" * 100_000
    if input_file == "observations":
        path = tmp_path / "deep.jsonl"
        path.write_text('{"version": 1}\n{"id": 1, "video": "v", "t": 0.0, "descriptions": '
                        '[{"text": "chop", "attrs": {"k": %s}}], "conclusions": [], "percepts": []}\n' % deep)
        args, error, load, message = ["ingest", str(path)], MalformedRecord, read_observations, \
            "line 2: JSON nests too deep to read"
    else:
        assert run_cli(["--store", str(store_dir), "ingest", obs_file]) == 0
        path = store_dir / "snapshot.json"
        path.write_text(path.read_text().replace('"pool":[', '"pool":[%s,' % deep, 1))
        args, error, load, message = ["stats"], CorruptSnapshot, MemoryStore.load, \
            "snapshot nests too deep to read"
    with pytest.raises(error, match=f"^{message}$"):
        load(str(path))
    capsys.readouterr()
    assert run_cli(["--store", str(store_dir)] + args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_an_int_too_long_to_read_in_a_record_line_is_a_typed_error(tmp_path, capsys):
    path = tmp_path / "long.jsonl"
    path.write_text('{"version": 1}\n{"id": %s, "video": "v", "t": 0.0}\n' % ("9" * 5000))
    with pytest.raises(MalformedRecord, match="^line 2: bad JSON: Exceeds the limit"):
        read_observations(str(path))
    assert run_cli(["--store", str(tmp_path / "store"), "ingest", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: bad JSON: ")


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unreadable_observation_file_is_a_typed_error(tmp_path, capsys, where):
    path = str(tmp_path / "missing.jsonl") if where == "missing" else str(tmp_path)
    with pytest.raises(MalformedRecord, match=f"^cannot read {re.escape(path)}: "):
        read_observations(path)
    capsys.readouterr()
    assert run_cli(["--store", str(tmp_path / "store"), "ingest", path]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


@pytest.mark.parametrize("k", ["0", "-1"])
def test_cli_query_refuses_k_below_1(tmp_path, obs_file, capsys, k):
    store_dir = str(tmp_path / "store")
    assert run_cli(["--store", store_dir, "ingest", obs_file]) == 0
    capsys.readouterr()
    assert run_cli(["--store", store_dir, "query", "--text", "chop the fruit", "-k", k]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: k must be an int of at least 1, got {k}\n"


@pytest.mark.parametrize("command", [["character"], ["query", "--text", "chop the fruit"]],
                         ids=["character", "query"])
def test_cli_person_of_digits_that_are_not_ascii_is_a_label(tmp_path, obs_file, capsys, command):
    # "²".isdigit() holds, but int("²") raises: the argument is read as a label, which no anchor has.
    store_dir = str(tmp_path / "store")
    assert run_cli(["--store", store_dir, "ingest", obs_file]) == 0
    capsys.readouterr()
    assert run_cli(["--store", store_dir, *command, "--person", "\u00b2"]) == 2
    assert capsys.readouterr().err == "error: no anchor named '\u00b2'\n"


def _dead_pid():
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait(timeout=60)  # reaped: no process has this pid now
    return child.pid


@pytest.mark.parametrize("owner", [lambda: "", lambda: f"{_dead_pid()} {socket.gethostname()}"],
                         ids=["empty", "dead"])
def test_cli_lock_blocks_writers(tmp_path, obs_file, capsys, owner):
    # Only the held flock blocks, whatever the file holds; the file is never unlinked.
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    lock = store_dir / ".lock"
    lock.write_text(owner())
    with open(lock) as held:
        fcntl.flock(held, fcntl.LOCK_EX)
        assert run_cli(["--store", str(store_dir), "ingest", obs_file]) == 2
        err = capsys.readouterr().err
        assert "locked" in err
        assert lock.exists()
    assert run_cli(["--store", str(store_dir), "ingest", obs_file]) == 0
    assert lock.exists()


@pytest.mark.parametrize("owner", [
    lambda: f"{_dead_pid()} {socket.gethostname()}",
    lambda: f"{os.getpid()} {socket.gethostname()}",
    lambda: f"{_dead_pid()} not-{socket.gethostname()}",
    lambda: "",
    lambda: f"0 {socket.gethostname()}",
    lambda: f"{10 ** 30} {socket.gethostname()}",
    lambda: f"-{_dead_pid()} {socket.gethostname()}",
], ids=["dead", "live", "foreign-host", "empty", "pid-0", "pid-overflow", "pid-negative"])
def test_cli_leftover_lock_of_any_content_blocks_no_writer(tmp_path, obs_file, capsys, owner):
    # Only a held flock locks: the file's contents, here what the pid/host lock file
    # protocol wrote or a writer killed mid-write left, mean nothing.
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    lock = store_dir / ".lock"
    content = owner()
    lock.write_text(content)
    assert run_cli(["--store", str(store_dir), "ingest", obs_file]) == 0
    assert "locked" not in capsys.readouterr().err
    assert lock.read_text() == content  # never written, never unlinked


def test_cli_lock_blocks_a_second_writer_lock(tmp_path):
    store_dir = tmp_path / "store"
    with _WriterLock(str(store_dir)):
        with pytest.raises(StoreLocked):
            with _WriterLock(str(store_dir)):
                pass
    assert (store_dir / ".lock").exists()
    with _WriterLock(str(store_dir)):
        pass


def _writer_commands(obs_file):
    return [["ingest", obs_file], ["distill"], ["update", obs_file], ["fuse", "--auto"]]


def _refuse_a_read(*args, **kwargs):
    raise AssertionError("a writer read the snapshot under a held lock")


def test_cli_held_lock_refuses_every_writer_before_it_reads_the_snapshot(
        tmp_path, obs_file, capsys, monkeypatch):
    # The holder is another open file of this process: flock locks open files, not processes.
    store_dir = str(tmp_path / "store")
    assert run_cli(["--store", store_dir, "ingest", obs_file]) == 0
    snapshot = os.path.join(store_dir, "snapshot.json")
    with open(snapshot, "rb") as f:
        before = f.read()
    capsys.readouterr()
    with open(os.path.join(store_dir, ".lock")) as held:
        fcntl.flock(held, fcntl.LOCK_EX)
        for command in _writer_commands(obs_file):
            with monkeypatch.context() as patch:
                patch.setattr(MemoryStore, "load", _refuse_a_read)
                assert run_cli(["--store", store_dir, *command]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: store is locked by another writer: ")
        for reader in (["stats"], ["check"], ["query", "--text", "chop the fruit"]):
            assert run_cli(["--store", store_dir, *reader]) == 0
    with open(snapshot, "rb") as f:
        assert f.read() == before


def _lock_holder(store_dir):
    """A child process that holds the writer lock on ``store_dir`` until its stdin closes."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys\n"
            "from memstrata.cli import _WriterLock\n"
            "with _WriterLock(sys.argv[1]):\n"
            "    print('held', flush=True)\n"
            "    sys.stdin.read()\n")
    child = subprocess.Popen([sys.executable, "-c", code, str(store_dir)], env=env,
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    assert child.stdout.readline() == "held\n"
    return child


def test_cli_lock_held_by_another_process_refuses_every_writer(tmp_path, obs_file, capsys):
    store_dir = str(tmp_path / "store")
    assert run_cli(["--store", store_dir, "ingest", obs_file]) == 0
    snapshot = os.path.join(store_dir, "snapshot.json")
    with open(snapshot, "rb") as f:
        before = f.read()
    capsys.readouterr()
    with _lock_holder(store_dir) as holder:  # its exit closes the holder's stdin and waits
        for command in _writer_commands(obs_file):
            assert run_cli(["--store", store_dir, *command]) == 2
            assert "locked" in capsys.readouterr().err
        assert run_cli(["--store", store_dir, "stats"]) == 0
    assert holder.returncode == 0
    with open(snapshot, "rb") as f:
        assert f.read() == before
    assert run_cli(["--store", store_dir, "distill"]) == 0


def test_cli_lock_of_a_killed_writer_blocks_no_later_writer(tmp_path, obs_file, capsys):
    store_dir = tmp_path / "store"
    with _lock_holder(store_dir) as holder:
        assert run_cli(["--store", str(store_dir), "ingest", obs_file]) == 2
        holder.kill()
    assert holder.returncode == -signal.SIGKILL
    assert run_cli(["--store", str(store_dir), "ingest", obs_file]) == 0
    assert (store_dir / ".lock").exists()


def test_cli_check_exits_2_naming_the_first_violation_of_a_load(tmp_path, obs_file, capsys):
    # check is the load's own sweep: a snapshot with two violations is refused whole,
    # naming the first, and left as it was.
    store_dir = str(tmp_path / "store")
    assert run_cli(["--store", store_dir, "ingest", obs_file]) == 0
    snapshot = Path(store_dir, "snapshot.json")
    snapshot.write_text(snapshot.read_text().replace('"pool":[]', '"pool":[999,1,1]', 1))
    before = snapshot.read_bytes()
    capsys.readouterr()
    assert run_cli(["--store", store_dir, "check"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: pool entry references unknown observation 999\n"
    assert snapshot.read_bytes() == before


def test_cli_pool_distill_without_registered_plugins_exits_2(tmp_path, capsys):
    conf = tmp_path / "engine.json"
    conf.write_text(json.dumps({"version": 1, "pool_trigger": 2, "verifier": "external"}))
    obs = tmp_path / "obs.jsonl"
    obs.write_text(jsonl_lines([{"id": i, "video": f"v{i}", "t": 0.0,
                                 "descriptions": ["chop the fruit", "mix the fruit"]} for i in (1, 2)]))
    store_dir = str(tmp_path / "store")
    assert run_cli(["--store", store_dir, "--config", str(conf), "ingest", str(obs)]) == 0
    snapshot = Path(store_dir, "snapshot.json")
    before = snapshot.read_bytes()
    capsys.readouterr()
    assert run_cli(["--store", store_dir, "update", str(obs)]) == 2  # the second record fills the pool
    out, err = capsys.readouterr()
    assert out == "" and err == "error: external verifier/goal_namer selected but not registered\n"
    assert snapshot.read_bytes() == before


def test_cli_config_applies_to_new_store(tmp_path, capsys):
    conf = tmp_path / "engine.json"
    conf.write_text(dump_config(Config(dim=32)))
    store_dir = str(tmp_path / "store")
    obs = tmp_path / "obs.jsonl"
    obs.write_text(jsonl_lines([
        {"id": 1, "video": "v", "t": 0.0, "descriptions": ["open the door"]}]))
    assert run_cli(["--store", store_dir, "--config", str(conf), "ingest", str(obs)]) == 0
    capsys.readouterr()
    snap = json.loads(Path(os.path.join(store_dir, "snapshot.json")).read_text())
    assert snap["config"]["dim"] == 32


def test_cli_no_logic_baseline(tmp_path, obs_file, capsys):
    store_dir = str(tmp_path / "store")
    run_cli(["--store", store_dir, "ingest", obs_file])
    run_cli(["--store", store_dir, "distill"])
    capsys.readouterr()
    assert run_cli(["--store", store_dir, "proc", "--goal",
                    "How should Jack make the fruit salad?", "--no-logic"]) == 0
    out = capsys.readouterr().out
    assert "mode: episodic-baseline" in out
    calls = int(out.strip().splitlines()[-1].split(": ")[1])
    assert calls >= 3


def test_cli_malformed_where(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--store", str(tmp_path / "s"), "query", "--text", "x",
                 "--where", "notaclause"])
    assert exc.value.code == 1
