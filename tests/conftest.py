"""Shared fixture builders for the test suite."""

import base64
import importlib
import json
import random
import struct
import sys
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest

from memstrata import (
    GOAL,
    START,
    Conclusion,
    Config,
    Description,
    MemoryStore,
    ObservationRecord,
    Percept,
    ProceduralDag,
)

FRUIT_VERBS = ("chop", "mix", "serve", "wash", "blend", "grab", "pour", "slice")
FRUIT_STEPS = ("chop the fruit", "mix the fruit", "serve the fruit")
DISH_STEPS = ("wash the dish", "dry the dish", "stack the dish")

# What each mutation sweep puts, in turn, in every field it reaches: a string, null,
# an empty list and object, a negative int, an int beyond float precision, a
# fraction, a bool and NaN.
MUTATION_VALUES = ("x", None, [], {}, -1, 2**70, 1.5, True, float("nan"))


def runs(ints) -> list:
    """The snapshot spelling (since version 8) of a run column, by ``itertools.groupby``: each maximal
    run of 3 or more equal ints as ``[value, count]``, every other int as it is."""
    spelled = []
    for value, group in groupby(ints):
        count = len(list(group))
        spelled += [[value, count]] if count >= 3 else [value] * count
    return spelled


def unruns(column) -> list:
    """The ints that ``runs`` spelled as ``column``."""
    return [v for x in column for v in ([x[0]] * x[1] if type(x) is list else [x])]


_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}  # the struct format of each width a packed column has


def packed(ints) -> str:
    """The version 9 snapshot spelling of an index column (``text_at``, ``attrs_at``), by
    ``struct``: base64 of a width byte, the fewest of 1, 2, 4 and 8 bytes that holds the largest
    index, then each index little-endian at that width."""
    width = next(w for w in _FORMATS if max(ints, default=0) < 256 ** w)
    return base64.b64encode(struct.pack(f"<B{len(ints)}{_FORMATS[width]}", width, *ints)).decode()


def unpacked(text) -> list:
    """The indexes that ``packed`` spelled as ``text``."""
    raw = base64.b64decode(text)
    return list(struct.unpack(f"<{(len(raw) - 1) // raw[0]}{_FORMATS[raw[0]]}", raw[1:]))


def respelled(column, change):
    """Change, in place, the ints that an index column (``packed``) or a run column (``runs``)
    spells, and spell them again; a change that leaves an index no packed column can hold (a
    negative, a bool, a float, a str) leaves the column a JSON list of them, the version 8
    spelling."""
    ints = unpacked(column) if type(column) is str else unruns(column)
    change(ints)
    if type(column) is not str:
        return runs(ints)
    return packed(ints) if all(type(i) is int and i >= 0 for i in ints) else ints


def edge_rows(nodes, edges) -> list:
    """Edge rows by label, ``[src, dst, count, gamma]``, as the version 9 snapshot spells them:
    ``[i, j, count, gamma]``, ``i`` and ``j`` the node rows of the ends, sorted by ``(i, j)``."""
    row = {node[0]: i for i, node in enumerate(nodes)}
    return sorted([row[src], row[dst], count, gamma] for src, dst, count, gamma in edges)


def bench_gen():
    """The bench's seeded input generator, ``bench/gen.py``."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        return importlib.import_module("gen")
    finally:
        sys.path.remove(bench)


LAYERS = ("anchors", "episodic", "semantic", "logic")  # each iterates in ascending id


def plant(store: MemoryStore, **state) -> None:
    """Put in a live store what no engine call and no file would: each keyword names a private
    field (``episodic`` for ``store._episodic``, ``next_node_id`` for ``store._next_node_id``); a
    dict value updates that dict, and any other value replaces the field. A new key goes last, so
    a new key of one of the ``LAYERS`` must be above every key already there, as no store holds a
    layer out of id order; a replacement keeps its key's place. The store then builds its kept
    state again (``_build_kept``), as a load does."""
    for name, value in state.items():
        if type(value) is dict:
            held = getattr(store, "_" + name)
            for key, item in value.items():
                if name in LAYERS and key not in held and held and key <= max(held):
                    raise ValueError(f"plant: {name} key {key!r} is not above every key held")
                held[key] = item
        else:
            setattr(store, "_" + name, value)
    store._build_kept()


def one_hot(index: int, dim: int) -> np.ndarray:
    v = np.zeros(dim)
    v[index] = 1.0
    return v


class TableEmbedder:
    """Gives each text a new copy of the vector its table holds, as the embedder contract asks:
    the store makes the array it takes read-only."""

    def __init__(self, dim: int, table: dict):
        self.dim = dim
        self.table = table

    def embed(self, text: str) -> np.ndarray:
        return self.table[text].copy()


class ProbeEmbedder:
    """Gives ``vector_of(text)`` where that is not None, and otherwise a one-hot vector
    on entry ``sum(map(ord, text)) % (dim - 1)``, so no text but a probed one reaches
    the last entry."""

    def __init__(self, dim: int, vector_of):
        self.dim = dim
        self.vector_of = vector_of

    def embed(self, text: str) -> np.ndarray:
        vector = self.vector_of(text)
        return one_hot(sum(map(ord, text)) % (self.dim - 1), self.dim) if vector is None else vector


def procedures_store(config: Config, embedder, procedures) -> MemoryStore:
    """A store that holds each procedure, a tuple of step texts, in three videos of its own."""
    store = MemoryStore(config, embedder)
    rid = 0
    for p, steps in enumerate(procedures):
        for video in range(3):
            for t, text in enumerate(steps):
                rid += 1
                store.ingest(ObservationRecord(rid, f"p{p}v{video}", float(t),
                                               [Description(text)], [], []))
    return store


def texts_store(config: Config, vectors: dict, video: str = "v") -> MemoryStore:
    """A store of one observation whose episodes, ids 1, 2, ..., hold the texts of
    ``vectors`` in order, each embedded as its vector."""
    store = MemoryStore(config, TableEmbedder(config.dim, vectors))
    store.ingest(ObservationRecord(1, video, 0.0, [Description(text) for text in vectors], [], []))
    return store


def ladder_dag(rungs: int) -> ProceduralDag:
    """START, then ``rungs`` layers of two nodes each fully joined, then GOAL:
    2 ** rungs START -> GOAL paths of rungs + 2 nodes."""
    dag = ProceduralDag()
    prev = [START]
    for i in range(rungs):
        layer = [f"rung{i}_{side}" for side in "ab"]
        for label in layer:
            dag.add_node(label)
            for src in prev:
                dag.add_edge(src, label)
        prev = layer
    for src in prev:
        dag.add_edge(src, GOAL)
    return dag


def fruit_salad_store(dim: int = 512, extra_sources: bool = True, **config) -> MemoryStore:
    """Three sources sharing chop->mix->serve, attrs tool=bowl on mix.

    With ``extra_sources`` the store also holds the broken-bowl and
    store-has-bowls context episodes plus semantic conclusions. ``config``
    sets other Config fields.
    """
    cfg = Config(dim=dim, action_verbs=FRUIT_VERBS, **config)
    store = MemoryStore(cfg)
    rid = 0
    for video in ("v1", "v2", "v3"):
        for ti, (text, attrs) in enumerate([
            ("@jack chop the fruit", {"tool": "knife"}),
            ("@jack mix the fruit in a bowl", {"tool": "bowl"}),
            ("@jack serve the salad", {"tool": "plate"}),
        ]):
            rid += 1
            store.ingest(ObservationRecord(
                rid, video, float(ti),
                [Description(text, dict(attrs))],
                [Conclusion("character", "@jack is a careful cook")] if ti == 2 else [],
                [Percept("face", one_hot(3, dim), "jack")] if ti == 0 else [],
            ))
    if extra_sources:
        rid += 1
        store.ingest(ObservationRecord(
            rid, "home", 0.0,
            [Description("the bowl at home is broken")],
            [Conclusion("knowledge", "the store downstairs has bowls one minute away")],
            [],
        ))
    return store


@pytest.fixture
def fruit_store():
    return fruit_salad_store()


def simple_chain_store(actions=("alpha_one", "beta_two", "gamma_three"),
                       videos=("s1", "s2"), dim=128) -> MemoryStore:
    """Minimal store whose sequences repeat the given action labels."""
    cfg = Config(dim=dim, action_verbs=("nonexistentverb",))
    store = MemoryStore(cfg)
    rid = 0
    for video in videos:
        for ti, action in enumerate(actions):
            rid += 1
            # No lexicon verb: the fallback makes the whole text the action.
            text = action.replace("_", " ")
            store.ingest(ObservationRecord(rid, video, float(ti), [Description(text)], [], []))
    return store


def random_corpus(rng: random.Random, max_sequences=6, max_len=6, alphabet=5):
    n_seq = rng.randint(1, max_sequences)
    letters = [chr(ord("a") + i) for i in range(alphabet)]
    return [
        [rng.choice(letters) for _ in range(rng.randint(1, max_len))]
        for _ in range(n_seq)
    ]


def jsonl_lines(records) -> str:
    lines = [json.dumps({"version": 1})]
    lines.extend(json.dumps(r) for r in records)
    return "\n".join(lines) + "\n"
