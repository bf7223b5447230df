"""The benchmark's traced mode must find every engine name it wraps.

``bench/tracing.py`` patches functions by ``owner.__dict__[attr]``, so a
renamed or deleted engine function breaks ``bench/run.py --trace 1``. These
tests install and remove the tracer, and save, load and retrieve under it,
so that such a break shows here.
"""

import importlib
import sys
from pathlib import Path

from memstrata import Description, ObservationRecord, auto_fuse, query_step_sequence
from memstrata.core import cosine
from conftest import fruit_salad_store

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("cli", "core", "dag", "distill", "fuse", "ingest", "maintain",
           "retrieve", "store", "symbolic")


def _module(name):
    # importlib, not attribute access: the package re-exports functions
    # named like some of its modules (memstrata.retrieve is a function).
    return importlib.import_module(f"memstrata.{name}")


def _namespaces():
    owners = [_module(name) for name in MODULES]
    owners += [_module("store").MemoryStore, _module("core").HashingEmbedder]
    return {owner: dict(vars(owner)) for owner in owners}


def _tracer():
    sys.path.insert(0, str(BENCH))
    try:
        from tracing import Tracer
    finally:
        sys.path.remove(str(BENCH))
    return Tracer()


def test_tracer_install_then_uninstall_restores_engine():
    before = _namespaces()
    tracer = _tracer()
    tracer.install()
    try:
        assert _module("retrieve").cosine is not _module("core").cosine
        assert _module("ingest").resolve_anchor is not before[_module("ingest")]["resolve_anchor"]
    finally:
        tracer.uninstall()
    after = _namespaces()
    for owner, names in before.items():
        assert after[owner].keys() == names.keys(), owner
        changed = [k for k, v in names.items() if after[owner][k] is not v]
        assert changed == [], (owner, changed)


def test_traced_save_load_retrieve(tmp_path):
    # Traced mode swaps store.py's ``json`` for a namespace holding only
    # dumps, loads and JSONDecodeError; save and load must stay inside it.
    tracer = _tracer()
    store = fruit_salad_store(dim=64)
    store.distill()
    path = str(tmp_path / "snap.json")
    query = "How should Jack make the fruit salad?"
    tracer.install()
    try:
        store.save(path)
        loaded = _module("store").MemoryStore.load(path)
        ranked = loaded.retrieve(query, k=5).ranked
    finally:
        tracer.uninstall()
    assert [(i.layer, i.node_id, i.score_final) for i in ranked] == \
           [(i.layer, i.node_id, i.score_final) for i in store.retrieve(query, k=5).ranked]
    _, _, calls = tracer.totals()
    assert calls["store.encode"] >= 1 and calls["store.decode"] >= 1
    assert calls["store.save"] == calls["store.load"] == calls["retrieve.retrieve"] == 1


def test_traced_lifecycle_counts_every_layer_scan():
    # Each layer calls its own module's ``cosine``, so that a traced run
    # attributes every scan to the layer that makes it.
    tracer = _tracer()
    tracer.install()
    try:
        store = fruit_salad_store(dim=64, extra_sources=False)
        store.distill()
        rid = 100
        for video in ("w1", "w2", "w3"):
            for t, text in enumerate(["@jack chop the fruit", "@jack blend the fruit",
                                      "@jack serve the salad"]):
                rid += 1
                store.ingest(ObservationRecord(rid, video, float(t), [Description(text)], [], []))
        store.distill()
        goals = [node.i_goal for node in store.logic.values()]
        assert len(goals) == 2 and cosine(*goals) >= store.config.tau_align
        rec = ObservationRecord(200, "w4", 0.0, [Description("@jack chop the fruit"),
                                                 Description("@jack mix the fruit")], [], [])
        store.ingest(rec)
        store.apply(rec)
        store.retrieve("How should Jack make the fruit salad?", k=5)
        query_step_sequence(store, store.logic[min(store.logic)].c)
        assert len(auto_fuse(store)) == 1
    finally:
        tracer.uninstall()
    calls = {layer: tracer.counts[f"{layer}.cosine.calls"]
             for layer in ("ingest", "maintain", "fuse", "retrieve", "symbolic")}
    assert all(n > 0 for n in calls.values()), calls
