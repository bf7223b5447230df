"""The benchmark's traced mode must find every engine name it wraps.

``bench/tracing.py`` patches functions by ``owner.__dict__[attr]``, so a
renamed or deleted engine function breaks ``bench/run.py --trace 1``. This
test installs and removes the tracer so that such a break shows here.
"""

import importlib
import sys
from pathlib import Path

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


def test_tracer_install_then_uninstall_restores_engine():
    sys.path.insert(0, str(BENCH))
    try:
        from tracing import Tracer
    finally:
        sys.path.remove(str(BENCH))

    before = _namespaces()
    tracer = Tracer()
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
