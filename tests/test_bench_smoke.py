"""A small run of every benchmark workload, untraced and traced.

``bench/run.py`` is only run by hand, so an engine change that breaks a
workload, its checks or the tracer would otherwise go unseen until the next
benchmark. This runs each workload on small inputs through the same
``run_workload`` entry point, replays it under the ``Tracer`` and requires
equal digests and every per-layer metric that ``BENCHMARK.json`` lists.
"""

import importlib
import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
# Added by bench/run.py itself, not by the tracer.
RUN_METRICS = {"store.snapshot_bytes", "trace.overhead"}
TIME_BOUND_S = 120.0


def _bench(name):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture
def small_bench(monkeypatch):
    gen, workloads = _bench("gen"), _bench("workloads")
    monkeypatch.setattr(gen, "RECORDS", 300)
    monkeypatch.setattr(gen, "SESSIONS", 20)
    monkeypatch.setattr(workloads, "PROCEDURE_LENGTHS", range(8, 11, 2))
    return workloads


@pytest.mark.parametrize("workload", ["stream", "recall", "procedures"])
def test_workload_runs_untraced_and_traced_with_equal_digests(small_bench, workload, tmp_path):
    checks, tracing = _bench("checks"), _bench("tracing")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    start = time.perf_counter()

    run = small_bench.run_workload(workload, 7, 0.1, str(tmp_path / "plain"))
    digest = checks.digest(run.digest_parts())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = small_bench.run_workload(workload, 7, 0.1, str(tmp_path / "traced"),
                                          tracer, run.loops)
    finally:
        tracer.uninstall()

    assert checks.digest(traced.digest_parts()) == digest
    assert traced.loops == run.loops
    missing = {m["name"] for m in spec["per_layer"]} - RUN_METRICS - set(tracer.layer_metrics())
    assert missing == set()
    assert time.perf_counter() - start < TIME_BOUND_S
