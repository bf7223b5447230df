"""A cross-commit pin on the engine's work, in operations rather than seconds.

Counts move only with (workload, seed, code), never with the host or its load,
so a count can gate a change that a clock could not tell from noise. This
test builds the seeded 300-record lifecycle of ``tests/test_decision_pin.py``
(ingest 80%, distill, ingest and apply the rest, ``auto_fuse``), saves and
loads it, and pins, per phase, how many DAGs ``check_valid`` judged. The
engine's own DAG writes keep a DAG valid by construction, so the check runs
only where a DAG enters: a fuse's union, ``fuse()``'s inputs,
``goal_reach_probability`` and the save's and the load's sweep.

A change that does less work lowers a pin and says so; a rise fails here.
"""

import importlib

from memstrata import Config, MemoryStore
from memstrata.fuse import auto_fuse
from memstrata.ingest import read_observation_lines
from conftest import bench_gen

# The four modules that call check_valid by their own name.
CALLERS = [importlib.import_module(f"memstrata.{name}") for name in ("dag", "store", "fuse", "symbolic")]

# phase -> check_valid calls: one per logic node at the save and at the load. Applies and distills
# keep a DAG valid by construction, and this build's auto_fuse finds no pair to fuse.
CHECK_VALID_CALLS = {"ingest": 0, "distill": 0, "apply": 0, "fuse": 0, "save": 4, "load": 4}


def test_a_seeded_lifecycle_validates_each_dag_where_it_enters(monkeypatch, tmp_path):
    gen = bench_gen()
    monkeypatch.setattr(gen, "RECORDS", 300)
    monkeypatch.setattr(gen, "SESSIONS", 20)
    records = read_observation_lines(gen.lifecycle_inputs(7)["lines"]())
    cut = len(records) * 4 // 5
    check_valid = CALLERS[0].check_valid
    calls = []

    def counted(dag):
        calls.append(dag)
        return check_valid(dag)
    for module in CALLERS:
        monkeypatch.setattr(module, "check_valid", counted)

    counts = {}

    def phase(name, run):
        calls.clear()
        run()
        counts[name] = len(calls)

    store = MemoryStore(Config())
    path = str(tmp_path / "pin.json")
    phase("ingest", lambda: [store.ingest(rec) for rec in records[:cut]])
    phase("distill", store.distill)
    phase("apply", lambda: [(store.ingest(rec), store.apply(rec)) for rec in records[cut:]])
    phase("fuse", lambda: auto_fuse(store))
    phase("save", lambda: store.save(path))
    phase("load", lambda: MemoryStore.load(path))
    assert counts == CHECK_VALID_CALLS
