"""A cross-commit pin on the engine's work, in operations rather than seconds.

Counts move only with (workload, seed, code), never with the host or its load,
so a count can gate a change that a clock could not tell from noise. This
test reads the seeded 300-record lifecycle of ``tests/test_decision_pin.py``
and builds it (ingest 80%, distill, ingest and apply the rest, ``auto_fuse``),
saves and loads it, then runs a fixed query phase on the loaded store
(retrieves and step-sequence queries of the generator's own texts), and pins,
per phase, how many DAGs ``check_valid`` judged, how many rows each calling
module passed to ``cosine``, how many ``RankedItem``s retrieval built, how many
transition estimates and START -> GOAL paths the symbolic layer computed, how
many times a record was judged (``record_fault``) and how many sealed DAGs were
built. The engine's own DAG writes keep a DAG valid by construction, so the
check runs only where a DAG enters: a fuse's union, ``fuse()``'s inputs,
``goal_reach_probability`` and the save's and the load's sweep.

A change that does less work lowers a pin and says so; a rise fails here.
"""

import importlib
from collections import Counter

import numpy as np
import pytest

from memstrata import Config, MemoryStore, ProceduralDag
from memstrata.core import RowBlock
from memstrata.fuse import auto_fuse
from memstrata.ingest import read_observation_lines
from memstrata.symbolic import query_step_sequence
from conftest import bench_gen

# The four modules that call check_valid by their own name.
CALLERS = [importlib.import_module(f"memstrata.{name}") for name in ("dag", "store", "fuse", "symbolic")]
# The five modules that call cosine by their own name.
SCANNERS = {name: importlib.import_module(f"memstrata.{name}")
            for name in ("ingest", "maintain", "fuse", "retrieve", "symbolic")}
RETRIEVE = SCANNERS["retrieve"]
# Each function counted per call, and the modules that call it by their own name.
JUDGES = {"transition_prob": ("store", "symbolic"), "record_fault": ("ingest", "maintain")}
QUERIES = 40  # the first of the generator's queries, each retrieved once on the loaded store
GOALS = 10  # the first of its symbolic goals, each asked for its step sequence once
PHASES = ("read", "ingest", "distill", "apply", "fuse", "save", "load", "query")

# phase -> check_valid calls: one per logic node at the save and at the load. Applies and distills
# keep a DAG valid by construction, and this build's auto_fuse finds no pair to fuse.
CHECK_VALID_CALLS = {"read": 0, "ingest": 0, "distill": 0, "apply": 0, "fuse": 0, "save": 4, "load": 4,
                     "query": 0}

# phase -> module -> rows passed to cosine: a RowBlock's rows, a list's vectors, or one vector.
COSINE_ROWS = {
    "read": {},
    "ingest": {"ingest": 3975},
    "distill": {},
    "apply": {"ingest": 1524, "maintain": 360},
    "fuse": {"fuse": 6},
    "save": {},
    "load": {},
    "query": {"retrieve": 14480, "symbolic": 40},
}

# phase -> RankedItems built: one per node that scores above theta in a retrieve.
RANKED_ITEMS = {"read": 0, "ingest": 0, "distill": 0, "apply": 0, "fuse": 0, "save": 0, "load": 0,
                "query": 3146}

# phase -> unit -> count. transition_prob: one estimate per edge of each path a path query (a
# step-sequence query, a constraint retrieve) keeps, and one per edge at the save's and the load's
# sums; paths: each START -> GOAL path a path query enumerates. record_fault: once per record at
# the read and at its ingest, and once more when it is applied. sealed: one sealed DAG per
# distilled node (3 by the distill, 1 by the apply phase's pool distill), matched apply (15) and
# loaded DAG; this build's auto_fuse fuses none.
UNITS = {
    "read": {"record_fault": 300},
    "ingest": {"record_fault": 240},
    "distill": {"sealed": 3},
    "apply": {"record_fault": 120, "sealed": 16},
    "fuse": {},
    "save": {"transition_prob": 19},
    "load": {"transition_prob": 19, "sealed": 4},
    "query": {"transition_prob": 129, "paths": 19},
}


def _rows(b) -> int:
    """The rows ``cosine(a, b)`` scores."""
    if isinstance(b, RowBlock):
        return len(b.rows)
    return 1 if isinstance(b, np.ndarray) else len(b)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Per phase of the seeded lifecycle: check_valid calls, cosine rows by module, RankedItems and
    the UNITS."""
    gen = bench_gen()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gen, "RECORDS", 300)
        patch.setattr(gen, "SESSIONS", 20)
        inputs = gen.lifecycle_inputs(7)
        queries = [q["text"] for q in inputs["queries"][:QUERIES]]
        goals = [entry["goal"] for entry in inputs["symbolic"][:GOALS]]
        checked, rows, ranked, units = [], Counter(), [], Counter()

        check_valid = CALLERS[0].check_valid

        def counted(dag):
            checked.append(dag)
            return check_valid(dag)
        for module in CALLERS:
            patch.setattr(module, "check_valid", counted)

        def scanner(name, cosine):
            def scan(a, b):
                rows[name] += _rows(b)
                return cosine(a, b)
            return scan
        for name, module in SCANNERS.items():
            patch.setattr(module, "cosine", scanner(name, module.cosine))

        ranked_item = RETRIEVE.RankedItem

        def item(*args):
            ranked.append(None)
            return ranked_item(*args)
        patch.setattr(RETRIEVE, "RankedItem", item)

        def judge(name, fn):
            def counted(*args):
                units[name] += 1
                return fn(*args)
            return counted
        for name, callers in JUDGES.items():
            for caller in callers:
                module = importlib.import_module(f"memstrata.{caller}")
                patch.setattr(module, name, judge(name, getattr(module, name)))
        symbolic = importlib.import_module("memstrata.symbolic")
        enumerate_paths = symbolic.enumerate_paths

        def enumerated(*args):
            paths = enumerate_paths(*args)
            units["paths"] += len(paths)
            return paths
        patch.setattr(symbolic, "enumerate_paths", enumerated)
        patch.setattr(ProceduralDag, "sealed", judge("sealed", ProceduralDag.sealed))

        counts = {}
        stores = [MemoryStore(Config())]
        path = str(tmp_path_factory.mktemp("pin") / "pin.json")

        def phase(name, run):
            for count in (checked, rows, ranked, units):
                count.clear()
            run()
            counts[name] = (len(checked), dict(rows), len(ranked), dict(units))

        store, records = stores[0], []
        phase("read", lambda: records.extend(read_observation_lines(inputs["lines"]())))
        cut = len(records) * 4 // 5
        phase("ingest", lambda: [store.ingest(rec) for rec in records[:cut]])
        phase("distill", store.distill)
        phase("apply", lambda: [(store.ingest(rec), store.apply(rec)) for rec in records[cut:]])
        phase("fuse", lambda: auto_fuse(store))
        phase("save", lambda: store.save(path))
        phase("load", lambda: stores.append(MemoryStore.load(path)))
        phase("query", lambda: ([stores[1].retrieve(text) for text in queries],
                                [query_step_sequence(stores[1], goal) for goal in goals]))
    return counts


def test_a_seeded_lifecycle_validates_each_dag_where_it_enters(work):
    assert {name: work[name][0] for name in PHASES} == CHECK_VALID_CALLS


def test_a_seeded_lifecycle_scans_each_row_it_pins(work):
    assert {name: work[name][1] for name in PHASES} == COSINE_ROWS


def test_a_seeded_lifecycle_ranks_each_item_it_pins(work):
    assert {name: work[name][2] for name in PHASES} == RANKED_ITEMS


def test_a_seeded_lifecycle_judges_estimates_enumerates_and_seals_what_it_pins(work):
    assert {name: work[name][3] for name in PHASES} == UNITS
