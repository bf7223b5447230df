"""The three workloads: stream, recall and procedures.

Each one generates its inputs from the seed, drives memstrata's public API
in this process as a single closed-loop caller, records every operation it
attempts, checks the outputs and leaves its samples in a ``Run``.

Engine functions that the traced mode wraps are looked up on their module
at call time (``ingest.read_observation_lines``, ``fuse.auto_fuse``, ...),
so the same code runs traced and untraced.

Every timing is CPU time of this process (``process_time``). The caller is
one thread that never waits on another process, so its CPU time is the
latency it sees, less any time the scheduler kept it off a core. CPU time
does not remove slowdowns from neighbours that share the core or its
caches, and a shared host runs for seconds at a time 1.5 times or more
slower than at its best. So where a workload does a unit of timed work
(an ingest batch, a query, a save) more than once with identical inputs
-- recall's three builds and its query cycle, the procedure query
passes, the saves of the live and of the loaded store -- the unit keeps
its fastest time. Query loops stop at a wall-clock deadline.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import os
import re
import resource
import shutil
import statistics
from collections import Counter, defaultdict
from itertools import islice
from time import perf_counter, process_time

import numpy as np

from memstrata import (
    START,
    Config,
    Constraint,
    MemoryEngineError,
    MemoryStore,
    Predicate,
    extract_action_sequences,
    prefixspan,
)

import checks
import gen

# The package re-exports functions named like their modules (memstrata.fuse
# is also a function), so the modules are taken from the import system.
cli, fuse, ingest, symbolic = (importlib.import_module(f"memstrata.{name}")
                               for name in ("cli", "fuse", "ingest", "symbolic"))

MIN_SAMPLES = 200      # timed retrieve and symbolic calls per run, at least
RECALL_QUERIES = 100   # recall: distinct queries (and symbolic calls) the loop cycles through
QUERY_EVERY = 5        # stream: one retrieve and one symbolic call per 5 records
ORACLE_EVERY = 10      # every 10th recorded retrieve is checked against the oracle
INGEST_BATCH = 100     # records parsed and ingested per ingest rate sample
UPDATE_BATCH = 25      # records ingested and applied per update rate sample
PROCEDURE_INGEST_BATCH = 20
RECALL_BUILDS = 3      # recall: query-store builds; setup_s sums each step's fastest time
SETUP_REPEATS = 5      # stream, procedures: timed batches of store creations per phase
SETUP_BATCH = 50       # creations per timed batch
PROCEDURE_LENGTHS = range(8, 17, 2)
CLI_RANKED = re.compile(r"^\d+\. (\w+):(\d+) ")

# Every end-to-end metric a run computes; BENCHMARK.json gates a subset.
# Each unit of work counts with its fastest time over its repeats. Rates
# are medians over batches and latencies are percentiles over units
# (distinct calls); distill_s and fuse_s sum the explicit calls
# (procedures: one per length), save_s, load_s and cli_query_s are medians.
# setup_s is the fastest store creation (stream, procedures) or the
# query-store build (recall). failed_op_ratio counts every call that
# raised, refusals included.
UNITS = {
    "setup_s": "s", "ingest_rec_per_s": "1/s", "update_rec_per_s": "1/s",
    "query_p50_ms": "ms", "query_p95_ms": "ms", "symbolic_p50_ms": "ms",
    "symbolic_p95_ms": "ms", "distill_s": "s", "fuse_s": "s", "save_s": "s",
    "load_s": "s", "cli_query_s": "s", "snapshot_bytes_per_record": "B",
    "peak_rss_mb": "MB", "failed_op_ratio": "ratio",
}


class Run:
    """Operation accounting and timing samples of one workload run."""

    def __init__(self, workspace: str, tracer=None, loops: dict | None = None):
        self.workspace = workspace
        self.make_store = None   # stream, procedures: the set-up that setup_s times
        self.tracer = tracer
        self.loops = dict(loops or {})   # fixed loop lengths, for a traced replay
        self.attempted = 0
        self.failures: Counter = Counter()
        self.refusals: Counter = Counter()
        self._confirmed: dict = {}
        self.op_seconds = 0.0
        self.samples: defaultdict = defaultdict(list)   # fastest seconds per unit of work
        self.units: defaultdict = defaultdict(list)     # records per unit, for rates
        self.calls: Counter = Counter()                  # timed calls per sample name
        self._next: Counter = Counter()
        self.answers: list = []
        self.structure: dict = {}
        self.snapshots: list = []
        self.snapshot_bytes = 0
        self.snapshot_records = 0

    def op(self, fn, *args, **kwargs):
        """One engine call: (result, seconds, error type name or None)."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op += 1
        t0 = process_time()
        try:
            result = fn(*args, **kwargs)
        except MemoryEngineError as exc:
            seconds = process_time() - t0
            self.op_seconds += seconds
            self.failures[type(exc).__name__] += 1
            return None, seconds, type(exc).__name__
        seconds = process_time() - t0
        self.op_seconds += seconds
        return result, seconds, None

    def sample(self, name: str, seconds: float, units: int = 1) -> None:
        """Time the next unit of work of ``name``. After ``again``, a unit
        meets its earlier twin and the faster of the two times is kept."""
        i = self._next[name]
        self._next[name] += 1
        self.calls[name] += 1
        times = self.samples[name]
        if i < len(times):
            times[i] = min(times[i], seconds)
        else:
            times.append(seconds)
            self.units[name].append(units)

    def again(self, *names: str) -> None:
        """The work of ``names`` (of every sample when none is given) is
        done again, with the same inputs and in the same order."""
        for name in names or list(self._next):
            self._next[name] = 0

    def refusal(self, error: str | None, key, config, dags) -> None:
        """Move a PathExplosion from the failures to the refusals once the
        path-count oracle confirms it: one of ``dags()``, the DAGs the call
        may have enumerated, is over ``max_paths`` or ``max_path_len``. That
        refusal is what the engine specifies; an unconfirmed one fails the
        run. ``key`` is (call, object the DAGs belong to, details...); the
        query loops do not change the DAGs, so each key is checked once."""
        if error != "PathExplosion":
            return
        if key not in self._confirmed:
            self._confirmed[key] = any(
                checks.exceeds_path_limits(dag, config.max_paths, config.max_path_len)
                for dag in dags())
        if not self._confirmed[key]:
            raise checks.CheckFailed(f"{key[0]} {list(key[2:])}: PathExplosion "
                                     "on DAGs within max_paths and max_path_len")
        self.failures[error] -= 1
        if not self.failures[error]:
            del self.failures[error]
        self.refusals[error] += 1

    def loop(self, name: str, done: int, deadline: float) -> bool:
        """Whether a closed query loop goes on after ``done`` rounds.

        It runs until the deadline and until it has timed MIN_SAMPLES
        retrieve and symbolic calls; a traced replay runs the untraced run's
        count.
        """
        if name in self.loops:
            return done < self.loops[name]
        enough = min(self.calls["query"], self.calls["symbolic"]) >= MIN_SAMPLES
        return not enough or perf_counter() < deadline

    def end_to_end(self) -> dict:
        s = self.samples

        def pct(name, q):
            return float(np.percentile(s[name], q)) * 1000.0

        def rate(name):
            return statistics.median(n / t for n, t in zip(self.units[name], s[name]))

        return {
            "setup_s": min(s["setup"]),
            "ingest_rec_per_s": rate("ingest"),
            "update_rec_per_s": rate("update"),
            "query_p50_ms": pct("query", 50),
            "query_p95_ms": pct("query", 95),
            "symbolic_p50_ms": pct("symbolic", 50),
            "symbolic_p95_ms": pct("symbolic", 95),
            "distill_s": sum(s["distill"]),
            "fuse_s": sum(s["fuse"]),
            "save_s": statistics.median(s["save"]),
            "load_s": statistics.median(s["load"]),
            "cli_query_s": statistics.median(s["cli"]),
            "snapshot_bytes_per_record": self.snapshot_bytes / self.snapshot_records,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "failed_op_ratio": (sum(self.failures.values()) + sum(self.refusals.values()))
            / self.attempted,
        }

    def digest_parts(self) -> dict:
        return {
            "snapshots": self.snapshots,
            "structure": self.structure,
            "answers": self.answers,
        }


# -- shared operations ------------------------------------------------------------


def _constraint(where) -> Constraint | None:
    if not where:
        return None
    return Constraint([Predicate(key, op, value) for key, op, value in where])


def _setup(run: Run) -> None:
    """Time SETUP_REPEATS batches of ``run.make_store()``, per creation."""
    for _ in range(SETUP_REPEATS if run.make_store else 0):
        made = []
        t0 = process_time()
        for _ in range(SETUP_BATCH):
            made.append(run.make_store())
        run.sample("setup", (process_time() - t0) / SETUP_BATCH)
        del made


def _parse(run: Run, lines: list) -> list:
    records, _, error = run.op(ingest.read_observation_lines, lines)
    if error:
        raise checks.CheckFailed(f"generated records failed to parse: {error}")
    return records


def _query(run: Run, store, q: dict, people: dict, record: bool):
    result, seconds, error = run.op(
        store.retrieve, q["text"], constraint=_constraint(q.get("where")),
        person=people.get(q.get("person")),
    )
    run.sample("query", seconds)
    run.refusal(error, ("retrieve", id(store), q["text"], q["kind"]), store.config,
                lambda: checks.retrieve_logic_dags(store, q["text"], q["kind"]))
    if record:
        if error:
            run.answers.append(["retrieve", error])
        else:
            ctx = result.answer_context
            run.answers.append(["retrieve", [[it.layer, it.node_id] for it in result.ranked],
                                ctx.top_logic, ctx.paths_total, ctx.character_nodes])
    return result


def _symbolic(run: Run, store, entry: dict, people: dict, record: bool) -> None:
    fn, goal = entry["fn"], entry["goal"]
    if fn == "query_step_sequence":
        result, seconds, error = run.op(
            symbolic.query_step_sequence, store, goal, _constraint(entry.get("where")))
        run.refusal(error, ("goal", id(store), goal), store.config,
                    lambda: checks.goal_dags(store, goal))
        answer = error or [list(r.steps) for r in result]
    elif fn == "get_procedure_with_evidence":
        result, seconds, error = run.op(symbolic.get_procedure_with_evidence, store, goal)
        answer = error or [result.logic_id, [e.id for e in result.evidence]]
    elif fn == "aggregate_character_behaviors":
        result, seconds, error = run.op(
            symbolic.aggregate_character_behaviors, store, people.get(entry["person"]))
        answer = error or [n.id for n in result]
    else:
        def expected_steps():
            dag = symbolic.get_procedure_with_evidence(store, goal).dag
            return symbolic.goal_reach_probability(dag, entry.get("from", START))
        result, seconds, error = run.op(expected_steps)
        answer = error or repr(result)
    run.sample("symbolic", seconds)
    if record:
        run.answers.append([fn, answer])


def _paths(run: Run, store, dag, where, record: bool) -> None:
    cfg = store.config
    result, seconds, error = run.op(
        symbolic.constrained_paths, dag, _constraint(where), cfg.max_paths, cfg.max_path_len)
    run.sample("symbolic", seconds)
    run.refusal(error, ("paths", id(dag)), cfg, lambda: [dag])
    if record:
        run.answers.append(["constrained_paths", error or [len(result[0]), result[1]]])


def _people(store, labels) -> dict:
    return {label: store.anchor_by_label(label) for label in labels}


def _freeze_inputs() -> None:
    """Move the generated inputs out of the collector's reach.

    They are the harness's data, not the engine's, and would otherwise make
    every full collection during the run slower.
    """
    gc.collect()
    gc.freeze()


def _quiesce() -> None:
    """Collect garbage now, so that a collection does not land in a single timed call."""
    gc.collect()


def _ingest(run: Run, store, header: str, lines, count: int, batch: int) -> None:
    """Parse and ingest ``count`` lines of the iterator ``lines`` in batches;
    each batch is one unit of work. Lines are generated outside the timing."""
    for b in range(0, count, batch):
        chunk = list(islice(lines, min(batch, count - b)))
        t0 = process_time()
        for rec in _parse(run, [header] + chunk):
            run.op(store.ingest, rec)
        run.sample("ingest", process_time() - t0, len(chunk))


def _update(run: Run, store, header: str, lines, total: int, between=None) -> None:
    """Parse, ingest and apply ``total`` lines one at a time; a unit of work
    per UPDATE_BATCH.

    ``between(j)`` runs after every QUERY_EVERY-th record, outside the timing.
    """
    busy, count = 0.0, 0
    for i, line in enumerate(islice(lines, total), start=1):
        t0 = process_time()
        [rec] = _parse(run, [header, line])
        run.op(store.ingest, rec)
        run.op(store.apply, rec)
        busy += process_time() - t0
        count += 1
        if count == UPDATE_BATCH or i == total:
            run.sample("update", busy, count)
            busy, count = 0.0, 0
        if between is not None and i % QUERY_EVERY == 0:
            between(i // QUERY_EVERY - 1)


def _timed(run: Run, name: str, fn, *args):
    _setup(run)
    _quiesce()
    result, seconds, error = run.op(fn, *args)
    run.sample(name, seconds)
    return result, error


def _lifecycle(run: Run, store, inputs: dict, between=None, check: bool = True) -> None:
    """Ingest 80% and distill; ingest and apply 20%; auto_fuse.

    The record lines are generated afresh while they are consumed, so the
    harness never holds them all.
    """
    lines, total = inputs["lines"](), inputs["records"]
    header = next(lines)
    cut = total * 4 // 5
    _ingest(run, store, header, lines, cut, INGEST_BATCH)
    _timed(run, "distill", store.distill)
    if check:
        run.structure.setdefault("patterns_mined", []).append(
            len(prefixspan(extract_action_sequences(store), store.config.sigma_support)))
    _update(run, store, header, lines, total - cut, between)
    _timed(run, "fuse", fuse.auto_fuse, store)


def _snapshot(run: Run, store, directory: str, records: int, cli_queries) -> None:
    """Timed save and load, the round-trip and invariant checks, then the
    CLI queries against the snapshot. Saving the loaded store, which the
    round trip needs, repeats the timed save."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, cli.SNAPSHOT_NAME)
    _, error = _timed(run, "save", store.save, path)
    if error:
        raise checks.CheckFailed(f"save failed: {error}")
    first, size = checks.file_sha256(path)
    loaded, error = _timed(run, "load", MemoryStore.load, path)
    if error:
        raise checks.CheckFailed(f"load of a saved store failed: {error}")

    run.again("save")
    again = os.path.join(directory, "again.json")
    _timed(run, "save", loaded.save, again)
    checks.check_roundtrip(first, checks.file_sha256(again)[0], directory)
    os.remove(again)
    checks.check_invariants(store, "live store")
    checks.check_invariants(loaded, "loaded store")
    run.snapshots.append(first)
    run.snapshot_bytes += size
    run.snapshot_records += records
    for q in cli_queries:
        _cli_query(run, loaded, directory, q)


def _cli_query(run: Run, store, directory: str, q: dict) -> None:
    """One in-process `memstrata query`; its ranking must match the store's."""
    argv = ["--store", directory, "query", "--text", q["text"]]
    for key, op, value in q.get("where") or ():
        argv += ["--where", f"{key}={op}:{value}"]
    if q.get("person"):
        argv += ["--person", q["person"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, _ = _timed(run, "cli", cli.run_cli, argv)
    if code != 0:
        run.failures[f"cli_exit_{code}"] += 1
        return
    people = _people(store, [q["person"]]) if q.get("person") else {}
    expected = store.retrieve(q["text"], constraint=_constraint(q.get("where")),
                              person=people.get(q.get("person")))
    got = [(m.group(1), int(m.group(2))) for m in map(CLI_RANKED.match, out.getvalue().splitlines()) if m]
    if got != [(it.layer, it.node_id) for it in expected.ranked]:
        raise checks.CheckFailed(f"cli query {q['text']!r} ranked {got}, the store ranks otherwise")


def _check_oracle(store, q: dict, result) -> None:
    if result is not None:
        checks.check_ranking(store, q["text"], q["kind"], result.ranked, 5)


def _structure(run: Run, store) -> None:
    stats = store.stats()
    for key in ("anchors", "episodic", "semantic", "logic", "dag_edges"):
        run.structure.setdefault(key, []).append(stats[key])


# -- workloads ------------------------------------------------------------------------


def stream(seed: int, seconds: float, run: Run) -> None:
    """Ingest 80% and distill; ingest and apply 20% with a retrieve and a
    symbolic call after every fifth record; auto_fuse, save, load and three
    CLI queries. The work is fixed, so ``seconds`` is not used."""
    inputs = gen.lifecycle_inputs(seed)
    queries, entries = inputs["queries"], inputs["symbolic"]
    labels = sorted({q["person"] for q in queries if "person" in q} | {e["person"] for e in entries})
    _freeze_inputs()
    run.make_store = lambda: MemoryStore(Config())
    _setup(run)
    store = run.make_store()

    def between(j):
        people = _people(store, labels)
        q = queries[j % len(queries)]
        result = _query(run, store, q, people, record=True)
        if j % ORACLE_EVERY == 0:
            _check_oracle(store, q, result)
        _symbolic(run, store, entries[j % len(entries)], people, record=True)

    _lifecycle(run, store, inputs, between)
    _snapshot(run, store, os.path.join(run.workspace, "stream"), inputs["records"],
              [next(q for q in queries if q["kind"] == kind)
               for kind in ("factual", "constraint", "character")])
    _structure(run, store)


def recall(seed: int, seconds: float, run: Run) -> None:
    """Build the query store RECALL_BUILDS times (the set-up), then run a
    closed loop for ``seconds`` that cycles through RECALL_QUERIES retrieve
    and symbolic calls; then save, load and three CLI queries."""
    inputs = gen.lifecycle_inputs(seed)
    queries, entries = inputs["queries"], inputs["symbolic"]
    labels = sorted({q["person"] for q in queries if "person" in q} | {e["person"] for e in entries})
    # The lines are generated once for all builds and dropped before the
    # query loop; a build's peak memory is below that of save and load.
    lines = list(inputs["lines"]())
    inputs["lines"] = lambda: iter(lines)
    _freeze_inputs()
    store = None
    for build in range(RECALL_BUILDS):
        store = None
        run.again()
        _quiesce()
        t0 = process_time()
        store = MemoryStore(Config())
        run.sample("create", process_time() - t0)
        _lifecycle(run, store, inputs, check=build == 0)
    # The set-up is every engine call of a build, each at its fastest.
    run.samples["setup"] = [sum(sum(run.samples[name])
                                for name in ("create", "ingest", "distill", "update", "fuse"))]
    del lines, inputs["lines"]
    people = _people(store, labels)
    _quiesce()

    checked = []
    deadline = perf_counter() + seconds
    done = 0
    while run.loop("recall", done, deadline):
        if done % RECALL_QUERIES == 0:
            run.again("query", "symbolic")
        record = done < RECALL_QUERIES
        q = queries[done % RECALL_QUERIES]
        result = _query(run, store, q, people, record)
        if record and done % ORACLE_EVERY == 0:
            checked.append((q, result))
        _symbolic(run, store, entries[done % RECALL_QUERIES], people, record)
        done += 1
    run.loops["recall"] = done
    for q, result in checked:
        _check_oracle(store, q, result)

    directory = os.path.join(run.workspace, "recall")
    _snapshot(run, store, directory, inputs["records"],
              [next(q for q in queries if q["kind"] == kind)
               for kind in ("factual", "constraint", "character")])
    _structure(run, store)


def procedures(seed: int, seconds: float, run: Run) -> None:
    """For each length: mine, distill, apply the update sessions and
    auto_fuse. Then query passes over all stores for ``seconds``:
    retrieves, constrained paths on every logic node and symbolic calls."""
    inputs = {n: gen.procedure_inputs(seed, n) for n in PROCEDURE_LENGTHS}
    _freeze_inputs()

    run.make_store = lambda: {n: MemoryStore(Config()) for n in PROCEDURE_LENGTHS}
    _setup(run)
    stores = run.make_store()

    for n in PROCEDURE_LENGTHS:
        store, inp = stores[n], inputs[n]
        header, mined = inp["mine_lines"][0], inp["mine_lines"][1:]
        _ingest(run, store, header, iter(mined), len(mined), PROCEDURE_INGEST_BATCH)
        _timed(run, "distill", store.distill)
        run.structure.setdefault("patterns_mined", []).append(
            len(prefixspan(extract_action_sequences(store), store.config.sigma_support)))
        _update(run, store, header, iter(inp["update_lines"][1:]), len(inp["update_lines"]) - 1)
        _timed(run, "fuse", fuse.auto_fuse, store)

    def query_pass(record: bool) -> None:
        for n in PROCEDURE_LENGTHS:
            store, inp = stores[n], inputs[n]
            for q in inp["queries"]:
                result = _query(run, store, q, {}, record)
                if record:
                    _check_oracle(store, q, result)
            for logic_id in sorted(store.logic):
                for where in inp["constraints"]:
                    _paths(run, store, store.logic[logic_id].dag, where, record)
            for where in inp["constraints"]:
                _symbolic(run, store, {"fn": "query_step_sequence", "goal": inp["goal"],
                                       "where": where}, {}, record)
            _symbolic(run, store, {"fn": "get_procedure_with_evidence", "goal": inp["goal"]},
                      {}, record)
            for step in [START] + inp["steps"]:
                _symbolic(run, store, {"fn": "goal_reach_probability", "goal": inp["goal"],
                                       "from": step}, {}, record)

    deadline = perf_counter() + seconds
    done = 0
    while run.loop("procedures", done, deadline):
        run.again("query", "symbolic")
        query_pass(record=done == 0)
        done += 1
    run.loops["procedures"] = done

    # The longest procedure's store, where the exponential costs show, makes
    # the snapshot round trip; every store gets the invariant sweep.
    for n in PROCEDURE_LENGTHS:
        checks.check_invariants(stores[n], f"procedure store {n}")
        _structure(run, stores[n])
    n = PROCEDURE_LENGTHS[-1]
    store, inp = stores[n], inputs[n]
    directory = os.path.join(run.workspace, f"procedures-{n}")
    records = len(inp["mine_lines"]) + len(inp["update_lines"]) - 2
    _snapshot(run, store, directory, records, inp["queries"][:1])


WORKLOADS = {"stream": stream, "recall": recall, "procedures": procedures}


def run_workload(name: str, seed: int, seconds: float, workspace: str,
                 tracer=None, loops=None) -> Run:
    shutil.rmtree(workspace, ignore_errors=True)
    os.makedirs(workspace)
    run = Run(workspace, tracer, loops)
    try:
        WORKLOADS[name](seed, seconds, run)
    finally:
        gc.unfreeze()
        shutil.rmtree(workspace, ignore_errors=True)
    return run
