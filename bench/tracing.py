"""Traced mode: spans and counters around the engine's layer functions.

Wrappers replace module attributes of ``memstrata`` and are installed only
for a traced run; ``uninstall`` puts the originals back. Where one module
calls a function it imported from another (``from .dag import
enumerate_paths``), the importing module's name is wrapped, so the call is
seen wherever it is made. Hot leaf functions (cosine, embed,
transition_prob and a few pure counters) are counted and timed without a
span. Spans live in flat arrays and are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import types
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from gen import SYMBOLIC_FUNCTIONS


class Tracer:
    """Spans (name, start, end, parent, op id) and counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_id = array("l")
        self.stack: list[int] = []
        self.op = 0
        self.counts: Counter = Counter()
        self.leaf_s: defaultdict = defaultdict(float)
        self._undo: list = []

    # -- recording --------------------------------------------------------

    def current(self) -> str | None:
        return self.names[self.name_id[self.stack[-1]]] if self.stack else None

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def spanned(self, name, fn, pre=None, post=None, on_error=None):
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.finish(idx)
                if on_error is not None:
                    on_error(exc)
                raise
            self.finish(idx)
            if post is not None:
                post(args, kwargs, result)
            return result
        return wrapper

    def counted(self, name, fn, pre=None):
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.leaf_s[name] += perf_counter() - t0
                self.counts[name + ".calls"] += 1
        return wrapper

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        from memstrata.errors import PathExplosion

        (cli, core, dag, distill, fuse, ingest, maintain, retrieve, store, symbolic) = (
            importlib.import_module(f"memstrata.{name}") for name in (
                "cli", "core", "dag", "distill", "fuse", "ingest", "maintain",
                "retrieve", "store", "symbolic"))

        c = self.counts

        # core: hot leaves, counted per calling module
        self._set(core.HashingEmbedder, "embed",
                  self.counted("core.embed", core.HashingEmbedder.embed))
        for module in (ingest, maintain, fuse, retrieve, symbolic):
            layer = module.__name__.rsplit(".", 1)[1]
            pre = None
            if module is fuse:
                def pre(args, kwargs):
                    if self.current() == "fuse.auto_fuse":
                        c["fuse.pairs_scanned"] += 1
            self._set(module, "cosine", self._cosine(layer, module.cosine, pre))

        # ingest
        self._set(ingest, "read_observation_lines",
                  self.spanned("ingest.parse", ingest.read_observation_lines))
        self._set(store, "ingest_observation",
                  self.spanned("ingest.observation", store.ingest_observation))

        def anchors_pre(args, kwargs):
            c["ingest.percepts"] += 1
            c["ingest.anchors_scanned"] += len(args[0].anchors)
        self._set(ingest, "resolve_anchor",
                  self.spanned("ingest.resolve_anchor", ingest.resolve_anchor, pre=anchors_pre))

        def consolidate_pre(args, kwargs):
            st, anchors = args[0], args[3]
            c["ingest.conclusions"] += 1
            c["ingest.semantic_candidates"] += sum(
                1 for node in st.semantic.values() if anchors <= node.anchors)

        def consolidate_post(args, kwargs, events):
            c["ingest.reinforced"] += sum(1 for kind, _ in events if kind == "reinforced")
        self._set(ingest, "consolidate_semantic",
                  self.spanned("ingest.consolidate", ingest.consolidate_semantic,
                               pre=consolidate_pre, post=consolidate_post))

        # distill
        def distill_post(args, kwargs, created):
            c["distill.calls"] += 1
            c["distill.created"] += len(created)
        traced_distill = self.spanned("distill.distill", distill.distill, post=distill_post)
        self._set(distill, "distill", traced_distill)
        self._set(maintain, "distill", traced_distill)

        def mined(args, kwargs, patterns):
            c["distill.patterns_mined"] += len(patterns)
        self._set(distill, "prefixspan",
                  self.spanned("distill.mine", distill.prefixspan, post=mined))
        self._set(distill, "_covered_by_existing",
                  self.spanned("distill.cover", distill._covered_by_existing))
        self._set(store, "verify_default", self.counted("distill.verify", store.verify_default))

        # dag
        for module in (dag, store, fuse, symbolic):
            self._set(module, "check_valid", self.spanned("dag.check_valid", module.check_valid))
        for module in (store, symbolic):
            self._set(module, "transition_prob",
                      self.counted("dag.transition_prob", module.transition_prob))
        self._set(dag.ProceduralDag, "has_path",
                  self.counted("dag.has_path", dag.ProceduralDag.has_path))
        for module, counter in ((distill, "distill.cover_paths_enumerated"), (symbolic, None)):
            def enumerated(args, kwargs, paths, counter=counter):
                c["dag.paths_enumerated"] += len(paths)
                if counter:
                    c[counter] += len(paths)
            self._set(module, "enumerate_paths",
                      self.spanned("dag.enumerate_paths", module.enumerate_paths, post=enumerated))

        # maintain
        def applied(args, kwargs, report):
            c["maintain.records"] += 1
            c["maintain.gate_matches"] += report.matched is not None
            c["maintain.pool_distills"] += report.pooled and report.pool_size == 0
        self._set(store, "apply_observation",
                  self.spanned("maintain.apply", store.apply_observation, post=applied))

        def match_pre(args, kwargs):
            c["maintain.logic_scanned"] += len(args[0].logic)
        self._set(maintain, "match_logic",
                  self.spanned("maintain.match_logic", maintain.match_logic, pre=match_pre))

        # fuse
        self._set(fuse, "auto_fuse", self.spanned("fuse.auto_fuse", fuse.auto_fuse))
        self._set(fuse, "align_nodes", self.spanned("fuse.align", fuse.align_nodes))
        self._set(fuse, "linear_sum_assignment",
                  self.counted("fuse.assignment", fuse.linear_sum_assignment))

        def fuse_pre(args, kwargs):
            c["fuse.attempts"] += 1

        def fuse_post(args, kwargs, report):
            c["fuse.merges"] += 1
        self._set(fuse, "fuse_logic_nodes",
                  self.spanned("fuse.fuse_logic_nodes", fuse.fuse_logic_nodes,
                               pre=fuse_pre, post=fuse_post))

        # retrieve
        def retrieve_pre(args, kwargs):
            st = args[0]
            include_logic = kwargs.get("include_logic", args[3] if len(args) > 3 else True)
            c["retrieve.nodes_scored"] += (len(st.episodic) + len(st.semantic)
                                           + (len(st.logic) if include_logic else 0))

        def retrieve_post(args, kwargs, result):
            c["retrieve.calls"] += 1
            c["retrieve.returned"] += len(result.ranked)
        self._set(store, "retrieve",
                  self.spanned("retrieve.retrieve", store.retrieve,
                               pre=retrieve_pre, post=retrieve_post))
        self._set(retrieve, "classify", self.spanned("retrieve.classify", retrieve.classify))
        self._set(retrieve, "RankedItem",
                  self.counted("retrieve.above_theta", retrieve.RankedItem))

        def explosion(exc):
            if isinstance(exc, PathExplosion):
                c["symbolic.path_explosions"] += 1

        def paths_post(args, kwargs, result):
            c["symbolic.paths_returned"] += len(result[0])
            c["symbolic.paths_total"] += result[1]
        self._set(retrieve, "constrained_paths",
                  self.spanned("retrieve.paths", retrieve.constrained_paths,
                               post=paths_post, on_error=explosion))
        self._set(retrieve, "_character_nodes",
                  self.spanned("retrieve.character", retrieve._character_nodes))

        # symbolic
        self._set(symbolic, "constrained_paths",
                  self.spanned("symbolic.constrained_paths", symbolic.constrained_paths,
                               post=paths_post, on_error=explosion))
        for fn in SYMBOLIC_FUNCTIONS:
            self._set(symbolic, fn, self.spanned(f"symbolic.{fn}", getattr(symbolic, fn)))

        # store
        self._set(store.MemoryStore, "save", self.spanned("store.save", store.MemoryStore.save))
        load = store.MemoryStore.__dict__["load"].__func__
        self._set(store.MemoryStore, "load", classmethod(self.spanned("store.load", load)))
        self._set(store, "snapshot_dict", self.spanned("store.encode", store.snapshot_dict))
        self._set(store, "store_from_dict", self.spanned("store.decode", store.store_from_dict))
        self._set(store, "check_store", self.spanned("store.check", store.check_store))
        self._set(store, "json", types.SimpleNamespace(
            dumps=self.spanned("store.encode", json.dumps),
            loads=self.spanned("store.decode", json.loads),
            JSONDecodeError=json.JSONDecodeError,
        ))

        # cli
        self._set(cli, "run_cli", self.spanned("cli.command", cli.run_cli))

    def _cosine(self, layer, fn, pre):
        counted = self.counted("core.cosine", fn, pre)

        def wrapper(a, b):
            self.counts[f"{layer}.cosine.calls"] += 1
            return counted(a, b)
        return wrapper

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results --------------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: total seconds, self seconds, and call count."""
        names = np.asarray(self.name_id)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent)
        child_time = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        total, self_s, calls = {}, {}, {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            total[name] = float(dur[mask].sum())
            self_s[name] = float((dur[mask] - child_time[mask]).sum())
            calls[name] = int(mask.sum())
        return total, self_s, calls

    def time_under(self, name: str, ancestor: str) -> float:
        """Seconds spent in spans ``name`` that run inside a span ``ancestor``."""
        if name not in self._name_ids or ancestor not in self._name_ids:
            return 0.0
        nid, aid = self._name_ids[name], self._name_ids[ancestor]
        seconds = 0.0
        for idx in range(len(self.start)):
            if self.name_id[idx] != nid:
                continue
            p = self.parent[idx]
            while p >= 0 and self.name_id[p] != aid:
                p = self.parent[p]
            if p >= 0:
                seconds += self.end[idx] - self.start[idx]
        return seconds

    def write(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            start=np.asarray(self.start), end=np.asarray(self.end),
            parent=np.asarray(self.parent), op=np.asarray(self.op_id),
        )

    def layer_metrics(self) -> dict:
        total, self_s, calls = self.totals()
        c, leaf = self.counts, self.leaf_s

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "core.embed.calls": c["core.embed.calls"],
            "core.embed.s": leaf["core.embed"],
            "core.cosine.s": leaf["core.cosine"],
        }
        for layer in ("ingest", "maintain", "fuse", "retrieve", "symbolic"):
            m[f"{layer}.cosine.calls"] = c[f"{layer}.cosine.calls"]
        m.update({
            "ingest.parse.s": total.get("ingest.parse", 0.0),
            "ingest.observation.self_s": self_s.get("ingest.observation", 0.0),
            "ingest.resolve_anchor.s": total.get("ingest.resolve_anchor", 0.0),
            "ingest.anchors_scanned_per_percept": ratio(c["ingest.anchors_scanned"], c["ingest.percepts"]),
            "ingest.consolidate.s": total.get("ingest.consolidate", 0.0),
            "ingest.semantic_candidates_per_conclusion":
                ratio(c["ingest.semantic_candidates"], c["ingest.conclusions"]),
            "ingest.reinforced_ratio": ratio(c["ingest.reinforced"], c["ingest.conclusions"]),
            "distill.calls": c["distill.calls"],
            "distill.self_s": self_s.get("distill.distill", 0.0),
            "distill.mine.s": total.get("distill.mine", 0.0),
            "distill.patterns_mined": c["distill.patterns_mined"],
            "distill.cover.s": total.get("distill.cover", 0.0),
            "distill.cover_paths_enumerated": c["distill.cover_paths_enumerated"],
            "distill.verify.calls": c["distill.verify.calls"],
            "distill.yield": ratio(c["distill.created"], c["distill.patterns_mined"]),
            "dag.check_valid.calls": calls.get("dag.check_valid", 0),
            "dag.check_valid.s": total.get("dag.check_valid", 0.0),
            "dag.has_path.calls": c["dag.has_path.calls"],
            "dag.enumerate_paths.s": total.get("dag.enumerate_paths", 0.0),
            "dag.paths_enumerated": c["dag.paths_enumerated"],
            "dag.transition_prob.calls": c["dag.transition_prob.calls"],
            "dag.transition_prob.s": leaf["dag.transition_prob"],
            "maintain.apply.self_s": self_s.get("maintain.apply", 0.0),
            "maintain.match_logic.s": total.get("maintain.match_logic", 0.0),
            "maintain.logic_scanned_per_record": ratio(c["maintain.logic_scanned"], c["maintain.records"]),
            "maintain.gate_match_ratio": ratio(c["maintain.gate_matches"], c["maintain.records"]),
            "maintain.pool_distills": c["maintain.pool_distills"],
            "fuse.auto_fuse.self_s": self_s.get("fuse.auto_fuse", 0.0),
            "fuse.pairs_scanned": c["fuse.pairs_scanned"],
            "fuse.align.s": total.get("fuse.align", 0.0),
            "fuse.assignment_solves": c["fuse.assignment.calls"],
            "fuse.merge_ratio": ratio(c["fuse.merges"], c["fuse.attempts"]),
            "retrieve.calls": c["retrieve.calls"],
            "retrieve.self_s": self_s.get("retrieve.retrieve", 0.0),
            "retrieve.classify.s": total.get("retrieve.classify", 0.0),
            "retrieve.nodes_scored_per_query": ratio(c["retrieve.nodes_scored"], c["retrieve.calls"]),
            "retrieve.above_theta_per_query": ratio(c["retrieve.above_theta.calls"], c["retrieve.calls"]),
            "retrieve.scored_per_returned": ratio(c["retrieve.nodes_scored"], c["retrieve.returned"]),
            "retrieve.paths.s": total.get("retrieve.paths", 0.0),
            "retrieve.character.s": total.get("retrieve.character", 0.0),
        })
        for fn in SYMBOLIC_FUNCTIONS:
            m[f"symbolic.{fn}.s"] = total.get(f"symbolic.{fn}", 0.0)
            m[f"symbolic.{fn}.calls"] = calls.get(f"symbolic.{fn}", 0)
        m.update({
            "symbolic.constrained_paths.s": total.get("symbolic.constrained_paths", 0.0),
            "symbolic.paths_returned_per_enumerated":
                ratio(c["symbolic.paths_returned"], c["symbolic.paths_total"]),
            "symbolic.path_explosions": c["symbolic.path_explosions"],
            "store.encode.s": total.get("store.encode", 0.0),
            "store.write.s": self_s.get("store.save", 0.0),
            "store.read.s": self_s.get("store.load", 0.0),
            "store.decode.s": self_s.get("store.decode", 0.0),
            "store.check.s": total.get("store.check", 0.0),
            "cli.command.s": total.get("cli.command", 0.0),
            "cli.load_share": ratio(self.time_under("store.load", "cli.command"),
                                    total.get("cli.command", 0.0)),
        })
        return m

