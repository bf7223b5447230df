"""Command-line surface binding the ingest -> distill -> update -> query lifecycle.

One store is one directory holding a single snapshot file. Every command is a
function from the opened store to its output lines. Only the writers hold an
advisory ``flock`` on the store's ``.lock`` file and save; readers take no lock.
``check`` is the load's own invariant sweep, so a store it would report on exits
2 naming the first violation, as does a pool distill without registered plugins.
Exit codes: 0 success, 1 usage error, 2 data error. Every output block starts
with a format version line.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import os
import sys

from .core import Config, load_config
from .dag import Constraint, Predicate
from .errors import MemoryEngineError, StoreLocked, UnknownAnchor
from .fuse import auto_fuse, fuse_logic_nodes
from .ingest import read_observations
from .retrieve import answer_procedure
from .store import MemoryStore
from .symbolic import (aggregate_character_behaviors, constrained_paths, get_procedure_with_evidence,
                       goal_reach_probability)

SNAPSHOT_NAME = "snapshot.json"
LOCK_NAME = ".lock"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="memstrata")
    parser.add_argument("--store", default="memstore", help="store directory")
    parser.add_argument("--config", default=None,
                        help='JSON config file for a new store: {"version": 1} and any fields of '
                             "a snapshot's config object")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="ingest a JSONL observation file (phase 1)")
    p.add_argument("file")

    sub.add_parser("distill", help="mine patterns and build logic nodes (phase 2)")

    p = sub.add_parser("update", help="incremental maintenance from a JSONL file (phase 3)")
    p.add_argument("file")

    p = sub.add_parser("fuse", help="fuse two logic nodes, or all eligible pairs")
    p.add_argument("--node", action="append", type=int, default=[])
    p.add_argument("--auto", action="store_true")

    p = sub.add_parser("query", help="hybrid retrieval")
    p.add_argument("--text", required=True)
    p.add_argument("--type", default="auto",
                   choices=["auto", "factual", "constraint", "character"])
    p.add_argument("--where", action="append", default=[],
                   help="constraint predicate key=op:value")
    p.add_argument("--person", default=None)
    p.add_argument("-k", type=int, default=5)
    p.add_argument("--no-logic", action="store_true",
                   help="episodic-only baseline: exclude the logic layer")

    p = sub.add_parser("proc", help="procedure lookup with evidence and paths")
    p.add_argument("--goal", required=True)
    p.add_argument("--where", action="append", default=[])
    p.add_argument("--no-logic", action="store_true",
                   help="answer via iterative episodic retrieval instead")

    p = sub.add_parser("character", help="logic nodes linked to a person")
    p.add_argument("--person", required=True)

    p = sub.add_parser("expect", help="expected steps to GOAL from a step")
    p.add_argument("--goal", required=True)
    p.add_argument("--from", dest="from_step", required=True)

    sub.add_parser("stats", help="layer sizes, edge totals, pool size")
    sub.add_parser("check", help="global invariant sweep")
    return parser


def _parse_where(clauses) -> Constraint | None:
    if not clauses:
        return None
    predicates = []
    for clause in clauses:
        key, sep, rest = clause.partition("=")
        op, sep2, value = rest.partition(":")
        if not sep or not sep2 or not key:
            raise SystemExit(_usage(f"bad --where clause {clause!r}, expected key=op:value"))
        if op in ("in", "not_in"):
            parsed = value.split("|")
        else:
            parsed = value
        try:
            predicates.append(Predicate(key, op, parsed))
        except ValueError as exc:
            raise SystemExit(_usage(str(exc))) from None
    return Constraint(predicates)


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _open_store(args) -> MemoryStore:
    path = os.path.join(args.store, SNAPSHOT_NAME)
    if os.path.exists(path):
        if args.config:
            print("warning: --config ignored, store already exists", file=sys.stderr)
        return MemoryStore.load(path)
    config = load_config(args.config) if args.config else Config()
    return MemoryStore(config)


class _WriterLock:
    """An exclusive ``flock`` on ``<store>/.lock``, held while a writer runs.

    The lock belongs to the open file, so the kernel drops it when its holder
    ends, however it ends. The file persists and means nothing while no process
    holds it; it is never unlinked, since a path unlinked while locked lets a
    second writer lock a new inode beside the first.
    """

    def __init__(self, store_dir: str):
        self.path = os.path.join(store_dir, LOCK_NAME)

    def __enter__(self):
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        self.fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o666)
        try:
            fcntl.flock(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:  # held elsewhere, or a filesystem without flock
            os.close(self.fd)
            if isinstance(exc, BlockingIOError):
                raise StoreLocked(f"store is locked by another writer: {self.path}") from None
            raise
        return self

    def __exit__(self, *exc):
        os.close(self.fd)
        return False


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _emit_report(report) -> str:
    matched = "none" if report.matched is None else str(report.matched)
    sim = "na" if report.similarity is None else _fmt(report.similarity)
    distilled = ",".join(str(i) for i in report.distilled) or "-"
    return (
        f"record {report.record_id}: matched={matched} sim={sim}"
        f" inc={len(report.incremented)} expand_nodes={len(report.expanded_nodes)}"
        f" expand_edges={len(report.expanded_edges)} repair={len(report.repaired_edges)}"
        f" reject={len(report.rejected)} trials={report.trials}"
        f" pooled={'yes' if report.pooled else 'no'} pool={report.pool_size}"
        f" distilled={distilled}"
    )


def _print_paths(paths, out):
    for i, path in enumerate(paths, start=1):
        steps = "->".join(path.steps) if path.steps else "(direct)"
        out.append(f"path {i}: p={_fmt(path.probability)} steps={steps}")
        for step in path.steps:
            out.append(f"  success[{step}]={_fmt(path.step_success[step])}")


def _resolve_person(store, text: str) -> int:
    if text.isascii() and text.isdigit() and int(text) in store.anchors:  # "²".isdigit(), but no int
        return int(text)
    anchor_id = store.anchor_by_label(text)
    if anchor_id is None:
        raise UnknownAnchor(f"no anchor named {text!r}")
    return anchor_id


def _ingest(store, args) -> list[str]:
    records = read_observations(args.file)
    lines, total_eps = [], 0
    for rec in records:
        episodes, events = store.ingest(rec)
        total_eps += len(episodes)
        ev = ",".join(f"{kind}:{nid}" for kind, nid in events) or "-"
        lines.append(f"record {rec.id}: episodes={len(episodes)} semantic={ev}")
    return [f"ingested: {len(records)} records, {total_eps} episodic nodes", *lines]


def _distill(store, args) -> list[str]:
    created = store.distill()
    return [f"distilled: {len(created)} logic nodes"] + [
        f"logic {i}: score={_fmt(store.logic[i].score)} steps=" + ",".join(store.logic[i].steps)
        for i in created
    ]


def _update(store, args) -> list[str]:
    return [_emit_report(store.apply(rec)) for rec in read_observations(args.file)]


def _fuse(store, args) -> list[str]:
    reports = auto_fuse(store) if args.auto else [fuse_logic_nodes(store, *args.node)]
    out = [f"fused: {len(reports)} merges"]
    for rep in reports:
        out.append(f"merge: {rep.removed[0]}+{rep.removed[1]} -> {rep.new_id}")
        for l1, l2, sim in rep.alignment.pairs:
            out.append(f"  align: {l1} <-> {l2} sim={_fmt(sim)}")
        for label in rep.alignment.unmatched1:
            out.append(f"  only-first: {label}")
        for label in rep.alignment.unmatched2:
            out.append(f"  only-second: {label}")
        out.append(f"  counts: before={_fmt(rep.count_before)} after={_fmt(rep.count_after)}")
    return out


def _query(store, args) -> list[str]:
    constraint = _parse_where(args.where)
    qtype = None if args.type == "auto" else args.type
    person = _resolve_person(store, args.person) if args.person else None
    result = store.retrieve(
        args.text, qtype=qtype, constraint=constraint, person=person,
        k=args.k, include_logic=not args.no_logic,
    )
    out = [f"query: {args.text}", f"ranked: {len(result.ranked)}"]
    for i, item in enumerate(result.ranked, start=1):
        out.append(
            f"{i}. {item.layer}:{item.node_id}"
            f" init={_fmt(item.score_init)} final={_fmt(item.score_final)}"
        )
    ctx = result.answer_context
    for ep_id in ctx.evidence:
        node = store.episodic[ep_id]
        out.append(f'evidence: epi:{ep_id} t={_fmt(node.t)} "{node.d}"')
    if ctx.top_logic is not None:
        out.append(f'procedure: logic:{ctx.top_logic} "{ctx.procedure_goal}"')
    if ctx.paths is not None:
        out.append(f"paths_total: {ctx.paths_total}")
        out.append(f"paths_surviving: {len(ctx.paths)}")
        _print_paths(ctx.paths, out)
    if ctx.character_nodes is not None:
        out.append("character_nodes: " + (",".join(map(str, ctx.character_nodes)) or "-"))
    return out


def _proc(store, args) -> list[str]:
    constraint = _parse_where(args.where)
    if args.no_logic:
        answer = answer_procedure(store, args.goal, use_logic=False, constraint=constraint)
        return ["mode: episodic-baseline",
                "steps: " + ("->".join(answer.steps) or "-"),
                f"calls: {answer.calls}"]
    before = store.retrieval_calls
    pe = get_procedure_with_evidence(store, args.goal)
    paths, total = constrained_paths(
        pe.dag, constraint, store.config.max_paths, store.config.max_path_len
    )
    out = [
        f'procedure: logic:{pe.logic_id} "{pe.goal}" sim={_fmt(pe.similarity)}',
        "evidence: " + (",".join(str(e.id) for e in pe.evidence) or "-"),
        f"paths_total: {total}",
        f"paths_surviving: {len(paths)}",
    ]
    _print_paths(paths, out)
    out.append(f"calls: {store.retrieval_calls - before}")
    return out


def _character(store, args) -> list[str]:
    person = _resolve_person(store, args.person)
    nodes = aggregate_character_behaviors(store, person)
    out = [f'person: anchor:{person} "{store.anchors[person].label}"',
           f"behaviors: {len(nodes)}"]
    for node in nodes:
        out.append(
            f'logic {node.id}: score={_fmt(node.score)} c="{node.c}"'
            f" evidence={len(node.episodic_links)}"
        )
    return out


def _expect(store, args) -> list[str]:
    pe = get_procedure_with_evidence(store, args.goal)
    steps = goal_reach_probability(pe.dag, args.from_step)
    return [f'procedure: logic:{pe.logic_id} "{pe.goal}"',
            f"expect: from={args.from_step} steps={_fmt(steps)}"]


def _stats(store, args) -> list[str]:
    out = []
    for key, value in store.stats().items():
        if isinstance(value, float):
            out.append(f"{key}: {_fmt(value)}")
        else:
            out.append(f"{key}: {value}")
    return out


def _check(store, args) -> list[str]:
    # A load refuses a snapshot that check() would report on, naming its first violation,
    # and a missing store opens empty: any store opened here has passed the sweep.
    return ["check: ok"]


# Each command runs on the opened store and returns its output lines. run_cli
# takes the lock before it opens the store, and saves it after, for a writer only.
_WRITERS = {"ingest": _ingest, "distill": _distill, "update": _update, "fuse": _fuse}
_COMMANDS = {**_WRITERS, "query": _query, "proc": _proc, "character": _character,
             "expect": _expect, "stats": _stats, "check": _check}


def run_cli(argv) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "fuse" and (args.auto == bool(args.node) or len(args.node) not in (0, 2)):
        return _usage("fuse needs either --auto or exactly two --node ids")
    writer = args.command in _WRITERS
    try:
        with _WriterLock(args.store) if writer else contextlib.nullcontext():
            store = _open_store(args)
            lines = _COMMANDS[args.command](store, args)
            if writer:
                store.save(os.path.join(args.store, SNAPSHOT_NAME))
    except (MemoryEngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(["format: 1", *lines]))
    return 0


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
