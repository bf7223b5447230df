"""Output checks: a brute-force retrieval oracle, snapshot round trips, digests.

None of this runs inside a timed section.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter

import numpy as np
from memstrata import GOAL, START

LAYER_RANK = {"epi": 0, "sem": 1, "logic": 2}
# Matrix products and per-node dot products may differ in the last bits.
TOL = 1e-9


class CheckFailed(Exception):
    """An output of the engine disagrees with its specification."""


def _cosines(matrix: np.ndarray, q: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1)
    qn = float(np.linalg.norm(q))
    if qn == 0.0:
        return np.zeros(len(matrix))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(norms > 0.0, (matrix @ q) / (norms * qn), 0.0)


def oracle_scores(store, q_vec: np.ndarray, qtype: str) -> dict:
    """Final score of every item above theta, keyed by (layer, id), by numpy."""
    cfg = store.config
    weights = cfg.layer_weights[qtype]
    layers = {
        "epi": {i: [n.v_e] for i, n in store.episodic.items()},
        "sem": {i: [n.v_s] for i, n in store.semantic.items()},
        "logic": {i: [n.i_goal, n.i_step] for i, n in store.logic.items()},
    }
    scores = {}
    for layer, vectors in layers.items():
        if not vectors:
            continue
        ids = sorted(vectors)
        cos = [_cosines(np.stack([vectors[i][slot] for i in ids]), q_vec)
               for slot in range(len(vectors[ids[0]]))]
        init = cos[0] if layer != "logic" else cfg.alpha * cos[0] + (1.0 - cfg.alpha) * cos[1]
        for node_id, s in zip(ids, init):
            if s > cfg.theta_retrieve:
                scores[(layer, node_id)] = float(s) * weights[layer]
    return scores


def check_ranking(store, text: str, qtype: str, ranked, k: int) -> None:
    """Compare one retrieve ranking with the numpy oracle, tolerating near-ties."""
    score = oracle_scores(store, store.embed(text), qtype)
    got = [(it.layer, it.node_id) for it in ranked]
    if len(got) != min(k, len(score)):
        raise CheckFailed(f"{text!r}: {len(got)} items ranked, oracle has {len(score)} above theta")
    for pos, (key, item) in enumerate(zip(got, ranked)):
        if key not in score:
            raise CheckFailed(f"{text!r}: rank {pos + 1} {key} is not above theta in the oracle")
        if abs(score[key] - item.score_final) > TOL:
            raise CheckFailed(f"{text!r}: {key} scored {item.score_final}, oracle {score[key]}")
    for a, b in zip(ranked, ranked[1:]):
        if (-a.score_final, LAYER_RANK[a.layer], a.node_id) > (-b.score_final, LAYER_RANK[b.layer], b.node_id):
            raise CheckFailed(f"{text!r}: {a.layer}:{a.node_id} ranked above "
                              f"{b.layer}:{b.node_id} against the score-layer-id order")
    top = set(got)
    left_out = [s for key, s in score.items() if key not in top]
    if got and left_out and max(left_out) > score[got[-1]] + TOL:
        raise CheckFailed(f"{text!r}: an item scoring {max(left_out)} was left out of the top {k}")


def _near_best(scores: dict) -> list:
    best = max(scores.values())
    return sorted(key for key, s in scores.items() if s >= best - TOL)


def retrieve_logic_dags(store, text: str, qtype: str) -> list:
    """DAGs of the logic items that may rank first among the logic items above
    theta, the procedure whose paths a constraint retrieve enumerates."""
    logic = {i: s for (layer, i), s in oracle_scores(store, store.embed(text), qtype).items()
             if layer == "logic"}
    return [store.logic[i].dag for i in _near_best(logic)] if logic else []


def goal_dags(store, goal: str) -> list:
    """DAGs of the logic nodes whose goal vector is nearest to ``goal``."""
    ids = sorted(store.logic)
    if not ids:
        return []
    sims = _cosines(np.stack([store.logic[i].i_goal for i in ids]), store.embed(goal))
    return [store.logic[i].dag for i in _near_best(dict(zip(ids, sims)))]


def exceeds_path_limits(dag, max_paths: int, max_path_len: int) -> bool:
    """Whether path enumeration has to give up on ``dag``: more than
    ``max_paths`` START->GOAL paths, or a path that reaches ``max_path_len``
    nodes before GOAL. Paths are counted over a topological order, not listed."""
    indeg = Counter(child for v in dag.nodes for child in dag.adj.get(v, ()))
    ways, longest = {START: 1}, {START: 1}
    ready = [v for v in dag.nodes if not indeg[v]]
    while ready:
        v = ready.pop()
        for child in dag.adj.get(v, ()):
            if v in ways:
                ways[child] = ways.get(child, 0) + ways[v]
                longest[child] = max(longest.get(child, 0), longest[v] + 1)
            indeg[child] -= 1
            if not indeg[child]:
                ready.append(child)
    return (ways.get(GOAL, 0) > max_paths
            or any(n >= max_path_len for v, n in longest.items() if v != GOAL))


def check_invariants(store, what: str) -> None:
    violations = store.check()
    if violations:
        raise CheckFailed(f"{what}: {len(violations)} invariant violations, first: {violations[0]}")


def check_roundtrip(first: str, second: str, what: str) -> None:
    """Compare the SHA-256 of two snapshots."""
    if first != second:
        raise CheckFailed(f"{what}: save -> load -> save changed the snapshot bytes")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: str) -> tuple[str, int]:
    """SHA-256 and size of a file, read in blocks so it is never held whole."""
    h, size = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
            size += len(block)
    return h.hexdigest(), size


def tree_sha256(*roots: str) -> str:
    """SHA-256 over the relative paths and contents of the files under ``roots``,
    skipping bytecode caches and the benchmark's output directory."""
    h = hashlib.sha256()
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d not in ("__pycache__", "out"))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, os.path.dirname(root)).encode("utf-8") + b"\0")
                h.update(file_sha256(path)[0].encode("ascii"))
    return h.hexdigest()


def digest(parts: dict) -> str:
    return sha256(json.dumps(parts, sort_keys=True).encode("utf-8"))


def check_digest(path: str, key: str, value: str) -> None:
    """Record the digest for ``key``; a different earlier digest fails the run.

    ``key`` names the code as well as the inputs, so only repeated runs of
    the same code are compared.
    """
    known = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            known = json.load(fh)
    if known.get(key, value) != value:
        raise CheckFailed(f"determinism: digest for {key} is {value}, an earlier run gave {known[key]}")
    known[key] = value
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
