"""Knowledge fusion: merge DAG variants of one procedure into a multi-path DAG.

Three stages: embedding-based optimal node alignment, edge union with
endpoints mapped through the alignment, and Bayesian statistic pooling
(Beta: alpha1+alpha2-1; Dirichlet gammas counted once on merged edges).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import cosine
from .dag import GOAL, START, ProceduralDag, check_valid
from .errors import FusionCycle, InvalidInput, InvalidPrior

_EPS = 1e-9


@dataclass(slots=True)
class Alignment:
    """One-to-one step matching; START/GOAL align unconditionally."""

    pairs: list = field(default_factory=list)  # (label1, label2, similarity)
    unmatched1: list = field(default_factory=list)
    unmatched2: list = field(default_factory=list)


def _augment(sim: list, u: list, v: list, row_of: list, row: int, cols: list) -> None:
    """Match the free ``row`` along one shortest augmenting path over ``cols``.

    One Jonker-Volgenant step (Computing 38, 1987) on the reduced costs
    ``-sim[i][j] - u[i] - v[j]``, which are >= 0 for every matched row:
    Dijkstra from ``row`` to the nearest free column of ``cols``, then a flip
    along the path. ``row_of[j]`` is column j's row, or -1 when free. ``u``,
    ``v`` and ``row_of`` change in place; the duals stay feasible and every
    matched pair stays tight, so a matching built by these steps is optimal.
    """
    inf = float("inf")
    size = len(v)
    dist = [inf] * size
    via = [-1] * size  # the column whose row reached j; -1 for ``row`` itself
    todo = list(cols)
    reached = []
    i, prev = row, -1
    while True:
        sim_i, u_i = sim[i], u[i]
        delta, nearest = inf, -1
        for j in todo:
            d = -sim_i[j] - u_i - v[j]
            if d < dist[j]:
                dist[j], via[j] = d, prev
            if dist[j] < delta:
                delta, nearest = dist[j], j
        u[row] += delta
        for j in reached:
            u[row_of[j]] += delta
            v[j] -= delta
        for j in todo:
            dist[j] -= delta
        todo.remove(nearest)
        reached.append(nearest)
        if row_of[nearest] < 0:
            break
        i, prev = row_of[nearest], nearest
    j = nearest
    while j >= 0:
        prev = via[j]
        row_of[j] = row if prev < 0 else row_of[prev]
        j = prev


def _solve(sim: list) -> tuple:
    """Max-total assignment of a square matrix (Kuhn's Hungarian method).

    Returns ``(col_of, u, v)``: row i takes column ``col_of[i]``, and the
    duals satisfy ``u[i] + v[j] <= -sim[i][j]`` with equality on every
    matched pair. O(n^3) on Python lists: fusion aligns a few dozen steps
    at most.
    """
    size = len(sim)
    u, v, row_of = [0.0] * size, [0.0] * size, [-1] * size
    cols = list(range(size))
    for row in range(size):
        _augment(sim, u, v, row_of, row, cols)
    col_of = [0] * size
    for col, row in enumerate(row_of):
        col_of[row] = col
    return col_of, u, v


# ``bench/tracing.py`` counts ``fuse.assignment_solves`` through this name.
linear_sum_assignment = _solve


def _lexicographic_optimal_assignment(sim: np.ndarray) -> list:
    """Max-total assignment on a square matrix, lexicographically smallest.

    Rows are fixed in order; for each row the smallest column ``c`` with
    ``sim[row, c] + opt(rest) >= target - _EPS`` wins, where ``target`` is
    the optimal total less the similarities already fixed. Rows and columns
    are pre-sorted by label, so the result breaks ties by (label1, label2)
    as required.

    One solve gives an optimal matching of the rest and its duals. The
    matched column always qualifies (forcing it loses nothing), and the
    reduced cost of any other column bounds from below what forcing it
    loses, so only a column whose reduced cost is within ``_EPS`` of zero
    needs the exact test: one augmenting path re-matches the row that held
    it.
    """
    sim = sim.tolist()
    size = len(sim)
    col_of, u, v = linear_sum_assignment(sim)
    row_of = [0] * size
    for row, col in enumerate(col_of):
        row_of[col] = row
    target = sum(sim[row][col] for row, col in enumerate(col_of))
    remaining_cols = list(range(size))
    assignment = []
    for row in range(size):
        sim_row, matched = sim[row], col_of[row]
        for col in remaining_cols:
            if col == matched:
                break
            if -sim_row[col] - u[row] - v[col] > _EPS:
                continue  # forcing col loses more than _EPS
            rest_cols = [c for c in remaining_cols if c != col]
            t_u, t_v, t_row_of = u[:], v[:], row_of[:]
            t_row_of[matched] = -1
            _augment(sim, t_u, t_v, t_row_of, row_of[col], rest_cols)
            t_col_of = {t_row_of[c]: c for c in rest_cols}
            rest = sum(sim[r][t_col_of[r]] for r in range(row + 1, size))
            if sim_row[col] + rest >= target - _EPS:
                u, v, row_of = t_u, t_v, t_row_of
                for r, c in t_col_of.items():
                    col_of[r] = c
                break
        assignment.append((row, col))
        remaining_cols.remove(col)
        target -= sim_row[col]
    return assignment


def align_nodes(g1: ProceduralDag, g2: ProceduralDag, embedder, tau_align: float = 0.8) -> Alignment:
    """Optimal bipartite matching of step nodes by label-embedding cosine.

    Pairs below tau_align are dropped after matching. Equal-weight
    matchings resolve to the lexicographically smallest (label1, label2).
    """
    steps1 = sorted(g1.step_labels())
    steps2 = sorted(g2.step_labels())
    alignment = Alignment(pairs=[(START, START, 1.0)])

    if steps1 and steps2:
        vecs1 = [embedder.embed(s) for s in steps1]
        vecs2 = [embedder.embed(s) for s in steps2]
        size = max(len(steps1), len(steps2))
        sim = np.zeros((size, size))
        for i, v1 in enumerate(vecs1):
            sim[i, :len(vecs2)] = cosine(v1, vecs2)
        matched1, matched2 = set(), set()
        step_pairs = []
        for row, col in _lexicographic_optimal_assignment(sim):
            if row >= len(steps1) or col >= len(steps2):
                continue  # padding
            if sim[row, col] < tau_align:
                continue
            step_pairs.append((steps1[row], steps2[col], float(sim[row, col])))
            matched1.add(steps1[row])
            matched2.add(steps2[col])
        alignment.pairs.extend(sorted(step_pairs))
        alignment.unmatched1 = [s for s in steps1 if s not in matched1]
        alignment.unmatched2 = [s for s in steps2 if s not in matched2]
    else:
        alignment.unmatched1 = list(steps1)
        alignment.unmatched2 = list(steps2)

    alignment.pairs.append((GOAL, GOAL, 1.0))
    return alignment


def pool_beta(a1, a2):
    """Pool two Beta posteriors that share the (1,1) creation prior.

    (alpha1+alpha2-1, beta1+beta2-1) equals the posterior of the
    concatenated trial sequence, exactly.
    """
    for alpha, beta in (a1, a2):
        if alpha < 1.0 or beta < 1.0:
            raise InvalidPrior(f"Beta parameters below the (1,1) prior: {(alpha, beta)}")
    return (a1[0] + a2[0] - 1.0, a1[1] + a2[1] - 1.0)


def fuse(g1: ProceduralDag, g2: ProceduralDag, embedder, tau_align: float = 0.8) -> ProceduralDag:
    """Merge two valid DAGs of the same procedure into one multi-path DAG, a builder.

    Aligned nodes merge (attrs union with g1 precedence, Beta pooled);
    unmatched nodes carry over; edges union with counts added and gammas
    counted once on merged edges. Fails atomically with FusionCycle if the
    union would contain a cycle; the inputs are never mutated.
    """
    for name, g in (("first", g1), ("second", g2)):
        if violations := check_valid(g):
            raise InvalidInput(f"{name} input DAG invalid: {violations[0]}")

    return _fuse_aligned(g1, g2, align_nodes(g1, g2, embedder, tau_align))


def _fuse_aligned(g1: ProceduralDag, g2: ProceduralDag, alignment: Alignment) -> ProceduralDag:
    """``fuse`` of two valid DAGs under their alignment."""
    mapping2 = {l2: l1 for l1, l2, _ in alignment.pairs}

    fused = ProceduralDag()
    for l1, l2, _ in alignment.pairs:
        n1, n2 = g1.nodes[l1], g2.nodes[l2]
        alpha, beta = pool_beta(
            (n1.success_alpha, n1.success_beta), (n2.success_alpha, n2.success_beta)
        )
        fused.add_node(l1, {**n2.attrs, **n1.attrs}, alpha, beta)
    for label in alignment.unmatched1:
        n = g1.nodes[label]
        fused.add_node(label, n.attrs, n.success_alpha, n.success_beta)
    for label in alignment.unmatched2:
        n = g2.nodes[label]
        target = label
        while target in fused.nodes:  # label collision with an unaligned twin
            target += "~"
        mapping2[label] = target
        fused.add_node(target, n.attrs, n.success_alpha, n.success_beta)

    for src, dst, stat in g1.edges():
        fused.add_edge(src, dst, stat.count, stat.gamma)
    for src, dst, stat in g2.edges():
        ms, md = mapping2[src], mapping2[dst]
        if fused.has_edge(ms, md):
            edge = fused.add_edge(ms, md, stat.count)
            edge.gamma = edge.gamma + stat.gamma - 1.0
        else:
            fused.add_edge(ms, md, stat.count, stat.gamma)

    if violations := check_valid(fused):
        raise FusionCycle(f"fused union is not a valid DAG: {violations[0]}")
    return fused


@dataclass(slots=True)
class FusionReport:
    new_id: int
    removed: tuple
    alignment: Alignment
    count_before: float
    count_after: float


def _total_count(dag: ProceduralDag) -> float:
    return sum(stat.count for _, _, stat in sorted(dag.edges(), key=lambda e: (e[0], e[1])))


def fuse_logic_nodes(store, id_a: int, id_b: int) -> FusionReport:
    """Replace two logic nodes by their fusion.

    The fused node keeps the first node's goal text; index vectors are the
    component-wise mean of the inputs'; evidence links union. The store's kept
    state is built again (``_build_kept``), as a load builds it, since a row
    cannot be deleted.
    """
    from .distill import LogicNode

    logic = store._logic
    for logic_id in (id_a, id_b):
        if logic_id not in logic:
            raise InvalidInput(f"no logic node {logic_id}")
    if id_a == id_b:
        raise InvalidInput("cannot fuse a logic node with itself")
    a, b = logic[id_a], logic[id_b]
    # Through the store's checked embed, which refuses a vector that is not dim finite floats.
    alignment = align_nodes(a.dag, b.dag, store, store.config.tau_align)
    before = _total_count(a.dag) + _total_count(b.dag)
    fused_dag = _fuse_aligned(a.dag, b.dag, alignment)  # a store's DAGs are valid

    logic_id = store._next_logic_id
    store._next_logic_id += 1
    node = LogicNode(
        id=logic_id,
        c=a.c,
        i_goal=a.i_goal / 2.0 + b.i_goal / 2.0,  # halved first: a finite sum may overflow
        i_step=a.i_step / 2.0 + b.i_step / 2.0,
        dag=fused_dag.sealed(),
        episodic_links=a.episodic_links | b.episodic_links,
        score=max(a.score, b.score),
        steps=a.steps,
    )
    for old_id in (id_a, id_b):
        del logic[old_id]
    logic[logic_id] = node
    store._build_kept()
    return FusionReport(logic_id, (id_a, id_b), alignment, before, _total_count(fused_dag))


def auto_fuse(store) -> list:
    """Fuse logic-node pairs whose i_goal cosine clears tau_align.

    Lowest-id pair first; pairs whose union would cycle are skipped.
    Repeats until no eligible pair remains.
    """
    reports = []
    failed: set = set()
    logic = store._logic
    while True:
        ids = list(logic)
        candidate = None
        for i, id_a in enumerate(ids):
            rest = [id_b for id_b in ids[i + 1:] if (id_a, id_b) not in failed]
            sims = cosine(logic[id_a].i_goal, [logic[id_b].i_goal for id_b in rest])
            hits = np.flatnonzero(sims >= store.config.tau_align)
            if hits.size:
                candidate = (id_a, rest[hits[0]])
                break
        if candidate is None:
            return reports
        try:
            reports.append(fuse_logic_nodes(store, *candidate))
        except FusionCycle:
            failed.add(candidate)
