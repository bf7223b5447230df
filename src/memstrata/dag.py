"""Procedural DAG: START/GOAL-bounded step graph with Bayesian statistics.

Edges carry an observed transition count N and a Dirichlet prior gamma
(default 1; setting every gamma to 0 recovers the raw-frequency estimate).
Step nodes carry Beta(success_alpha, success_beta) success statistics with
the fixed (1,1) creation prior.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidDag, MissingEdge, NotAStepNode, PathExplosion

START = "START"
GOAL = "GOAL"


@dataclass(slots=True)
class DagNode:
    """A step's statistics; its label is its key in ``ProceduralDag.nodes``."""

    attrs: dict = field(default_factory=dict)
    success_alpha: float = 1.0
    success_beta: float = 1.0


@dataclass(slots=True)
class EdgeStat:
    count: float = 0.0
    gamma: float = 1.0


@dataclass(slots=True)
class Predicate:
    """One attribute test: (key, op, value).

    Ops: eq, neq, has, not_has, leq, geq, in, not_in. For in/not_in the
    value is a list or tuple of alternatives. has/not_has ignore the value.
    """

    key: str
    op: str
    value: object = None

    OPS = ("eq", "neq", "has", "not_has", "leq", "geq", "in", "not_in")

    def __post_init__(self):
        if not self.key:
            raise ValueError("predicate key must be a nonempty string")
        if self.op not in self.OPS:
            raise ValueError(f"unknown predicate op {self.op!r}")
        if self.op in ("in", "not_in") and not isinstance(self.value, (list, tuple)):
            # a string would be tested by its characters
            raise ValueError(f"predicate {self.op} needs a list or tuple of values, got {self.value!r}")


@dataclass(slots=True)
class Constraint:
    predicates: list = field(default_factory=list)


class ProceduralDag:
    """Directed acyclic step graph between the START and GOAL sentinels."""

    def __init__(self):
        self.nodes: dict[str, DagNode] = {}
        self.adj: dict[str, dict[str, EdgeStat]] = {}
        self.add_node(START)
        self.add_node(GOAL)

    # -- construction -----------------------------------------------------

    def add_node(self, label, attrs=None, success_alpha=1.0, success_beta=1.0):
        if label in self.nodes:
            return self.nodes[label]
        node = DagNode(dict(attrs or {}), success_alpha, success_beta)
        self.nodes[label] = node
        self.adj[label] = {}
        return node

    def add_edge(self, src, dst, count=0.0, gamma=1.0):
        if src not in self.nodes or dst not in self.nodes:
            raise MissingEdge(f"edge endpoint missing: {src!r} -> {dst!r}")
        stat = self.adj[src].get(dst)
        if stat is None:
            stat = EdgeStat(count, gamma)
            self.adj[src][dst] = stat
        else:
            stat.count += count
        return stat

    @classmethod
    def single_path(cls, steps) -> "ProceduralDag":
        """START -> steps... -> GOAL with prior-only edge statistics."""
        dag = cls()
        prev = START
        for step in steps:
            dag.add_node(step)
            dag.add_edge(prev, step)
            prev = step
        dag.add_edge(prev, GOAL)
        return dag

    def copy(self) -> "ProceduralDag":
        dup = ProceduralDag.__new__(ProceduralDag)
        dup.nodes = {label: DagNode(dict(n.attrs), n.success_alpha, n.success_beta)
                     for label, n in self.nodes.items()}
        dup.adj = {
            src: {dst: EdgeStat(e.count, e.gamma) for dst, e in outs.items()}
            for src, outs in self.adj.items()
        }
        return dup

    # -- inspection -------------------------------------------------------

    def step_labels(self) -> list[str]:
        return [label for label in self.nodes if label not in (START, GOAL)]

    def edges(self):
        for src, outs in self.adj.items():
            for dst, stat in outs.items():
                yield src, dst, stat

    def has_edge(self, src, dst) -> bool:
        return src in self.adj and dst in self.adj[src]

    def has_path(self, src, dst) -> bool:
        """DFS reachability; src == dst counts as reachable (empty path)."""
        if src not in self.nodes or dst not in self.nodes:
            return False
        stack, seen = [src], set()
        while stack:
            v = stack.pop()
            if v == dst:
                return True
            if v in seen:
                continue
            seen.add(v)
            stack.extend(self.adj.get(v, ()))
        return False

    def in_degrees(self) -> dict[str, int]:
        deg = {label: 0 for label in self.nodes}
        for _, dst, _ in self.edges():
            deg[dst] += 1
        return deg

    def topological_order(self) -> list[str] | None:
        """Kahn's algorithm: some topological order (callers need no
        particular one), or None when the graph has a cycle."""
        deg = self.in_degrees()
        ready = [label for label, d in deg.items() if d == 0]
        order = []
        while ready:
            v = ready.pop()
            order.append(v)
            for dst in self.adj[v]:
                deg[dst] -= 1
                if deg[dst] == 0:
                    ready.append(dst)
        return order if len(order) == len(self.nodes) else None


# -- operations -----------------------------------------------------------


def transition_prob(dag: ProceduralDag, v_i: str, v_j: str) -> float:
    """Dirichlet-smoothed transition estimate (gamma+N)/sum(gamma+N)."""
    if not dag.has_edge(v_i, v_j):
        raise MissingEdge(f"no edge {v_i!r} -> {v_j!r}")
    outs = dag.adj[v_i]
    # Sum in label order so results are identical regardless of edge
    # insertion history (e.g. live store vs reloaded snapshot).
    denom = sum(outs[dst].gamma + outs[dst].count for dst in sorted(outs))
    if denom == 0.0:
        # All-zero gammas and counts: symmetric-prior limit.
        return 1.0 / len(outs)
    e = outs[v_j]
    return (e.gamma + e.count) / denom


def success_rate(dag: ProceduralDag, v: str) -> float:
    """Beta posterior mean alpha/(alpha+beta) for a step node."""
    if v in (START, GOAL) or v not in dag.nodes:
        raise NotAStepNode(f"{v!r} is not a step node")
    node = dag.nodes[v]
    return node.success_alpha / (node.success_alpha + node.success_beta)


def record_trial(dag: ProceduralDag, v: str, success: bool) -> None:
    if v in (START, GOAL) or v not in dag.nodes:
        raise NotAStepNode(f"{v!r} is not a step node")
    node = dag.nodes[v]
    if success:
        node.success_alpha += 1.0
    else:
        node.success_beta += 1.0


def _as_float(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def satisfies(attrs: dict, constraint: Constraint) -> bool:
    """Conjunction over predicates.

    Missing keys fail positive ops (eq, has, leq, geq, in) and pass
    negative ops (neq, not_has, not_in): a step not known to satisfy a
    requirement is excluded.
    """
    for p in constraint.predicates:
        present = p.key in attrs
        value = attrs.get(p.key)
        if p.op == "eq":
            ok = present and str(value) == str(p.value)
        elif p.op == "neq":
            ok = (not present) or str(value) != str(p.value)
        elif p.op == "has":
            ok = present
        elif p.op == "not_has":
            ok = not present
        elif p.op in ("leq", "geq"):
            a, b = _as_float(value), _as_float(p.value)
            if not present or a is None or b is None:
                ok = False
            else:
                ok = a <= b if p.op == "leq" else a >= b
        elif p.op == "in":
            ok = present and str(value) in {str(v) for v in p.value}
        elif p.op == "not_in":
            ok = (not present) or str(value) not in {str(v) for v in p.value}
        else:  # pragma: no cover - Predicate validates ops
            ok = False
        if not ok:
            return False
    return True


def check_valid(dag: ProceduralDag) -> list[str]:
    """Return all validity violations; an empty list means the DAG is ok."""
    violations = []
    if START not in dag.nodes:
        violations.append("missing-start")
    if GOAL not in dag.nodes:
        violations.append("missing-goal")
    if violations:
        return violations

    for src, outs in dag.adj.items():
        if src not in dag.nodes:
            violations.append(f"unknown-edge-source: {src}")
        for dst, stat in outs.items():
            if dst not in dag.nodes:
                violations.append(f"unknown-edge-target: {src}->{dst}")
            if stat.count < 0:
                violations.append(f"negative-count: {src}->{dst}")
            if stat.gamma < 0:
                violations.append(f"negative-gamma: {src}->{dst}")

    deg = dag.in_degrees()
    if deg.get(START, 0) != 0:
        violations.append("start-has-in-edges")
    if dag.adj.get(GOAL):
        violations.append("goal-has-out-edges")

    for label, node in dag.nodes.items():
        if node.success_alpha < 1.0 or node.success_beta < 1.0:
            violations.append(f"beta-params-below-prior: {label}")

    if dag.topological_order() is None:
        violations.append("cycle")
        return violations

    # Path coverage: every step node on some START -> GOAL path.
    from_start = _reachable(dag.adj, START)
    reversed_adj: dict[str, set] = {label: set() for label in dag.nodes}
    for src, dst, _ in dag.edges():
        reversed_adj[dst].add(src)
    to_goal = _reachable(reversed_adj, GOAL)
    for label in dag.step_labels():
        if label not in from_start:
            violations.append(f"unreachable-from-start: {label}")
        if label not in to_goal:
            violations.append(f"unreachable-goal: {label}")
    return violations


def _reachable(adj, root) -> set:
    seen = set()
    stack = [root]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj.get(v, ()))
    return seen


def assert_valid(dag: ProceduralDag, context: str = "") -> None:
    violations = check_valid(dag)
    if violations:
        where = f" after {context}" if context else ""
        raise InvalidDag(f"invalid DAG{where}: {violations[0]}")


def enumerate_paths(dag: ProceduralDag, max_paths: int = 10000, max_path_len: int = 64):
    """All START -> GOAL paths, DFS with children in ascending label order.

    Raises PathExplosion when a path exceeds max_path_len nodes or more
    than max_paths paths exist. Deterministic for a fixed DAG.
    """
    kids = {u: sorted(outs) for u, outs in dag.adj.items()}  # sorted once, not once per visit
    paths: list[list[str]] = []
    path, children = [], []  # the walk so far, without v; children[i]: path[i]'s not yet walked
    v = START if START in dag.nodes else None
    while v is not None:
        if v == GOAL:
            if len(paths) >= max_paths:
                raise PathExplosion(f"more than {max_paths} START->GOAL paths")
            paths.append(path + [v])
        elif len(path) + 1 >= max_path_len:
            raise PathExplosion(f"path longer than {max_path_len} nodes")
        else:
            path.append(v)
            children.append(iter(kids.get(v, ())))
        v = None
        while children and (v := next(children[-1], None)) is None:
            children.pop()
            path.pop()
    return paths
