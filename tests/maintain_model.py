"""A plain-dict reference model of incremental maintenance (phase 3).

The model shares no code with ``memstrata.maintain``: it holds each logic
node as dicts (edges, step statistics, evidence) and rejects cycles with its
own DFS. Its inputs are what the records, ingest and distill give: each
record's actions, the engine's gate decision (``report.matched``, covered by
criterion 6 and ``test_nearest_ties.py``) and, when the pool fires, the
nodes ``distill`` created, which the model adopts as they are.

Use ``apply_against_model(store, records)``: it applies each record to the
store and returns every difference from the model (empty means they agree)
and the engine's reports.
"""

from memstrata import GOAL, START, apply_observation
from memstrata.distill import extract_action


def _node_state(node) -> dict:
    dag = node.dag
    return {
        "edges": {(src, dst): [stat.count, stat.gamma] for src, dst, stat in dag.edges()},
        "steps": {label: [n.success_alpha, n.success_beta, dict(n.attrs)]
                  for label, n in dag.nodes.items()},
        "links": set(node.episodic_links),
    }


def _reaches(edges: dict, src: str, dst: str) -> bool:
    stack, seen = [src], set()
    while stack:
        v = stack.pop()
        if v == dst:
            return True
        if v not in seen:
            seen.add(v)
            stack.extend(b for (a, b) in edges if a == v)
    return False


class MaintenanceModel:
    def __init__(self, store):
        self.logic = {i: _node_state(node) for i, node in store.logic.items()}
        self.pool = list(store.pool)  # the pooled records' ids

    def apply(self, store, rec, matched) -> dict:
        """Fold one record into the model; returns the expected report fields."""
        actions, first_attrs = [], {}
        for desc in rec.descriptions:
            action = extract_action(desc.text, store.config.action_verbs)
            if action:
                actions.append((action, desc.outcome == "success"))
                first_attrs.setdefault(action, dict(desc.attrs))
        labels = [a for a, _ in actions]
        expected = {"pooled": matched is None, "incremented": [],
                    "expanded_nodes": [], "expanded_edges": [], "repaired_edges": [],
                    "rejected": [], "trials": 0, "pool_size": 0, "distilled": []}
        if matched is None:
            self.pool.append(rec.id)
            expected["pool_size"] = len(self.pool)
            if len(self.pool) >= store.config.pool_trigger:
                expected["distilled"] = sorted(set(store.logic) - set(self.logic))
                for i in expected["distilled"]:
                    self.logic[i] = _node_state(store.logic[i])
                self.pool = []
                expected["pool_size"] = 0
            return expected

        node = self.logic[matched]
        edges, steps = node["edges"], node["steps"]
        new = []
        for a, b in zip(labels, labels[1:]):
            if (a, b) in edges:
                edges[(a, b)][0] += 1.0
                expected["incremented"].append((a, b))
            elif a == b or a in steps and b in steps and _reaches(edges, b, a):
                expected["rejected"].append((a, b))
            else:
                for label in (a, b):
                    if label not in steps:
                        steps[label] = [1.0, 1.0, dict(first_attrs.get(label, {}))]
                        new.append(label)
                edges[(a, b)] = [1.0, 1.0]
                expected["expanded_edges"].append((a, b))
        expected["expanded_nodes"] = list(new)
        for edge in [(START, label) for label in new] + [(label, GOAL) for label in new]:
            if not _reaches(edges, *edge):
                edges[edge] = [0.0, 1.0]
                expected["repaired_edges"].append(edge)
        for action, success in actions:
            if action in steps and action not in (START, GOAL):
                steps[action][0 if success else 1] += 1.0
                expected["trials"] += 1
        episodes = store.observations[rec.id].episodes
        node["links"].update(episodes)
        return expected

    def mismatches(self, store) -> list:
        found = []
        if sorted(store.logic) != sorted(self.logic):
            found.append(("logic ids", sorted(store.logic), sorted(self.logic)))
        for i in sorted(set(store.logic) & set(self.logic)):
            got, want = _node_state(store.logic[i]), self.logic[i]
            found += [(f"logic {i} {key}", got[key], want[key])
                      for key in want if got[key] != want[key]]
        if store.pool != self.pool:
            found.append(("pool", list(store.pool), self.pool))
        return found


def apply_against_model(store, records) -> tuple:
    """Apply ``records`` to ``store`` one by one, comparing each report and
    the whole maintained state with the model after every record; returns
    the mismatches and the engine's reports."""
    model = MaintenanceModel(store)
    found, reports = [], []
    for rec in records:
        report = apply_observation(store, rec)
        reports.append(report)
        expected = model.apply(store, rec, report.matched)
        got = {key: getattr(report, key) for key in expected}
        found += [(f"record {rec.id} report {key}", got[key], want)
                  for key, want in expected.items() if got[key] != want]
        found += [(f"record {rec.id} {what}", got, want)
                  for what, got, want in model.mismatches(store)]
    return found, reports
