"""
Incremental maintenance: gating, EMA refinement, DAG expansion
==============================================================

New observations never trigger a rebuild. Each record either updates its
best-matching logic node (EMA on the index vectors, +1 on observed
transitions, graph expansion for unseen steps) or, when nothing matches
above the gating threshold, accumulates in a candidate pool that
periodically distills into new procedures.
"""

import numpy as np

from memstrata import Config, Description, MemoryStore, ObservationRecord, transition_prob

store = MemoryStore(Config(
    dim=512, action_verbs=("chop", "mix", "serve", "wash", "juggle"),
    pool_trigger=2,
))
rid = 0
for video in ("a", "b"):
    for t, text in enumerate(["chop the fruit", "mix the fruit", "serve the salad"]):
        rid += 1
        store.ingest(ObservationRecord(rid, video, float(t), [Description(text)], [], []))
store.distill()
node = store.logic[1]
goal_before = node.i_goal.copy()


def update(texts, video):
    global rid
    rid += 1
    rec = ObservationRecord(rid, video, 0.0, [Description(t) for t in texts], [], [])
    store.ingest(rec)
    return store.apply(rec)


# ---------------------------------------------------------------
# 1. A matching observation: EMA shift + transition counts
# ---------------------------------------------------------------
report = update(["chop the fruit", "mix the fruit", "serve the salad"], "c")
print(f"matched node {report.matched} at sim {report.similarity:.3f}")
print(f"  edges incremented: {report.incremented}")
drift = float(np.linalg.norm(node.i_goal - goal_before))
print(f"  goal index moved by |delta| = {drift:.4f}  (beta={store.config.beta_ema})")

# ---------------------------------------------------------------
# 2. A new valid step expands the graph
# ---------------------------------------------------------------
report = update(["chop the fruit", "wash the bowl", "mix the fruit"], "d")
print(f"\nexpansion: nodes {report.expanded_nodes}, edges {report.expanded_edges}")
dag = store.logic[1].dag  # an update puts a new node, with a new sealed DAG, under the id
print(f"  P(wash_bowl | chop_fruit) = {transition_prob(dag, 'chop_fruit', 'wash_bowl'):.3f}")
print(f"  P(mix_fruit | chop_fruit) = {transition_prob(dag, 'chop_fruit', 'mix_fruit'):.3f}")

# ---------------------------------------------------------------
# 3. A pair that would close a cycle is rejected, not inserted
# ---------------------------------------------------------------
report = update(["serve the salad", "chop the fruit"], "e")
print(f"\nrejected pairs (cycle protection): {report.rejected}")

# ---------------------------------------------------------------
# 4. Unrelated observations pool until a distillation cycle fires
# ---------------------------------------------------------------
report = update(["juggle three oranges"], "f")
print(f"\npooled (sim {report.similarity:.3f} below gate): pool size {report.pool_size}")
report = update(["juggle three oranges", "juggle four lemons"], "g")
print(f"pool trigger reached -> distilled new logic nodes: {report.distilled}")
for logic_id in report.distilled:
    print(f"  #{logic_id}: {store.logic[logic_id].c!r}")

print("\ninvariant sweep:", store.check() or "clean")
