"""
Distilling procedures from episodic memory
==========================================

Recurring action patterns across sources become LogicNodes: a goal text,
dual index vectors (goal-level and step-level), a START/GOAL-bounded
procedural DAG with Bayesian statistics, and links back to the episodic
evidence the pattern came from.
"""

from memstrata import (
    Config,
    Description,
    MemoryStore,
    ObservationRecord,
    closed_patterns,
    extract_action_sequences,
    prefixspan,
    success_rate,
    transition_prob,
)
from memstrata.dag import GOAL, START

store = MemoryStore(Config(dim=512, action_verbs=("chop", "mix", "serve", "wash")))

# Three sessions share the full routine; one mix step failed.
sessions = {
    "s1": [("chop the fruit", "success"), ("mix the fruit", "success"),
           ("serve the salad", "success")],
    "s2": [("chop the fruit", "success"), ("mix the fruit", "failure"),
           ("serve the salad", "success")],
    "s3": [("chop the fruit", "success"), ("mix the fruit", "success"),
           ("serve the salad", "success")],
}
rid = 0
for video, steps in sessions.items():
    for t, (text, outcome) in enumerate(steps):
        rid += 1
        store.ingest(ObservationRecord(
            rid, video, float(t), [Description(text, outcome=outcome)], [], []))

# ---------------------------------------------------------------
# 1. Step 1: per-source, time-ordered action sequences
# ---------------------------------------------------------------
for seq in extract_action_sequences(store):
    print(f"{seq.video}: {seq.actions}")

# ---------------------------------------------------------------
# 2. Step 2: sequential pattern mining (order matters)
# ---------------------------------------------------------------
print("\nfrequent subsequences (support >= 0.3):")
for p in prefixspan(extract_action_sequences(store), 0.3):
    print(f"  {list(p.steps)} support={p.support:.3f} from {p.supporting_videos}")

# Distill offers the verifier only the closed ones: no longer pattern with
# distinct steps contains them at the same support.
print("closed patterns, the verifier's candidates:")
for p in closed_patterns(extract_action_sequences(store), 0.3):
    print(f"  {list(p.steps)} support={p.support:.3f}")

# ---------------------------------------------------------------
# 3. Steps 3-5: verify, build the DAG, compute index vectors
# ---------------------------------------------------------------
created = store.distill()
node = store.logic[created[0]]
print(f"\nlogic node #{node.id}: {node.c!r}")
print(f"  verification score: {node.score:.3f}")
print(f"  evidence episodes:  {sorted(node.episodic_links)}")

print("  transition structure:")
for src, dst, stat in node.dag.edges():
    print(f"    {src} -> {dst}  P={transition_prob(node.dag, src, dst):.3f}")

# Beta-Binomial success statistics seeded from the outcome flags:
# mix_fruit saw 1 success + 1 failure over the (1,1) prior.
for step in node.steps:
    print(f"  success_rate[{step}] = {success_rate(node.dag, step):.3f}")

# The longest verified pattern wins; its sub-patterns are subsumed, so a
# second distillation pass has nothing left to add.
print("\nre-running distill creates:", store.distill())
assert node.dag.has_edge(START, "chop_fruit")
assert node.dag.has_edge("serve_salad", GOAL)
