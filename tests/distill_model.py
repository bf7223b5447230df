"""The distill candidate loop before closed mining, kept as a reference.

That loop offered the verifier every pattern ``prefixspan`` mines, except
those with a repeated action, which it skipped unscored. Distill now mines
only the repeat-free closed patterns (``memstrata.distill.closed_patterns``);
with the default verifier it must create the same logic nodes.

``reference_distill(store, episode_ids=None)`` runs the engine's ``distill``
with the old candidate list in place of the closed miner. Scoring, the cover
check and node construction are the engine's own, so any difference between
a store distilled each way comes from the candidates alone.
"""

import importlib

from memstrata import prefixspan

_distill = importlib.import_module("memstrata.distill")


def every_distinct_step_pattern(sequences, sigma):
    return [p for p in prefixspan(sequences, sigma) if len(set(p.steps)) == len(p.steps)]


def reference_distill(store, episode_ids=None):
    closed = _distill.closed_patterns
    _distill.closed_patterns = every_distinct_step_pattern
    try:
        return _distill.distill(store, episode_ids)
    finally:
        _distill.closed_patterns = closed
