"""Logic distillation: mine recurring action patterns, verify, build DAG nodes.

Pipeline (phase 2): episodic memory -> per-source action sequences ->
repeat-free closed sequential patterns -> verification -> single-path
procedural DAG + dual index vectors. ``prefixspan`` mines every frequent
subsequence; it is the brute-force-checked reference the closed miner is
tested against.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import attrgetter

import numpy as np

from .core import _is_int, norm, tokenize
from .dag import GOAL, START, DagNode, ProceduralDag
from .dag import enumerate_paths  # noqa: F401 -- bench/tracing.py wraps this name
from .errors import ConfigError, InvalidInput

# Tokens skipped when looking for the object of a verb. Not linguistics,
# just enough to turn "chops the fruit" into chop_fruit deterministically.
_STOPWORDS = frozenset(
    "the a an some this that these those his her its their my your our "
    "of to in on at with and then is are was were be been it up down "
    "into onto for from by".split()
)

_VERB_SUFFIXES = ("", "s", "es", "ed", "d", "ing")


@dataclass(slots=True)
class ActionSequence:
    video: str
    actions: list


@dataclass(slots=True)
class Pattern:
    steps: tuple
    support: float
    supporting_videos: tuple


@dataclass(slots=True, frozen=True)
class LogicNode:
    """Distilled procedure, set once: goal text, dual index vectors (views of its rows of the
    store's logic rows, which ``ema_update`` writes), a sealed DAG and its evidence, the ids of its
    episodes; an update puts a new node with a new DAG and evidence under its id."""

    id: int
    c: str
    i_goal: np.ndarray
    i_step: np.ndarray
    dag: ProceduralDag
    episodic_links: frozenset = frozenset()
    score: float = 0.0
    steps: tuple = ()


@lru_cache(maxsize=8)
def _verb_forms(verbs: tuple) -> dict:
    """Each inflected form of each lexicon verb -> the verb; the first verb
    in lexicon order that has a form wins."""
    forms: dict = {}
    for verb in verbs:
        for suffix in _VERB_SUFFIXES:
            forms.setdefault(verb + suffix, verb)
    return forms


def extract_action(text: str, verbs) -> str | None:
    """Map one description to an action label.

    First lexicon verb found (inflections -s/-es/-ed/-d/-ing tolerated)
    plus the next non-stopword token; a verb with no object stands alone.
    Descriptions without a lexicon verb fall back to the full normalized
    description; empty text has no action.
    """
    tokens = tokenize(text)
    if not tokens:
        return None
    forms = _verb_forms(tuple(verbs))
    for i, token in enumerate(tokens):
        verb = forms.get(token)
        if verb is None:
            continue
        for nxt in tokens[i + 1:]:
            if nxt not in _STOPWORDS:
                return f"{verb}_{nxt}"
        return verb
    return "_".join(tokens)


def extract_action_sequences(store, episode_ids=None) -> list[ActionSequence]:
    """Group episodic nodes by source, order by time, map to action labels."""
    if episode_ids is None:
        nodes = store._episodic.values()
    else:
        for ep_id in episode_ids:
            if not (_is_int(ep_id) and ep_id in store._episodic):
                raise InvalidInput(f"no episodic node {ep_id!r}")
        nodes = list(map(store._episodic.__getitem__, sorted(episode_ids)))
    by_video: dict[str, list] = {}
    for node in nodes:
        by_video.setdefault(node.video, []).append(node)
    sequences = []
    for video in sorted(by_video):
        ordered = sorted(by_video[video], key=lambda n: (n.t, n.id))
        actions = [n.action for n in ordered if n.action]
        if actions:
            sequences.append(ActionSequence(video, actions))
    return sequences


def _support_record(records: dict, key: tuple, n: int, videos) -> tuple:
    """The one ``(support, supporting_videos)`` pair of a miner call for the
    supporter set ``key`` (ascending sequence indices): every pattern with
    that set shares its float and its tuple."""
    record = records.get(key)
    if record is None:
        record = records[key] = (len(key) / n, tuple(sorted({videos[i] for i in key})))
    return record


def _sort_by_support(patterns: list) -> None:
    # Descending support, then ascending steps, with no key tuple per
    # pattern: two stable passes (reverse=True keeps ties in order). Steps
    # are unique per pattern, so the order is total.
    patterns.sort(key=attrgetter("steps"))
    patterns.sort(key=attrgetter("support"), reverse=True)


def prefixspan(sequences, sigma: float) -> list[Pattern]:
    """All length>=2 subsequence patterns with support >= sigma.

    ``p in S`` means p occurs as a possibly non-contiguous subsequence;
    each sequence counts at most once per pattern. Sorted by descending
    support, then lexicographic steps. Patterns with the same supporting
    sequences share one ``support`` and one ``supporting_videos`` object.
    """
    n = len(sequences)
    if n == 0:
        return []
    seqs = [list(s.actions) for s in sequences]
    videos = [s.video for s in sequences]
    min_count = max(1, int(np.ceil(sigma * n - 1e-9)))
    records: dict = {}
    patterns = []
    # Depth-first over prefixes; projected: (sequence index, next scan
    # position) per supporting sequence, in ascending sequence index.
    stack = [((), [(i, 0) for i in range(n)])]
    while stack:
        prefix, projected = stack.pop()
        occurrences: dict[str, list] = {}
        for seq_idx, pos in projected:
            seen_here = set()
            seq = seqs[seq_idx]
            for j in range(pos, len(seq)):
                item = seq[j]
                if item in seen_here:
                    continue
                seen_here.add(item)
                occurrences.setdefault(item, []).append((seq_idx, j + 1))
        for item, supporters in occurrences.items():
            if len(supporters) < min_count:
                continue
            extended = prefix + (item,)
            if len(extended) >= 2:
                key = tuple(seq_idx for seq_idx, _ in supporters)
                patterns.append(Pattern(extended, *_support_record(records, key, n, videos)))
            stack.append((extended, supporters))
    _sort_by_support(patterns)
    return patterns


def closed_patterns(sequences, sigma: float) -> list[Pattern]:
    """The repeat-free closed patterns among ``prefixspan``'s output.

    A pattern is kept when it has length >= 2, distinct steps, support >=
    sigma, and no proper super-sequence with distinct steps has the same
    support. Sorted, with support records shared, as ``prefixspan`` does.

    The search is BIDE (Wang & Han, ICDE 2004) restricted to distinct
    steps: a prefix is never extended by an action it holds. A pattern with
    k steps is closed when no action outside it fits one of its k + 1 slots
    in every supporting sequence. The last slot is read off the child
    counts. Slot g < k of a sequence lies after the leftmost embedding of
    steps[:g] and before the rightmost embedding's position of steps[g].
    A prefix whose semi-maximum period g (after steps[:g], before steps[g],
    both leftmost) holds an outside action e in every supporter is pruned
    with its whole subtree, but only when fewer than min_count supporters
    hold e after the prefix: then no extension holds e, so e in slot g
    stays a distinct-step super-pattern of each extension, of equal support.
    """
    n = len(sequences)
    if n == 0:
        return []
    videos = [s.video for s in sequences]
    min_count = max(1, int(np.ceil(sigma * n - 1e-9)))
    # Every sequence in one list, each behind a None slot. A supporter of a
    # prefix is the index where its leftmost embedding ends (the slot, for
    # the empty prefix). Per index: its sequence, that sequence's end, and
    # the index of the same action's previous occurrence in it (or -1).
    flat, seq_of, end_of, prev = [], [], [], []
    starts, where, repeats = [], [], []  # per sequence
    holders = defaultdict(set)  # action -> the sequences that hold it
    for idx, seq in enumerate(sequences):
        start = len(flat)
        flat += [None, *seq.actions]
        prev.append(-1)
        positions = {}  # action -> ascending indices
        for k in range(start + 1, len(flat)):
            occ = positions.setdefault(flat[k], [])
            prev.append(occ[-1] if occ else -1)
            occ.append(k)
        seq_of += [idx] * (len(flat) - start)
        end_of += [len(flat)] * (len(flat) - start)
        starts.append(start)
        where.append(positions)
        repeats.append(len(positions) < len(seq.actions))
        for item in positions:
            holders[item].add(idx)
    records: dict = {}
    patterns = []

    # The slot helpers read the prefix, entries and embedding caches of the
    # node the loop below is visiting.
    def leftmost(c):
        if c not in firsts:
            positions, pos, out = where[seq_of[c]], starts[seq_of[c]], []
            for step in prefix:
                occ = positions[step]
                pos = occ[bisect_right(occ, pos)]
                out.append(pos)
            firsts[c] = out
        return firsts[c]

    def rightmost(c):
        if c not in lasts:
            positions, pos, out = where[seq_of[c]], end_of[c], []
            for step in reversed(prefix):
                occ = positions[step]
                pos = occ[bisect_left(occ, pos) - 1]
                out.append(pos)
            out.reverse()
            lasts[c] = out
        return lasts[c]

    def semi_maximum(c, occ) -> set:
        left = leftmost(c)
        return {bisect_left(left, pos) for pos in occ if pos < c}

    def maximum(c, occ) -> set:
        left, right, top = leftmost(c), rightmost(c), len(prefix) - 1
        slots = set()
        for pos in occ:
            slots.update(range(bisect_right(right, pos), min(bisect_left(left, pos), top) + 1))
        return slots

    def inserted(item, slots_of) -> bool:
        # Whether item fits the same slot in every supporter.
        slots = None
        for c in entries:
            here = slots_of(c, where[seq_of[c]][item])
            slots = here if slots is None else slots & here
            if not slots:
                return False
        return True

    def pruned(item) -> bool:
        return inserted(item, semi_maximum) \
            and sum(where[seq_of[c]][item][-1] > c for c in entries) < min_count

    # Depth-first over prefixes, each with one entry per supporting sequence
    # in ascending sequence order.
    stack = [((), starts)]
    while stack:
        prefix, entries = stack.pop()
        firsts, lasts = {}, {}
        key = tuple(map(seq_of.__getitem__, entries))
        # Outside actions held by every supporter: the only insertable ones.
        common = [e for e in where[key[0]] if e not in prefix and holders[e].issuperset(key)]
        if prefix and any(pruned(e) for e in common):
            continue
        children = defaultdict(list)
        for c in entries:
            after = range(c + 1, end_of[c])
            if repeats[seq_of[c]]:  # keep each action's first occurrence
                after = [k for k in after if prev[k] <= c]
            for k in after:
                children[flat[k]].append(k)
        for item in prefix:
            children.pop(item, None)

        count = len(entries)
        if len(prefix) >= 2 and all(len(occ) < count for occ in children.values()) \
                and not any(inserted(e, maximum) for e in common):
            patterns.append(Pattern(prefix, *_support_record(records, key, n, videos)))
        stack.extend((prefix + (item,), occ) for item, occ in children.items()
                     if len(occ) >= min_count)
    _sort_by_support(patterns)
    return patterns


def verify_default(pattern: Pattern, related_memories) -> float:
    """Deterministic verifier: support of the pattern, 0 for fragments."""
    if len(pattern.steps) < 2:
        return 0.0
    return pattern.support


def default_goal_name(pattern: Pattern) -> str:
    return "procedure: " + " → ".join(pattern.steps)


# As in cosine, a finite mean's x·x may overflow: its norm is then inf, and the mean scales to 0.
# Should the sum itself overflow, the mean is taken of the vectors scaled into [-1, 1], whose sum
# cannot, and scaled back: each entry of that mean lies in [-1, 1], so the product stays finite.
@np.errstate(over="ignore")
def _normalized_mean(vectors) -> np.ndarray:
    mean = np.mean(vectors, axis=0)
    if not np.isfinite(mean).all():
        scale = np.abs(vectors).max()
        mean = np.mean(np.divide(vectors, scale), axis=0) * scale
    n = norm(mean)
    return mean / n if n > 0.0 else mean


def _covered_by_existing(steps, store) -> bool:
    # Coverage by reachability: skip candidates that are a subsequence of a
    # label path of an existing logic node's DAG. Every step node lies on a
    # START -> GOAL path (check_valid), so for distinct steps that holds
    # exactly when each step is a step node and reaches the next one.
    if START in steps or GOAL in steps:
        return False
    wanted = set(steps)
    for node in store._logic.values():
        dag = node.dag
        if dag.nodes.keys() >= wanted \
                and all(dag.has_path(a, b) for a, b in zip(steps, steps[1:])):
            return True
    return False


def _related(episodic, by_action, steps) -> list:
    # Verification evidence: every episodic node whose action is a step,
    # in ascending id.
    return list(map(episodic.__getitem__, sorted(chain.from_iterable(by_action[step] for step in steps))))


def distill(store, episode_ids=None) -> list[int]:
    """Run the full distillation pipeline; returns new LogicNode ids.

    ``episode_ids`` restricts sequence extraction (used by the candidate
    pool); verification evidence is always gathered store-wide. The
    candidates are the repeat-free closed patterns, processed longest-first
    within equal support so complete procedures land before their
    fragments, which are then skipped as covered.
    """
    if store.verifier_fn is None or store.goal_namer_fn is None:
        raise ConfigError("external verifier/goal_namer selected but not registered")
    sequences = extract_action_sequences(store, episode_ids)
    candidates = closed_patterns(sequences, store.config.sigma_support)
    if not candidates:
        return []
    candidates.sort(key=lambda p: (-p.support, -len(p.steps), p.steps))

    # Every candidate is scored before the first node is created, so a bad
    # score leaves the store unchanged. The verifier's inputs do not depend
    # on the nodes created below.
    verifier = store.verifier_fn
    goal_namer = store.goal_namer_fn
    # Evidence index: each mined action -> the ids of its episodic nodes,
    # store-wide, ascending.
    episodic = store._episodic
    postings = store._action_postings
    by_action = {action: postings.get(action, ()) for seq in sequences for action in seq.actions}
    scored = []
    for pattern in candidates:
        score = verifier(pattern, _related(episodic, by_action, pattern.steps))
        if isinstance(score, bool) or not isinstance(score, numbers.Real) \
                or not math.isfinite(score):
            raise InvalidInput(f"verifier scored {pattern.steps} {score!r}; "
                               "expected a finite real number")
        scored.append((pattern, float(score)))

    created = []
    chronological = {}  # step -> its episodic nodes by (t, id)
    for pattern, score in scored:
        if score <= store.config.tau_verify:
            continue
        if _covered_by_existing(pattern.steps, store):
            continue

        related = _related(episodic, by_action, pattern.steps)
        dag = ProceduralDag.single_path(pattern.steps)  # valid: its steps are distinct actions
        for step in pattern.steps:
            if step not in chronological:
                chronological[step] = sorted(map(episodic.__getitem__, by_action[step]),
                                             key=lambda e: (e.t, e.id))
            attrs, alpha, beta = {}, 1.0, 1.0
            for ep in chronological[step]:
                for key, value in ep.attrs.items():
                    attrs.setdefault(key, value)
                if ep.outcome == "success":
                    alpha += 1.0
                else:
                    beta += 1.0
            dag.nodes[step] = DagNode(attrs, alpha, beta)

        c = goal_namer(pattern)
        i_goal = store.embed(c)
        i_step = _normalized_mean([store.embed(s) for s in pattern.steps])
        logic_id = store._next_logic_id
        store._next_logic_id += 1
        goal_rows, step_rows = store._logic_rows.values()
        store._logic[logic_id] = LogicNode(
            id=logic_id,
            c=c,
            i_goal=goal_rows.append(logic_id, i_goal),  # the node holds its rows
            i_step=step_rows.append(logic_id, i_step),
            dag=dag.sealed(),
            episodic_links=frozenset(map(attrgetter("id"), related)),
            score=score,
            steps=tuple(pattern.steps),
        )
        created.append(logic_id)
    return created
