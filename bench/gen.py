"""Seeded input generators for the benchmark workloads.

Every function here is a pure function of its arguments: the same seed
gives the same JSONL text, query texts and constraints. Nothing is read
back from a store; query texts, goals and constraints come from the
generator's own templates.
"""

from __future__ import annotations

import json
import random

import numpy as np

DIM = 512
RECORDS = 5000       # stream and recall records
PEOPLE = 40
TEMPLATES = 12       # procedure templates, plus a variant of the first
QUERIES = 400        # retrieve queries and symbolic calls generated per seed
SESSIONS = 200       # update sessions per procedure length
PROCEDURE_QUERIES = 24

# A subset of the engine's default verb lexicon, so every description maps
# to a verb_object action label.
VERBS = (
    "chop", "cut", "mix", "serve", "blanch", "slice", "peel", "pour",
    "wash", "stir", "boil", "fry", "bake", "grab", "place", "open",
    "close", "pick", "put", "add", "wipe", "fold", "assemble", "attach",
)
OBJECTS = (
    "apple", "bread", "carrot", "dough", "egg", "fish", "garlic", "herbs",
    "jar", "kettle", "lemon", "melon", "noodles", "onion", "pan", "rice",
    "salad", "tomato", "tray", "butter", "cheese", "pepper", "potato",
    "lid", "board", "bowl", "sauce", "flour", "towel", "plate", "cup",
    "spoon", "oven", "sink", "box", "shelf", "drawer", "bag", "basket",
    "bottle",
)
TOOLS = ("knife", "bowl", "pan", "spoon", "whisk", "board", "tray", "oven")
SYMBOLIC_FUNCTIONS = (
    "query_step_sequence", "get_procedure_with_evidence",
    "aggregate_character_behaviors", "goal_reach_probability",
)
TRAITS = (
    "is careful with sharp tools", "prefers fresh produce", "cleans as they go",
    "likes spicy food", "works quickly", "measures everything twice",
    "avoids dairy", "tidies the counter first", "cooks for large groups",
    "reuses leftovers", "hums while working", "keeps recipes on paper",
)


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _vector(v: np.ndarray) -> list:
    # Six decimals keep the JSONL small; the engine sees the parsed floats.
    return np.round(v, 6).tolist()


def _action_pool(rng: random.Random) -> list:
    pool = [(v, o) for v in VERBS for o in OBJECTS]
    rng.shuffle(pool)
    return pool


def _step_attrs(rng: random.Random) -> dict:
    return {"tool": rng.choice(TOOLS), "minutes": rng.randint(1, 9)}


HEADER = json.dumps({"version": 1})


def _line(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


class People:
    """Face (and for some, voice) base vectors; percepts add small noise."""

    def __init__(self, seed: int, count: int):
        rng = np.random.default_rng(seed % 2**32)
        self.labels = [f"p{i}" for i in range(count)]
        self.face = [_unit(rng, DIM) for _ in range(count)]
        self.voice = [_unit(rng, DIM) if i % 3 == 0 else None for i in range(count)]

    def percepts(self, noise: np.random.Generator, person: int, with_voice: bool) -> list:
        out = [{"kind": "face", "hint": self.labels[person],
                "vector": _vector(self.face[person] + 0.004 * noise.standard_normal(DIM))}]
        if with_voice and self.voice[person] is not None:
            out.append({"kind": "voice", "hint": self.labels[person],
                        "vector": _vector(self.voice[person] + 0.004 * noise.standard_normal(DIM))})
        return out


def _templates(rng: random.Random, pool: list, count: int, lo: int, hi: int) -> list:
    templates, used = [], 0
    for _ in range(count):
        n = rng.randint(lo, hi)
        templates.append([pool[used + i] for i in range(n)])
        used += n
    return templates


def goal_text(steps) -> str:
    return " ".join(f"{v} {o}" for v, o in steps)


def lifecycle_inputs(seed: int) -> dict:
    """Records for the stream and recall workloads, plus their queries.

    Sources each run one procedure template as one record per step; a few
    steps carry a noise action in between. Template choice is skewed: the
    first template, in two variants that differ in one step, covers most
    sources, so distillation mines that family and fusion finds similar
    goals to merge.
    Records of concurrent sources interleave in time. About one record in
    seven is a whole short session (three consecutive steps in one record)
    that the update gate can match. Every third record carries a
    conclusion about the acting person.

    ``lines()`` returns a fresh iterator over the JSONL text, header first,
    generating each line as it is taken; every call yields the same lines.
    """
    rng = random.Random(seed)
    people = People(seed, PEOPLE)
    pool = _action_pool(rng)
    # The frequent template always has 7 steps, so every seed mines the same
    # number of patterns from it.
    templates = _templates(rng, pool, 1, 7, 7)
    templates += _templates(rng, pool[7:], TEMPLATES - 1, 4, 7)
    used = sum(len(t) for t in templates)
    variant = list(templates[0])
    variant[len(variant) // 2] = pool[used]
    templates.append(variant)
    noise_actions = pool[used + 1:used + 61]
    # The first template and its variant take about 60% of the sources; the
    # other templates share the rest with Zipf-like weights.
    weights = [0.33] + [0.4 / (i + 1) ** 1.1 / 3.0 for i in range(TEMPLATES - 1)] + [0.27]
    favourite = [rng.randrange(len(TRAITS)) for _ in range(PEOPLE)]

    events, source = [], 0
    while len(events) < RECORDS:
        person = rng.randrange(PEOPLE)
        steps = list(rng.choices(templates, weights)[0])
        start = rng.uniform(0.0, RECORDS / 6.0)
        if rng.random() < 0.15:
            first = rng.randrange(len(steps) - 2)
            events.append((start, source, person, steps[first:first + 3]))
        else:
            if rng.random() < 0.3:
                steps.insert(rng.randrange(1, len(steps)), rng.choice(noise_actions))
            for i, step in enumerate(steps):
                events.append((start + i, source, person, [step]))
        source += 1
    events.sort(key=lambda e: (e[0], e[1]))
    events = events[:RECORDS]

    def lines():
        rng = random.Random(seed * 7919 + 1)
        noise = np.random.default_rng([seed % 2**32, 1])
        yield HEADER
        for rid, (t, src, person, steps) in enumerate(events, start=1):
            label = people.labels[person]
            rec = {
                "id": rid, "video": f"s{src}", "t": round(t, 6),
                "descriptions": [{
                    "text": (f"@{label} " if i == 0 else "") + f"{verb} {obj}",
                    "attrs": _step_attrs(rng),
                    "outcome": "failure" if rng.random() < 0.1 else "success",
                } for i, (verb, obj) in enumerate(steps)],
                "percepts": people.percepts(noise, person, with_voice=rng.random() < 0.3),
            }
            if rid % 3 == 0:
                trait = TRAITS[favourite[person] if rng.random() < 0.7 else rng.randrange(len(TRAITS))]
                rec["conclusions"] = [{"type": "character", "text": f"@{label} {trait}"}]
            yield _line(rec)

    queries = []
    for _ in range(QUERIES):
        kind = rng.choice(("factual", "factual", "constraint", "character"))
        steps = rng.choices(templates, weights)[0]
        verb, obj = rng.choice(steps)
        label = people.labels[rng.randrange(PEOPLE)]
        if kind == "factual":
            queries.append({"kind": kind, "text": f"when did someone {verb} {obj}"})
        elif kind == "constraint":
            tool = rng.choice(TOOLS)
            queries.append({"kind": kind, "text": f"how to {goal_text(steps)} without a {tool}",
                            "where": [["tool", "neq", tool]]})
        else:
            queries.append({"kind": kind, "text": f"what does {label} usually do",
                            "person": label})

    # Symbolic goals name the frequent procedure family, which distillation
    # is certain to have mined, so goal resolution never misses.
    symbolic = []
    for _ in range(QUERIES):
        steps = rng.choice((templates[0], variant))
        fn = rng.choice(SYMBOLIC_FUNCTIONS)
        entry = {"fn": fn, "goal": goal_text(steps),
                 "person": people.labels[rng.randrange(PEOPLE)]}
        if fn == "query_step_sequence" and rng.random() < 0.5:
            entry["where"] = [["tool", "neq", rng.choice(TOOLS)]]
        symbolic.append(entry)

    return {"lines": lines, "records": len(events), "queries": queries, "symbolic": symbolic}


def procedure_inputs(seed: int, length: int) -> dict:
    """One procedure of ``length`` steps, its mining sources and update sessions.

    The procedure and a variant that differs in its middle step are each
    observed in three sources, one record per step, with one noise action
    inserted at random. Each update session replays the procedure in one
    record with one or two steps swapped for that step's alternative, so
    maintenance grows a ladder of variants and fusion merges the variants.
    """
    rng = random.Random(seed * 1000 + length)
    pool = _action_pool(rng)
    base = pool[:length]
    alt = pool[length:2 * length]
    noise = pool[2 * length:2 * length + 20]
    variant = list(base)
    variant[length // 2] = alt[length // 2]

    lines, rid = [HEADER], 0

    def add(video, t, steps):
        nonlocal rid
        rid += 1
        lines.append(_line({
            "id": rid, "video": video, "t": float(t),
            "descriptions": [{"text": f"{v} {o}", "attrs": _step_attrs(rng)} for v, o in steps],
        }))

    for s, steps in enumerate((base, base, base, variant, variant, variant)):
        steps = list(steps)
        steps.insert(rng.randrange(1, length), rng.choice(noise))
        for i, step in enumerate(steps):
            add(f"src{s}", i, [step])
    n_mined = rid
    for k in range(SESSIONS):
        steps = list(base)
        for pos in rng.sample(range(length), rng.choice((1, 2))):
            steps[pos] = alt[pos]
        add(f"upd{k}", 0, steps)

    queries = []
    for _ in range(PROCEDURE_QUERIES // 2):
        verb, obj = rng.choice(base)
        tool = rng.choice(TOOLS)
        queries.append({"kind": "factual", "text": f"when did someone {verb} {obj}"})
        queries.append({"kind": "constraint", "text": f"how to {goal_text(base)} without a {tool}",
                        "where": [["tool", "neq", tool]]})
    return {
        "mine_lines": lines[:1 + n_mined],
        "update_lines": [HEADER] + lines[1 + n_mined:],
        "goal": goal_text(base),
        "steps": [f"{v}_{o}" for v, o in base],
        "queries": queries,
        "constraints": [[["tool", "neq", t]] for t in rng.sample(TOOLS, 3)],
    }
