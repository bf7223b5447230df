"""One catalogue of record faults against every entry point that takes a record.

Each drawn record is valid, or carries one fault from ``FAULTS``. A fault reaches an entry point
as a JSONL line (``read_observation_lines``), as a decoded dict (``record_from_dict``) or as a
record built in code (``MemoryStore.ingest`` and ``MemoryStore.apply``), wherever that form can
express it. Every entry point that sees it must raise the catalogue's type and message and leave
the store's snapshot bytes as they were; a valid record must save the same bytes whichever entry
point it came through. The full ``_attrs_fault`` walk is the oracle for drawn attrs.
"""

import dataclasses
import inspect
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memstrata import (
    Conclusion,
    Description,
    DimensionMismatch,
    MalformedRecord,
    ObservationRecord,
    Percept,
    read_observation_lines,
    record_fault,
    record_from_dict,
)
from memstrata import ingest
from memstrata.ingest import MAX_ATTRS_VALUES, _attrs_fault
from memstrata.store import snapshot_dict
from conftest import fruit_salad_store

DIM = 4
TEXT, HINT = "wash the bowl", "cy"  # the planted description's text and the planted percept's hint
BASE = fruit_salad_store(dim=DIM)  # ids 1-10, anchor "jack", videos v1-v3 at t 0-2 and home at 0
BASE.distill()
BASE_BYTES = json.dumps(snapshot_dict(BASE), sort_keys=True)


def _bytes(store) -> str:
    return json.dumps(snapshot_dict(store), sort_keys=True)


# -- valid records -------------------------------------------------------------------------------

scalars = (st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.text(max_size=3)
           | st.floats(allow_nan=False, allow_infinity=False))
json_values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=8)
valid_attrs = st.dictionaries(st.text(max_size=4), json_values, max_size=3)
descriptions = st.tuples(
    st.sampled_from(("chop the fruit", "@jack mix the fruit in a bowl", "serve the salad", TEXT)),
    valid_attrs | st.just({}), st.sampled_from(("success", "failure")), st.booleans())
conclusions = st.tuples(st.sampled_from(("character", "knowledge")),
                        st.sampled_from(("@jack is careful", "bowls are downstairs")), st.booleans())
vectors = st.lists(st.floats(-10, 10) | st.integers(-10, 10) | st.sampled_from((0.0, 1.0)),
                   min_size=DIM, max_size=DIM)
percepts = st.tuples(st.sampled_from(("face", "voice")), st.sampled_from(("jack", "bo")), vectors)
specs = st.fixed_dictionaries({
    "id": st.integers(11, 2**70) | st.integers(-2**70, 0),
    "video": st.sampled_from(("v1", "w")),
    "t": st.integers(2, 10**6) | st.floats(2, 1e6),
    "descriptions": st.lists(descriptions, max_size=3),
    "conclusions": st.lists(conclusions, max_size=2),
    "percepts": st.lists(percepts, max_size=2),
})


def as_dict(spec) -> dict:
    """``spec`` as the decoded JSONL object of its record, in either spelling of an entry."""
    return {
        "id": spec["id"], "video": spec["video"], "t": spec["t"],
        "descriptions": [text if as_str and not attrs and outcome == "success"
                         else {"text": text, "attrs": attrs, "outcome": outcome}
                         for text, attrs, outcome, as_str in spec["descriptions"]],
        "conclusions": [[ctype, text] if as_list else {"type": ctype, "text": text}
                        for ctype, text, as_list in spec["conclusions"]],
        "percepts": [{"kind": kind, "hint": hint, "vector": list(vec)} for kind, hint, vec in spec["percepts"]],
    }


def as_record(spec) -> ObservationRecord:
    """``spec`` as a record built in code."""
    return ObservationRecord(
        spec["id"], spec["video"], spec["t"],
        [Description(text, attrs, outcome) for text, attrs, outcome, _ in spec["descriptions"]],
        [Conclusion(ctype, text) for ctype, text, _ in spec["conclusions"]],
        [Percept(kind, np.array(vec, np.float64), hint) for kind, hint, vec in spec["percepts"]])


# -- the catalogue -------------------------------------------------------------------------------
# Each fault: (name, plant into the dict or None, plant into the record or None, type, message).
# A plant takes the form and the index at which it puts a planted entry.


def _top(key, value):
    def plant_dict(d, at):
        d[key] = value

    def plant_record(rec, at):
        setattr(rec, key, value)
    return plant_dict, plant_record


def _description(field, value):
    def plant_dict(d, at):
        d["descriptions"].insert(at, {"text": TEXT, field: value})

    def plant_record(rec, at):
        rec.descriptions.insert(at, Description(**{"text": TEXT, field: value}))
    return plant_dict, plant_record


def _conclusion(ctype, text):
    def plant_dict(d, at):
        d["conclusions"].insert(at, [ctype, text] if at % 2 else {"type": ctype, "text": text})

    def plant_record(rec, at):
        rec.conclusions.insert(at, Conclusion(ctype, text))
    return plant_dict, plant_record


def _percept(field, value, code_value=None):
    """A planted percept of hint ``HINT`` whose ``field`` is ``value`` (``code_value``, when given,
    in the record built in code)."""
    def plant_dict(d, at):
        d["percepts"].insert(at, {"kind": "face", "hint": HINT, "vector": [0.5, 0.0, 0.0, 0.0], field: value})

    def plant_record(rec, at):
        fields = {"kind": "face", "hint": HINT, "vector": np.array([0.5, 0.0, 0.0, 0.0])}
        fields[field] = value if code_value is None else code_value
        rec.percepts.insert(at, Percept(**fields))
    return plant_dict, plant_record


def _entry_of_vector(value):
    """A planted percept whose vector list holds ``value`` at the plant's index."""
    def plant_dict(d, at):
        vector = [0.5, 0.0, 0.0, 0.0]
        vector[at] = value
        d["percepts"].insert(at, {"kind": "face", "hint": HINT, "vector": vector})
    return plant_dict


def _entry(key, value):
    return lambda d, at: d[key].insert(at, value), None


def _extra_key(where, key):
    planted = {"description": ("descriptions", {"text": TEXT}),
               "conclusion": ("conclusions", {"type": "knowledge", "text": TEXT}),
               "percept": ("percepts", {"kind": "face", "hint": HINT, "vector": [0.5, 0, 0, 0]})}

    def plant_dict(d, at):
        if where == "record":
            d[key] = []
        else:
            entries, entry = planted[where]
            d[entries].insert(at, {**entry, key: 1})
    return plant_dict, None


def _missing(key):
    return lambda d, at: d.pop(key), None


FAULTS = (
    [(f"id={v!r}", *_top("id", v), MalformedRecord, f"record id must be an integer, got {v!r}")
     for v in ("x", True, 1.5, None, [1])]
    + [("id=int64", None, _top("id", np.int64(2))[1], MalformedRecord,
        "record id must be an integer, got np.int64(2)")]
    + [(f"video={v!r}", *_top("video", v), MalformedRecord, f"record video must be a nonempty string, got {v!r}")
       for v in ("", 5, None, ["v"])]
    + [(f"t={v!r}", *_top("t", v), MalformedRecord, f"record t must be a finite number, got {v!r}")
       for v in (float("nan"), float("inf"), -float("inf"), True, "0", None, 10**400)]
    + [("t=float32", None, _top("t", np.float32(3.0))[1], MalformedRecord,
        "record t must be a finite number, got np.float32(3.0)")]
    + [(f"{key}={v!r}", _top(key, v)[0], None, MalformedRecord, f"record {key} must be a list, got {v!r}")
       for key in ("descriptions", "conclusions", "percepts") for v in (5, None, "chop", {"text": "x"})]
    + [(f"{key} of {v!r}", None, _top(key, v)[1], MalformedRecord,
        f"record {key} must be a list of {cls.__name__}, got {v!r}")
       for key, cls, values in (
           ("descriptions", Description, (None, (Description(TEXT),), [TEXT], [Conclusion("a", "b")])),
           ("conclusions", Conclusion, (None, [("knowledge", TEXT)], [Description(TEXT)])),
           ("percepts", Percept, (None, [{"kind": "face"}], ())))
       for v in values]
    + [(f"missing {key}", *_missing(key), MalformedRecord, f"record missing required field: {key!r}")
       for key in ("id", "video", "t")]
    + [(f"unknown {where} key {key!r}", *_extra_key(where, key), MalformedRecord,
        f"{where} has unknown key {key!r}")
       for where, key in (("record", "description"), ("record", "percept"), ("record", "extra"),
                          ("description", "outcomes"), ("description", "attr"), ("conclusion", "weight"),
                          ("percept", "vec"), ("percept", "label"))]
    + [(f"description entry {v!r}", *_entry("descriptions", v), MalformedRecord, f"bad description entry: {v!r}")
       for v in (5, None, {"attrs": {}}, [TEXT])]
    + [(f"conclusion entry {v!r}", *_entry("conclusions", v), MalformedRecord, f"bad conclusion entry: {v!r}")
       for v in (5, None, {"type": "knowledge"}, ["knowledge"], ["a", "b", "c"])]
    + [(f"percept entry {v!r}", *_entry("percepts", v), MalformedRecord, f"bad percept entry: {v!r}")
       for v in (5, "face", None, ["face"])]
    + [(f"text={v!r}", *_description("text", v), MalformedRecord,
        f"description text must be a string, got {v!r}") for v in (5, None, [TEXT])]
    + [(f"outcome={v!r}", *_description("outcome", v), MalformedRecord, f"bad outcome {v!r}")
       for v in ("maybe", None, 1, "", ["success"])]
    + [(f"attrs={v!r}", *_description("attrs", v), MalformedRecord,
        f"attrs of {TEXT!r} must be an object, got {v!r}") for v in ([1], None, "x", 5)]
    + [(f"conclusion {a!r}, {b!r}", *_conclusion(a, b), MalformedRecord,
        f"conclusion type and text must be strings, got {a!r}, {b!r}")
       for a, b in ((5, TEXT), ("knowledge", None), (None, None), (["a"], "b"))]
    + [(f"kind={v!r}", *_percept("kind", v), MalformedRecord, f"percept kind must be face|voice, got {v!r}")
       for v in ("gait", None, 5, "")]
    + [(f"hint={v!r}", *_percept("hint", v), MalformedRecord, f"percept hint must be a nonempty string, got {v!r}")
       for v in ("", None, 5)]
    + [(f"vector of {v!r}", None, _percept("vector", None, v)[1], MalformedRecord,
        f"percept vector for {HINT!r} is not an array of numbers")
       for v in ([0.5, 0.0, 0.0, 0.0], None, np.array(["a"] * DIM), np.ones(DIM, bool), np.ones(DIM, complex))]
    + [(f"vector={v!r}", _percept("vector", v)[0], None, MalformedRecord,
        "percept vector must be a list of numbers")
       for v in ("no", None, {}, 5)]
    + [(f"vector entry {v!r}", _entry_of_vector(v), None, MalformedRecord,
        "percept vector must be a list of numbers")
       for v in (True, False, "0", None, [1.0], {}, np.float64(0.5), Fraction(1, 2))]
    + [("vector entry 10**400", _entry_of_vector(10**400), None, MalformedRecord,
        f"percept vector for {HINT!r} overflows a float")]
    + [(f"vector entry {v!r}", *_percept("vector", [0.5, v, 0.0, 0.0], np.array([0.5, v, 0.0, 0.0])),
        MalformedRecord, f"percept vector for {HINT!r} has a non-finite value")
       for v in (float("nan"), float("inf"), -float("inf"))]
    + [(f"vector of {n} entries", *_percept("vector", [0.5] * n, np.full(n, 0.5)), DimensionMismatch,
        f"percept vector has shape ({n},), store dim is {DIM}") for n in (0, DIM - 1, DIM + 1)]
    + [("vector of shape (1, 4)", None, _percept("vector", None, np.zeros((1, DIM)))[1], DimensionMismatch,
        f"percept vector has shape (1, {DIM}), store dim is {DIM}")]
)


# -- drawn attrs, judged by the full walk ---------------------------------------------------------

_looped = {"a": 1}
_looped["self"] = _looped
_doubled = 0
for _ in range(17):  # 17 levels of [x, x] write 2**18 - 2 values
    _doubled = [_doubled, _doubled]
bad_leaves = st.sampled_from((float("nan"), float("inf"), -float("inf"), (1, 2), {1, 2}, np.float64(0.5),
                              b"x", [float("nan")], {"n": [float("-inf")]}, _looped, _doubled))
drawn_attrs = (
    st.dictionaries(st.text(max_size=3) | st.sampled_from((1, True, None, 2.5)),
                    json_values | bad_leaves, max_size=4)
    | st.sampled_from((_looped, {f"k{i}": i for i in range(MAX_ATTRS_VALUES + 1)})))


def _line(d) -> str | None:
    """``d`` as one JSONL line, or None when json cannot write it (a set, bytes, a cycle)."""
    try:
        return json.dumps(d)
    except (TypeError, ValueError):
        return None


def _read(line: str) -> ObservationRecord:
    return read_observation_lines(['{"version": 1}', line])[0]


def _store_refuses(rec, error, message):
    """Ingest and apply each refuse ``rec`` with ``error`` and ``message`` and change nothing,
    whether its id is new or ingested: the record's rules come before the store's."""
    for rid in ([rec.id, 1] if type(rec.id) is int else [rec.id]):
        rec = dataclasses.replace(rec, id=rid)
        for op in ("ingest", "apply"):
            store = BASE.clone()
            with pytest.raises(error) as raised:
                getattr(store, op)(rec)
            assert type(raised.value) is error and str(raised.value) == message, (op, rid)
            assert _bytes(store) == BASE_BYTES


def _accepted_bytes(rec) -> str:
    """The bytes of the base store after ``rec`` is ingested and then applied."""
    store = BASE.clone()
    store.ingest(rec)
    store.apply(rec)
    assert store.check() == []
    return _bytes(store)


@settings(max_examples=250, deadline=None)
@given(spec=specs, at=st.integers(0, 3), fault=st.sampled_from(FAULTS))
def test_every_entry_point_refuses_a_fault_with_the_catalogue_s_error(spec, at, fault):
    name, plant_dict, plant_record, error, message = fault
    if plant_dict:
        d = as_dict(spec)
        plant_dict(d, at)
        parsers = [("dict", lambda: record_from_dict(d))]
        # The line form, where json writes the fault and reads it back as it was: it writes an
        # np.float64 as a float, a tuple as a list, and a set not at all.
        if (line := _line(d)) is not None and repr(json.loads(line)) == repr(d):
            parsers.append(("line", lambda: _read(line)))
        for where, parse in parsers:
            if error is DimensionMismatch:  # a rule that needs the store's dim: the parse takes it
                _store_refuses(parse(), error, message)
                continue
            with pytest.raises(error) as raised:
                parse()
            assert type(raised.value) is error and str(raised.value) == message, where
    if plant_record:
        rec = as_record(spec)
        plant_record(rec, at)
        _store_refuses(rec, error, message)


@settings(max_examples=150, deadline=None)
@given(spec=specs)
def test_a_valid_record_saves_the_same_bytes_through_every_entry_point(spec):
    d = as_dict(spec)
    expected = _accepted_bytes(as_record(spec))
    assert _accepted_bytes(record_from_dict(d)) == expected
    assert _accepted_bytes(_read(json.dumps(d))) == expected


@settings(max_examples=200, deadline=None)
@given(spec=specs, at=st.integers(0, 3), attrs=drawn_attrs)
def test_drawn_attrs_are_judged_as_the_full_walk_judges_them(spec, at, attrs):
    # The walk is the oracle at every entry point, for the attrs that entry point receives:
    # json writes a tuple as a list and an int key as a str, so the line's attrs may differ.
    at = min(at, len(spec["descriptions"]))
    rec = as_record(spec)
    rec.descriptions.insert(at, Description(TEXT, attrs))
    d = as_dict(spec)
    d["descriptions"].insert(at, {"text": TEXT, "attrs": attrs})
    forms = [("dict", lambda: record_from_dict(d), attrs)]
    if (line := _line(d)) is not None:
        forms.append(("line", lambda: _read(line), json.loads(line)["descriptions"][at]["attrs"]))
    fault = _attrs_fault([attrs])
    if fault is None:
        _accepted_bytes(rec)
    else:
        _store_refuses(rec, MalformedRecord, f"attrs of {TEXT!r} {fault}")
    for where, parse, received in forms:
        fault = _attrs_fault([received])
        if fault is None:
            _accepted_bytes(parse())
        else:
            with pytest.raises(MalformedRecord) as raised:
                parse()
            assert str(raised.value) == f"attrs of {TEXT!r} {fault}", where


def test_the_catalogue_covers_every_refusal_message():
    # Each return of record_fault and each refusal of _record has a catalogue entry.
    source = inspect.getsource(ingest.record_fault) + inspect.getsource(ingest._record) \
        + inspect.getsource(ingest._entry) + inspect.getsource(ingest._list_field) \
        + inspect.getsource(ingest._number_vector)
    templates = set(re.findall(r'(?:MalformedRecord|DimensionMismatch)\(f?"([^"]*)"', source))
    patterns = [".+".join(map(re.escape, re.split(r"\{[^}]*\}", t))) for t in templates]
    messages = [message for *_, message in FAULTS]
    assert len(patterns) == 20
    assert [p for p in patterns if not any(re.fullmatch(p, m) for m in messages)] == []


# -- the boundaries that checked nothing ---------------------------------------------------------


def test_ingest_refuses_a_record_whose_containers_are_not_lists_of_entries():
    store = BASE.clone()
    for rec in (ObservationRecord(20, "v", 2.0, None, [], []),
                ObservationRecord(20, "v", 2.0, [TEXT], [], []),
                ObservationRecord(20, "v", 2.0, [], [("knowledge", TEXT)], []),
                ObservationRecord(20, "v", 2.0, [], [], [{"kind": "face"}])):
        with pytest.raises(MalformedRecord, match="^record (descriptions|conclusions|percepts) must be a list of"):
            store.ingest(rec)
    assert _bytes(store) == BASE_BYTES


def test_apply_refuses_a_matched_record_whose_attrs_json_cannot_carry():
    # An ingested id whose record, applied, would have written NaN attrs into a logic DAG,
    # which check() reports and save refuses.
    store = BASE.clone()
    rec = ObservationRecord(20, "v9", 0.0, [Description("@jack chop the fruit"),
                                            Description("@jack wash the bowl")], [], [])
    store.ingest(rec)
    before = _bytes(store)
    rec.descriptions[1].attrs["n"] = float("nan")
    with pytest.raises(MalformedRecord, match="^attrs of '@jack wash the bowl' hold what JSON cannot carry"):
        store.apply(rec)
    assert _bytes(store) == before and store.check() == []
    del rec.descriptions[1].attrs["n"]
    report = store.apply(rec)
    assert report.matched == 1 and report.expanded_nodes == ["wash_bowl"]


# -- the reader --------------------------------------------------------------------------------


def test_an_int_timestamp_saves_the_bytes_a_jsonl_one_does():
    line = {"id": 20, "video": "v1", "t": 3, "descriptions": ["chop the fruit"]}
    from_code, from_line = BASE.clone(), BASE.clone()
    from_code.ingest(ObservationRecord(20, "v1", 3, [Description("chop the fruit")], [], []))
    from_line.ingest(_read(json.dumps(line)))
    assert _bytes(from_code) == _bytes(from_line)
    assert type(from_code.observations[20].t) is float


def test_a_misspelled_key_is_refused_by_name():
    line = {"id": 1, "video": "v", "t": 0, "description": ["@jack chop the fruit"],
            "percept": [{"kind": "face", "vector": [0.0, 1.0], "hint": "jack"}]}
    with pytest.raises(MalformedRecord, match="^record has unknown key 'description'$"):
        read_observation_lines(['{"version": 1}', json.dumps(line)])
