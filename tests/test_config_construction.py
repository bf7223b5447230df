"""Config construction: the one-pass validator against a rule-order model, the shared default
weights, hashing, and the JSON config file: its exact round trip, its equality with a snapshot's
config section, and each file it refuses."""

import json
import math
import pickle
import re
from dataclasses import fields, replace
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memstrata import Config, ConfigError, MemoryStore
from memstrata.cli import run_cli
from memstrata.core import DEFAULT_ACTION_VERBS, DEFAULT_LAYER_WEIGHTS, dump_config, load_config

QTS = ("factual", "constraint", "character")
LAYER_NAMES = ("epi", "sem", "logic")
INTS = ("dim", "pool_trigger", "max_path_len", "max_paths")
FLOATS = ("alpha", "beta_ema", "sigma_support", "tau_verify", "delta_gate",
          "theta_retrieve", "tau_pos", "tau_neg", "tau_align", "tau_anchor")
DEFAULTS = {f.name: getattr(Config(), f.name) for f in fields(Config)}


class SubInt(int):
    pass


class SubStr(str):
    pass


def _model_fault(kw: dict):
    """The field whose rule a Config of ``kw`` (over the defaults) breaks first, in the order the
    rules are documented and applied; None for a valid config. Written from the rules alone."""
    c = dict(DEFAULTS, **kw)

    def is_int(x):
        return isinstance(x, int) and not isinstance(x, bool)

    def finite(x):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            return False
        try:
            return math.isfinite(x)
        except OverflowError:
            return False

    for name in INTS:
        if not is_int(c[name]) or c[name] < 1:
            return name
    if c["dim"] > 65536:
        return "dim"
    for name in FLOATS:
        if not finite(c[name]):
            return name
    for name in ("alpha", "beta_ema"):
        if not 0.0 <= c[name] <= 1.0:
            return name
    if not 0.0 < c["sigma_support"] <= 1.0:
        return "sigma_support"
    weights = c["layer_weights"]
    if not isinstance(weights, (dict, MappingProxyType)) or set(weights) != set(QTS) or len(weights) != 3:
        return "layer_weights"
    for per_layer in weights.values():
        if not isinstance(per_layer, (dict, MappingProxyType)) or set(per_layer) != set(LAYER_NAMES) \
                or len(per_layer) != 3:
            return "layer_weights"
        if not all(finite(w) and w >= 0.0 for w in per_layer.values()):
            return "layer_weights"
    for name in ("verifier", "goal_namer"):
        if c[name] not in ("default", "external"):
            return name
    verbs = c["action_verbs"]
    if not (type(verbs) is tuple and len(verbs) > 0
            and all(type(v) is str and v != "" for v in verbs)):
        return "action_verbs"
    return None


def _weights(**entries):
    """The default weights as plain dicts, with each ``qt__layer=value`` entry replaced."""
    w = {qt: dict(per) for qt, per in DEFAULT_LAYER_WEIGHTS.items()}
    for key, value in entries.items():
        qt, layer = key.split("__")
        w[qt][layer] = value
    return w


def _int_pool(name):
    default = DEFAULTS[name]
    return [default, int(str(default)), SubInt(default), True, False, "x", None, float(default),
            np.int64(3), float("nan"), 0, -1, 65537, 10**400, 2**70]


def _float_pool(name):
    default = DEFAULTS[name]
    return [default, float(repr(default)), 1, 0, SubInt(1), True, "x", None, np.float64(0.5),
            np.float32(0.5), float("nan"), float("inf"), -float("inf"), -0.25, 1.5, 0.0, 10**400,
            2**70]


POOLS = {name: _int_pool(name) for name in INTS}
POOLS.update({name: _float_pool(name) for name in FLOATS})
POOLS["layer_weights"] = [
    DEFAULT_LAYER_WEIGHTS, _weights(), MappingProxyType(_weights()),
    dict(reversed(list(_weights().items()))), _weights(factual__logic=1),
    _weights(constraint__sem=2**70), _weights(character__epi=np.float64(0.5)),
    _weights(factual__epi=-0.5), _weights(factual__sem=float("nan")), _weights(constraint__logic=True),
    _weights(character__sem=np.float32(1.0)), _weights(factual__epi=10**400),
    _weights(factual__logic="0.6"), {"factual": _weights()["factual"]}, {**_weights(), "extra": {}},
    {qt: {"epi": 1.0, "sem": 1.0} for qt in QTS}, {qt: [1.0, 1.0, 1.0] for qt in QTS}, [], None, 5,
]
for name in ("verifier", "goal_namer"):
    POOLS[name] = ["default", "external", SubStr("external"), "x", "", None, 5, ["default"]]
POOLS["action_verbs"] = [
    DEFAULT_ACTION_VERBS, tuple(list(DEFAULT_ACTION_VERBS)), ("chop",), ("chop", "stir"), (),
    ["chop"], "chop", ("chop", ""), ("chop", 5), ("chop", SubStr("mix")), ("chop", None), None,
]
FIELD_NAMES = tuple(POOLS)


@st.composite
def _configs(draw):
    """Keyword arguments that set up to three fields, each to a value from its pool."""
    names = draw(st.lists(st.sampled_from(FIELD_NAMES), max_size=3, unique=True))
    return {name: draw(st.sampled_from(POOLS[name])) for name in names}


@settings(max_examples=600, deadline=None)
@given(_configs())
def test_config_judges_in_rule_order(kw):
    expected = _model_fault(kw)
    for make in (lambda: Config(**kw), lambda: replace(Config(), **kw)):
        if expected is None:
            cfg = make()
            for name, value in kw.items():
                if name == "layer_weights":
                    assert cfg.layer_weights == value
                else:
                    assert getattr(cfg, name) is value  # accepted as given, not converted
        else:
            with pytest.raises(ConfigError) as caught:
                make()
            assert str(caught.value).split(" ")[0].split("[")[0] == expected, (kw, str(caught.value))


def test_construction_work_pin():
    # What a default Config and an empty store are, not how long they take to make: the
    # default weights are judged and copied once, at import, and no row chunk is mapped.
    assert Config().layer_weights is DEFAULT_LAYER_WEIGHTS
    assert Config(dim=16).layer_weights is DEFAULT_LAYER_WEIGHTS
    assert replace(Config(), alpha=0.5).layer_weights is DEFAULT_LAYER_WEIGHTS
    assert Config(action_verbs=DEFAULT_ACTION_VERBS).action_verbs is DEFAULT_ACTION_VERBS
    with pytest.raises(TypeError):
        DEFAULT_LAYER_WEIGHTS["factual"] = {"epi": 9.0, "sem": 9.0, "logic": 9.0}
    with pytest.raises(TypeError):
        DEFAULT_LAYER_WEIGHTS["factual"]["epi"] = 9.0
    # Any other mapping is the config's own copy, which the caller's later edit cannot reach.
    given_weights = _weights(factual__logic=0.7)
    cfg = Config(layer_weights=given_weights)
    assert cfg.layer_weights is not DEFAULT_LAYER_WEIGHTS and cfg.layer_weights == given_weights
    given_weights["factual"]["epi"] = 9.0
    assert cfg.layer_weights["factual"]["epi"] == 1.0
    store = MemoryStore(Config())
    blocks = list(store._centroid_rows.values()) + list(store._logic_rows.values())
    assert len(blocks) == 4
    assert [block._chunks for block in blocks] == [[], [], [], []]
    assert not store._semantic_postings and not store._action_postings


def test_a_round_trip_of_the_default_weights_shares_them():
    # A pickle or a snapshot's config is read back by from_dict: the default weights, each a
    # float, come back as the one shared mapping, as they do from Config itself in any mapping
    # and key order; an int weight, which re-saves as an int, does not.
    assert pickle.loads(pickle.dumps(Config())).layer_weights is DEFAULT_LAYER_WEIGHTS
    assert Config.from_dict(Config(dim=16).to_dict()).layer_weights is DEFAULT_LAYER_WEIGHTS
    reordered = {qt: dict(reversed(list(DEFAULT_LAYER_WEIGHTS[qt].items()))) for qt in reversed(QTS)}
    for given in (_weights(), MappingProxyType(_weights()), reordered):
        assert Config(layer_weights=given).layer_weights is DEFAULT_LAYER_WEIGHTS
    as_int = Config.from_dict({"layer_weights": _weights(factual__epi=1)})
    assert as_int.layer_weights is not DEFAULT_LAYER_WEIGHTS and as_int == Config()
    assert as_int.to_dict()["layer_weights"]["factual"]["epi"] == 1
    assert type(as_int.to_dict()["layer_weights"]["factual"]["epi"]) is int
    other = Config.from_dict({"layer_weights": _weights(factual__logic=0.7)})
    assert other.layer_weights is not DEFAULT_LAYER_WEIGHTS and other.layer_weights["factual"]["logic"] == 0.7


def test_config_hash_agrees_with_eq():
    reordered = {qt: dict(reversed(list(DEFAULT_LAYER_WEIGHTS[qt].items()))) for qt in reversed(QTS)}
    as_ints = _weights(factual__epi=1, constraint__sem=1, character__epi=1)
    for weights in (reordered, as_ints, MappingProxyType(_weights())):
        cfg = Config(layer_weights=weights)
        assert cfg == Config() and hash(cfg) == hash(Config())
    assert hash(Config(dim=16)) == hash(Config(dim=16))
    assert Config(alpha=1) == Config(alpha=1.0) and hash(Config(alpha=1)) == hash(Config(alpha=1.0))
    table = {Config(): 0}
    assert table[Config(layer_weights=reordered)] == 0 and Config(dim=16) not in table
    assert len({Config(), Config(), replace(Config(), alpha=0.3), Config(tau_pos=0.5)}) == 2
    cfg = Config(dim=32, alpha=0.25, layer_weights=_weights(factual__logic=2.5), action_verbs=("chop",))
    restored = pickle.loads(pickle.dumps(cfg))
    assert restored == cfg and hash(restored) == hash(cfg) and restored.to_dict() == cfg.to_dict()
    assert replace(cfg) == cfg and hash(replace(cfg)) == hash(cfg)
    assert replace(cfg, alpha=0.5) != cfg and replace(cfg, alpha=0.5).alpha == 0.5


@pytest.fixture(scope="module")
def conf_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("config") / "engine.conf")


_WEIGHT = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(_WEIGHT, min_size=9, max_size=9), st.sampled_from(FLOATS), st.floats(0.0, 1.0))
def test_dump_then_load_is_the_identity(conf_path, weights, name, value):
    if name == "sigma_support" and value == 0.0:
        value = 1.0
    cfg = Config(layer_weights={qt: dict(zip(LAYER_NAMES, weights[3 * i:3 * i + 3]))
                                for i, qt in enumerate(QTS)}, **{name: value})
    with open(conf_path, "w", encoding="utf-8") as fh:
        fh.write(dump_config(cfg))
    loaded = load_config(conf_path)
    assert loaded == cfg
    assert loaded.to_dict() == cfg.to_dict()


_WEIGHTS_TEXT = ('{"factual": {"epi": 1, "sem": 1, "logic": 0.6}, '
                 '"constraint": {"epi": 1, "sem": 1, "logic": 1.5}, '
                 '"character": {"epi": 1, "sem": 1.2, "logic": 1.5}}')


@pytest.mark.parametrize("weights, named", [
    (_WEIGHTS_TEXT[:-1] + ', "factual": {"epi": 2, "sem": 1, "logic": 0.6}}', "factual"),
    (_WEIGHTS_TEXT.replace('"logic": 0.6}', '"logic": 0.6, "epi": 9}'), "epi"),
])
def test_load_config_refuses_a_repeated_weight_entry(conf_path, weights, named):
    with open(conf_path, "w", encoding="utf-8") as fh:
        fh.write('{"version": 1, "layer_weights": %s}\n' % weights)
    with pytest.raises(ConfigError, match=f"^config repeats the key '{named}' in one object$"):
        load_config(conf_path)


def test_a_config_file_is_the_config_section_of_the_snapshot_of_its_store(tmp_path):
    cfg = Config(dim=32, alpha=0.25, layer_weights=_weights(factual__logic=2.5), pool_trigger=7,
                 action_verbs=("chop", "stir"), verifier="external")
    conf, snapshot = tmp_path / "engine.json", str(tmp_path / "snapshot.json")
    conf.write_text(dump_config(cfg))
    MemoryStore(load_config(str(conf))).save(snapshot)
    written = json.loads(conf.read_text())
    assert written.pop("version") == 1
    with open(snapshot, encoding="utf-8") as fh:
        assert json.load(fh)["config"] == written


# Each file, and the text load_config refuses it for: all before any store exists.
BAD_CONFIG_FILES = {
    "key = value": (b"version = 1\ndim = 32\n", "config is not valid JSON: "),
    "no version": (b'{"dim": 32}', "version must be the int 1, got None$"),
    "version 2": (b'{"version": 2, "dim": 32}', "version must be the int 1, got 2$"),
    "version true": (b'{"version": true, "dim": 32}', "version must be the int 1, got True$"),
    "version 1.0": (b'{"version": 1.0, "dim": 32}', "version must be the int 1, got 1.0$"),
    "unknown key": (b'{"version": 1, "dim": 32, "mystery_knob": 1}', "unknown config keys: "),
    "repeated key": (b'{"version": 1, "dim": 32, "dim": 64}', "^config repeats the key 'dim' in one object$"),
    "not an object": (b'[{"version": 1}]', "is not a JSON object$"),
    "NaN": (b'{"version": 1, "alpha": NaN}', "^config holds NaN, which is not a finite number$"),
    "-Infinity": (b'{"version": 1, "alpha": -Infinity}', "^config holds -Infinity, which is not"),
    "long int": (b'{"version": 1, "dim": %s}' % (b"9" * 5000), "^config is not valid JSON: Exceeds the limit"),
    "deep": (b'{"version": 1, "action_verbs": %s}' % (b"[" * 100_000 + b"]" * 100_000),
             "^config nests too deep to read$"),
    "not UTF-8": (b'{"version": 1, "action_verbs": ["caf\xe9"]}', "is not UTF-8: "),
}


@pytest.mark.parametrize("case", [*BAD_CONFIG_FILES, "missing", "directory"])
def test_a_bad_config_file_is_a_config_error_before_any_store_exists(tmp_path, capsys, case):
    path = tmp_path / "engine.json"
    if case in BAD_CONFIG_FILES:
        content, message = BAD_CONFIG_FILES[case]
        path.write_bytes(content)
    else:
        path = tmp_path if case == "directory" else path
        message = f"^cannot read config {re.escape(str(path))}: "
    with pytest.raises(ConfigError, match=message):
        load_config(str(path))
    store_dir = tmp_path / "store"
    obs = tmp_path / "obs.jsonl"
    obs.write_text('{"version": 1}\n{"id": 1, "video": "v", "t": 0.0, "descriptions": ["chop"]}\n')
    assert run_cli(["--store", str(store_dir), "--config", str(path), "ingest", str(obs)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (store_dir / "snapshot.json").exists()


def _readme_config_example() -> str:
    """The JSON block under README's "**Config**" heading."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    start = readme.index("```json\n", readme.index("**Config**")) + len("```json\n")
    return readme[start:readme.index("\n```", start)]


def test_the_readme_config_example_loads(conf_path):
    example = _readme_config_example()
    with open(conf_path, "w", encoding="utf-8") as fh:
        fh.write(example)
    named = json.loads(example)
    assert named.pop("version") == 1 and named
    assert load_config(conf_path).to_dict() == {**Config().to_dict(), **named}
