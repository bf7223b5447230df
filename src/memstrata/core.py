"""Shared primitives: configuration, the text embedding abstraction, cosine.

Everything downstream compares vectors by cosine similarity, so the default
embedder keeps its outputs L2-normalized. It is a deterministic token
feature-hasher, not a neural model; real embedders plug in behind the same
``Embedder`` interface.
"""

from __future__ import annotations

import functools
import json
import math
import mmap
import re
from dataclasses import dataclass, field, fields
from operator import attrgetter
from types import MappingProxyType
from typing import Protocol

import numpy as np

from .errors import ConfigError, DimensionMismatch

QUERY_TYPES = ("factual", "constraint", "character")
LAYERS = ("epi", "sem", "logic")

# Read-only at both levels, and valid: every Config that is not given weights of its own
# shares this one mapping, which it neither judges nor copies again, and so does one given
# weights equal to it, each a float.
DEFAULT_LAYER_WEIGHTS = MappingProxyType({
    "factual": MappingProxyType({"epi": 1.0, "sem": 1.0, "logic": 0.6}),
    "constraint": MappingProxyType({"epi": 1.0, "sem": 1.0, "logic": 1.5}),
    "character": MappingProxyType({"epi": 1.0, "sem": 1.2, "logic": 1.5}),
})

DEFAULT_ACTION_VERBS = (
    "chop", "cut", "mix", "serve", "blanch", "slice", "peel", "pour",
    "wash", "stir", "boil", "fry", "bake", "grab", "place", "open",
    "close", "pick", "put", "add", "wipe", "fold", "assemble", "attach",
)

# The largest embedding dimension a Config accepts. Every text becomes a
# dense vector of dim floats, 512 KiB at this bound; far larger dims fail
# only at the first embed, with a numpy error or an allocation of terabytes.
MAX_DIM = 65536

_QUERY_TYPE_SET = frozenset(QUERY_TYPES)
_LAYER_SET = frozenset(LAYERS)
_MAPPINGS = (dict, MappingProxyType)  # a Config's own layer_weights are read-only mappings
_INT, _FLOAT, _STR = frozenset((int,)), frozenset((float,)), frozenset((str,))
_PLUGINS = ("default", "external")
_INT_KNOBS = ("dim", "pool_trigger", "max_path_len", "max_paths")
_FLOAT_KNOBS = ("alpha", "beta_ema", "sigma_support", "tau_verify", "delta_gate",
                "theta_retrieve", "tau_pos", "tau_neg", "tau_align", "tau_anchor")
_int_knobs, _float_knobs = attrgetter(*_INT_KNOBS), attrgetter(*_FLOAT_KNOBS)

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# FNV-1a, 64-bit: stable across platforms and processes, unlike hash().
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = 0xFFFFFFFFFFFFFFFF


# isinstance rather than numbers.Number: np.int64 and np.float32 are refused
# because json cannot write them into a snapshot (np.float64 subclasses float).
def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_finite_number(x) -> bool:
    """A non-boolean int or float whose float value is finite."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _refuse(self, *args, **kwargs):
    raise TypeError(f"a {type(self).__name__} is read-only")


class FrozenDict(dict):
    """A dict set once, each dict or list in it a read-only copy (``frozen``). It is a dict, so
    ``==``, ``str`` and ``json.dumps`` give what the equal dict gives, byte for byte; a write
    raises ``TypeError``. ``__new__`` fills it, so ``__init__`` writes nothing; ``copy()`` is a
    plain dict, from which ``copy.deepcopy`` and ``pickle`` rebuild one."""

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse
    __init__, __reduce__ = (lambda self, *args: None), (lambda self: (type(self), (self.copy(),)))

    def __new__(cls, items=(), /):
        self = dict.__new__(cls)
        dict.update(self, items)
        dict.update(self, {key: frozen(v) for key, v in dict.items(self) if type(v) in _FROZEN})
        return self


class FrozenList(list):
    """A list set once, as a ``FrozenDict`` is a dict."""

    __slots__ = ()
    __setitem__ = __delitem__ = __iadd__ = __imul__ = append = extend = insert = pop = remove = \
        clear = sort = reverse = _refuse
    __init__, __reduce__ = FrozenDict.__init__, FrozenDict.__reduce__

    def __new__(cls, items=(), /):
        self = list.__new__(cls)
        list.extend(self, map(frozen, items))
        return self


_FROZEN = {dict: FrozenDict, list: FrozenList}


def frozen(value):
    """``value``, or a read-only copy of it, to any depth, if it is a dict or a list."""
    kind = _FROZEN.get(type(value))
    return value if kind is None else kind(value)


# The one key of each distinct attrs value, which a store holds once: its canonical JSON, so
# that 1 and true are two values, and key order is none.
attrs_key = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


def tokenize(text: str) -> list[str]:
    """Lowercase and split on runs of non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


# Bounded, so a stream of distinct tokens cannot grow it without limit; a
# pure function of its argument, so a hit returns what a miss computes.
@functools.lru_cache(maxsize=1 << 14)
def fnv1a64(token: str) -> int:
    h = _FNV_OFFSET
    for b in token.encode("utf-8"):
        h = ((h ^ b) * _FNV_PRIME) & _FNV_MASK
    return h


def embed_default(text: str, d: int) -> np.ndarray:
    """Token feature-hashing embedding.

    Each token adds 1.0 at index fnv1a64(token) mod d; the result is
    L2-normalized. An empty token list yields the zero vector.
    """
    if d < 1:
        raise DimensionMismatch(f"embedding dimension must be >= 1, got {d}")
    v = np.zeros(d, dtype=np.float64)
    for tok in tokenize(text):
        v[fnv1a64(tok) % d] += 1.0
    n = norm(v)
    if n > 0.0:
        v /= n
    return v


# Rows the list form of ``cosine`` copies at a time, and the rows of one
# ``RowBlock`` chunk: a whole 5,000-node layer at once raised peak memory
# by about a tenth.
COSINE_BLOCK = 256


_F8 = np.dtype(np.float64)


def norm(a: np.ndarray) -> float:
    """``float(np.linalg.norm(a))`` of a vector, bit for bit.

    A contiguous float64 ``a`` takes numpy's own 1-D path, ``sqrt(a.dot(a))``,
    without its dispatch. Any other goes through ``np.linalg.norm``: it casts
    an int vector to float64 first (an int64 x·x would wrap), keeps a float32
    one in float32, and copies a strided one, whose BLAS dot sums in another
    order.
    """
    if a.dtype is _F8 and a.strides == (8,):
        return math.sqrt(a.dot(a))
    return float(np.linalg.norm(a))


def finite_entries(x: np.ndarray) -> bool:
    """Whether every entry of the numeric array ``x`` is finite. A finite x·x
    proves them, cheaply; a finite ``x`` whose x·x overflows falls through to
    the entry test. ``np.vdot`` takes the same x·x as ``x.dot(x)`` but warns
    on no overflow."""
    return math.isfinite(np.vdot(x, x)) or bool(np.isfinite(x).all())


def finite_vector(x, dim: int) -> bool:
    """The one rule for every vector the store keeps, whichever code or
    embedder made it: a float ndarray of shape ``(dim,)`` with only finite
    entries."""
    return (isinstance(x, np.ndarray) and x.shape == (dim,) and x.dtype.kind == "f"
            and finite_entries(x))


# A finite row's x·x may overflow: cosine 0, and 0 for a zero ``a`` (0·inf). As a
# decorator, errstate builds its state once, not on every call.
@np.errstate(over="ignore", invalid="ignore")
def _row_cosines(a: np.ndarray, na: float, rows: np.ndarray, out: np.ndarray) -> None:
    """Write the cosine of ``a`` (of norm ``na``) with each row of ``rows``
    into ``out``; a zero row, or a zero ``a``, leaves its entry alone."""
    den = np.sqrt(np.vecdot(rows, rows))
    den *= na  # in place: the product's bits are na * sqrt's
    np.divide(np.vecdot(rows, a), den, out=out, where=den > 0)


def cosine(a: np.ndarray, b):
    """Cosine similarity; defined as 0 when either vector has zero norm.

    A list ``b``, or a ``RowBlock`` ``b``, gives an array of one cosine per
    vector; a block's rows are scanned in place. One vector ``b`` gives a
    float, scored as a block of one row. ``np.vecdot`` takes each row's dot
    product with BLAS, as ``np.dot`` does, so each cosine depends on its
    vector alone: equal vectors score equal, the three forms agree bit for
    bit, and on an id-sorted list ``argmax`` gives ties to the lowest id.
    The norm of ``a`` is ``norm(a)``. A list's vectors are copied a block at
    a time; the copy refuses rows of unequal shapes, so only the first row
    of each block needs a shape test, which also keeps a block of rows that
    would broadcast (shape ``()`` or ``(1,)``) from passing.
    """
    if isinstance(b, RowBlock):
        if a.shape != (b.width,):
            raise DimensionMismatch(f"cosine over shape {a.shape} vs rows of width {b.width}")
        out, na = np.zeros(len(b.rows)), norm(a)
        if len(b._chunks) == 1:
            _row_cosines(a, na, b._chunks[0][:len(b.rows)], out)
            return out
        for k, rows in enumerate(b.chunks()):
            _row_cosines(a, na, rows, out[k * COSINE_BLOCK:k * COSINE_BLOCK + len(rows)])
        return out
    if not isinstance(b, np.ndarray):
        out, na = np.zeros(len(b)), norm(a)
        buf = np.empty((min(len(b), COSINE_BLOCK),) + a.shape)
        for start in range(0, len(b), COSINE_BLOCK):
            block = b[start:start + COSINE_BLOCK]
            if np.shape(block[0]) != a.shape:
                raise DimensionMismatch(f"cosine over shape {a.shape} vs a row of another shape")
            rows = buf[:len(block)]
            try:
                rows[...] = block  # twice as fast as np.stack into a new array
            except ValueError:
                raise DimensionMismatch(f"cosine over shape {a.shape} vs a row of another shape") from None
            _row_cosines(a, na, rows, out[start:start + len(block)])
        return out
    if a.shape != b.shape:
        raise DimensionMismatch(f"cosine over shapes {a.shape} vs {b.shape}")
    out = np.zeros(1)
    _row_cosines(a, norm(a), b[np.newaxis], out)
    return float(out[0])


class RowBlock:
    """Float64 rows of one width, each owned by an id, in chunks of
    ``COSINE_BLOCK`` rows.

    The block grows by whole chunks, so a row never moves: ``append``
    returns a view of the row, which stays the row for the block's life,
    and ``cosine(a, block)`` scans each filled chunk (``chunks()``) without
    a copy, taking each row's norm from the row itself, so a write through
    a view needs no further call. ``ids`` and ``rows`` list the owners and
    the row views in row order.
    """

    __slots__ = ("width", "ids", "rows", "_chunks")

    def __init__(self, width: int):
        self.width = width
        self.ids: list = []
        self.rows: list = []
        self._chunks: list = []

    def append(self, owner, vector) -> np.ndarray:
        if np.shape(vector) != (self.width,):  # a row assignment would broadcast it
            raise DimensionMismatch(f"a row of shape {np.shape(vector)} in rows of width {self.width}")
        n = len(self.rows)
        if n % COSINE_BLOCK == 0:
            # Fresh anonymous pages turn resident only when a row on them is
            # written, so the unfilled rows of a chunk take no memory; chunks
            # from np.empty reused heap pages and raised peak RSS by 0.3-1.7 MB.
            pages = mmap.mmap(-1, COSINE_BLOCK * self.width * 8)
            self._chunks.append(np.frombuffer(pages).reshape(COSINE_BLOCK, self.width))
        row = self._chunks[-1][n % COSINE_BLOCK]
        row[...] = vector
        self.ids.append(owner)
        self.rows.append(row)
        return row

    def chunks(self) -> list:
        """The filled rows of each chunk, as 2-D views, in row order."""
        last = len(self.rows) - (len(self._chunks) - 1) * COSINE_BLOCK
        return self._chunks[:-1] + [self._chunks[-1][:last]] if self._chunks else []


class Embedder(Protocol):
    """Text -> vector map; must be deterministic for fixed text, and return a
    new array on each call: the store marks the array it takes read-only
    (``MemoryStore.embed``), which would also seal one the embedder holds.

    Snapshots record ``embedder_identity``: an optional ``name`` attribute,
    else the class's import path, and ``dim``.
    """

    dim: int

    def embed(self, text: str) -> np.ndarray: ...


def embedder_identity(embedder) -> dict:
    """``{"name", "dim"}`` naming the text -> vector map a snapshot needs."""
    cls = type(embedder)
    name = getattr(embedder, "name", None) or f"{cls.__module__}.{cls.__qualname__}"
    return {"name": name, "dim": getattr(embedder, "dim", None)}


class HashingEmbedder:
    """Default deterministic embedder over ``embed_default``."""

    name = "hashing-fnv1a64"

    def __init__(self, dim: int):
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        return embed_default(text, self.dim)


@dataclass(slots=True, frozen=True)
class Config:
    """Every scalar knob the engine uses, with validated ranges. A Config is
    set once: construction (``Config(...)``, ``dataclasses.replace``) raises
    ``ConfigError`` for an invalid value, and no field, nor an entry of
    ``layer_weights``, can be assigned afterwards.

    dim             embedding dimension d, fixed for the store's lifetime
    alpha           goal-vs-step blend for logic retrieval scores
    beta_ema        EMA decay for index refinement
    tau_verify      pattern verification score threshold
    delta_gate      min similarity for maintenance updates to apply
    sigma_support   min pattern support fraction for mining
    theta_retrieve  initial retrieval score threshold
    tau_pos/tau_neg semantic reinforce / weaken thresholds
    tau_align       fusion node-alignment similarity threshold
    tau_anchor      entity-anchor clustering threshold
    layer_weights   query-type -> layer -> re-ranking multiplier, read-only
    pool_trigger    candidate-pool size that triggers distillation
    max_path_len / max_paths   path enumeration guards
    action_verbs    verb lexicon for action-label extraction
    verifier / goal_namer      plugin selectors ("default" or "external")
    """

    dim: int = 512
    alpha: float = 0.3
    beta_ema: float = 0.9
    tau_verify: float = 0.25
    delta_gate: float = 0.5
    sigma_support: float = 0.3
    theta_retrieve: float = 0.2
    tau_pos: float = 0.85
    tau_neg: float = 0.3
    tau_align: float = 0.8
    tau_anchor: float = 0.75
    layer_weights: dict = field(default_factory=lambda: DEFAULT_LAYER_WEIGHTS)
    pool_trigger: int = 5
    max_path_len: int = 64
    max_paths: int = 10000
    action_verbs: tuple = DEFAULT_ACTION_VERBS
    verifier: str = "default"
    goal_namer: str = "default"

    def __post_init__(self) -> None:
        # Each group of knobs is judged at once by a test that may refuse more than the group's
        # rule (an int subclass, an np.float64, an int for a float knob), never less; only a group
        # that fails it is walked, field by field, by the rule itself, which names the first fault
        # or accepts the values. Types first, so that every range comparison is between numbers.
        ints = _int_knobs(self)
        if not (_INT.issuperset(map(type, ints)) and min(ints) >= 1):
            for name, x in zip(_INT_KNOBS, ints):
                if not _is_int(x) or x < 1:
                    raise ConfigError(f"{name} must be a positive integer, got {x!r}")
        if self.dim > MAX_DIM:
            raise ConfigError(f"dim must be at most {MAX_DIM}, got {self.dim!r}")
        floats = _float_knobs(self)
        if not (_FLOAT.issuperset(map(type, floats)) and all(map(math.isfinite, floats))):
            for name, x in zip(_FLOAT_KNOBS, floats):
                if not _is_finite_number(x):
                    raise ConfigError(f"{name} must be a finite number, got {x!r}")
        for name in ("alpha", "beta_ema"):
            x = getattr(self, name)
            if not 0.0 <= x <= 1.0:
                raise ConfigError(f"{name} must lie in [0,1], got {x!r}")
        if not 0.0 < self.sigma_support <= 1.0:
            raise ConfigError(f"sigma_support must lie in (0,1], got {self.sigma_support!r}")
        weights = self.layer_weights
        if weights is not DEFAULT_LAYER_WEIGHTS:
            if not isinstance(weights, _MAPPINGS) or weights.keys() != _QUERY_TYPE_SET:
                raise ConfigError(f"layer_weights must map exactly {QUERY_TYPES} to weights")
            for qt, per_layer in weights.items():
                if not isinstance(per_layer, _MAPPINGS) or per_layer.keys() != _LAYER_SET:
                    raise ConfigError(f"layer_weights[{qt}] must map exactly {LAYERS} to weights")
                for layer, w in per_layer.items():
                    if not (_is_finite_number(w) and w >= 0.0):
                        raise ConfigError(f"layer_weights[{qt}][{layer}] must be >= 0, got {w!r}")
            # The default weights, each a float, as a pickle, a snapshot or a config file gives
            # them back, become the shared mapping. Any other weights (an int re-saves as an int)
            # become the config's own read-only copy, which no edit of the caller's mappings reaches.
            if weights == DEFAULT_LAYER_WEIGHTS and all(
                    _FLOAT.issuperset(map(type, w.values())) for w in weights.values()):
                weights = DEFAULT_LAYER_WEIGHTS
            else:
                weights = MappingProxyType({qt: MappingProxyType(dict(w)) for qt, w in weights.items()})
            object.__setattr__(self, "layer_weights", weights)
        if self.verifier not in _PLUGINS:
            raise ConfigError(f"verifier must be 'default' or 'external', got {self.verifier!r}")
        if self.goal_namer not in _PLUGINS:
            raise ConfigError(f"goal_namer must be 'default' or 'external', got {self.goal_namer!r}")
        verbs = self.action_verbs
        if verbs is not DEFAULT_ACTION_VERBS and not (
                type(verbs) is tuple and verbs and _STR.issuperset(map(type, verbs)) and all(verbs)):
            raise ConfigError(f"action_verbs must be a non-empty tuple of non-empty strings, "
                              f"got {verbs!r}")

    def __hash__(self) -> int:  # over what __eq__ compares: the weights as numbers, in one order
        w = self.layer_weights
        return hash((_unweighted(self), tuple(tuple(w[qt][layer] for layer in LAYERS)
                                              for qt in QUERY_TYPES)))

    def __reduce__(self):  # a mappingproxy has no pickled form; the to_dict one has
        return Config.from_dict, (self.to_dict(),)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["layer_weights"] = {qt: dict(w) for qt, w in self.layer_weights.items()}
        d["action_verbs"] = list(self.action_verbs)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "action_verbs" in kwargs:
            verbs = kwargs["action_verbs"]
            if type(verbs) not in (list, tuple):  # tuple() would split a str, or take a dict's keys
                raise ConfigError(f"action_verbs must be a list of non-empty strings, got {verbs!r}")
            kwargs["action_verbs"] = tuple(verbs)
        return cls(**kwargs)


_unweighted = attrgetter(*(f.name for f in fields(Config) if f.name != "layer_weights"))


def parse_layer_weights(text: str) -> dict:
    """Parse ``factual:epi=1.0,sem=1.0,logic=0.6;constraint:...``. A query type, or a layer
    within one block, given twice is refused, as a config file's repeated key is."""
    weights = {}
    for block in text.split(";"):
        block = block.strip()
        if not block:
            continue
        qt, sep, rest = block.partition(":")
        qt = qt.strip()
        if not sep or qt not in QUERY_TYPES:
            raise ConfigError(f"bad layer_weights block {block!r}")
        if qt in weights:
            raise ConfigError(f"duplicate layer_weights query type {qt!r}")
        per_layer = {}
        for pair in rest.split(","):
            layer, sep2, val = pair.partition("=")
            layer = layer.strip()
            if not sep2 or layer not in LAYERS:
                raise ConfigError(f"bad layer_weights entry {pair!r}")
            if layer in per_layer:
                raise ConfigError(f"duplicate layer_weights layer {layer!r} for {qt!r}")
            try:
                per_layer[layer] = float(val)
            except ValueError:
                raise ConfigError(f"bad layer_weights value {val!r}") from None
        weights[qt] = per_layer
    return weights


def format_layer_weights(weights: dict) -> str:
    """The file form that ``parse_layer_weights`` reads back to equal weights: each weight as
    its shortest round-trip decimal, ``repr(float)``."""
    blocks = []
    for qt in QUERY_TYPES:
        pairs = ",".join(f"{layer}={float(weights[qt][layer])!r}" for layer in LAYERS)
        blocks.append(f"{qt}:{pairs}")
    return ";".join(blocks)


# Config-file value parsers, keyed by the annotation of the Config field.
_VALUE_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "dict": parse_layer_weights,
    "tuple": lambda value: tuple(v.strip() for v in value.split(",") if v.strip()),
}


def load_config(path: str) -> Config:
    """Load a flat ``key = value`` config file.

    The first non-comment line must be ``version = 1``. Unknown keys are an
    error; missing keys fall back to defaults.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc}") from None

    field_types = {f.name: f.type for f in fields(Config)}
    data: dict = {}
    saw_version = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        if not saw_version:
            if key != "version":
                raise ConfigError(f"{path}:{lineno}: first key must be 'version'")
            if value != "1":
                raise ConfigError(f"{path}:{lineno}: unsupported config version {value!r}")
            saw_version = True
            continue
        if key in data:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        parse = _VALUE_PARSERS.get(field_types.get(key))
        if parse is None:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            data[key] = parse(value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from None
    if not saw_version:
        raise ConfigError(f"{path}: missing leading 'version = 1' line")
    return Config.from_dict(data)


def dump_config(cfg: Config) -> str:
    """Render a config back to the flat key-value file format."""
    d = cfg.to_dict()
    lines = ["version = 1"]
    for key in sorted(d):
        if key == "layer_weights":
            lines.append(f"layer_weights = {format_layer_weights(d[key])}")
        elif key == "action_verbs":
            lines.append("action_verbs = " + ",".join(d[key]))
        else:
            lines.append(f"{key} = {d[key]}")
    return "\n".join(lines) + "\n"
