"""Shared primitives: configuration, the text embedding abstraction, cosine.

Everything downstream compares vectors by cosine similarity, so the default
embedder keeps its outputs L2-normalized. It is a deterministic token
feature-hasher, not a neural model; real embedders plug in behind the same
``Embedder`` interface.
"""

from __future__ import annotations

import functools
import math
import mmap
import re
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Protocol

import numpy as np

from .errors import ConfigError, DimensionMismatch

QUERY_TYPES = ("factual", "constraint", "character")
LAYERS = ("epi", "sem", "logic")

DEFAULT_LAYER_WEIGHTS = {
    "factual": {"epi": 1.0, "sem": 1.0, "logic": 0.6},
    "constraint": {"epi": 1.0, "sem": 1.0, "logic": 1.5},
    "character": {"epi": 1.0, "sem": 1.2, "logic": 1.5},
}

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
_STR = frozenset((str,))

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
    n = float(np.linalg.norm(v))
    if n > 0.0:
        v /= n
    return v


# Rows the list form of ``cosine`` copies at a time, and the rows of one
# ``RowBlock`` chunk: a whole 5,000-node layer at once raised peak memory
# by about a tenth.
COSINE_BLOCK = 256


def _row_cosines(a: np.ndarray, na: float, rows: np.ndarray, out: np.ndarray) -> None:
    """Write the cosine of ``a`` (of norm ``na``) with each row of ``rows``
    into ``out``; a zero row, or a zero ``a``, leaves its entry alone."""
    # A finite row's x·x may overflow: cosine 0, and 0 for a zero ``a`` (0·inf).
    with np.errstate(over="ignore", invalid="ignore"):
        den = na * np.sqrt(np.vecdot(rows, rows))
    np.divide(np.vecdot(rows, a), den, out=out, where=den > 0)


def cosine(a: np.ndarray, b):
    """Cosine similarity; defined as 0 when either vector has zero norm.

    A list ``b``, or a ``RowBlock`` ``b``, gives an array of one cosine per
    vector; a block's rows are scanned in place. One vector ``b`` gives a
    float, scored as a block of one row. ``np.vecdot`` takes each row's dot
    product with BLAS, as ``np.dot`` does, so each cosine depends on its
    vector alone: equal vectors score equal, the three forms agree bit for
    bit, and on an id-sorted list ``np.argmax`` gives ties to the lowest id.
    """
    if isinstance(b, RowBlock):
        if a.shape != (b.width,):
            raise DimensionMismatch(f"cosine over shape {a.shape} vs rows of width {b.width}")
        out, na = np.zeros(len(b.rows)), float(np.linalg.norm(a))
        for k, rows in enumerate(b.chunks()):
            _row_cosines(a, na, rows, out[k * COSINE_BLOCK:k * COSINE_BLOCK + len(rows)])
        return out
    if not isinstance(b, np.ndarray):
        out, na = np.zeros(len(b)), float(np.linalg.norm(a))
        buf = np.empty((min(len(b), COSINE_BLOCK),) + a.shape)
        for start in range(0, len(b), COSINE_BLOCK):
            block = b[start:start + COSINE_BLOCK]
            if any(v.shape != a.shape for v in block):
                raise DimensionMismatch(f"cosine over shape {a.shape} vs a row of another shape")
            rows = buf[:len(block)]
            rows[...] = block  # twice as fast as np.stack into a new array
            _row_cosines(a, na, rows, out[start:start + len(block)])
        return out
    if a.shape != b.shape:
        raise DimensionMismatch(f"cosine over shapes {a.shape} vs {b.shape}")
    out = np.zeros(1)
    _row_cosines(a, float(np.linalg.norm(a)), b[np.newaxis], out)
    return float(out[0])


class RowBlock:
    """Float64 rows of one width, each owned by an id, in chunks of
    ``COSINE_BLOCK`` rows.

    The block grows by whole chunks, so a row never moves: ``append``
    returns a view of the row, which stays the row for the block's life,
    and ``cosine(a, block)`` scans each filled chunk (``chunks()``) without
    a copy, taking each row's norm from the row itself, so a write through
    a view needs no further call. ``ids`` and ``rows`` list the owners and
    the row views in row order. A deep copy copies the rows once and maps
    each old view to the new one in ``memo``, so owners copied after the
    block hold views of the copy.
    """

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

    def __deepcopy__(self, memo) -> "RowBlock":
        new = memo[id(self)] = RowBlock(self.width)
        for owner, row in zip(self.ids, self.rows):
            memo[id(row)] = new.append(owner, row)
        return new


class Embedder(Protocol):
    """Text -> vector map; must be deterministic for fixed text.

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


@dataclass(slots=True)
class Config:
    """Every scalar knob the engine uses, with validated ranges.

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
    layer_weights   query-type -> layer -> re-ranking multiplier
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
    layer_weights: dict = field(
        default_factory=lambda: {q: dict(w) for q, w in DEFAULT_LAYER_WEIGHTS.items()}
    )
    pool_trigger: int = 5
    max_path_len: int = 64
    max_paths: int = 10000
    action_verbs: tuple = DEFAULT_ACTION_VERBS
    verifier: str = "default"
    goal_namer: str = "default"

    def validate(self) -> None:
        # Types first, so that every range comparison below is between numbers.
        for name in ("dim", "pool_trigger", "max_path_len", "max_paths"):
            x = getattr(self, name)
            if not _is_int(x) or x < 1:
                raise ConfigError(f"{name} must be a positive integer, got {x!r}")
        if self.dim > MAX_DIM:
            raise ConfigError(f"dim must be at most {MAX_DIM}, got {self.dim!r}")
        for name in ("alpha", "beta_ema", "sigma_support", "tau_verify", "delta_gate",
                     "theta_retrieve", "tau_pos", "tau_neg", "tau_align", "tau_anchor"):
            x = getattr(self, name)
            if not _is_finite_number(x):
                raise ConfigError(f"{name} must be a finite number, got {x!r}")
        for name in ("alpha", "beta_ema"):
            x = getattr(self, name)
            if not 0.0 <= x <= 1.0:
                raise ConfigError(f"{name} must lie in [0,1], got {x!r}")
        if not 0.0 < self.sigma_support <= 1.0:
            raise ConfigError(f"sigma_support must lie in (0,1], got {self.sigma_support!r}")
        weights = self.layer_weights
        if not isinstance(weights, dict) or weights.keys() != _QUERY_TYPE_SET:
            raise ConfigError(f"layer_weights must map exactly {QUERY_TYPES} to weights")
        for qt, per_layer in weights.items():
            if not isinstance(per_layer, dict) or per_layer.keys() != _LAYER_SET:
                raise ConfigError(f"layer_weights[{qt}] must map exactly {LAYERS} to weights")
            for layer, w in per_layer.items():
                if not (_is_finite_number(w) and w >= 0.0):
                    raise ConfigError(f"layer_weights[{qt}][{layer}] must be >= 0, got {w!r}")
        if self.verifier not in ("default", "external"):
            raise ConfigError(f"verifier must be 'default' or 'external', got {self.verifier!r}")
        if self.goal_namer not in ("default", "external"):
            raise ConfigError(f"goal_namer must be 'default' or 'external', got {self.goal_namer!r}")
        verbs = self.action_verbs
        if not (type(verbs) is tuple and verbs and _STR.issuperset(map(type, verbs))
                and all(verbs)):
            raise ConfigError(f"action_verbs must be a non-empty tuple of non-empty strings, "
                              f"got {verbs!r}")

    def copy(self) -> "Config":
        return replace(
            self,
            layer_weights={q: dict(w) for q, w in self.layer_weights.items()},
            action_verbs=tuple(self.action_verbs),
        )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["action_verbs"] = list(self.action_verbs)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "action_verbs" in kwargs:
            kwargs["action_verbs"] = tuple(kwargs["action_verbs"])
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


def parse_layer_weights(text: str) -> dict:
    """Parse ``factual:epi=1.0,sem=1.0,logic=0.6;constraint:...``."""
    weights = {}
    for block in text.split(";"):
        block = block.strip()
        if not block:
            continue
        qt, sep, rest = block.partition(":")
        qt = qt.strip()
        if not sep or qt not in QUERY_TYPES:
            raise ConfigError(f"bad layer_weights block {block!r}")
        per_layer = {}
        for pair in rest.split(","):
            layer, sep2, val = pair.partition("=")
            layer = layer.strip()
            if not sep2 or layer not in LAYERS:
                raise ConfigError(f"bad layer_weights entry {pair!r}")
            try:
                per_layer[layer] = float(val)
            except ValueError:
                raise ConfigError(f"bad layer_weights value {val!r}") from None
        weights[qt] = per_layer
    return weights


def format_layer_weights(weights: dict) -> str:
    blocks = []
    for qt in QUERY_TYPES:
        pairs = ",".join(f"{layer}={weights[qt][layer]:g}" for layer in LAYERS)
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
