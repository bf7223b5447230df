import json
import random
from dataclasses import fields, replace

import numpy as np
import pytest

from memstrata import Config, ConfigError, DimensionMismatch, cosine, embed_default
from memstrata.core import (
    COSINE_BLOCK,
    DEFAULT_LAYER_WEIGHTS,
    MAX_DIM,
    HashingEmbedder,
    RowBlock,
    dump_config,
    fnv1a64,
    load_config,
    tokenize,
)


def test_embed_empty_text_is_zero_vector():
    assert np.array_equal(embed_default("", 4), np.zeros(4))
    assert np.array_equal(embed_default("  \t ", 4), np.zeros(4))


def test_embed_single_repeated_token_normalizes_to_one():
    v = embed_default("abc abc", 4)
    nz = np.nonzero(v)[0]
    assert len(nz) == 1
    assert v[nz[0]] == 1.0
    # fnv1a64("abc") % 4 == 3, frozen from the independent hash oracle
    assert nz[0] == 3


def test_embed_three_tokens_at_frozen_fnv_indices():
    # Indices frozen from a standalone FNV-1a 64 computation:
    # cut -> 17706455096944067299 % 512 = 227
    # mix ->   573172220790462529 % 512 =  65
    # serve -> 2441062257214507156 % 512 = 148
    v = embed_default("cut mix serve", 512)
    assert sorted(np.nonzero(v)[0].tolist()) == [65, 148, 227]
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-9
    assert fnv1a64("cut") == 17706455096944067299


def _fnv1a64_reference(token):
    """FNV-1a, 64-bit, from its definition: xor each UTF-8 byte, multiply."""
    h = 14695981039346656037
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * 1099511628211) % 2**64
    return h


def _embed_reference(tokens, d):
    v = np.zeros(d)
    for tok in tokens:
        v[_fnv1a64_reference(tok) % d] += 1.0
    n = float(np.linalg.norm(v))
    return v / n if n > 0.0 else v


def test_embed_matches_a_pure_python_fnv_before_and_after_the_memo_bound():
    rng = random.Random(3)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

    def tokens(n):
        return ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12))) for _ in range(n)]

    def check(texts):
        for words in texts:
            assert np.array_equal(embed_default(" ".join(words), 97), _embed_reference(words, 97))

    early = [tokens(rng.randint(0, 5)) for _ in range(300)]
    check(early)
    for tok in ("é", "naïve", "日本", "a\x00b", ""):
        assert fnv1a64(tok) == _fnv1a64_reference(tok)
    bound = fnv1a64.cache_info().maxsize
    flood = tokens(bound + 2000)
    check([flood[i:i + 4] for i in range(0, len(flood), 4)])
    info = fnv1a64.cache_info()
    assert info.currsize == bound and info.misses > bound
    check(early)  # evicted by now, so computed again
    check([flood[-400:][i:i + 4] for i in range(0, 400, 4)])  # still held


def test_tokenize_splits_non_alphanumeric_runs():
    assert tokenize("@Jack chops, the fruit!") == ["jack", "chops", "the", "fruit"]
    assert tokenize("chop_fruit") == ["chop", "fruit"]


def test_embedder_determinism():
    emb = HashingEmbedder(64)
    for text in ("", "chop fruit", "Jack mixes the fruit in a bowl"):
        assert np.array_equal(emb.embed(text), emb.embed(text))


def test_cosine_identity_and_orthogonal():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert cosine(e1, e1) == 1.0
    assert cosine(e1, e2) == 0.0


def test_cosine_hand_value():
    a = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    b = np.array([1.0, 0.0, 0.0])
    assert abs(cosine(a, b) - 0.7071) <= 1e-4
    assert abs(cosine(a, b) - 1 / np.sqrt(2)) <= 1e-12


def test_cosine_zero_vector_is_zero():
    assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0


def test_cosine_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cosine(np.zeros(3), np.zeros(4))


def test_cosine_of_a_pair_whose_norms_overflow_is_0_in_every_form():
    # x·x of np.full(8, 1e200) overflows: against itself, or its negation, the dot
    # product and the product of the norms are both inf, a pair that scores 0.
    big = np.full(8, 1e200)
    rows = [big, -big, np.ones(8)]
    block = RowBlock(8)
    for i, row in enumerate(rows):
        block.append(i, row)
    zeros = np.zeros(3).tobytes()
    for a in (big, -big):
        assert cosine(a, big) == 0.0
        assert np.array([cosine(a, row) for row in rows]).tobytes() == zeros
        assert cosine(a, rows).tobytes() == zeros
        assert cosine(a, block).tobytes() == zeros


def test_cosine_symmetry_and_range():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.normal(size=16)
        b = rng.normal(size=16)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        assert cosine(a, b) == cosine(b, a)
        assert -1.0 - 1e-9 <= cosine(a, b) <= 1.0 + 1e-9


@pytest.mark.parametrize("n", [0, 1, COSINE_BLOCK - 1, COSINE_BLOCK, COSINE_BLOCK + 1,
                               2 * COSINE_BLOCK + 1])
def test_cosine_list_matches_pairwise(n):
    rng = np.random.default_rng(n)
    q = rng.normal(size=24)
    rows = [rng.normal(size=24) for _ in range(n)]
    got = cosine(q, rows)
    assert isinstance(got, np.ndarray) and got.shape == (n,)
    assert np.all(np.abs(got - np.array([cosine(q, v) for v in rows])) <= 1e-12)


def test_cosine_list_zero_row_and_zero_query():
    rows = [np.array([1.0, 2.0, 3.0]), np.zeros(3), np.array([-1.0, 0.0, 2.0])]
    assert cosine(np.array([1.0, 0.0, 0.0]), rows)[1] == 0.0
    assert np.array_equal(cosine(np.zeros(3), rows), np.zeros(3))


def test_cosine_list_identical_rows_bit_identical():
    rng = np.random.default_rng(11)
    q = rng.normal(size=33)
    v = rng.normal(size=33)
    rows = [rng.normal(size=33) for _ in range(2 * COSINE_BLOCK)]
    # copies at the start, inside a block, on both sides of a block edge and last
    at = [0, 41, COSINE_BLOCK - 1, COSINE_BLOCK, 2 * COSINE_BLOCK - 1]
    for i in at:
        rows[i] = v.copy()
    got = cosine(q, rows)
    assert len({got[i].tobytes() for i in at}) == 1


def test_cosine_list_dimension_mismatch():
    rows = [np.zeros(3)] * (COSINE_BLOCK + 1) + [np.zeros(4)]
    with pytest.raises(DimensionMismatch):
        cosine(np.ones(3), rows)
    with pytest.raises(DimensionMismatch):
        cosine(np.ones(3), [np.ones(4)])


@pytest.mark.parametrize("n", [0, 1, COSINE_BLOCK - 1, COSINE_BLOCK, COSINE_BLOCK + 1,
                               2 * COSINE_BLOCK + 1])
def test_cosine_rows_form_is_the_list_form_bit_for_bit(n):
    rng = np.random.default_rng(n)
    q = rng.normal(size=24)
    vectors = [rng.normal(size=24) for _ in range(n)]
    if n > 2:
        vectors[n // 2] = np.zeros(24)
        vectors[n // 3] = np.full(24, 1e200)  # finite, but its x·x overflows: cosine 0
    block = RowBlock(24)
    views = [block.append(10 * i, v) for i, v in enumerate(vectors)]
    assert block.ids == [10 * i for i in range(n)] and block.rows == views
    assert all(np.array_equal(r, v) for r, v in zip(block.rows, vectors))
    want = cosine(q, vectors).tobytes()
    assert np.array([cosine(q, v) for v in vectors]).tobytes() == want  # the single form
    chunks = block.chunks()
    assert len(chunks) == -(-n // COSINE_BLOCK)
    assert all(np.shares_memory(c, block.rows[k * COSINE_BLOCK]) for k, c in enumerate(chunks))
    assert cosine(q, block).tobytes() == want  # in place
    assert np.array_equal(cosine(np.zeros(24), block), np.zeros(n))


def _norm_cases(d):
    rng = np.random.default_rng(d)
    wide = rng.normal(size=(d, 3))
    return {
        "float64": rng.normal(size=d),
        "float32": rng.normal(size=d).astype(np.float32),
        "int64": rng.integers(-9, 10, size=d),
        "int64 whose x·x wraps": np.full(d, 2**62, dtype=np.int64),
        "zero": np.zeros(d),
        "x·x overflows": np.full(d, 1e200),
        "strided": wide[:, 1],  # BLAS sums a strided dot in another order
    }


@pytest.mark.parametrize("d", [1, 24, 512])
def test_norm_is_linalg_norm_bit_for_bit(d):
    from memstrata.core import norm

    with np.errstate(over="ignore"):  # linalg.norm warns on the overflowing x·x
        for name, a in _norm_cases(d).items():
            want = float(np.linalg.norm(a))
            assert type(norm(a)) is float and norm(a).hex() == want.hex(), name


def test_cosine_of_an_int_query_is_that_of_its_float_cast():
    rng = np.random.default_rng(3)
    rows = [rng.normal(size=24) for _ in range(5)]
    block = RowBlock(24)
    for i, row in enumerate(rows):
        block.append(i, row)
    for q in (rng.integers(-9, 10, size=24), np.full(24, 2**62, dtype=np.int64)):
        want = cosine(q.astype(np.float64), rows).tobytes()
        assert cosine(q, rows).tobytes() == want
        assert cosine(q, block).tobytes() == want
        assert np.array([cosine(q, r) for r in rows]).tobytes() == want


@pytest.mark.parametrize("shape", [(1,), (), (1, 24)], ids=["(1,)", "()", "(1,d)"])
@pytest.mark.parametrize("at", [0, 7, COSINE_BLOCK - 1, COSINE_BLOCK, COSINE_BLOCK + 7],
                         ids=["first", "middle", "last", "second-first", "second-last"])
def test_cosine_list_refuses_a_row_of_another_shape_anywhere(shape, at):
    # Only a block's first row is shape-tested: the copy refuses rows of unequal
    # shapes, and a block of broadcastable rows has that first row.
    rng = np.random.default_rng(5)
    n = COSINE_BLOCK + 8 if at >= COSINE_BLOCK else COSINE_BLOCK
    rows = [rng.normal(size=24) for _ in range(n)]
    rows[at] = np.ones(shape)
    with pytest.raises(DimensionMismatch):
        cosine(rng.normal(size=24), rows)
    alone = rows[:at - at % COSINE_BLOCK] + [rows[at]]  # the bad row alone in its block
    with pytest.raises(DimensionMismatch):
        cosine(rng.normal(size=24), alone)


def test_cosine_list_takes_a_plain_list_as_a_row():
    # A row needs a shape, not a type: a list of floats scores as its array.
    rng = np.random.default_rng(6)
    q, rows = rng.normal(size=24), [rng.normal(size=24) for _ in range(3)]
    want = cosine(q, rows).tobytes()
    for at in range(3):
        mixed = list(rows)
        mixed[at] = rows[at].tolist()
        assert cosine(q, mixed).tobytes() == want


def test_row_block_rows_stay_put():
    block = RowBlock(3)
    first = block.append(1, [1.0, 2.0, 3.0])
    for i in range(2, 2 * COSINE_BLOCK + 11):
        block.append(i, np.full(3, float(i)))
    assert [len(c) for c in block.chunks()] == [COSINE_BLOCK, COSINE_BLOCK, 10]
    first += 1.0  # a view: the row sees the write, however many chunks came after
    assert block.chunks()[0][0].tolist() == [2.0, 3.0, 4.0]


def test_cosine_rows_form_dimension_mismatch():
    block = RowBlock(4)
    block.append(1, np.ones(4))
    with pytest.raises(DimensionMismatch):
        cosine(np.ones(3), block)
    with pytest.raises(DimensionMismatch):
        cosine(np.ones(3), RowBlock(4))
    with pytest.raises(DimensionMismatch):
        cosine(np.ones(4), np.ones((2, 4)))  # a 2-D array is not a row form


def test_config_defaults_are_paper_values():
    cfg = Config()
    assert cfg.dim == 512
    assert cfg.alpha == 0.3
    assert cfg.beta_ema == 0.9
    assert cfg.tau_verify == 0.25
    assert cfg.delta_gate == 0.5
    assert cfg.tau_align == 0.8


def test_config_rejects_out_of_range():
    with pytest.raises(ConfigError):
        Config(alpha=1.5)
    with pytest.raises(ConfigError):
        Config(sigma_support=0.0)
    with pytest.raises(ConfigError):
        Config(dim=0)
    with pytest.raises(ConfigError):
        replace(Config(), pool_trigger=0)


INT_KNOBS = ("dim", "pool_trigger", "max_path_len", "max_paths")
FLOAT_KNOBS = ("alpha", "beta_ema", "sigma_support", "tau_verify", "delta_gate",
               "theta_retrieve", "tau_pos", "tau_neg", "tau_align", "tau_anchor")
# Fields with a range that a huge number falls outside.
BOUNDED = ("alpha", "beta_ema", "sigma_support", "dim")
HUGE, BIG = 10**400, 2**70  # beyond float range; a finite float
# Structured fields and values of the wrong structure for each.
STRUCTURED = {
    "layer_weights": [None, 5, True, float("nan"), "x", [], {"factual": 5},
                      {q: 5 for q in ("factual", "constraint", "character")},
                      {q: {"epi": 1.0, "sem": 1.0} for q in ("factual", "constraint", "character")}],
    "action_verbs": [5, True, float("nan"), None, "x", "chop", (1, 2), ("chop", 2),
                     ("chop", ""), (), ["chop"], ("chop", b"mix"), ("chop", None)],
}


def _config_kwargs(name, value):
    """The keyword arguments that give a Config ``value`` at ``name``, a field or one weight."""
    if name.startswith("layer_weights."):
        weights = {qt: dict(w) for qt, w in DEFAULT_LAYER_WEIGHTS.items()}
        weights["factual"]["logic"] = value
        return {"layer_weights": weights}
    return {name: value}


@pytest.mark.parametrize("name", INT_KNOBS + FLOAT_KNOBS + ("layer_weights.factual.logic",)
                         + tuple(STRUCTURED))
def test_config_refuses_non_numbers_with_config_error(name):
    # Every numeric knob is type-checked before its range: no TypeError
    # escapes. A huge int is a finite number, so only a range refuses it;
    # dim has an upper bound. A structured field of another structure is
    # refused the same way, by construction and by dataclasses.replace.
    values = STRUCTURED.get(name, ["x", None, HUGE, BIG, True, False, float("nan"),
                                   float("inf"), np.int64(3), np.float32(0.5)])
    for value in values:
        accepted = (name in INT_KNOBS + FLOAT_KNOBS + ("layer_weights.factual.logic",)
                    and name not in BOUNDED and (value is BIG or value is HUGE and name in INT_KNOBS))
        kwargs = _config_kwargs(name, value)
        if accepted:
            assert replace(Config(), **kwargs) == Config(**kwargs)
        else:
            with pytest.raises(ConfigError, match=name.split(".")[0]):
                Config(**kwargs)
            with pytest.raises(ConfigError, match=name.split(".")[0]):
                replace(Config(), **kwargs)


def test_config_dim_bound():
    assert Config(dim=MAX_DIM).dim == MAX_DIM
    with pytest.raises(ConfigError, match="dim"):
        Config(dim=MAX_DIM + 1)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        Config.from_dict({"dim": 8, "mystery_knob": 1})


def test_config_file_round_trip(tmp_path):
    import pickle

    path = tmp_path / "engine.conf"
    path.write_text(dump_config(Config(dim=32, alpha=0.25)))
    cfg = load_config(str(path))
    assert cfg.dim == 32
    assert cfg.alpha == 0.25

    cfg = Config(
        dim=32, alpha=0.25, beta_ema=0.8, tau_verify=0.125, delta_gate=0.375,
        sigma_support=0.5, theta_retrieve=0.1, tau_pos=0.9, tau_neg=0.2,
        tau_align=0.7, tau_anchor=0.65,
        layer_weights={"factual": {"epi": 1.25, "sem": 0.5, "logic": 0.75},
                       "constraint": {"epi": 0.5, "sem": 1.0, "logic": 2.0},
                       "character": {"epi": 0.25, "sem": 1.5, "logic": 1.75}},
        pool_trigger=7, max_path_len=32, max_paths=500,
        action_verbs=("chop", "stir", "plate"), verifier="external", goal_namer="external",
    )
    default = Config()
    assert [f.name for f in fields(Config)
            if getattr(cfg, f.name) == getattr(default, f.name)] == []
    path.write_text(dump_config(cfg))
    loaded = load_config(str(path))
    assert loaded == cfg
    assert loaded.to_dict() == cfg.to_dict()
    assert pickle.loads(pickle.dumps(cfg)) == cfg


def test_config_file_requires_version_header(tmp_path):
    path = tmp_path / "engine.json"
    path.write_text('{"dim": 8}\n')
    with pytest.raises(ConfigError, match="version must be the int 1, got None"):
        load_config(str(path))


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "engine.json"
    path.write_text('{"version": 1, "wat": 3}\n')
    with pytest.raises(ConfigError, match="unknown config keys: \\['wat'\\]"):
        load_config(str(path))


def test_config_file_rejects_out_of_range(tmp_path):
    path = tmp_path / "engine.json"
    path.write_text('{"version": 1, "alpha": 2.0}\n')
    with pytest.raises(ConfigError, match="alpha"):
        load_config(str(path))


BAD_CONFIG_VALUES = ('""', "NaN", "Infinity", "-1", "1e400", "true", "null", "[]", "{}", '"0x10"',
                     '"%s"' % ("x" * 10_000), "9" * 10_000)


@pytest.mark.parametrize("name", [f.name for f in fields(Config)])
def test_load_config_sweep_returns_valid_config_or_config_error(tmp_path, name):
    # Each bad JSON value goes in as the field's whole value and, for the structured fields, as
    # one weight or one verb; each file is written on one line and indented with CRLF endings.
    path = tmp_path / "engine.json"
    default = json.dumps(Config().to_dict()[name])
    for bad in BAD_CONFIG_VALUES:
        values = [bad]
        if name == "layer_weights":
            values.append(default.replace("1.0", bad, 1))
        if name == "action_verbs":
            values.append(default.replace(", ", ", " + bad + ", ", 1))
        for value in values:
            for text in ('{"version": 1, "%s": %s}\n' % (name, value),
                         '{\r\n  "version": 1,\r\n  "%s": %s\r\n}\r\n' % (name, value)):
                path.write_bytes(text.encode())
                try:
                    cfg = load_config(str(path))
                except ConfigError:
                    continue
                assert Config.from_dict(cfg.to_dict()) == cfg  # valid, as it round-trips


def test_embed_statistical_neighborhood():
    # Shared tokens raise similarity; disjoint token sets are orthogonal
    # unless buckets collide, which d=512 avoids for these words.
    d = 512
    near = cosine(embed_default("chop the fruit", d), embed_default("chop a fruit", d))
    far = cosine(embed_default("chop the fruit", d), embed_default("serve salad", d))
    assert near > 0.6
    assert far == 0.0


def test_random_texts_embed_deterministically():
    rng = random.Random(3)
    words = ["chop", "mix", "serve", "bowl", "fruit", "salad", "jack", "tom"]
    for _ in range(50):
        text = " ".join(rng.choice(words) for _ in range(rng.randint(0, 6)))
        assert np.array_equal(embed_default(text, 64), embed_default(text, 64))
