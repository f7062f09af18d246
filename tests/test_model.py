import math
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bklv import (
    BklvError,
    ConfigError,
    FormatError,
    InputError,
    ModelConfig,
    ShapeError,
    append_and_evict,
    build_cache_set,
    forward_chunk,
    greedy_generate,
    init_model,
    model_checksum,
    reset,
    uniform_plan,
)
from bklv import cache as cache_module
from bklv import model as model_module
from bklv.allocation import AllocationPlan, PlanParams
from bklv.cache import layer_caches
from bklv.model import (
    check_tokens,
    deserialize_model,
    forward_layer,
    rope_rotate,
    serialize_model,
)

from .conftest import SMALL
from .reference import (
    brute_attention,
    naive_row_softmax,
    reference_budgeted_logits,
    reference_generate,
    reference_logits,
    scaled_dot_attention,
)


class TestConfig:
    def test_defaults_valid(self):
        ModelConfig().validate()
        ModelConfig(num_layers=np.int64(4), rope_theta=np.float32(1e4)).validate()

    def test_q_heads_not_multiple(self):
        cfg = ModelConfig(num_q_heads=6, num_kv_heads=4, d_model=96, head_dim=16)
        with pytest.raises(ConfigError, match="num_q_heads not multiple of num_kv_heads"):
            cfg.validate()

    def test_d_model_mismatch(self):
        with pytest.raises(ConfigError, match="d_model"):
            ModelConfig(d_model=100).validate()

    @pytest.mark.parametrize("field,value", [("num_layers", 0), ("max_context", 4)])
    def test_count_floors(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ModelConfig(**{field: value}).validate()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("num_layers", True, "num_layers must be an integer, got True"),
            ("head_dim", 16.0, "head_dim must be an integer, got 16.0"),
            ("max_context", 2**31, r"max_context must be in \[1, 2147483647\], got 2147483648"),
            ("seed", -1, "seed must be >= 0, got -1"),
            ("rope_theta", "1e4", "rope_theta must be finite and positive, got '1e4'"),
        ],
    )
    def test_field_types_and_ranges(self, field, value, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            ModelConfig(**{field: value}).validate()


class TestInitModel:
    def test_same_seed_identical(self):
        a = init_model(ModelConfig(seed=1))
        b = init_model(ModelConfig(seed=1))
        assert model_checksum(a) == model_checksum(b)

    def test_different_seed_differs(self):
        assert model_checksum(init_model(ModelConfig(seed=1))) != model_checksum(
            init_model(ModelConfig(seed=2))
        )

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            init_model(ModelConfig(num_q_heads=6, num_kv_heads=4))

    def test_first_embedding_entry_matches_documented_stream(self):
        # Oracle: the documented scheme is a single default_rng(seed) stream of
        # normal(0, 0.02) draws starting with the embedding, cast to float32.
        model = init_model(ModelConfig(seed=7))
        expected = np.float32(np.random.default_rng(7).normal(0.0, 0.02))
        assert model.embedding[0, 0] == expected
        assert model.embedding[0, 0] == np.float32(2.4603067e-05)  # frozen

    def test_seed_7_checksum_is_frozen(self):
        # What `bklv init-model --seed 7` prints; any change to the draw order,
        # the shapes or the norm gains changes it.
        assert model_checksum(init_model(ModelConfig(seed=7))) == (
            "cdd9f1a37289df13929abc55fa98464b26ed3adf44f6c397948f7b0e23d779df"
        )

    def test_norm_gains_are_ones(self):
        model = init_model(ModelConfig(seed=7))
        assert np.all(model.layers[0].norm1 == 1.0)
        assert np.all(model.final_norm == 1.0)

    def test_weights_finite(self):
        model = init_model(ModelConfig(seed=11))
        for layer in model.layers:
            assert np.all(np.isfinite(layer.attn_q))


class TestScaledDotAttention:
    def test_single_query_single_key_returns_v(self, rng):
        q = rng.normal(size=(1, 4)).astype(np.float32)
        k = rng.normal(size=(1, 4)).astype(np.float32)
        v = rng.normal(size=(1, 4)).astype(np.float32)
        assert np.array_equal(scaled_dot_attention(q, k, v), v)

    def test_uniform_scores_give_column_mean(self, rng):
        q = rng.normal(size=(1, 4)).astype(np.float32)
        k = np.zeros((5, 4), dtype=np.float32)
        v = rng.normal(size=(5, 4)).astype(np.float32)
        out = scaled_dot_attention(q, k, v)
        np.testing.assert_allclose(out[0], v.mean(axis=0), atol=1e-6)

    def test_matches_bruteforce_oracle(self, rng):
        q = rng.normal(size=(3, 2)).astype(np.float32)
        k = rng.normal(size=(3, 2)).astype(np.float32)
        v = rng.normal(size=(3, 2)).astype(np.float32)
        out = scaled_dot_attention(q, k, v)
        expected = brute_attention(q, k, v, causal=True)
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_causal_mask_positions(self, rng):
        # 2 queries over 4 keys: query 0 sees keys 0..2, query 1 sees all.
        q = rng.normal(size=(2, 4)).astype(np.float32)
        k = rng.normal(size=(4, 4)).astype(np.float32)
        v = rng.normal(size=(4, 4)).astype(np.float32)
        out = scaled_dot_attention(q, k, v)
        expected = brute_attention(q, k, v, causal=True)
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            scaled_dot_attention(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 4)))

    def test_softmax_rows_sum_to_one(self, rng):
        scores = rng.normal(size=(6, 9)).astype(np.float32) * 10
        probs = naive_row_softmax(scores)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        from bklv.numerics import softmax

        assert np.allclose(softmax(scores).sum(axis=1), 1.0, atol=1e-6)


def _fresh_caches(model, compression=1.0, sinks=4):
    plan = uniform_plan(model.config, compression, sinks)
    return build_cache_set(plan, model.config)


class TestForwardChunk:
    def test_deterministic(self, small_model):
        toks = list(range(10))
        a, _ = forward_chunk(small_model, toks, _fresh_caches(small_model))
        b, _ = forward_chunk(small_model, toks, _fresh_caches(small_model))
        assert np.array_equal(a, b)

    def test_matches_cache_free_oracle(self, small_model):
        toks = [256, 5, 10, 200, 7, 7, 31, 99, 3, 150, 42, 17]
        logits, _ = forward_chunk(small_model, toks, _fresh_caches(small_model))
        expected = reference_logits(small_model, toks)
        np.testing.assert_allclose(logits, expected, rtol=1e-4, atol=1e-6)

    def test_incremental_matches_one_shot(self, small_model):
        toks = list(range(12))
        one, _ = forward_chunk(small_model, toks, _fresh_caches(small_model))
        caches = _fresh_caches(small_model)
        parts = [forward_chunk(small_model, toks[:5], caches)[0]]
        for tok in toks[5:]:
            parts.append(forward_chunk(small_model, [tok], caches)[0])
        np.testing.assert_allclose(np.concatenate(parts), one, rtol=1e-4, atol=1e-6)

    def test_capture_shapes(self, small_model):
        cfg = small_model.config
        n = 9
        _, probes = forward_chunk(
            small_model, list(range(n)), _fresh_caches(small_model), capture=True
        )
        assert probes.head_input_v.shape == (cfg.num_layers, cfg.num_kv_heads, n, cfg.head_dim)
        assert probes.head_output.shape == (cfg.num_layers, cfg.num_q_heads, n, cfg.head_dim)
        assert probes.layer_input.shape == (cfg.num_layers, n, cfg.d_model)
        assert probes.layer_output.shape == probes.layer_input.shape

    def test_capture_under_eviction_keeps_all_rows(self, small_model):
        caches = _fresh_caches(small_model, compression=0.2)
        n = 30
        _, probes = forward_chunk(small_model, list(range(n)), caches, capture=True)
        assert probes.head_input_v.shape[2] == n

    def test_token_out_of_range(self, small_model):
        with pytest.raises(InputError, match="token id out of range"):
            forward_chunk(small_model, [0, 300], _fresh_caches(small_model))

    @pytest.mark.parametrize("tokens, bad", [([-3, 5, 7], -3), ([0, 300, 5], 300), ([-1, 300], -1)])
    def test_token_error_names_an_id_out_of_range(self, tokens, bad):
        with pytest.raises(InputError, match=rf"token id out of range \[0, 257\): {bad}$"):
            check_tokens(tokens, 257)

    def test_cache_layer_mismatch(self, small_model, toy_model):
        with pytest.raises(ConfigError):
            forward_chunk(small_model, [1, 2], _fresh_caches(toy_model))

    def test_context_limit(self, small_model):
        toks = list(range(small_model.config.max_context + 1))
        toks = [t % 257 for t in toks]
        with pytest.raises(InputError, match="context length exceeded"):
            forward_chunk(small_model, toks, _fresh_caches(small_model))

    def test_gqa_equals_mha_reference(self):
        # With num_kv_heads == num_q_heads the model is plain multi-head
        # attention; the cache-free reference with per-head KV is the oracle.
        cfg = ModelConfig(
            num_layers=2,
            num_q_heads=4,
            num_kv_heads=4,
            head_dim=8,
            d_model=32,
            d_ff=64,
            vocab_size=257,
            max_context=64,
            seed=5,
        )
        model = init_model(cfg)
        toks = [256, 1, 2, 3, 42, 99, 200, 17]
        logits, _ = forward_chunk(model, toks, _fresh_caches(model))
        np.testing.assert_allclose(logits, reference_logits(model, toks), rtol=1e-5, atol=1e-6)


@st.composite
def _budgeted_runs(draw):
    """Random budgets and sinks, a token sequence, and its split into calls."""
    cfg = SMALL
    sinks = draw(st.integers(0, 4))
    budgets = [
        [draw(st.integers(sinks + 1, 24)) for _ in range(cfg.num_kv_heads)]
        for _ in range(cfg.num_layers)
    ]
    n = draw(st.integers(2, 40))
    tokens = draw(st.lists(st.integers(0, cfg.vocab_size - 1), min_size=n, max_size=n))
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=4))
    return budgets, sinks, tokens, sorted(cuts)


def _run_calls(model, budgets, sinks, tokens, cuts):
    plan = AllocationPlan(0.0, sinks, np.array(budgets, dtype=np.int64), "custom", PlanParams())
    caches = build_cache_set(plan, model.config)
    bounds = [0, *cuts, len(tokens)]
    outs = [
        forward_chunk(model, tokens[a:b], caches, capture=True)
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    logits = np.concatenate([lg for lg, _ in outs])
    probes = {
        "head_input_v": np.concatenate([p.head_input_v for _, p in outs], axis=2),
        "head_output": np.concatenate([p.head_output for _, p in outs], axis=2),
        "layer_input": np.concatenate([p.layer_input for _, p in outs], axis=1),
        "layer_output": np.concatenate([p.layer_output for _, p in outs], axis=1),
    }
    return logits, probes


class TestBudgetedStepping:
    """forward_chunk under eviction against the token-by-token oracle."""

    @settings(max_examples=25, deadline=None)
    @given(_budgeted_runs())
    # the second call starts with the caches partly full, the third with them full
    @example(([[10, 12], [11, 10]], 2, list(range(100, 140)), [5, 12]))
    # every call after the first starts full; budgets at the sink floor
    @example(([[3, 5], [3, 4]], 2, list(range(30)), [6, 7, 20]))
    def test_matches_stepping_oracle(self, small_model, run):
        budgets, sinks, tokens, cuts = run
        logits, probes = _run_calls(small_model, budgets, sinks, tokens, cuts)
        expected_logits, expected_probes = reference_budgeted_logits(
            small_model, tokens, budgets, sinks
        )
        np.testing.assert_allclose(logits, expected_logits, rtol=0, atol=1e-5)
        for name, expected in expected_probes.items():
            np.testing.assert_allclose(probes[name], expected, rtol=0, atol=1e-5, err_msg=name)

    def test_each_layer_batches_up_to_its_own_free_space(self, small_model, monkeypatch):
        appends = []

        def recording(cache, k_new, v_new):
            appends.append((cache, len(k_new)))
            append_and_evict(cache, k_new, v_new)

        monkeypatch.setattr(model_module, "append_and_evict", recording)
        # layer 0's smallest budget (4) is below layer 1's (10)
        plan = AllocationPlan(0.0, 1, np.array([[4, 6], [10, 12]]), "custom", PlanParams())
        caches = build_cache_set(plan, SMALL)
        forward_chunk(small_model, list(range(16)), caches)
        for row, first in zip(caches.caches, (4, 10)):
            for cache in row:
                assert [n for c, n in appends if c is cache] == [first] + [1] * (16 - first)


@st.composite
def _layer_batches(draw):
    """One layer of SMALL: unequal budgets, random sinks, a batch of
    hidden-state sequences, a shared prefix already in the caches (none,
    or enough to fill some), and a score cap that forces tiling or not."""
    sinks = draw(st.integers(0, 4))
    budgets = [draw(st.integers(sinks + 1, 20)) for _ in range(SMALL.num_kv_heads)]
    batch = draw(st.integers(1, 4))
    prefix = draw(st.integers(0, 24))
    n = draw(st.integers(1, 24))
    cap = draw(st.sampled_from([cache_module.SCORE_CAP, 1, 50]))
    li = draw(st.integers(0, SMALL.num_layers - 1))
    return budgets, sinks, batch, prefix, n, cap, li, draw(st.integers(0, 2**16))


class TestBatchedLayer:
    """forward_layer over a batch against one call per sequence, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(_layer_batches())
    # the prefix fills group 0 and leaves group 1 partly free
    @example(([3, 9], 2, 3, 5, 12, cache_module.SCORE_CAP, 1, 0))
    # one group per score tile; the first segment has 9 rows
    @example(([9, 10], 0, 4, 0, 16, 1, 0, 1))
    def test_batch_equals_one_sequence_calls(self, small_model, case):
        budgets, sinks, batch, prefix, n, cap, li, seed = case
        cfg = SMALL
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, prefix + n, cfg.d_model)).astype(np.float32)
        together = layer_caches(budgets * batch, sinks, cfg.head_dim)
        alone = [layer_caches(budgets, sinks, cfg.head_dim) for _ in range(batch)]
        bounds = [0, prefix, prefix + n] if prefix else [0, n]
        with mock.patch.object(cache_module, "SCORE_CAP", cap):
            for a, b in zip(bounds[:-1], bounds[1:]):
                got = forward_layer(small_model, li, x[:, a:b], together)
                assert got.shape == (batch, b - a, cfg.d_model)
                for seq in range(batch):
                    one = forward_layer(small_model, li, x[seq : seq + 1, a:b], alone[seq])
                    assert np.array_equal(got[seq], one[0])
        for seq, caches in enumerate(alone):
            for grp, cache in enumerate(caches):
                mine = together[seq * cfg.num_kv_heads + grp]
                assert (mine.retained, mine.total_seen) == (cache.retained, cache.total_seen)
                for name in ("keys", "values", "positions"):
                    assert np.array_equal(getattr(mine, name), getattr(cache, name)), name

    def test_cache_count_must_match_the_batch(self, small_model):
        caches = layer_caches([8] * SMALL.num_kv_heads, 1, SMALL.head_dim)
        x = np.zeros((2, 3, SMALL.d_model), np.float32)
        with pytest.raises(ShapeError):
            forward_layer(small_model, 0, x, caches)


class TestRope:
    def test_memoized_tables_match_the_direct_formula(self, rng):
        model_module._ROPE_TABLES.clear()
        for theta, head_dim in ((10000.0, 16), (500.0, 8)):
            half = head_dim // 2
            inv_freq = theta ** (-2.0 * np.arange(half, dtype=np.float64) / head_dim)
            # the tables grow: a row, a short range, random positions, a long range
            steps = (np.array([7]), np.arange(60, 64), rng.integers(0, 2048, 50), np.arange(4096))
            for positions in steps:
                x = rng.normal(size=(positions.size, 3, head_dim)).astype(np.float32)
                angles = positions.astype(np.float64)[:, None] * inv_freq[None, :]
                cos = np.cos(angles).astype(np.float32)[:, None, :]
                sin = np.sin(angles).astype(np.float32)[:, None, :]
                x1, x2 = x[..., :half], x[..., half:]
                expected = np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)
                assert np.array_equal(rope_rotate(x, positions, theta), expected)


class TestGreedyGenerate:
    def test_zero_steps(self, small_model):
        assert greedy_generate(small_model, [256, 1], 0, _fresh_caches(small_model)) == []

    def test_negative_steps(self, small_model):
        with pytest.raises(InputError):
            greedy_generate(small_model, [256], -1, _fresh_caches(small_model))

    def test_empty_prompt_fails_the_token_rule(self, small_model):
        with pytest.raises(InputError, match="tokens must be a non-empty 1-D sequence"):
            greedy_generate(small_model, [], 3, _fresh_caches(small_model))

    def test_matches_cache_free_oracle(self, small_model):
        prompt = [256, 10, 20, 30]
        got = greedy_generate(small_model, prompt, 12, _fresh_caches(small_model))
        assert got == reference_generate(small_model, prompt, 12)

    def test_deterministic(self, small_model):
        prompt = [256, 9, 8, 7]
        a = greedy_generate(small_model, prompt, 8, _fresh_caches(small_model))
        b = greedy_generate(small_model, prompt, 8, _fresh_caches(small_model))
        assert a == b


_HEADER_FIELDS = tuple(f.name for f in fields(ModelConfig))
_HEADER_VALUES = [
    "0", "-1", "1", "2", "3", "8", "32", "64", "257", "10000.0", "1_0", "2.5",
    "99999999999999999999", "9" * 5000, "nan", "inf", "-inf", "1e999", "x", "", "\u00e9", "1\n2",
]


class TestWeightFile:
    def test_roundtrip_bytes_identical(self, small_model):
        data = serialize_model(small_model)
        again = serialize_model(deserialize_model(data))
        assert data == again

    def test_roundtrip_preserves_config(self, small_model):
        model = deserialize_model(serialize_model(small_model))
        assert model.config == SMALL

    def test_header_is_single_text_line(self, small_model):
        data = serialize_model(small_model)
        header = data.split(b"\n", 1)[0].decode("ascii")
        assert header.startswith("bklv1 ")
        assert "num_layers=2" in header

    def test_bad_version(self, small_model):
        data = serialize_model(small_model)
        with pytest.raises(FormatError, match="format version"):
            deserialize_model(b"bklv9" + data[5:])

    def test_missing_field_named(self, small_model):
        data = serialize_model(small_model)
        header, body = data.split(b"\n", 1)
        broken = header.replace(b"vocab_size=257", b"") + b"\n" + body
        with pytest.raises(FormatError, match="vocab_size"):
            deserialize_model(broken)

    def test_truncated_payload(self, small_model):
        data = serialize_model(small_model)
        with pytest.raises(FormatError, match="bytes"):
            deserialize_model(data[:-8])

    @pytest.mark.parametrize("theta", [b"nan", b"inf", b"-inf", b"0.0"])
    def test_non_finite_or_non_positive_rope_theta_rejected(self, small_model, theta):
        data = serialize_model(small_model)
        assert b" rope_theta=10000.0 " in data.split(b"\n", 1)[0]
        broken = data.replace(b"rope_theta=10000.0", b"rope_theta=" + theta, 1)
        with pytest.raises(FormatError, match="rope_theta must be finite and positive"):
            deserialize_model(broken)

    @settings(max_examples=200, deadline=None)
    @given(
        version=st.sampled_from(["bklv1", "bklv1", "bklv1", "bklv2", ""]),
        edits=st.lists(
            st.tuples(
                st.sampled_from(_HEADER_FIELDS + ("extra", "")),
                st.none() | st.sampled_from(_HEADER_VALUES),
            ),
            max_size=3,
        ),
        cut=st.integers(-64, 64),
        poke=st.none() | st.tuples(st.integers(0, 2**20), st.integers(0, 255)),
    )
    @example(version="bklv1", edits=[("rope_theta", "nan")], cut=0, poke=None)
    # a payload size that only a huge model could match is rejected without building it
    @example(version="bklv1", edits=[("num_layers", "99999999999999999999")], cut=0, poke=None)
    def test_fuzzed_file_gives_a_valid_model_or_a_package_error(
        self, small_model, version, edits, cut, poke
    ):
        # edits set (or, with None, drop) header fields; cut truncates or
        # zero-extends the payload; poke overwrites one payload byte
        header, body = serialize_model(small_model).split(b"\n", 1)
        items = dict(item.split("=", 1) for item in header.decode("ascii").split()[1:])
        for name, value in edits:
            if value is None:
                items.pop(name, None)
            else:
                items[name] = value
        body = bytearray(body[: len(body) + cut] if cut < 0 else body + bytes(cut))
        if poke is not None:
            body[poke[0] % len(body)] = poke[1]
        head = " ".join([version] + [f"{k}={v}" for k, v in items.items()])
        try:
            model = deserialize_model(head.encode("utf-8") + b"\n" + bytes(body))
        except BklvError:
            return
        cfg = model.config
        cfg.validate()
        assert math.isfinite(cfg.rope_theta) and cfg.rope_theta > 0
        payload = serialize_model(model).split(b"\n", 1)[1]
        assert len(payload) == len(body)
        assert np.all(np.isfinite(np.frombuffer(payload, dtype="<f4")))
