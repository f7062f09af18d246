import math
import warnings
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bklv import (
    BklvError,
    CacheSet,
    ConfigError,
    FormatError,
    InputError,
    ModelConfig,
    ShapeError,
    append_and_evict,
    build_cache_set,
    chunked_perplexity,
    forward_chunk,
    greedy_generate,
    init_model,
    layer_sweep,
    memory_report,
    model_checksum,
    parameter_search,
    profile_model,
    reset,
    uniform_plan,
)
from bklv import cache as cache_module
from bklv import config as config_module
from bklv import io
from bklv import model as model_module
from bklv import profiling as profiling_module
from bklv import search as search_module
from bklv.allocation import AllocationPlan, PlanParams, build_plan
from bklv.cache import LayerStore, softmax
from bklv.model import (
    LayerWeights,
    check_tokens,
    deserialize_model,
    forward_layer,
    output_logits,
    rms_norm,
    rope_rotate,
    serialize_model,
)

from .conftest import SMALL, warm_peak_bytes
from .reference import (
    brute_attention,
    layer_steps,
    naive_row_softmax,
    offset_model,
    readme_text,
    reference_budgeted_logits,
    reference_generate,
    reference_logits,
    scaled_dot_attention,
    three_projection_step,
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

    def test_odd_head_dim(self):
        cfg = ModelConfig(head_dim=15, d_model=ModelConfig().num_q_heads * 15)
        with pytest.raises(ConfigError, match="^head_dim must be even for rotary positions, got 15$"):
            cfg.validate()

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

    def test_weight_count_is_bounded(self, small_model):
        assert ModelConfig().weight_count() == 492_800
        assert SMALL.weight_count() == sum(t.size for t in model_module._canonical_tensors(small_model))
        with mock.patch.object(config_module, "MAX_WEIGHTS", 492_800):
            ModelConfig().validate()
        with mock.patch.object(config_module, "MAX_WEIGHTS", 492_799):
            with pytest.raises(ConfigError, match="^the model has 492800 weights, above MAX_WEIGHTS 492799$"):
                ModelConfig().validate()
        huge = ModelConfig(num_layers=100_000, d_ff=100_000)  # about 2.6e12 weights
        with pytest.raises(ConfigError, match=f"has {huge.weight_count()} weights, above MAX_WEIGHTS {2**28}"):
            huge.validate()


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
        # the layer pass returns every query head's output alongside its
        # hidden states; chained over the stores it gives forward_chunk's logits
        cfg = small_model.config
        n = 9
        toks = list(range(n))
        caches = _fresh_caches(small_model)
        x = small_model.embedding[np.asarray(toks)[None]].astype(np.float32)
        for li, store in enumerate(caches.stores):
            out, heads = forward_layer(small_model, li, x, store)
            assert heads.shape == (1, cfg.num_q_heads, n, cfg.head_dim)
            assert out.shape == x.shape == (1, n, cfg.d_model)
            x = out
        logits, _ = forward_chunk(small_model, toks, _fresh_caches(small_model))
        assert model_module.output_logits(small_model, x[0]).tobytes() == logits.tobytes()

    def test_capture_under_eviction_keeps_all_rows(self, small_model):
        # caches that evict still give a head output and hidden state per token
        caches = _fresh_caches(small_model, compression=0.2)
        n = 30
        x = small_model.embedding[np.arange(n)[None]].astype(np.float32)
        for li, store in enumerate(caches.stores):
            x, heads = forward_layer(small_model, li, x, store)
            assert store.retained < n
            assert heads.shape[2] == n and x.shape[1] == n

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

    def test_a_cache_set_missing_a_layer_is_rejected_before_any_append(self, small_model):
        caches = _fresh_caches(small_model)
        del caches.stores[-1]
        with pytest.raises(ConfigError, match="^cache layer count 1 != num_layers 2$"):
            forward_chunk(small_model, [1, 2], caches)
        assert caches.stores[0].seen == [0] * SMALL.num_kv_heads

    def test_context_limit(self, small_model):
        toks = list(range(small_model.config.max_context + 1))
        toks = [t % 257 for t in toks]
        with pytest.raises(InputError, match="context length exceeded"):
            forward_chunk(small_model, toks, _fresh_caches(small_model))

    def test_context_limit_at_an_offset(self, small_model):
        # the one context-length message, from stream position 3 of max_context 64
        caches = _fresh_caches(small_model)
        forward_chunk(small_model, [256, 1, 2], caches)
        with pytest.raises(InputError, match=r"^context length exceeded: 3 \+ 62 > max_context 64$"):
            forward_chunk(small_model, [5] * 62, caches)
        assert caches.total_seen == 3
        forward_chunk(small_model, [5] * 61, caches)  # exactly fills the context
        assert caches.total_seen == 64

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
    """Drive a cache set's stores layer by layer for each cut of tokens, one
    forward_layer call per layer for a first cut of 2 or more, else
    layer_steps. Returns the logits, each layer's input, heads and output
    for every token, the cache set, and forward_chunk's logits over another
    cache set with the same cuts."""
    plan = AllocationPlan(0.0, sinks, np.array(budgets, dtype=np.int64), "custom", PlanParams())
    caches, chunked = build_cache_set(plan, model.config), build_cache_set(plan, model.config)
    bounds = [0, *cuts, len(tokens)]
    logits, chunk_logits = [], []
    probes = {"head_output": [], "layer_input": [], "layer_output": []}
    for a, b in zip(bounds[:-1], bounds[1:]):
        x = model.embedding[np.asarray(tokens[a:b])[None]].astype(np.float32)
        step = forward_layer if a == 0 and b - a > 1 else layer_steps
        for name in probes:
            probes[name].append([])
        for li, store in enumerate(caches.stores):
            probes["layer_input"][-1].append(x[0])
            x, heads = step(model, li, x, store)
            probes["head_output"][-1].append(heads[0])
            probes["layer_output"][-1].append(x[0])
        logits.append(model_module.output_logits(model, x[0]))
        chunk_logits.append(forward_chunk(model, tokens[a:b], chunked)[0])
    axis = {"head_output": 2, "layer_input": 1, "layer_output": 1}  # the token axis
    probes = {name: np.concatenate([np.stack(c) for c in calls], axis=axis[name]) for name, calls in probes.items()}
    return np.concatenate(logits), probes, caches, np.concatenate(chunk_logits)


class TestBudgetedStepping:
    """forward_chunk under eviction against the token-by-token oracle."""

    def test_stores_are_no_wider_than_max_context(self, small_model, rng):
        # reallocation at high compression can give a cache more than max_context (64)
        budgets = [[100, 20], [64, 70]]
        plan = AllocationPlan(0.0, 4, np.array(budgets, dtype=np.int64), "custom", PlanParams())
        caches = build_cache_set(plan, SMALL)
        assert [store.keys.shape[-1] for store in caches.stores] == [64, 64]
        assert [c.budget for c in caches.all_caches()] == [64, 20, 64, 64]
        tokens = rng.integers(0, 257, size=SMALL.max_context)
        logits, _ = forward_chunk(small_model, tokens, caches)
        expected, _ = reference_budgeted_logits(small_model, tokens, budgets, 4)
        np.testing.assert_allclose(logits, expected, rtol=0, atol=1e-5)
        memory = memory_report(plan, SMALL)
        assert memory["total_budget_tokens"] == 254
        assert memory["per_cache_bytes"] == (2 * np.array(budgets) * SMALL.head_dim * 2).tolist()

    @settings(max_examples=25, deadline=None)
    @given(_budgeted_runs())
    # the second call starts with the caches partly full, the third with them full
    @example(([[10, 12], [11, 10]], 2, list(range(100, 140)), [5, 12]))
    # every call after the first starts full; budgets at the sink floor
    @example(([[3, 5], [3, 4]], 2, list(range(30)), [6, 7, 20]))
    # every call after the first is one token, past every budget: the decode step
    @example(([[5, 7], [6, 4]], 1, list(range(50, 70)), list(range(4, 20))))
    def test_matches_stepping_oracle(self, small_model, run):
        budgets, sinks, tokens, cuts = run
        logits, probes, caches, chunk_logits = _run_calls(small_model, budgets, sinks, tokens, cuts)
        expected_logits, expected_probes = reference_budgeted_logits(
            small_model, tokens, budgets, sinks
        )
        np.testing.assert_allclose(logits, expected_logits, rtol=0, atol=1e-5)
        assert chunk_logits.tobytes() == logits.tobytes()
        for name, got in probes.items():  # every token's, whatever was evicted
            np.testing.assert_allclose(got, expected_probes[name], rtol=0, atol=1e-5, err_msg=name)
        # the V rows each cache kept, at the positions it holds
        for li, store in enumerate(caches.stores):
            for grp, cache in enumerate(store.caches):
                expected = expected_probes["head_input_v"][li, grp, cache.positions]
                np.testing.assert_allclose(cache.values, expected, rtol=0, atol=1e-5)

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
        for store, first in zip(caches.stores, (4, 10)):
            for cache in store.caches:
                assert [n for c, n in appends if c is cache] == [first] + [1] * (16 - first)

    @staticmethod
    def _step_calls(model, monkeypatch, prefix, tokens) -> tuple[list, list]:
        """The append and attention calls of forward_chunk of `tokens` after
        `prefix`, and a decode step's schedule for each token in each layer:
        one row's append per cache in cache order, then one attention over
        the store, and no banded pass."""
        calls, attend, banded = [], cache_module.attend_with_cache, cache_module.banded_attention

        def appending(cache, k_new, v_new):
            calls.append(("append", cache, k_new.shape))
            append_and_evict(cache, k_new, v_new)

        def attending(store, q):
            calls.append(("attend", store))
            return attend(store, q)

        def banding(q, k, v, budgets, sinks):
            calls.append(("banded", budgets))
            return banded(q, k, v, budgets, sinks)

        monkeypatch.setattr(model_module, "append_and_evict", appending)
        monkeypatch.setattr(model_module, "attend_with_cache", attending)
        monkeypatch.setattr(model_module, "banded_attention", banding)
        plan = AllocationPlan(0.0, 1, np.array([[4, 6], [10, 12]]), "custom", PlanParams())
        caches = build_cache_set(plan, SMALL)
        forward_chunk(model, prefix, caches)
        calls.clear()
        forward_chunk(model, tokens, caches)
        expected = []
        for store in caches.stores:
            for _ in tokens:
                expected += [("append", cache, (1, SMALL.head_dim)) for cache in store.caches]
                expected.append(("attend", store))
        return calls, expected

    def test_one_token_appends_a_row_per_cache_then_attends_once_per_layer(self, small_model, monkeypatch):
        """The call schedule of a decode step, the calls perfbench's decode counts."""
        calls, expected = self._step_calls(small_model, monkeypatch, list(range(16)), [7])  # past every budget
        assert calls == expected

    def test_a_chunk_after_a_prefix_takes_the_decode_step_per_token(self, small_model, monkeypatch, rng):
        # the prefix overflows layer 0's group 0 (budget 4) only, the chunk its group 1 (budget 6) too
        tokens = [7, 8, 9, 200]
        calls, layer_major = self._step_calls(small_model, monkeypatch, list(range(5)), tokens)
        # token-major: one token's appends and attention in layers 0 to L-1 come before the next token's
        size, n = SMALL.num_kv_heads + 1, len(tokens)
        steps = [layer_major[i : i + size] for i in range(0, len(layer_major), size)]  # layer l, token t at l * n + t
        assert calls == [call for t in range(n) for step in steps[t::n] for call in step]
        monkeypatch.undo()
        # the stores are the one-token calls', bit for bit, and the logits theirs up to the
        # rounding of one output product per row: sinks 2, and a prefix of 6 past group 0's
        # budget (4) but not group 1's (9)
        plan = AllocationPlan(0.0, 2, np.array([[4, 9]] * SMALL.num_layers), "custom", PlanParams())
        chunked, stepped = build_cache_set(plan, SMALL), build_cache_set(plan, SMALL)
        tokens = rng.integers(0, SMALL.vocab_size, size=13)
        for caches in (chunked, stepped):
            forward_chunk(small_model, tokens[:6], caches)
        logits, _ = forward_chunk(small_model, tokens[6:], chunked)
        steps = np.concatenate([forward_chunk(small_model, [token], stepped)[0] for token in tokens[6:]])
        np.testing.assert_allclose(logits, steps, rtol=0, atol=1e-5)
        for mine, theirs in zip(chunked.stores, stepped.stores):
            assert (mine.keys.tobytes(), mine.values.tobytes()) == (theirs.keys.tobytes(), theirs.values.tobytes())
            assert mine.seen == theirs.seen == [13] * SMALL.num_kv_heads

    def test_a_chunk_appends_every_row_before_its_banded_pass_moves_the_sinks(self, small_model, monkeypatch, rng):
        """The banded pass works the layer step's keys and values in place, so
        the step appends every row first and no moved row reaches a store:
        each store holds what token-by-token appends of the rows leave.
        Budgets [31, 12] with 4 sinks, 100 tokens in 4 blocks: from the second
        block on, the sinks move next to the widest band, first to columns 2..5,
        over two of their own. Each cache takes a segment of 12 rows, then 88
        single-token appends."""
        budgets, sinks, n, d = [31, 12], 4, 100, SMALL.head_dim
        calls, banded = [], cache_module.banded_attention

        def appending(cache, k_new, v_new):
            calls.append(("append", len(k_new)))
            append_and_evict(cache, k_new, v_new)

        def banding(q, k, v, budgets, sinks):
            calls.append(("banded", k.copy(), v.copy()))  # the rows as the pass receives them
            return banded(q, k, v, budgets, sinks)

        monkeypatch.setattr(model_module, "append_and_evict", appending)
        monkeypatch.setattr(model_module, "banded_attention", banding)
        store = LayerStore(budgets, sinks, d)
        forward_layer(small_model, 0, rng.normal(size=(1, n, SMALL.d_model)).astype(np.float32), store)
        assert calls[:-1] == [("append", 12)] * 2 + [("append", 1)] * 2 * (n - 12)
        name, k, v = calls[-1]
        assert name == "banded" and np.all(v[..., d] == 1)
        stepped = LayerStore(budgets, sinks, d)
        for g, cache in enumerate(stepped.caches):
            for t in range(n):
                append_and_evict(cache, k[g, t : t + 1], v[g, t : t + 1, :d])
        assert (store.keys.tobytes(), store.values.tobytes()) == (stepped.keys.tobytes(), stepped.values.tobytes())
        retained = [[c.retained for c in s.caches] for s in (store, stepped)]
        assert (retained[0], store.seen) == (retained[1], stepped.seen)


class TestServedTraffic:
    """The traffic the chunk path is built for: every chunk of several
    tokens that the pipeline sends through a layer starts its stream."""

    def test_no_chunk_continues_a_stream(self, small_model, monkeypatch, rng):
        calls = []

        def recording(model, li, x, store):  # every layer call, in each module that makes one
            calls.append((x.shape[1] > 1, any(store.seen)))
            return forward_layer(model, li, x, store)

        def chunk(model, tokens, caches):  # every forward_chunk call, which steps a continuing chunk itself
            calls.append((np.size(tokens) > 1, caches.total_seen > 0))
            return forward_chunk(model, tokens, caches)

        def token_step(cfg, layer, x, caches, position):  # forward_chunk's one-token step, one row
            calls.append((False, any(cache.total_seen for cache in caches)))
            return token_qkv(cfg, layer, x, caches, position)

        for module in (model_module, search_module, profiling_module):
            monkeypatch.setattr(module, "forward_layer", recording)
        for module in (model_module, search_module):
            monkeypatch.setattr(module, "forward_chunk", chunk)
        token_qkv = model_module._token_qkv
        monkeypatch.setattr(model_module, "_token_qkv", token_step)
        corpus = rng.integers(0, SMALL.vocab_size, size=140)
        plan = uniform_plan(SMALL, 0.5)
        chunked_perplexity(small_model, corpus, 64, plan)
        profile = profile_model(small_model, [rng.integers(0, SMALL.vocab_size, size=n) for n in (40, 64)])
        parameter_search(small_model, corpus, 64, 0.5, [(0.5, 0.3), (0.9, 0.6)], profile)
        layer_sweep(small_model, corpus, 48, 1, 0.5)
        greedy_generate(small_model, corpus[:20], 30, build_cache_set(plan, SMALL))
        assert set(calls) == {(True, False), (False, True)}  # chunks into empty stores, then single tokens


class TestTokenMajorStep:
    """forward_chunk's token step, each token through every layer, against
    one-token layer_steps calls made layer by layer."""

    def test_logits_and_stores_equal_one_token_layer_calls(self, small_model, rng):
        # unequal budgets, 2 sinks: the prefix of 6 overflows budget 5 only, the
        # single tokens overflow 9 and 10 too, the continuing chunk of 20 all four
        plan = AllocationPlan(0.0, 2, np.array([[5, 9], [12, 10]]), "custom", PlanParams())
        stepped, layered = build_cache_set(plan, SMALL), build_cache_set(plan, SMALL)
        tokens = rng.integers(0, SMALL.vocab_size, size=32)
        for caches in (stepped, layered):
            forward_chunk(small_model, tokens[:6], caches)
        for a, b in [(t, t + 1) for t in range(6, 12)] + [(12, 32)]:
            rows = []
            for token in tokens[a:b]:
                x = small_model.embedding[[[token]]]
                for li, store in enumerate(layered.stores):
                    x, _ = layer_steps(small_model, li, x, store)
                rows.append(x[0, 0])
            logits, _ = forward_chunk(small_model, tokens[a:b], stepped)
            assert logits.tobytes() == output_logits(small_model, np.stack(rows)).tobytes()
        for mine, theirs in zip(stepped.stores, layered.stores):
            assert mine.keys.tobytes() == theirs.keys.tobytes()
            assert mine.values.tobytes() == theirs.values.tobytes()
            assert mine.seen == theirs.seen == [32] * SMALL.num_kv_heads

    @pytest.mark.parametrize("prefix, tokens", [([], [4, 5, 6]), ([1, 2, 3], [4]), ([1, 2, 3], [4, 5, 6])])
    def test_a_cache_count_off_in_a_later_layer_raises_before_any_append(self, small_model, prefix, tokens):
        plan = uniform_plan(SMALL, 0.5)
        caches = build_cache_set(plan, SMALL)
        wrong = LayerStore([16] * (SMALL.num_kv_heads + 1), plan.sinks, SMALL.head_dim)
        if prefix:
            forward_chunk(small_model, prefix, caches)
            rows = np.ones((len(prefix), SMALL.head_dim), np.float32)
            for cache in wrong.caches:  # at the stream position of the others
                append_and_evict(cache, rows, rows)
        caches.stores[-1] = wrong
        before = [(s.keys.copy(), s.values.copy(), list(s.seen)) for s in caches.stores]
        with pytest.raises(ShapeError, match="3 caches for a batch of 1 with 2 KV groups"):
            forward_chunk(small_model, tokens, caches)
        for store, (keys, values, seen) in zip(caches.stores, before):
            assert np.array_equal(store.keys, keys) and np.array_equal(store.values, values) and store.seen == seen

    @pytest.mark.parametrize("tokens", [range(10), [4]])
    def test_a_head_width_off_in_a_later_layer_raises_before_any_append(self, toy_model, tokens):
        cfg = toy_model.config
        caches = build_cache_set(uniform_plan(cfg, 0.3), cfg)
        narrow = caches.stores[3]
        caches.stores[3] = LayerStore(narrow.budgets, narrow.sinks, cfg.head_dim // 2)
        with pytest.raises(ShapeError, match=f"; store head_dim {cfg.head_dim // 2}, model head_dim {cfg.head_dim}$"):
            forward_chunk(toy_model, tokens, caches)
        assert [store.seen for store in caches.stores] == [[0] * cfg.num_kv_heads] * cfg.num_layers


@st.composite
def _layer_batches(draw):
    """One layer of SMALL: unequal budgets, random sinks, a batch of
    hidden-state chunks into empty stores, and a score cap that forces
    tiling or not."""
    sinks = draw(st.integers(0, 4))
    budgets = [draw(st.integers(sinks + 1, 20)) for _ in range(SMALL.num_kv_heads)]
    batch = draw(st.integers(1, 4))
    n = draw(st.integers(2, 24))
    cap = draw(st.sampled_from([cache_module.SCORE_CAP, 1, 50]))
    li = draw(st.integers(0, SMALL.num_layers - 1))
    return budgets, sinks, batch, n, cap, li, draw(st.integers(0, 2**16))


class TestBatchedLayer:
    """forward_layer over a batch against one call per sequence, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(_layer_batches())
    # one group per score tile; the first segment has 9 rows
    @example(([9, 10], 0, 4, 16, 1, 0, 1))
    # the chunk overflows group 0 and leaves group 1 partly free
    @example(([3, 9], 2, 3, 7, cache_module.SCORE_CAP, 1, 0))
    def test_batch_equals_one_sequence_calls(self, small_model, case):
        budgets, sinks, batch, n, cap, li, seed = case
        cfg = SMALL
        x = np.random.default_rng(seed).normal(size=(batch, n, cfg.d_model)).astype(np.float32)
        together = LayerStore(budgets * batch, sinks, cfg.head_dim)
        alone = [LayerStore(budgets, sinks, cfg.head_dim) for _ in range(batch)]
        with mock.patch.object(cache_module, "SCORE_CAP", cap):
            got, heads = forward_layer(small_model, li, x, together)
            assert got.shape == (batch, n, cfg.d_model)
            assert heads.shape == (batch, cfg.num_q_heads, n, cfg.head_dim)
            for seq in range(batch):
                one, one_heads = forward_layer(small_model, li, x[seq : seq + 1], alone[seq])
                assert np.array_equal(got[seq], one[0])
                assert np.array_equal(heads[seq], one_heads[0])
        for seq, store in enumerate(alone):
            for grp, cache in enumerate(store.caches):
                mine = together.caches[seq * cfg.num_kv_heads + grp]
                assert (mine.retained, mine.total_seen) == (cache.retained, cache.total_seen)
                for name in ("keys", "values", "positions"):
                    assert np.array_equal(getattr(mine, name), getattr(cache, name)), name

    def test_cache_count_must_match_the_batch(self, small_model):
        store = LayerStore([8] * SMALL.num_kv_heads, 1, SMALL.head_dim)
        x = np.zeros((2, 3, SMALL.d_model), np.float32)
        with pytest.raises(ShapeError):
            forward_layer(small_model, 0, x, store)


class TestChunkOnlyLayer:
    """forward_layer takes only a chunk of 2 or more tokens into empty
    stores; forward_chunk steps everything else. Any other call raises
    InputError and leaves the store as it was."""

    @pytest.mark.parametrize("batch, prefix, n", [(1, 0, 1), (3, 0, 1), (1, 6, 1), (1, 6, 5), (2, 20, 3)])
    def test_one_token_or_a_chunk_into_a_store_holding_tokens_raises(self, small_model, rng, batch, prefix, n):
        store = LayerStore([4, 9] * batch, 2, SMALL.head_dim)
        x = rng.normal(size=(batch, prefix + n, SMALL.d_model)).astype(np.float32)
        if prefix:
            forward_layer(small_model, 1, x[:, :prefix], store)
        before = store.keys.copy(), store.values.copy(), list(store.seen)
        message = rf"^forward_layer takes 2\+ tokens into empty stores, got {n} at position {prefix}$"
        with pytest.raises(InputError, match=message):
            forward_layer(small_model, 1, x[:, prefix:], store)
        assert np.array_equal(store.keys, before[0]) and np.array_equal(store.values, before[1])
        assert store.seen == before[2]

    def test_a_chunk_into_a_store_where_one_group_holds_tokens_raises(self, small_model, rng):
        store = LayerStore([4, 9], 2, SMALL.head_dim)
        rows = np.ones((3, SMALL.head_dim), np.float32)
        append_and_evict(store.caches[1], rows, rows)
        before = store.keys.copy(), store.values.copy()
        with pytest.raises(InputError, match="got 5 at position 3$"):
            forward_layer(small_model, 0, rng.normal(size=(1, 5, SMALL.d_model)).astype(np.float32), store)
        assert np.array_equal(store.keys, before[0]) and np.array_equal(store.values, before[1])
        assert store.seen == [0, 3]


def _pairwise_rope(x, positions, theta):
    """The pairwise rotation (x1 cos - x2 sin, x1 sin + x2 cos) of halves
    (x1, x2), with float64 angles and float32 factors."""
    half = x.shape[-1] // 2
    inv_freq = theta ** (-2.0 * np.arange(half, dtype=np.float64) / x.shape[-1])
    angles = positions.astype(np.float64)[:, None] * inv_freq[None, :]
    cos = np.cos(angles).astype(np.float32)[:, None, :]
    sin = np.sin(angles).astype(np.float32)[:, None, :]
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


class TestRope:
    def test_memoized_tables_match_the_direct_formula(self, rng):
        model_module._ROPE_TABLES.clear()
        for theta, head_dim in ((10000.0, 16), (500.0, 8)):
            # the tables grow: a row, a short range, a long one, a range inside,
            # one row past the end (doubled), a range from 0 past the doubling
            steps = ((7, 1, 8), (60, 4, 64), (1000, 50, 1050), (30, 20, 1050), (1100, 1, 2100), (0, 4096, 4200))
            for start, n, size in steps:
                x = rng.normal(size=(n, 3, head_dim)).astype(np.float32)
                expected = _pairwise_rope(x, np.arange(start, start + n), theta)
                assert np.array_equal(rope_rotate(x, start, theta), expected)
                assert [len(t) for t in model_module._ROPE_TABLES[theta, head_dim]] == [size, size]

    def test_one_token_into_out_matches_the_pairwise_formula(self, rng):
        # the decode call shape: one position, rotated into a view of a larger buffer
        theta, head_dim = 10000.0, 16
        buffer = np.zeros((2, 1, 5, head_dim), np.float32)
        for position in (0, 3, 511, 5000):
            x = (rng.normal(size=(1, 5, head_dim)) * 1e3).astype(np.float32)
            out = buffer[1]
            assert rope_rotate(x, position, theta, out=out) is out
            assert np.array_equal(buffer[1], _pairwise_rope(x, np.array([position]), theta))
            assert not buffer[0].any()


_ROWS = hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=9)
_FLOAT32 = st.floats(width=32, allow_nan=False, allow_infinity=False)  # up to 3.4e38


@st.composite
def _masked_scores(draw):
    """float32 scores of 1 to 3 dims, with -inf entries in random places
    but at least one finite entry in every row."""
    scores = draw(hnp.arrays(np.float32, _ROWS, elements=_FLOAT32))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    hidden = rng.random(scores.shape) < draw(st.sampled_from([0.0, 0.5, 0.95]))
    keep = rng.integers(0, scores.shape[-1], size=(*scores.shape[:-1], 1))
    np.put_along_axis(hidden, keep, False, axis=-1)
    scores[hidden] = -np.inf
    return scores


@st.composite
def _rows_and_gain(draw):
    x = draw(hnp.arrays(np.float32, _ROWS, elements=_FLOAT32))
    return x, draw(hnp.arrays(np.float32, x.shape[-1:], elements=st.floats(-4, 4, width=32)))


@st.composite
def _row_among_rows(draw):
    """Rows of one width, one of them of magnitude 1e-3 to 1e3 or of
    near-zero norm, its index, and an arbitrary gain."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    rows = rng.normal(size=(draw(st.integers(2, 6)), draw(st.integers(1, 64)))).astype(np.float32)
    i = draw(st.integers(0, len(rows) - 1))
    scale = draw(st.one_of(st.floats(1e-3, 1e3), st.sampled_from([0.0, 1e-42, 1e-30, 1e-19])))
    rows[i] *= np.float32(scale)
    return rows, i, draw(hnp.arrays(np.float32, rows.shape[-1:], elements=_FLOAT32))


def _silu_floor() -> np.float32:
    """The old SiLU formula's value at -_EXP_MAX, where _silu clamps."""
    x = -model_module._EXP_MAX
    return x / (np.float32(1) + np.exp(-x))


class TestExactRewrites:
    """rms_norm, softmax and the MLP's SiLU against the np.mean / np.max /
    np.sum and per-call errstate formulas they replaced, with tolerance 0."""

    @settings(max_examples=200, deadline=None)
    @given(_rows_and_gain())
    @example((np.array([[3e19, -1.5, 2.0]], np.float32), np.ones(3, np.float32)))  # x**2 overflows
    @example((np.array([1e-30, 7.0, -2e5, 4.5], np.float32), np.full(4, -0.5, np.float32)))
    def test_rms_norm_is_the_mean_formula(self, case):
        x, gain = case
        with np.errstate(over="ignore"):
            scale = 1.0 / np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + np.float32(1e-5))
            np.testing.assert_array_equal(model_module.rms_norm(x, gain), x * scale * gain)

    @settings(max_examples=200, deadline=None)
    @given(_row_among_rows())
    @example((np.zeros((2, 3), np.float32), 1, np.ones(3, np.float32)))
    def test_rms_norm_of_one_row_is_its_row_of_the_many_row_path(self, case):
        rows, i, gain = case
        with np.errstate(over="ignore"):  # an arbitrary gain can overflow float32, on both paths
            one, many = model_module.rms_norm(rows[i : i + 1], gain), model_module.rms_norm(rows, gain)
        assert one.tobytes() == many[i : i + 1].tobytes()

    def test_silu_overflow_is_silent_and_gives_the_old_formula(self, small_model, rng):
        """Pre-activations far below -88.7 would overflow SiLU's exp(-x):
        forward_layer warns nothing, and its output is bit for bit the old
        formula's wherever x >= -_EXP_MAX, where exp(-x) is finite, and below
        that the formula's value at -_EXP_MAX (-2.6e-37, not -0.0)."""
        layer = replace(small_model.layers[0], mlp_in=small_model.layers[0].mlp_in * np.float32(2000))
        model = replace(small_model, layers=[layer, *small_model.layers[1:]])
        tokens = rng.integers(0, SMALL.vocab_size, size=12)
        x = model.embedding[tokens[None]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, heads = forward_layer(model, 0, x, LayerStore([32] * SMALL.num_kv_heads, 4, SMALL.head_dim))
        heads = heads[0].transpose(1, 0, 2).reshape(tokens.size, -1)
        xb = x[0] + heads @ layer.attn_out
        act = model_module.rms_norm(xb, layer.norm2) @ layer.mlp_in
        assert act.min() < -88.8
        with np.errstate(over="ignore"):
            overflow = np.isinf(np.exp(-act))
            old = act / (1.0 + np.exp(-act))
        silu = model_module._silu(act.copy())
        assert overflow.any() and np.array_equal(overflow, act < -model_module._EXP_MAX)
        assert silu[~overflow].tobytes() == old[~overflow].tobytes()
        assert np.all(silu[overflow] == _silu_floor())
        expected = np.add(xb, silu @ layer.mlp_out)
        assert out[0].tobytes() == expected.tobytes()

    def test_silu_is_the_old_formula_down_to_the_clamp_and_warns_nothing(self, rng):
        exp_max = model_module._EXP_MAX
        special = [-exp_max, np.nextafter(-exp_max, np.float32(-np.inf)), -1e30, -3e38,
                   np.inf, -np.inf, 0.0, -0.0, np.nan]
        x = np.concatenate([rng.normal(0, 60, size=256), special]).astype(np.float32).reshape(5, -1)
        with np.errstate(over="ignore", invalid="ignore"):
            old = x / (1.0 + np.exp(-x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            silu = model_module._silu(x.copy())
        kept, below = x >= -exp_max, x < -exp_max
        assert below.sum() >= 4 and np.isnan(old[x == -np.inf]).all()  # the old formula's -inf / inf
        assert silu[kept].tobytes() == old[kept].tobytes()
        assert np.all(silu[below] == _silu_floor()) and math.isclose(_silu_floor(), -2.6e-37, rel_tol=0.01)
        assert np.array_equal(np.isnan(silu), np.isnan(x)) and np.isnan(x).any()

    def test_exp_max_is_the_largest_float32_with_a_finite_exp(self):
        exp_max = model_module._EXP_MAX
        assert exp_max.dtype == np.float32 and np.isfinite(np.exp(exp_max))
        with np.errstate(over="ignore"):
            assert np.isinf(np.exp(np.nextafter(exp_max, np.float32(np.inf))))

    @settings(max_examples=200, deadline=None)
    @given(_masked_scores())
    @example(np.array([[-np.inf, 2.5e38, -np.inf, -3e38]], np.float32))  # one row, huge spread
    @example(np.array([[-np.inf, -1.0], [4.0, -np.inf]], np.float32))
    @example(np.array([[1.0, np.nan, -np.inf], [0.5, -1.0, 2.0]], np.float32))  # the NaN row stays all NaN
    @example(np.array([[0.0, -0.0, -np.inf], [-0.0, 0.0, -1.0]], np.float32))  # a tie of +0 and -0
    def test_softmax_is_the_max_sum_formula(self, scores):
        with np.errstate(over="ignore"):
            expected = np.subtract(scores, np.max(scores, axis=-1, keepdims=True))
            np.exp(expected, out=expected)
            expected /= np.sum(expected, axis=-1, keepdims=True)
            np.testing.assert_array_equal(softmax(scores), expected)
            inplace = scores.copy()
            assert softmax(inplace, out=inplace) is inplace
        np.testing.assert_array_equal(inplace, expected)


class TestPackedProjection:
    """Each layer's attn_q, attn_k and attn_v are column views of one packed
    qkv matrix, and its product is the three products bit for bit."""

    def test_q_k_and_v_are_views_of_the_pack(self, small_model, toy_model):
        for model in (small_model, toy_model):
            cfg = model.config
            q, kv = cfg.num_q_heads * cfg.head_dim, cfg.num_kv_heads * cfg.head_dim
            for layer in model.layers:
                assert layer.qkv.shape == (cfg.d_model, q + 2 * kv) and layer.qkv.flags.c_contiguous
                for name, cols in (("attn_q", slice(0, q)), ("attn_k", slice(q, q + kv)), ("attn_v", slice(q + kv, None))):
                    view = getattr(layer, name)
                    assert view.base is layer.qkv and np.shares_memory(view, layer.qkv), name
                    assert not view.flags.owndata and np.array_equal(view, layer.qkv[:, cols]), name
        assert "qkv" not in [f.name for f in fields(LayerWeights)]  # so no file or draw sees it

    def test_replace_rebuilds_the_pack_and_the_forward_reads_it(self, small_model, rng):
        layer = small_model.layers[1]
        keys = rng.normal(0.0, 0.5, size=layer.attn_k.shape).astype(np.float32)
        before = layer.qkv.copy()
        new = replace(layer, attn_k=keys)
        assert new.qkv is not layer.qkv and np.array_equal(layer.qkv, before)  # the old layer untouched
        assert np.array_equal(new.attn_k, keys) and new.attn_k.base is new.qkv
        assert np.array_equal(new.attn_q, layer.attn_q) and np.array_equal(new.attn_v, layer.attn_v)
        model = replace(small_model, layers=[small_model.layers[0], new])
        plan = AllocationPlan(0.0, 1, np.array([[5, 7]] * SMALL.num_layers), "custom", PlanParams())
        sets = [build_cache_set(plan, SMALL) for _ in range(3)]
        for t, token in enumerate(rng.integers(0, SMALL.vocab_size, size=12)):  # one at a time, past eviction
            got, _ = forward_chunk(model, [token], sets[0])
            x = model.embedding[[[token]]]
            for li, store in enumerate(sets[1].stores):
                x, _ = layer_steps(model, li, x, store, qkv=three_projection_step)
            old, _ = forward_chunk(small_model, [token], sets[2])
            assert got.tobytes() == output_logits(model, x[0]).tobytes()
            assert t == 0 or not np.array_equal(got, old)  # the new keys move the weights
        assert not np.array_equal(sets[0].stores[1].keys, sets[2].stores[1].keys)

    @pytest.mark.parametrize("rows", [1, 2, 7, 256])
    def test_column_blocks_of_the_packed_product_are_the_separate_products(self, small_model, toy_model, rows):
        rng = np.random.default_rng(rows)
        for model in (small_model, toy_model):
            for layer in model.layers:
                h = rng.normal(size=(rows, model.config.d_model)).astype(np.float32)
                blocks = np.split(h @ layer.qkv, [layer.attn_q.shape[1], -layer.attn_v.shape[1]], 1)
                for block, weights in zip(blocks, (layer.attn_q, layer.attn_k, layer.attn_v)):
                    # a matrix of its own, as the weights were held before, and the view
                    assert block.tobytes() == (h @ np.ascontiguousarray(weights)).tobytes()
                    assert block.tobytes() == (h @ weights).tobytes()


@st.composite
def _decode_steps(draw):
    """SMALL or the seed-7 model: unequal budgets, the same in every layer,
    random sinks, a prefix chunk, then single tokens past every budget."""
    model = draw(st.sampled_from(["small_model", "toy_model"]))
    kv = (SMALL if model == "small_model" else ModelConfig()).num_kv_heads
    sinks = draw(st.integers(0, 4))
    budgets = [draw(st.integers(sinks + 1, 16)) for _ in range(kv)]
    prefix = draw(st.integers(0, 10))
    steps = max(budgets) - prefix + draw(st.integers(1, 8))
    return model, budgets, sinks, prefix, steps, draw(st.integers(0, 2**16))


class TestOneTokenStep:
    """forward_chunk's one-token step, which reads q, k and v as views of one
    packed product, against the three-projection step it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(_decode_steps())
    @example(("toy_model", [6, 3, 9, 4], 2, 0, 20, 0))  # unequal budgets, from empty stores
    @example(("small_model", [2, 5], 1, 4, 9, 1))  # after a prefix chunk
    def test_logits_and_stores_equal_the_three_projection_step(self, request, case):
        name, budgets, sinks, prefix, steps, seed = case
        model = request.getfixturevalue(name)
        cfg = model.config
        plan = AllocationPlan(0.0, sinks, np.array([budgets] * cfg.num_layers), "custom", PlanParams())
        fast, slow = build_cache_set(plan, cfg), build_cache_set(plan, cfg)
        tokens = np.random.default_rng(seed).integers(0, cfg.vocab_size, size=prefix + steps)
        if prefix:
            forward_chunk(model, tokens[:prefix], fast)
            forward_chunk(model, tokens[:prefix], slow)
        for token in tokens[prefix:]:
            logits, _ = forward_chunk(model, [token], fast)
            x = model.embedding[[[token]]]
            for li, store in enumerate(slow.stores):
                x, _ = layer_steps(model, li, x, store, qkv=three_projection_step)
            assert logits.tobytes() == output_logits(model, x[0]).tobytes()
        for mine, theirs in zip(fast.stores, slow.stores):
            assert mine.seen == theirs.seen == [prefix + steps] * cfg.num_kv_heads
            assert mine.keys.tobytes() == theirs.keys.tobytes() and mine.values.tobytes() == theirs.values.tobytes()


class TestTokenRule:
    """check_tokens is the one token rule: ids that are not integers raise
    InputError, and no caller coerces them first."""

    @pytest.mark.parametrize("tokens", [
        [1.5], np.array([1.0, 2.0]), ["7"], [True, False], np.array([1, 2], dtype=object),
        [2**64], [2**63, -1],
    ], ids=["float", "float array", "str", "bool", "object array", "past uint64", "int64 and uint64"])
    def test_ids_that_are_not_integers_are_rejected(self, tokens):
        with pytest.raises(InputError, match="^token ids must be integers within int64, got"):
            check_tokens(tokens, 257)

    def test_an_id_past_int64_is_out_of_range_not_an_overflow(self):
        with pytest.raises(InputError, match=r"token id out of range \[0, 257\): 9223372036854775808$"):
            check_tokens([2**63], 257)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64, np.int64])
    def test_integer_arrays_become_int64(self, dtype):
        got = check_tokens(np.array([0, 7, 255], dtype=dtype), 257)
        assert got.dtype == np.int64 and got.tolist() == [0, 7, 255]

    def test_every_caller_applies_it(self, small_model):
        cfg = small_model.config
        floats = np.arange(40.0)
        plan = uniform_plan(cfg, 0.5)
        profile = profile_model(small_model, [np.arange(40)])
        calls = {
            "greedy_generate": lambda: greedy_generate(small_model, floats[:4], 2, _fresh_caches(small_model)),
            "chunk_nll": lambda: search_module.chunk_nll(small_model, floats[:4], _fresh_caches(small_model)),
            "evaluate_plans": lambda: search_module.evaluate_plans(small_model, floats, 32, [plan.budgets], plan.sinks),
            "parameter_search": lambda: parameter_search(small_model, floats, 32, 0.5, [(0.5, 0.5)], profile),
            "profile_model": lambda: profile_model(small_model, [floats]),
        }
        for name, call in calls.items():
            with pytest.raises(InputError, match="^token ids must be integers within int64, got float64"):
                call()

    def test_search_and_sweep_take_a_list_of_ints_as_they_take_an_array(self, small_model):
        ids = np.random.default_rng(3).integers(0, 256, 80).tolist()
        profile = profile_model(small_model, [np.arange(40)])
        reports = [
            (parameter_search(small_model, corpus, 32, 0.5, [(0.5, 0.5)], profile),
             layer_sweep(small_model, corpus, 32, 1, 0.5))
            for corpus in (ids, np.array(ids))
        ]
        assert reports[0] == reports[1]
        assert reports[0][0]["chunks_evaluated"] == 2


class TestGreedyGenerate:
    def test_zero_steps(self, small_model):
        assert greedy_generate(small_model, [256, 1], 0, _fresh_caches(small_model)) == []

    def test_negative_steps(self, small_model):
        with pytest.raises(InputError):
            greedy_generate(small_model, [256], -1, _fresh_caches(small_model))

    def test_empty_prompt_fails_the_token_rule(self, small_model):
        with pytest.raises(InputError, match="tokens must be a non-empty 1-D sequence"):
            greedy_generate(small_model, [], 3, _fresh_caches(small_model))

    def test_context_limit_fails_before_any_work(self, small_model, monkeypatch):
        caches = _fresh_caches(small_model)
        forward_chunk(small_model, [256, 1, 2], caches)
        monkeypatch.setattr(model_module, "forward_chunk", mock.Mock(side_effect=AssertionError("ran")))
        with pytest.raises(InputError, match=r"^context length exceeded: 3 \+ 62 > max_context 64$"):
            greedy_generate(small_model, [4, 5], 60, caches)

    def test_matches_cache_free_oracle(self, small_model):
        prompt = [256, 10, 20, 30]
        got = greedy_generate(small_model, prompt, 12, _fresh_caches(small_model))
        assert got == reference_generate(small_model, prompt, 12)

    def test_matches_stepping_oracle_under_eviction(self, small_model):
        # At weight std 0.02 SMALL repeats its last prompt token whatever its
        # caches hold; scaled by 20, its ids depend on the retained tokens.
        scale = np.float32(20)
        model = model_module.Model(SMALL, small_model.embedding, [
            replace(layer, **{name: getattr(layer, name) * scale for name in (
                "attn_q", "attn_k", "attn_v", "attn_out", "mlp_in", "mlp_out")})
            for layer in small_model.layers
        ], small_model.final_norm)
        budgets, sinks, steps = [[6, 9], [7, 5]], 2, 40
        plan = AllocationPlan(0.0, sinks, np.array(budgets), "custom", PlanParams())
        prompt = [256, 10, 20, 30, 40, 50, 60, 70]
        got = greedy_generate(model, prompt, steps, build_cache_set(plan, SMALL))
        assert len(set(got)) > steps // 4
        logits, _ = reference_budgeted_logits(model, prompt + got, budgets, sinks)
        checked = 0
        for i, token in enumerate(got):
            row = logits[len(prompt) - 1 + i]
            second, first = np.sort(row)[-2:]
            if first - second < 1e-4:  # a near tie: float32 rounding may pick either
                continue
            assert token == int(np.argmax(row)), f"step {i}"
            checked += 1
        assert checked >= 0.8 * steps

    def test_deterministic(self, small_model):
        prompt = [256, 9, 8, 7]
        a = greedy_generate(small_model, prompt, 8, _fresh_caches(small_model))
        b = greedy_generate(small_model, prompt, 8, _fresh_caches(small_model))
        assert a == b


# headers that spell a valid config other than as serialize_model writes it,
# for a model with num_layers=2 and seed=7
_NON_CANONICAL_HEADERS = {
    "a repeated key": lambda h: h.replace(" seed=7", " seed=7 seed=9"),
    "a plus sign": lambda h: h.replace("seed=7", "seed=+7"),
    "an underscore": lambda h: h.replace("seed=7", "seed=0_7"),
    "a leading zero": lambda h: h.replace("num_layers=2", "num_layers=02"),
    "an exponent": lambda h: h.replace("rope_theta=10000.0", "rope_theta=1e4"),
    "keys in reverse order": lambda h: " ".join([h.split()[0], *reversed(h.split()[1:])]),
    "a doubled space": lambda h: h.replace(" ", "  ", 1),
    "a trailing space": lambda h: h + " ",
    "a tab": lambda h: h.replace(" ", "\t", 1),
}
_HEADER_FIELDS = tuple(f.name for f in fields(ModelConfig))
_HEADER_VALUES = [
    "0", "-1", "1", "2", "3", "8", "32", "64", "257", "10000.0", "1_0", "2.5",
    "99999999999999999999", "9" * 5000, "nan", "inf", "-inf", "1e999", "x", "", "\u00e9", "1\n2",
]


class TestWeightFile:
    def test_a_warm_seed_7_checksum_peaks_under_0_25_mib_of_transient_arrays(self, toy_model):
        # at most one tensor's <f4 copy alive at a time, never the whole file
        peak = warm_peak_bytes(lambda: model_checksum(toy_model))
        assert peak <= 0.25 * 2**20, f"{peak / 2**20:.2f} MiB"

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

    def test_a_header_past_the_weight_bound_is_rejected_before_its_payload(self, small_model):
        data = serialize_model(small_model)
        broken = data.replace(b"num_layers=2", b"num_layers=100000", 1).replace(b"d_ff=64", b"d_ff=100000", 1)
        assert broken.split(b"\n", 1)[0].count(b"=100000 ") == 2
        with pytest.raises(FormatError, match=r"invalid config: the model has \d+ weights, above MAX_WEIGHTS"):
            deserialize_model(broken)

    def test_no_header_newline(self, small_model):
        with pytest.raises(FormatError, match="^missing header line$"):
            deserialize_model(serialize_model(small_model).split(b"\n", 1)[0])  # the header line alone, unterminated

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_weight_is_rejected(self, small_model, value):
        data = serialize_model(small_model)
        with pytest.raises(FormatError, match="^weight payload contains non-finite values$"):
            deserialize_model(data[:-4] + np.array([value], "<f4").tobytes())

    def test_truncated_payload(self, small_model):
        data = serialize_model(small_model)
        with pytest.raises(FormatError, match="bytes"):
            deserialize_model(data[:-8])

    @pytest.mark.parametrize("edit", _NON_CANONICAL_HEADERS.values(), ids=_NON_CANONICAL_HEADERS)
    def test_a_header_serialize_model_would_not_write_is_rejected(self, edit):
        header, body = serialize_model(init_model(replace(SMALL, seed=7))).split(b"\n", 1)
        edited = edit(header.decode("ascii"))
        assert edited != header.decode("ascii")
        with pytest.raises(FormatError, match="header is not the canonical line 'bklv1 d_ff=64 "):
            deserialize_model(edited.encode("ascii") + b"\n" + body)

    def test_values_are_written_as_their_field_type_prints_them(self):
        # an int rope_theta is written as the float it is read back as
        model = init_model(replace(SMALL, rope_theta=500))
        data = serialize_model(model)
        assert b" rope_theta=500.0 " in data.split(b"\n", 1)[0]
        assert serialize_model(deserialize_model(data)) == data

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
    # a header that parses to seed 10 but is not the line serialize_model writes
    @example(version="bklv1", edits=[("seed", "1_0")], cut=0, poke=None)
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
        data = head.encode("utf-8") + b"\n" + bytes(body)
        try:
            model = deserialize_model(data)
        except BklvError:
            return
        assert serialize_model(model) == data  # so the file's sha256 is its model_id
        cfg = model.config
        cfg.validate()
        assert math.isfinite(cfg.rope_theta) and cfg.rope_theta > 0
        assert np.all(np.isfinite(np.frombuffer(bytes(body), dtype="<f4")))


class TestOffsetModel:
    """reference.offset_model, a model whose answer is known: layer 0's group g
    reads only the token DELTAS[g] back, and later layers are the identity,
    so the least lossless plan keeps sinks + DELTAS[g] + 1 tokens in layer 0's
    group g and the floor elsewhere. Layer 0's score bound is about 7,400
    against SCORE_BOUND 80, so this drives banded_attention's shifted softmax
    through a whole forward pass. Pinned as measured, on the seed-7 default
    config and the first 256 tokens of the README corpus."""

    DELTAS = (1, 8, 40, 120)

    @pytest.fixture(scope="class")
    def case(self):
        model = offset_model(init_model(ModelConfig(seed=7)), self.DELTAS)
        return model, np.asarray(io.encode_bytes(readme_text(1100, 3))[:256])

    @pytest.fixture(scope="class")
    def profile(self, case):
        return profile_model(case[0], [io.encode_bytes(readme_text(260, 1)), io.encode_bytes(readme_text(200, 2))])

    @staticmethod
    def _logits(model, tokens, budgets):
        stores = [LayerStore(row, 4, model.config.head_dim) for row in budgets]
        return forward_chunk(model, tokens, CacheSet(stores, model.config))[0]

    @staticmethod
    def _kl(p, q):
        """Mean KL(p || q) over rows of logits, from float64 log-softmaxes."""
        logp, logq = (x - np.logaddexp.reduce(x, axis=1, keepdims=True) for x in (np.float64(p), np.float64(q)))
        return float(np.mean(np.sum(np.exp(logp) * (logp - logq), axis=1)))

    def test_layer_0_heads_attend_only_to_their_offset_past_the_score_bound(self, case):
        model, tokens = case
        cfg, layer = model.config, model.layers[0]
        h = rms_norm(model.embedding[tokens], layer.norm1)
        q, k = (np.linalg.norm((h @ w).reshape(-1, cfg.head_dim), axis=-1).max() for w in (layer.attn_q, layer.attn_k))
        assert q * k / math.sqrt(cfg.head_dim) == pytest.approx(7351, rel=1e-3)  # SCORE_BOUND is 80
        attention = []
        reference_logits(model, tokens, attention)
        for head, probs in enumerate(attention[: cfg.num_q_heads]):  # layer 0's
            delta = self.DELTAS[head // cfg.group_size]
            t = np.arange(delta, len(tokens))
            assert probs[t, t - delta].min() == 1.0, head

    def test_the_known_plan_is_lossless_and_least(self, case):
        model, tokens = case
        full = self._logits(model, tokens, [[512] * 4] * 4)
        np.testing.assert_allclose(full, reference_logits(model, tokens), rtol=0, atol=1e-5)
        known = [[4 + delta + 1 for delta in self.DELTAS]] + [[5] * 4] * 3
        assert sum(map(sum, known)) == 249  # compression 249 / 8192 = 0.030
        assert self._kl(full, self._logits(model, tokens, known)) == 0.0
        for group in range(4):  # one token less in any layer-0 group loses
            cut = [known[0][:group] + [known[0][group] - 1] + known[0][group + 1 :]] + known[1:]
            assert self._kl(full, self._logits(model, tokens, cut)) > 1e-3, group

    def test_uniform_at_compression_0_05_loses(self, case):
        model, tokens = case
        plan = uniform_plan(model.config, 0.05)
        assert plan.budgets[0].tolist() == [26, 26, 26, 25]
        full = self._logits(model, tokens, [[512] * 4] * 4)
        uniform = self._logits(model, tokens, plan.budgets.tolist())
        assert self._kl(full, uniform) == pytest.approx(1.669e-2, rel=1e-3)

    def test_the_layer_move_reaches_kl_0_and_the_head_move_adds_nothing(self, case, profile):
        """KL to the full cache, as README's offset-model table gives it, of uniform and of the best plan of three
        grids: the layer move (layerwise, layer_t x layer_r), the head move alone (baklava, t x r, as README's search
        runs it) and both (baklava, t x r x layer_t x layer_r). On README's 0.01 grid of compressions, the layer move
        first reaches KL 0 at 0.07 and uniform at 0.25; the head move alone never differs from uniform."""
        model, tokens = case
        cfg = model.config
        full, kls = self._logits(model, tokens, [[512] * 4] * 4), {}

        def kl(plan):  # one forward per distinct budget matrix
            key = plan.budgets.tobytes()
            if key not in kls:
                kls[key] = self._kl(full, self._logits(model, tokens, plan.budgets.tolist()))
            return kls[key]

        layer = [PlanParams(layer_t=t, layer_r=r) for t in (0.5, 0.7, 0.9) for r in (0.3, 0.6, 0.9)]
        head = [PlanParams(t=t, r=r) for t in (0.5, 0.55, 0.6, 0.7) for r in (0.3, 0.6, 0.9)]
        grids = [
            [("layerwise", p) for p in layer],
            [("baklava", p) for p in head],
            [("baklava", replace(h, layer_t=p.layer_t, layer_r=p.layer_r)) for h in head for p in layer],
        ]
        pinned = {  # uniform, layer move, head move, both
            0.05: [1.6689e-2, 5.5268e-3, 1.6689e-2, 5.5268e-3],
            0.06: [1.6689e-2, 4.4843e-3, 1.6689e-2, 4.4843e-3],
            0.07: [1.6689e-2, 0.0, 1.6689e-2, 0.0],
            0.1: [6.6457e-3, 0.0, 6.6457e-3, 0.0],
            0.24: [3.9237e-3, 0.0, 3.9237e-3, 0.0],
            0.25: [0.0, 0.0, 0.0, 0.0],
        }
        for c, row in pinned.items():
            best = [min(kl(build_plan(profile, cfg, strategy, c, p)) for strategy, p in grid) for grid in grids]
            np.testing.assert_allclose([kl(uniform_plan(cfg, c)), *best], row, rtol=1e-4, atol=0, err_msg=str(c))

    def test_the_cosine_profile_does_not_see_how_far_back_a_group_reads(self, case, profile):
        """Profiled on the README prompts, as measured: the identity layers 1-3 read layer_importance 0, yet their
        groups' kv_importance reads 0.21-0.32, and layer 0's groups do not follow the tokens each needs,
        sinks + delta + 1 (Spearman -0.2)."""
        assert profile.layer_importance[0] == pytest.approx(0.3183, abs=1e-4)
        assert profile.layer_importance[1:].tolist() == [0.0, 0.0, 0.0]
        kv = profile.kv_importance
        np.testing.assert_allclose(kv[0], [0.4930, 0.4100, 0.4623, 0.4670], rtol=0, atol=2e-4)
        assert 0.2 < kv[1:].min() and kv[1:].max() < 0.32
        rho, degenerate = profiling_module.spearman(kv[0], [4 + delta + 1 for delta in self.DELTAS])
        assert not degenerate and rho == pytest.approx(-0.2, abs=1e-9)
