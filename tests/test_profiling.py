import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bklv import (
    InputError,
    ShapeError,
    build_cache_set,
    forward_chunk,
    group_kv_importance,
    head_importance,
    head_similarity,
    layer_similarity,
    profile_model,
    rank_correlation,
    token_cosine_similarities,
    uniform_plan,
)
from bklv.profiling import spearman

from .reference import spearman_average_ranks, spearman_textbook


def _random_prompt(rng, n):
    return rng.integers(0, 257, size=n).tolist()


class TestTokenCosine:
    def test_identity_gives_ones(self, rng):
        v = rng.normal(size=(6, 4))
        assert np.array_equal(token_cosine_similarities(v, v), np.ones(6))

    def test_orthogonal_rows(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        assert token_cosine_similarities(a, b)[0] == 0.0

    def test_matches_formula_oracle(self, rng):
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(5, 3))
        got = token_cosine_similarities(a, b)
        for i in range(5):
            expected = float(a[i] @ b[i] / (np.linalg.norm(a[i]) * np.linalg.norm(b[i])))
            assert abs(got[i] - expected) < 1e-9

    def test_zero_norm_row_counts_as_unchanged(self, rng):
        a = np.zeros((2, 3))
        b = rng.normal(size=(2, 3))
        a[1] = b[1]
        sims = token_cosine_similarities(a, b)
        assert sims[0] == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            token_cosine_similarities(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_range(self, rng):
        a = rng.normal(size=(50, 7)) * 100
        b = rng.normal(size=(50, 7)) * 0.01
        sims = token_cosine_similarities(a, b)
        assert np.all(sims >= -1.0) and np.all(sims <= 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        scale_a=st.floats(1e-3, 1e3),
        scale_b=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**16),
    )
    def test_scale_invariance(self, scale_a, scale_b, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(4, 5))
        base = token_cosine_similarities(a, b)
        scaled = token_cosine_similarities(a * scale_a, b * scale_b)
        np.testing.assert_allclose(base, scaled, atol=1e-9)


class TestHeadSimilarity:
    def test_identity_attention_is_one(self, rng):
        v = rng.normal(size=(8, 4))
        assert head_similarity(v, v) == 1.0

    def test_opposite_rows_is_zero(self, rng):
        v = rng.normal(size=(8, 4))
        assert head_similarity(v, -v) == 0.0

    def test_mixed_cosines_map_affinely(self):
        # two tokens with cosines {1, 0}: mean 0.5 -> (0.5 + 1) / 2 = 0.75
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert head_similarity(a, b) == 0.75

    def test_importance_complement(self):
        assert head_importance(1.0) == 0.0
        assert head_importance(0.0) == 1.0
        assert head_importance(0.75) == 0.25


class TestGroupKvImportance:
    def test_group_of_one_is_elementwise_complement(self, rng):
        sims = rng.uniform(size=(3, 4))
        np.testing.assert_allclose(group_kv_importance(sims, 1), 1.0 - sims, atol=1e-12)

    def test_pair_mean(self):
        sims = np.array([[0.8, 0.6]])
        np.testing.assert_allclose(group_kv_importance(sims, 2), [[0.3]], atol=1e-12)

    def test_constant_similarity(self):
        sims = np.full((2, 4), 0.4)
        np.testing.assert_allclose(group_kv_importance(sims, 2), 0.6, atol=1e-12)

    def test_indivisible(self):
        with pytest.raises(ShapeError):
            group_kv_importance(np.zeros((2, 5)), 2)


class TestLayerSimilarity:
    def test_passthrough_layer(self, rng):
        x = rng.normal(size=(10, 8))
        assert layer_similarity(x, x) == 1.0
        assert head_importance(layer_similarity(x, x)) == 0.0

    def test_orthogonal_maps_to_half(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert layer_similarity(a, b) == 0.5

    def test_matches_formula_oracle(self, rng):
        a = rng.normal(size=(12, 6))
        b = rng.normal(size=(12, 6))
        cosines = [
            a[i] @ b[i] / (np.linalg.norm(a[i]) * np.linalg.norm(b[i])) for i in range(12)
        ]
        expected = (np.mean(cosines) + 1.0) / 2.0
        assert abs(layer_similarity(a, b) - expected) < 1e-9


class TestProfileModel:
    def test_empty_prompt_list(self, small_model):
        with pytest.raises(InputError):
            profile_model(small_model, [])

    def test_short_prompt_rejected(self, small_model):
        with pytest.raises(InputError, match="minimum"):
            profile_model(small_model, [[256, 1, 2]])

    def test_single_token_context_identity(self, small_model):
        # attention over one token is an identity map: importance exactly 0
        caches = build_cache_set(uniform_plan(small_model.config, 1.0, 0), small_model.config)
        _, probes = forward_chunk(small_model, [256], caches, capture=True)
        cfg = small_model.config
        for li in range(cfg.num_layers):
            for head in range(cfg.num_q_heads):
                v_in = probes.head_input_v[li, head // cfg.group_size]
                sim = head_similarity(v_in, probes.head_output[li, head])
                assert sim == 1.0
                assert head_importance(sim) == 0.0

    def test_duplicate_prompts_match_single(self, small_model, rng):
        p = _random_prompt(rng, 40)
        one = profile_model(small_model, [p])
        two = profile_model(small_model, [p, p])
        np.testing.assert_allclose(one.head_similarity, two.head_similarity, atol=1e-12)
        np.testing.assert_allclose(one.kv_importance, two.kv_importance, atol=1e-12)

    def test_probe_replay_oracle(self, small_model, rng):
        # independent reduction of the captured probes
        p = _random_prompt(rng, 48)
        profile = profile_model(small_model, [p])
        cfg = small_model.config
        caches = build_cache_set(uniform_plan(cfg, 1.0, 0), cfg)
        _, probes = forward_chunk(small_model, p, caches, capture=True)
        for li in range(cfg.num_layers):
            for grp in range(cfg.num_kv_heads):
                sims = []
                for head in range(grp * cfg.group_size, (grp + 1) * cfg.group_size):
                    a = probes.head_input_v[li, grp].astype(np.float64)
                    b = probes.head_output[li, head].astype(np.float64)
                    cos = [
                        a[i] @ b[i] / (np.linalg.norm(a[i]) * np.linalg.norm(b[i]))
                        for i in range(a.shape[0])
                    ]
                    sims.append((np.mean(cos) + 1.0) / 2.0)
                expected = 1.0 - np.mean(sims)
                assert abs(profile.kv_importance[li, grp] - expected) < 1e-9

    def test_group_mean_invariant(self, small_model, rng):
        profile = profile_model(small_model, [_random_prompt(rng, 40)])
        cfg = small_model.config
        grouped = profile.head_similarity.reshape(
            cfg.num_layers, cfg.num_kv_heads, cfg.group_size
        ).mean(axis=2)
        np.testing.assert_allclose(profile.kv_importance, 1.0 - grouped, atol=1e-9)

    def test_ranges(self, small_model, rng):
        profile = profile_model(small_model, [_random_prompt(rng, 40) for _ in range(2)])
        for arr in (profile.head_similarity, profile.kv_importance, profile.layer_importance):
            assert np.all(arr >= 0.0) and np.all(arr <= 1.0)

    def test_deterministic(self, small_model, rng):
        p = _random_prompt(rng, 40)
        a = profile_model(small_model, [p])
        b = profile_model(small_model, [p])
        assert np.array_equal(a.head_similarity, b.head_similarity)
        assert np.array_equal(a.kv_importance, b.kv_importance)
        assert np.array_equal(a.layer_importance, b.layer_importance)
        assert a.model_id == b.model_id

    def test_vectorized_reduction_matches_per_head_loop(self, small_model, rng):
        # the per-(layer, head) loops the one-pass reduction replaced, bit for bit
        p = _random_prompt(rng, 45)
        profile = profile_model(small_model, [p], keep_per_token=True)
        cfg = small_model.config
        caches = build_cache_set(uniform_plan(cfg, 1.0, 0), cfg)
        _, probes = forward_chunk(small_model, p, caches, capture=True)
        for li in range(cfg.num_layers):
            for head in range(cfg.num_q_heads):
                v_in = probes.head_input_v[li, head // cfg.group_size]
                out = probes.head_output[li, head]
                assert profile.head_similarity[li, head] == head_similarity(v_in, out)
                assert np.array_equal(
                    profile.per_token_similarity[0][li, :, head],
                    token_cosine_similarities(v_in, out),
                )
            layer_sim = layer_similarity(probes.layer_input[li], probes.layer_output[li])
            assert profile.layer_importance[li] == 1.0 - layer_sim

    def test_prompt_head_similarity_equals_single_prompt_profiles(self, small_model, rng):
        prompts = [_random_prompt(rng, n) for n in (40, 57, 33)]
        joint = profile_model(small_model, prompts)
        assert len(joint.prompt_head_similarity) == len(prompts)
        for p, sims in zip(prompts, joint.prompt_head_similarity):
            assert np.array_equal(sims, profile_model(small_model, [p]).head_similarity)

    def test_per_token_capture(self, small_model, rng):
        p = _random_prompt(rng, 40)
        profile = profile_model(small_model, [p], keep_per_token=True)
        cfg = small_model.config
        assert len(profile.per_token_similarity) == 1
        assert profile.per_token_similarity[0].shape == (cfg.num_layers, 40, cfg.num_q_heads)
        assert np.all(np.abs(profile.per_token_similarity[0]) <= 1.0)


class TestRankCorrelation:
    def test_identical_profiles_all_ones(self, small_model, rng):
        p = profile_model(small_model, [_random_prompt(rng, 40)])
        np.testing.assert_allclose(
            rank_correlation(p.head_similarity, p.head_similarity), 1.0, atol=1e-12
        )

    def test_reversed_ranking_is_minus_one(self):
        rho, degenerate = spearman([1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0])
        assert not degenerate
        assert abs(rho + 1.0) < 1e-12

    def test_textbook_example(self):
        rho, _ = spearman([1, 2, 3, 4], [1, 2, 4, 3])
        assert abs(rho - 0.8) < 1e-12
        assert abs(spearman_textbook([1, 2, 3, 4], [1, 2, 4, 3]) - 0.8) < 1e-12

    def test_random_vectors_match_textbook(self, rng):
        for _ in range(20):
            x = rng.permutation(8).astype(float)
            y = rng.permutation(8).astype(float)
            rho, _ = spearman(x, y)
            assert abs(rho - spearman_textbook(x, y)) < 1e-9

    def test_degenerate_reports_zero(self):
        rho, degenerate = spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        assert degenerate and rho == 0.0

    @pytest.mark.parametrize(
        "x, y",
        [
            ([1.0, float("nan"), 3.0], [1.0, 2.0, 3.0]),
            ([1.0, 2.0, 3.0], [float("nan")] * 3),
            ([1.0], [2.0]),
        ],
    )
    def test_nan_or_single_point_is_degenerate(self, x, y):
        assert spearman(x, y) == (0.0, True)

    def test_ties_take_average_ranks(self):
        # ranks (1.5, 1.5, 3, 4) against (1, 2, 3, 4)
        rho, degenerate = spearman([5.0, 5.0, 7.0, 9.0], [1.0, 2.0, 3.0, 4.0])
        assert not degenerate
        assert abs(rho - spearman_average_ranks([5, 5, 7, 9], [1, 2, 3, 4])) < 1e-12
        assert abs(rho - 4.5 / np.sqrt(4.5 * 5.0)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.sampled_from([-np.inf, -1.0, 0.0, 0.5, 2.0, np.inf]),
                st.integers(-3, 3),
            ),
            min_size=2,
            max_size=12,
        )
    )
    def test_matches_tie_aware_reference(self, pairs):
        x = [float(a) for a, _ in pairs]
        y = [float(b) for _, b in pairs]
        rho, degenerate = spearman(x, y)
        if len(set(x)) == 1 or len(set(y)) == 1:
            assert (rho, degenerate) == (0.0, True)
        else:
            assert not degenerate
            assert abs(rho - spearman_average_ranks(x, y)) < 1e-12

    def test_shape_mismatch(self, small_model, toy_model, rng):
        a = profile_model(small_model, [_random_prompt(rng, 40)])
        b = profile_model(toy_model, [_random_prompt(rng, 40)])
        with pytest.raises(ShapeError):
            rank_correlation(a.head_similarity, b.head_similarity)


@pytest.mark.parametrize("top", ["scipy", "concurrent"])
def test_import_does_not_load(top):
    src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["bklv"].__file__)))
    code = f"import sys, bklv; print(sorted(m for m in sys.modules if m.split('.')[0] == {top!r}))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    assert out.stdout.strip() == "[]"
