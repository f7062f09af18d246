import dataclasses
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bklv import (
    InputError,
    PlanParams,
    ShapeError,
    build_plan,
    group_kv_importance,
    profile_model,
    rank_correlation,
    token_cosine_similarities,
    uniform_plan,
)
from bklv import io
from bklv import profiling as profiling_module
from bklv.profiling import ImportanceProfile, spearman

from .conftest import layer_probes, warm_peak_bytes
from .reference import (
    head_importance,
    head_similarity,
    layer_similarity,
    planted_model,
    readme_text,
    reference_budgeted_logits,
    reference_logits,
    reference_profile,
    spearman_average_ranks,
    spearman_textbook,
)


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

    def test_one_d_rows_are_rejected(self):
        with pytest.raises(ShapeError, match=r"^inputs must be at least 2-D, got \(3,\) vs \(2, 3\)$"):
            token_cosine_similarities(np.zeros(3), np.zeros((2, 3)))

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

    def test_not_2_d(self):
        with pytest.raises(ShapeError, match=r"^head_sims must be \(layers, q_heads\)$"):
            group_kv_importance(np.zeros(4), 2)

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

    def test_long_prompt_fails_before_any_prompt_runs(self, small_model, rng, monkeypatch):
        monkeypatch.setattr(profiling_module, "forward_layer", mock.Mock(side_effect=AssertionError("ran")))
        prompts = [_random_prompt(rng, 40), _random_prompt(rng, 65)]
        with pytest.raises(InputError, match=r"^context length exceeded: 0 \+ 65 > max_context 64$"):
            profile_model(small_model, prompts)
        # and so does a token id out of range
        prompts = [_random_prompt(rng, 40), [*_random_prompt(rng, 39), 257]]
        with pytest.raises(InputError, match=r"^token id out of range \[0, 257\): 257$"):
            profile_model(small_model, prompts)

    def test_single_token_context_identity(self, small_model):
        # attention over one token is an identity map: importance exactly 0
        probes = layer_probes(small_model, [256])
        cfg = small_model.config
        for li in range(cfg.num_layers):
            for head in range(cfg.num_q_heads):
                v_in = probes["head_input_v"][li, head // cfg.group_size]
                sim = head_similarity(v_in, probes["head_output"][li, head])
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
        probes = layer_probes(small_model, p)
        # the probes are every token's, as the token-by-token oracle computes them
        full = [[len(p)] * cfg.num_kv_heads] * cfg.num_layers
        _, expected = reference_budgeted_logits(small_model, p, full, 0)
        for name, got in probes.items():
            np.testing.assert_allclose(got, expected[name], rtol=0, atol=1e-5, err_msg=name)
        for li in range(cfg.num_layers):
            for grp in range(cfg.num_kv_heads):
                sims = []
                for head in range(grp * cfg.group_size, (grp + 1) * cfg.group_size):
                    a = probes["head_input_v"][li, grp].astype(np.float64)
                    b = probes["head_output"][li, head].astype(np.float64)
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
        probes = layer_probes(small_model, p)
        for li in range(cfg.num_layers):
            for head in range(cfg.num_q_heads):
                v_in = probes["head_input_v"][li, head // cfg.group_size]
                out = probes["head_output"][li, head]
                assert profile.head_similarity[li, head] == head_similarity(v_in, out)
                assert np.array_equal(
                    profile.per_token_similarity[0][li, :, head],
                    token_cosine_similarities(v_in, out),
                )
            layer_sim = layer_similarity(probes["layer_input"][li], probes["layer_output"][li])
            assert profile.layer_importance[li] == 1.0 - layer_sim

    def test_prompt_consistency_equals_single_prompt_profiles(self, small_model, rng):
        prompts = [_random_prompt(rng, n) for n in (40, 57, 33)]
        joint = profile_model(small_model, prompts)
        singles = [profile_model(small_model, [p]) for p in prompts]
        assert [single.prompt_consistency for single in singles] == [None] * 3
        assert joint.prompt_consistency == [
            {
                "a": singles[i].prompt_ids[0],
                "b": singles[j].prompt_ids[0],
                "per_layer_spearman": rank_correlation(
                    singles[i].head_similarity, singles[j].head_similarity
                ).tolist(),
            }
            for i, j in ((0, 1), (0, 2), (1, 2))
        ]

    def test_per_token_capture(self, small_model, rng):
        p = _random_prompt(rng, 40)
        profile = profile_model(small_model, [p], keep_per_token=True)
        cfg = small_model.config
        assert len(profile.per_token_similarity) == 1
        assert profile.per_token_similarity[0].shape == (cfg.num_layers, 40, cfg.num_q_heads)
        assert np.all(np.abs(profile.per_token_similarity[0]) <= 1.0)


def _as_bytes(value):
    """A profile field in a form equal only for bit-identical values: arrays
    by dtype, shape and bytes, floats (inside lists and dicts) by repr."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, list):
        return [_as_bytes(v) for v in value]
    return repr(value)


class TestLayerAtATime:
    """profile_model reduces each layer as it runs; the all-layer reduction
    it replaced (reference_profile) gives every field the same bytes."""

    @pytest.mark.parametrize("keep_per_token", [False, True])
    @pytest.mark.parametrize("lengths", [(45,), (40, 64, 33)], ids=["one-prompt", "three-prompts"])
    @pytest.mark.parametrize("model_name", ["small_model", "toy_model"])
    def test_every_field_equals_the_all_layer_reduction(self, request, model_name, lengths, keep_per_token):
        model = request.getfixturevalue(model_name)
        rng = np.random.default_rng(len(lengths))
        prompts = [_random_prompt(rng, n) for n in lengths]
        got = profile_model(model, prompts, keep_per_token=keep_per_token)
        expected = reference_profile(model, prompts, keep_per_token=keep_per_token)
        for field in dataclasses.fields(ImportanceProfile):
            assert _as_bytes(getattr(got, field.name)) == _as_bytes(getattr(expected, field.name)), field.name
        assert (got.prompt_consistency is None) == (len(lengths) == 1)

    def test_a_warm_readme_profile_peaks_under_2_mib_of_transient_arrays(self, toy_model):
        # the README prompts: one layer's V rows, heads and float64 cosines at a time
        prompts = [io.encode_bytes(readme_text(260, 1)), io.encode_bytes(readme_text(200, 2))]
        peak = warm_peak_bytes(lambda: profile_model(toy_model, prompts))
        assert peak <= 2 * 2**20, f"{peak / 2**20:.2f} MiB"


LOCAL, GLOBAL = slice(0, 2), slice(2, 4)


@pytest.fixture(scope="module")
def planted_profile(toy_model):
    """The README prompts through the seed-7 model with KV groups 0-1
    planted local and groups 2-3 planted global (reference.planted_model).
    Measured: local importance 0.009-0.081, global 0.108-0.331. The seed-7
    model itself ranks no layer that way."""
    model = planted_model(toy_model, local_groups=(0, 1))
    prompts = [io.encode_bytes(readme_text(260, 1)), io.encode_bytes(readme_text(200, 2))]
    return profile_model(model, prompts)


class TestPlantedStructure:
    def test_local_groups_rank_below_global_ones_in_every_layer(self, planted_profile):
        kv = planted_profile.kv_importance
        assert np.all(kv[:, LOCAL].max(axis=1) < kv[:, GLOBAL].min(axis=1))

    def test_baklava_moves_tokens_from_local_to_global_groups(self, planted_profile):
        # t = 0.9 selects importance below 0.1: both local groups of every
        # layer (margin 0.019 to the largest) and no global one (margin 0.008)
        cfg = planted_profile.config
        plan = build_plan(planted_profile, cfg, "baklava", 0.3, PlanParams(t=0.9, r=0.5))
        moved = plan.budgets - uniform_plan(cfg, 0.3).budgets
        assert np.all(moved[:, LOCAL] < 0) and np.all(moved[:, GLOBAL] > 0)
        assert np.all(moved.sum(axis=1) == 0)

    def test_local_heads_put_about_half_their_attention_on_their_own_token(self, toy_model):
        # each local head's probability on the query's own token, from the
        # cache-free reference forward, averaged over positions and local heads
        # per layer; measured values rounded to 4 decimals, so atol 1e-4
        model = planted_model(toy_model, local_groups=(0, 1))
        cfg = model.config
        measured = {(260, 1): [0.5354, 0.5014, 0.5435, 0.4800],
                    (200, 2): [0.5885, 0.5678, 0.5905, 0.5724]}
        smallest = []
        for (size, seed), means in measured.items():
            tokens = io.encode_bytes(readme_text(size, seed))
            attention = []
            reference_logits(model, tokens, attention)
            probs = np.reshape(attention, (cfg.num_layers, cfg.num_q_heads, len(tokens), len(tokens)))
            own = np.diagonal(probs[:, : 2 * cfg.group_size], axis1=2, axis2=3)  # groups 0-1
            np.testing.assert_allclose(own.mean(axis=(1, 2)), means, rtol=0, atol=1e-4)
            smallest.append(own.min())
        assert abs(min(smallest) - 0.0130) <= 1e-4


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


def _run_python(code: str) -> str:
    """What `code` prints in a fresh interpreter that imports this checkout's bklv."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["bklv"].__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return out.stdout.strip()


@pytest.mark.parametrize("top", ["scipy", "concurrent"])
def test_import_does_not_load(top):
    code = f"import sys, bklv; print(sorted(m for m in sys.modules if m.split('.')[0] == {top!r}))"
    assert _run_python(code) == "[]"


def test_the_cli_loads_a_hash_library_only_when_it_hashes():
    # OpenSSL's _hashlib: numpy, json or argparse may load it themselves, but importing bklv.cli adds nothing
    loaded = "'_hashlib' in sys.modules"
    code = f"import sys, numpy, json, argparse; a = {loaded}; import bklv.cli; print(a, {loaded})"
    before, after = _run_python(code).split()
    assert after == before
