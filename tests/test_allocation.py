import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bklv import (
    AllocationError,
    ModelConfig,
    PlanParams,
    ShapeError,
    apportion_largest_remainder,
    build_plan,
    layer_budget_scaling,
    reallocate_caches,
    require_valid,
    uniform_plan,
    validate_plan,
    window_plan,
)
from bklv.allocation import global_budget, round_half_up
from bklv.profiling import ImportanceProfile

from .conftest import SMALL
from .reference import reallocation_trace

TOY = ModelConfig()


def _profile(config, kv_importance, layer_importance, head_similarity=None):
    kv = np.asarray(kv_importance, dtype=np.float64)
    if head_similarity is None:
        head_similarity = np.repeat(1.0 - kv, config.group_size, axis=1)
    return ImportanceProfile(
        model_id="test",
        prompt_ids=["p"],
        head_similarity=np.asarray(head_similarity, dtype=np.float64),
        kv_importance=kv,
        layer_importance=np.asarray(layer_importance, dtype=np.float64),
        config=config,
    )


class TestApportion:
    def test_equal_remainders_favor_lower_index(self):
        assert apportion_largest_remainder([2.5, 2.5], 5) == [3, 2]

    def test_largest_remainder_wins(self):
        assert apportion_largest_remainder([1.2, 3.7, 5.1], 10) == [1, 4, 5]

    def test_tie_breaks_to_lower_index(self):
        assert apportion_largest_remainder([1.5, 1.5, 1.5, 1.5], 7) == [2, 2, 2, 1]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=12))
    def test_conserves_total_and_stays_within_one(self, shares):
        total = round_half_up(sum(shares))
        out = apportion_largest_remainder(shares, total)
        assert sum(out) == total
        for share, got in zip(shares, out):
            assert int(np.floor(share)) <= got <= int(np.floor(share)) + 1


class TestUniformPlan:
    def test_full_compression(self):
        plan = uniform_plan(TOY, 1.0)
        assert np.all(plan.budgets == TOY.max_context)

    def test_half_compression_exact(self):
        plan = uniform_plan(TOY, 0.5)
        assert np.all(plan.budgets == 256)
        assert plan.total_tokens == global_budget(TOY, 0.5)

    def test_floor_violation(self):
        with pytest.raises(AllocationError):
            uniform_plan(TOY, 0.001, sinks=4)

    def test_compression_out_of_range(self):
        # one rule for every strategy and the sweep's window plans
        profile = _profile(TOY, np.full((4, 4), 0.5), np.full(4, 0.5))
        builders = [
            *(lambda c, s=s: build_plan(profile, TOY, s, c, PlanParams(t=0.6, r=0.3))
              for s in ("uniform", "layerwise", "baklava")),
            lambda c: uniform_plan(TOY, c),
            lambda c: window_plan(TOY, 1, 2, c),
        ]
        for build in builders:
            for compression in (0.0, -0.2, 1.5, float("nan"), float("inf")):
                with pytest.raises(AllocationError, match=r"compression must be in \(0, 1\]"):
                    build(compression)

    def test_inexact_compression_conserves_total(self):
        plan = uniform_plan(TOY, 0.3)
        assert plan.total_tokens == global_budget(TOY, 0.3)
        assert plan.budgets.max() - plan.budgets.min() <= 1


class TestReallocateCaches:
    def test_hand_trace(self):
        out = reallocate_caches([100, 100, 100], [0.1, 0.5, 0.9], 0.3, 0.10)
        assert out == [90, 100, 110]

    def test_all_low_importance_unchanged(self):
        budgets = [50, 60, 70]
        out = reallocate_caches(budgets, [0.1, 0.2, 0.3], 0.9, 0.5)
        assert out == budgets

    def test_t_zero_unchanged(self):
        budgets = [50, 60, 70]
        assert reallocate_caches(budgets, [0.1, 0.2, 0.3], 0.0, 0.5) == budgets

    def test_r_zero_unchanged(self):
        budgets = [50, 60, 70]
        assert reallocate_caches(budgets, [0.1, 0.8, 0.9], 0.5, 0.0) == budgets

    def test_floor_clamps_reduction(self):
        out = reallocate_caches([10, 100], [0.0, 1.0], 0.5, 0.9, floor=8)
        # donor can only give 2 before hitting the floor
        assert out == [8, 102]

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            reallocate_caches([1, 2], [0.5], 0.5, 0.1)

    def test_r_out_of_range(self):
        with pytest.raises(AllocationError):
            reallocate_caches([1, 2], [0.5, 0.6], 0.5, 1.0)

    def test_matches_trace_on_pinned_examples(self):
        cases = [
            ([100, 100, 100], [0.1, 0.5, 0.9], 0.3, 0.10),
            ([50, 60, 70], [0.1, 0.2, 0.3], 0.9, 0.5),
            ([50, 60, 70], [0.1, 0.2, 0.3], 0.0, 0.5),
        ]
        for budgets, imps, t, r in cases:
            assert reallocate_caches(budgets, imps, t, r) == reallocation_trace(budgets, imps, t, r)

    @settings(max_examples=150, deadline=None)
    @given(
        budgets=st.lists(st.integers(6, 500), min_size=1, max_size=10),
        t=st.floats(0.0, 1.0),
        r=st.floats(0.0, 0.99),
        seed=st.integers(0, 2**16),
    )
    def test_randomized_against_trace(self, budgets, t, r, seed):
        rng = np.random.default_rng(seed)
        imps = rng.uniform(0.0, 1.0, size=len(budgets)).tolist()
        floor = 5
        got = reallocate_caches(budgets, imps, t, r, floor=floor)
        assert got == reallocation_trace(budgets, imps, t, r, floor=floor)
        assert sum(got) == sum(budgets)
        low = {i for i in range(len(budgets)) if imps[i] < t}
        if 0 < len(low) < len(budgets):
            for i in range(len(budgets)):
                if i in low:
                    assert got[i] <= budgets[i]
                    assert got[i] >= min(budgets[i], floor)
                else:
                    assert got[i] >= budgets[i]

    @settings(max_examples=80, deadline=None)
    @given(
        t_low=st.floats(0.0, 1.0),
        t_high=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_selection_monotone_in_threshold(self, t_low, t_high, seed):
        if t_low > t_high:
            t_low, t_high = t_high, t_low
        rng = np.random.default_rng(seed)
        imps = rng.uniform(0.0, 1.0, size=8)
        low_set = {i for i in range(8) if imps[i] < t_low}
        high_set = {i for i in range(8) if imps[i] < t_high}
        assert low_set <= high_set


class TestLayerBudgetScaling:
    def test_hand_trace(self):
        # uniform 1000/layer needs num_kv_heads * max_context = 1000
        cfg = ModelConfig(
            num_layers=4,
            num_q_heads=4,
            num_kv_heads=4,
            head_dim=16,
            d_model=64,
            d_ff=64,
            vocab_size=257,
            max_context=250,
        )
        out = layer_budget_scaling([0.1, 0.2, 0.8, 0.9], 1.0, 0.5, 0.2, cfg, sinks=4)
        assert out == [800, 800, 1200, 1200]

    def test_r_zero_uniform(self):
        out = layer_budget_scaling([0.1, 0.9], 0.5, 0.5, 0.0, SMALL, sinks=4)
        expected_total = global_budget(SMALL, 0.5)
        assert sum(out) == expected_total
        assert max(out) - min(out) <= 1

    def test_equal_importances_unchanged(self):
        base = layer_budget_scaling([0.5, 0.5], 0.5, 0.5, 0.3, SMALL, sinks=4)
        uniform = layer_budget_scaling([0.5, 0.5], 0.5, 0.0, 0.0, SMALL, sinks=4)
        assert base == uniform

    def test_floor_violation_names_layer(self):
        with pytest.raises(AllocationError, match="layer 0"):
            layer_budget_scaling([0.1, 0.9], 0.05, 0.5, 0.2, SMALL, sinks=4)


class TestBuildPlan:
    def test_baklava_noop_equals_uniform(self):
        profile = _profile(SMALL, [[0.2, 0.4], [0.3, 0.5]], [0.1, 0.2])
        plan = build_plan(profile, SMALL, "baklava", 0.5, PlanParams(), sinks=4)
        assert np.array_equal(plan.budgets, uniform_plan(SMALL, 0.5, 4).budgets)

    def test_layerwise_equals_baklava_with_r_zero(self):
        profile = _profile(SMALL, [[0.2, 0.4], [0.3, 0.5]], [0.1, 0.9])
        params = PlanParams(t=0.7, r=0.0, layer_t=0.95, layer_r=0.2)
        a = build_plan(profile, SMALL, "layerwise", 0.5, params, sinks=4)
        b = build_plan(profile, SMALL, "baklava", 0.5, params, sinks=4)
        assert np.array_equal(a.budgets, b.budgets)
        assert a.strategy == "layerwise" and b.strategy == "baklava"

    def test_baklava_matches_step_by_step_trace(self):
        profile = _profile(
            SMALL, [[0.05, 0.60], [0.50, 0.10]], [0.2, 0.6]
        )
        params = PlanParams(t=0.8, r=0.25, layer_t=0.7, layer_r=0.2)
        plan = build_plan(profile, SMALL, "baklava", 0.5, params, sinks=4)

        # independent trace: layer stage, equal split, then head stage per layer
        layer_totals = reallocation_trace(
            apportion_largest_remainder(
                [0.5 * SMALL.num_kv_heads * SMALL.max_context] * SMALL.num_layers,
                global_budget(SMALL, 0.5),
            ),
            [0.2, 0.6],
            1.0 - params.layer_t,
            params.layer_r,
            floor=SMALL.num_kv_heads * 5,
        )
        rows = []
        for layer, total in enumerate(layer_totals):
            row = apportion_largest_remainder(
                [total / SMALL.num_kv_heads] * SMALL.num_kv_heads, total
            )
            rows.append(
                reallocation_trace(
                    row,
                    profile.kv_importance[layer].tolist(),
                    1.0 - params.t,
                    params.r,
                    floor=5,
                )
            )
        assert plan.budgets.tolist() == rows

    def test_conservation_across_strategies(self):
        profile = _profile(SMALL, [[0.05, 0.60], [0.50, 0.10]], [0.9, 0.1])
        for strategy in ("uniform", "layerwise", "baklava"):
            plan = build_plan(
                profile,
                SMALL,
                strategy,
                0.37,
                PlanParams(t=0.6, r=0.3, layer_t=0.6, layer_r=0.25),
                sinks=4,
            )
            assert plan.total_tokens == global_budget(SMALL, 0.37)

    @pytest.mark.parametrize("t", [True, "0.5", None])
    def test_params_must_be_real_numbers(self, t):
        PlanParams(t=np.float64(0.5), r=np.float32(0.25)).validate()
        with pytest.raises(AllocationError, match=rf"^t must be in \[0, 1\], got {t!r}$"):
            build_plan(None, SMALL, "uniform", 0.5, PlanParams(t=t))

    def test_unknown_strategy(self):
        with pytest.raises(AllocationError, match="strategy"):
            build_plan(None, SMALL, "pyramid", 0.5)

    def test_profile_required_for_baklava(self):
        with pytest.raises(AllocationError):
            build_plan(None, SMALL, "baklava", 0.5)


class TestValidatePlan:
    def test_built_plan_is_ok(self):
        assert validate_plan(uniform_plan(SMALL, 0.5), SMALL) == []

    def test_floor_violation_lists_coordinates(self):
        plan = uniform_plan(SMALL, 0.5)
        plan.budgets[1, 0] = 2
        violations = validate_plan(plan, SMALL)
        assert any("layer 1 group 0" in v for v in violations)

    def test_total_violation(self):
        plan = uniform_plan(SMALL, 0.5)
        plan.budgets[0, 0] += 1
        violations = validate_plan(plan, SMALL)
        assert any("conserve" in v for v in violations)

    @pytest.mark.parametrize("compression", [0.0, 1.5, float("nan")])
    def test_compression_out_of_range_is_a_violation(self, compression):
        # returned with the floor violations already found, not raised
        plan = uniform_plan(SMALL, 0.5)
        plan.budgets[1, 0] = 2
        plan.compression_ratio = compression
        violations = validate_plan(plan, SMALL)
        assert "layer 1 group 0" in violations[0]
        assert violations[-1] == f"compression must be in (0, 1], got {compression}"

    def test_shape_violation(self):
        plan = uniform_plan(SMALL, 0.5)
        violations = validate_plan(plan, TOY)
        assert violations and "shape" in violations[0]

    def test_require_valid_returns_the_plan_or_raises_every_violation(self):
        plan = uniform_plan(SMALL, 0.5)
        assert require_valid(plan, SMALL) is plan
        plan.budgets[1, 0] = 2
        with pytest.raises(AllocationError, match="^plan does not match this model$") as info:
            require_valid(plan, SMALL)
        assert info.value.violations == validate_plan(plan, SMALL)
        assert len(info.value.violations) == 2  # the floor and the total

    @pytest.mark.parametrize(
        "build",
        [lambda: uniform_plan(TOY, 0.001), lambda: window_plan(TOY, 0, 3, 0.001)],
        ids=["uniform", "window"],
    )
    def test_builders_raise_the_one_plan_check(self, build):
        with pytest.raises(AllocationError, match="^plan does not match this model$") as info:
            build()
        assert any("below floor 5" in v for v in info.value.violations)


class TestWindowPlan:
    def test_only_window_compressed(self):
        plan = window_plan(SMALL, 0, 0, 0.5, sinks=4)
        assert np.all(plan.budgets[0] == 32)
        assert np.all(plan.budgets[1] == SMALL.max_context)

    def test_achieved_ratio_consistent(self):
        plan = window_plan(SMALL, 0, 1, 0.5, sinks=4)
        assert validate_plan(plan, SMALL) == []

    def test_bad_window(self):
        with pytest.raises(AllocationError):
            window_plan(SMALL, 1, 0, 0.5)
