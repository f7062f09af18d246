from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bklv import (
    AllocationError,
    InputError,
    ModelConfig,
    PlanParams,
    ShapeError,
    apportion_largest_remainder,
    build_plan,
    reallocate_caches,
    require_valid,
    uniform_plan,
    layer_sweep,
    validate_plan,
)
from bklv import search as search_module
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


@st.composite
def _plan_inputs(draw):
    """(config, profile, params, compression, sinks): a random GQA shape, a
    profile over it, values for all four params, a compression in
    [0.001, 1] and sinks in [0, 5]."""
    num_kv_heads = draw(st.sampled_from([1, 2, 4]))
    group_size = draw(st.integers(1, 2))
    config = ModelConfig(
        num_layers=draw(st.integers(1, 6)),
        num_q_heads=num_kv_heads * group_size,
        num_kv_heads=num_kv_heads,
        head_dim=2,
        d_model=num_kv_heads * group_size * 2,
        max_context=draw(st.integers(8, 512)),
    )
    shape = (config.num_layers, config.num_kv_heads)
    unit = st.floats(0.0, 1.0)
    below_one = st.floats(0.0, 1.0, exclude_max=True)
    kv = draw(st.lists(unit, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    layer = draw(st.lists(unit, min_size=shape[0], max_size=shape[0]))
    params = PlanParams(t=draw(unit), r=draw(below_one), layer_t=draw(unit), layer_r=draw(below_one))
    compression = 10.0 ** draw(st.floats(-3.0, 0.0))
    return config, _profile(config, np.reshape(kv, shape), layer), params, compression, draw(st.integers(0, 5))


def _error(build, *args):
    """The (message, violations) of the AllocationError build raises, or None."""
    try:
        build(*args)
    except AllocationError as exc:
        return str(exc), exc.violations
    return None


class TestApportion:
    def test_equal_remainders_favor_lower_index(self):
        assert apportion_largest_remainder([2.5, 2.5], 5) == [3, 2]

    def test_largest_remainder_wins(self):
        assert apportion_largest_remainder([1.2, 3.7, 5.1], 10) == [1, 4, 5]

    def test_tie_breaks_to_lower_index(self):
        assert apportion_largest_remainder([1.5, 1.5, 1.5, 1.5], 7) == [2, 2, 2, 1]

    @pytest.mark.parametrize("shares, total", [([1.5, 2.5], 2), ([1.5, 2.5], 6)])
    def test_shares_more_than_one_unit_per_entry_from_the_total_are_rejected(self, shares, total):
        with pytest.raises(AllocationError, match=f"^shares sum 4.000000 inconsistent with total {total}$"):
            apportion_largest_remainder(shares, total)

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

    def test_compression_out_of_range(self, toy_model):
        # one rule for every strategy and the sweep's window matrices
        profile = _profile(TOY, np.full((4, 4), 0.5), np.full(4, 0.5))
        params = {
            "uniform": PlanParams(),
            "layerwise": PlanParams(layer_t=0.6, layer_r=0.3),
            "baklava": PlanParams(t=0.6, r=0.3),
        }
        builders = [
            *(lambda c, s=s: build_plan(profile, TOY, s, c, params[s]) for s in params),
            lambda c: uniform_plan(TOY, c),
            lambda c: layer_sweep(toy_model, np.arange(64), 32, 3, c),
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

    def test_no_caches(self):
        with pytest.raises(ShapeError, match="^need at least one cache$"):
            reallocate_caches([], [], 0.5, 0.1)

    @pytest.mark.parametrize("t", [-0.1, 1.5, float("nan")])
    def test_t_out_of_range(self, t):
        with pytest.raises(AllocationError, match=rf"^t_importance must be in \[0, 1\], got {t}$"):
            reallocate_caches([1, 2], [0.5, 0.6], t, 0.1)

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


class TestBuildPlan:
    def test_baklava_noop_equals_uniform(self):
        profile = _profile(SMALL, [[0.2, 0.4], [0.3, 0.5]], [0.1, 0.2])
        plan = build_plan(profile, SMALL, "baklava", 0.5, PlanParams(), sinks=4)
        assert np.array_equal(plan.budgets, uniform_plan(SMALL, 0.5, 4).budgets)

    def test_layerwise_equals_baklava_with_r_zero(self):
        profile = _profile(SMALL, [[0.2, 0.4], [0.3, 0.5]], [0.1, 0.9])
        layer = PlanParams(layer_t=0.95, layer_r=0.2)
        a = build_plan(profile, SMALL, "layerwise", 0.5, layer, sinks=4)
        b = build_plan(profile, SMALL, "baklava", 0.5, replace(layer, t=0.7), sinks=4)
        assert np.array_equal(a.budgets, b.budgets)
        assert a.strategy == "layerwise" and b.strategy == "baklava"

    @settings(max_examples=300, deadline=None)
    @given(_plan_inputs(), st.sampled_from(["layerwise", "baklava"]))
    @example(
        (SMALL, _profile(SMALL, [[0.05, 0.60], [0.50, 0.10]], [0.2, 0.6]),
         PlanParams(t=0.8, r=0.25, layer_t=0.7, layer_r=0.2), 0.5, 4),
        "baklava",
    )
    def test_baklava_matches_step_by_step_trace(self, inputs, strategy):
        # independent trace: equal layer totals, the layer stage, the equal
        # split, then (baklava only) the cache stage per layer
        config, profile, params, compression, sinks = inputs
        if strategy == "layerwise":
            params = replace(params, t=0.0, r=0.0)
        kv = config.num_kv_heads
        layer_totals = reallocation_trace(
            apportion_largest_remainder(
                [compression * kv * config.max_context] * config.num_layers,
                global_budget(config, compression),
            ),
            profile.layer_importance.tolist(),
            1.0 - params.layer_t,
            params.layer_r,
            floor=kv * (sinks + 1),
        )
        rows = []
        for layer, total in enumerate(layer_totals):
            row = apportion_largest_remainder([total / kv] * kv, total)
            if strategy == "baklava":
                row = reallocation_trace(
                    row, profile.kv_importance[layer].tolist(), 1.0 - params.t, params.r, floor=sinks + 1
                )
            rows.append(row)
        if min(min(row) for row in rows) < sinks + 1:  # the floor tests pin the error
            with pytest.raises(AllocationError):
                build_plan(profile, config, strategy, compression, params, sinks)
        else:
            plan = build_plan(profile, config, strategy, compression, params, sinks)
            assert plan.budgets.tolist() == rows

    def test_layerwise_hand_trace(self):
        # uniform 1000 per layer; layers 0 and 1 each give 200 to layers 2 and 3
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
        profile = _profile(cfg, np.full((4, 4), 0.5), [0.1, 0.2, 0.8, 0.9])
        plan = build_plan(profile, cfg, "layerwise", 1.0, PlanParams(layer_t=0.5, layer_r=0.2), sinks=4)
        assert plan.budgets.tolist() == [[200] * 4, [200] * 4, [300] * 4, [300] * 4]

    def test_layerwise_with_r_zero_is_uniform(self):
        profile = _profile(SMALL, [[0.2, 0.4], [0.3, 0.5]], [0.1, 0.9])
        plan = build_plan(profile, SMALL, "layerwise", 0.5, PlanParams(layer_t=0.5), sinks=4)
        assert np.array_equal(plan.budgets, uniform_plan(SMALL, 0.5, 4).budgets)

    @pytest.mark.parametrize("layer_t", [0.5, 0.1])
    def test_layerwise_with_equal_importances_is_uniform(self, layer_t):
        # no layer is below importance 0.5 (layer_t 0.5), or every layer is (0.1)
        profile = _profile(SMALL, [[0.2, 0.4], [0.3, 0.5]], [0.5, 0.5])
        params = PlanParams(layer_t=layer_t, layer_r=0.3)
        plan = build_plan(profile, SMALL, "layerwise", 0.5, params, sinks=4)
        assert np.array_equal(plan.budgets, uniform_plan(SMALL, 0.5, 4).budgets)

    @pytest.mark.parametrize("compression", [0.001, 78 / 8192])
    def test_below_the_floor_every_strategy_fails_as_uniform(self, compression):
        # 78 / 8192: layer totals [20, 20, 19, 19], so only layers 2 and 3
        # fall below the layer floor 4 * (4 + 1) = 20
        profile = _profile(TOY, np.tile([0.1, 0.2, 0.8, 0.9], (4, 1)), [0.1, 0.2, 0.8, 0.9])
        moves = PlanParams(t=0.5, r=0.5, layer_t=0.5, layer_r=0.5)
        uniform = _error(uniform_plan, TOY, compression, 4)
        assert uniform is not None and uniform[0] == "plan does not match this model"
        assert all("below floor 5" in v for v in uniform[1])
        layer_moves = replace(moves, t=0.0, r=0.0)
        assert _error(build_plan, profile, TOY, "layerwise", compression, layer_moves, 4) == uniform
        assert _error(build_plan, profile, TOY, "baklava", compression, moves, 4) == uniform

    def test_conservation_across_strategies(self):
        profile = _profile(SMALL, [[0.05, 0.60], [0.50, 0.10]], [0.9, 0.1])
        params = {
            "uniform": PlanParams(),
            "layerwise": PlanParams(layer_t=0.6, layer_r=0.25),
            "baklava": PlanParams(t=0.6, r=0.3, layer_t=0.6, layer_r=0.25),
        }
        for strategy, strategy_params in params.items():
            plan = build_plan(profile, SMALL, strategy, 0.37, strategy_params, sinks=4)
            assert plan.total_tokens == global_budget(SMALL, 0.37)

    @pytest.mark.parametrize("t", [True, "0.5", None])
    def test_params_must_be_real_numbers(self, t):
        PlanParams(t=np.float64(0.5), r=np.float32(0.25)).validate()
        with pytest.raises(AllocationError, match=rf"^t must be in \[0, 1\], got {t!r}$"):
            build_plan(None, SMALL, "uniform", 0.5, PlanParams(t=t))

    @pytest.mark.parametrize(
        "strategy, params, ignored",
        [
            ("uniform", PlanParams(t=0.9, r=0.8, layer_t=0.5, layer_r=0.5), "t, r, layer_t, layer_r"),
            ("uniform", PlanParams(layer_r=0.5), "layer_r"),
            ("layerwise", PlanParams(t=0.9, r=0.8), "t, r"),
            ("layerwise", PlanParams(r=0.1, layer_t=0.5, layer_r=0.5), "r"),
        ],
    )
    def test_params_the_strategy_ignores_are_rejected(self, strategy, params, ignored):
        profile = _profile(SMALL, [[0.2, 0.4], [0.3, 0.5]], [0.1, 0.9])
        with pytest.raises(AllocationError, match=f"^strategy '{strategy}' does not use {ignored};"):
            build_plan(profile, SMALL, strategy, 0.5, params)
        build_plan(profile, SMALL, "baklava", 0.5, params)  # baklava uses all four

    @settings(max_examples=300, deadline=None)
    @given(_plan_inputs())
    def test_baklava_breaks_the_floor_exactly_when_uniform_does(self, inputs):
        # parameter_search builds the uniform plan first and relies on this:
        # both reallocation stages keep every cut at the floor
        config, profile, params, compression, sinks = inputs
        assert _error(build_plan, profile, config, "baklava", compression, params, sinks) == _error(
            uniform_plan, config, compression, sinks
        )

    def test_unknown_strategy(self):
        with pytest.raises(AllocationError, match="strategy"):
            build_plan(None, SMALL, "pyramid", 0.5)

    def test_profile_required_for_baklava(self):
        with pytest.raises(AllocationError):
            build_plan(None, SMALL, "baklava", 0.5)

    @pytest.mark.parametrize("strategy", ["baklava", "layerwise"])
    def test_a_profile_of_another_shape_is_rejected(self, strategy):
        kv = np.full((SMALL.num_layers, SMALL.num_kv_heads), 0.5)
        wide = _profile(SMALL, np.full((SMALL.num_layers, SMALL.num_kv_heads + 1), 0.5), [0.5] * SMALL.num_layers)
        with pytest.raises(ShapeError, match=r"^profile kv_importance shape \(2, 3\) does not match config \(2, 2\)$"):
            build_plan(wide, SMALL, strategy, 0.5)
        short = _profile(SMALL, kv, [0.5] * (SMALL.num_layers - 1))
        with pytest.raises(ShapeError, match="^profile layer_importance length does not match config$"):
            build_plan(short, SMALL, strategy, 0.5)


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
        plan.budgets[0, 0] = 0  # below the floor too: the shape violation comes alone
        violations = validate_plan(plan, TOY)
        assert violations == ["budget matrix shape (2, 2) does not match (4, 4)"]

    def test_require_valid_returns_the_plan_or_raises_every_violation(self):
        plan = uniform_plan(SMALL, 0.5)
        assert require_valid(plan, SMALL) is plan
        plan.budgets[1, 0] = 2
        with pytest.raises(AllocationError, match="^plan does not match this model$") as info:
            require_valid(plan, SMALL)
        assert info.value.violations == validate_plan(plan, SMALL)
        assert len(info.value.violations) == 2  # the floor and the total

    @pytest.mark.parametrize(
        "build, headline",
        [
            (lambda model: uniform_plan(TOY, 0.001), "plan does not match this model"),
            # window 3 compresses layers 0-1 first: those 8 caches, in the plan-fit rule's words
            (lambda model: layer_sweep(model, np.arange(64), 32, 3, 0.001),
             "budget 1 below floor 5 at layer 0 group 0"),
        ],
        ids=["uniform", "window"],
    )
    def test_builders_raise_the_one_plan_check(self, toy_model, build, headline):
        with pytest.raises(AllocationError, match=f"^{headline}$") as info:
            build(toy_model)
        assert any("below floor 5" in v for v in info.value.violations)
        if headline != "plan does not match this model":
            assert info.value.violations == [
                f"budget {budget} below floor 5 at layer {layer} group {group}"
                for layer, budget in ((0, 1), (1, 0)) for group in range(4)
            ]


def _window_matrices(model, window, compression, monkeypatch):
    """The budget matrices layer_sweep hands to evaluate_plans, and their sinks."""
    calls = []

    def recording(model, corpus, context_len, budgets, sinks):
        calls.append((budgets, sinks))
        return [0.0] * len(budgets)

    monkeypatch.setattr(search_module, "evaluate_plans", recording)
    layer_sweep(model, np.arange(64), 32, window, compression)
    [(matrices, sinks)] = calls
    return matrices, sinks


class TestWindowPlan:
    def test_only_window_compressed(self, small_model, monkeypatch):
        matrices, sinks = _window_matrices(small_model, 1, 0.5, monkeypatch)
        assert [m.tolist() for m in matrices] == [[[32, 32], [64, 64]], [[64, 64], [32, 32]]]
        assert sinks == 4

    def test_achieved_ratio_consistent(self, toy_model, monkeypatch):
        # each window's caches share round(compression * max_context * caches) tokens, apportioned
        matrices, _ = _window_matrices(toy_model, 3, 0.3, monkeypatch)
        for matrix, (lo, hi) in zip(matrices, [(0, 1), (0, 2), (1, 3), (2, 3)]):
            window = matrix[lo : hi + 1]
            assert window.sum() == round_half_up(0.3 * 512 * window.size)
            assert window.max() - window.min() <= 1
            assert np.all(np.delete(matrix, np.s_[lo : hi + 1], axis=0) == 512)

    def test_bad_window(self, small_model):
        # the window rule comes before the compression rule
        with pytest.raises(InputError, match=r"^window must be odd and within \[1, 2\], got 2$"):
            layer_sweep(small_model, np.arange(64), 32, 2, float("nan"))
