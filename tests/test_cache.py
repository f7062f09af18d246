from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bklv import (
    AllocationError,
    BudgetedCache,
    ConfigError,
    InputError,
    LayerStore,
    ModelConfig,
    ShapeError,
    append_and_evict,
    attend_with_cache,
    build_cache_set,
    forward_chunk,
    greedy_generate,
    memory_report,
    reset,
    uniform_plan,
)
from bklv.allocation import AllocationPlan, PlanParams, floor_violations, validate_plan
from bklv import cache as cache_module
from bklv.cache import EMPTY

from .conftest import SMALL
from .reference import brute_attention, scaled_dot_attention, sink_window_trace

HEAD_DIM = 8


def _cache(budget, sinks=0, head_dim=HEAD_DIM):
    return BudgetedCache(budget=budget, sinks=sinks, head_dim=head_dim)


def _append_each(cache, n, rng):
    """Append positions 0..n-1 one at a time; row p has key rows[p] and value rows[p] + 1."""
    rows = rng.normal(size=(n, cache.head_dim)).astype(np.float32)
    for pos in range(n):
        append_and_evict(cache, rows[pos : pos + 1], rows[pos : pos + 1] + 1)
    return rows


def _slot(pos, budget, sinks):
    """The slot of a position: its own below sinks, else its ring slot."""
    return pos if pos < sinks else sinks + (pos - sinks) % (budget - sinks)


def _assert_holds(cache, kept, keys, values):
    """The cache holds exactly the positions `kept`, each in its own slot
    (so the sinks fill slots 0..sinks-1) with its own key and value row."""
    held = cache.positions.tolist()
    assert sorted(held) == kept
    assert [_slot(p, cache.budget, cache.sinks) for p in held] == list(range(len(held)))
    assert held[: cache.sinks] == list(range(min(cache.sinks, cache.total_seen)))
    assert np.array_equal(cache.keys, keys[held])
    assert np.array_equal(cache.values, values[held])


class TestAppendAndEvict:
    def test_sink_window_trace(self, rng):
        cache = _cache(budget=8, sinks=2)
        rows = _append_each(cache, 10, rng)
        assert cache.positions.tolist() == [0, 1, 8, 9, 4, 5, 6, 7]
        _assert_holds(cache, sink_window_trace(8, 2, 10), rows, rows + 1)

    def test_pure_window_trace(self, rng):
        cache = _cache(budget=4, sinks=0)
        rows = _append_each(cache, 10, rng)
        assert cache.positions.tolist() == [8, 9, 6, 7]
        _assert_holds(cache, sink_window_trace(4, 0, 10), rows, rows + 1)

    def test_no_eviction_when_under_budget(self, rng):
        cache = _cache(budget=16, sinks=2)
        _append_each(cache, 10, rng)
        assert cache.positions.tolist() == list(range(10))
        assert cache.total_seen == 10

    def test_batch_append_equals_single_steps(self, rng):
        one = _cache(budget=6, sinks=2)
        k = rng.normal(size=(11, HEAD_DIM)).astype(np.float32)
        v = rng.normal(size=(11, HEAD_DIM)).astype(np.float32)
        append_and_evict(one, k, v)
        step = _cache(budget=6, sinks=2)
        for i in range(11):
            append_and_evict(step, k[i : i + 1], v[i : i + 1])
        assert one.positions.tolist() == step.positions.tolist()
        assert np.array_equal(one.keys, step.keys)

    def test_full_store_append_and_reset_write_the_layer_store_in_place(self, rng):
        # group 0 of layer 0 has budget 6 in a store padded to width 9
        plan = AllocationPlan(0.5, 2, np.array([[6, 9], [7, 7]]), "uniform", PlanParams())
        caches = build_cache_set(plan, SMALL)
        store, cache = caches.stores[0], caches.caches[0][0]
        arrays = (store.keys, store.values, store.positions)
        rows = rng.normal(size=(10, HEAD_DIM)).astype(np.float32)

        def append(pos):
            append_and_evict(cache, rows[pos : pos + 1], rows[pos : pos + 1] + 1)

        def check(n):
            _assert_holds(cache, sink_window_trace(6, 2, n), rows, rows + 1)
            for view, full in zip((cache.keys, cache.values, cache.positions), arrays):
                assert view.base is full

        for pos in range(6):
            append(pos)
        held = cache.keys
        append(6)  # into the full store: position 6 overwrites position 2 in slot 2
        check(7)
        assert cache.positions.tolist() == [0, 1, 6, 3, 4, 5]
        assert np.array_equal(held, cache.keys)  # a view taken before sees the write
        reset(caches)
        assert cache.retained == 0 and cache.total_seen == 0
        assert all(a is b for a, b in zip((store.keys, store.values, store.positions), arrays))
        assert store.positions[0].tolist() == [EMPTY] * 9
        for pos in range(3):
            append(pos)
        check(3)

    @settings(max_examples=60, deadline=None)
    @given(
        budget=st.integers(1, 20),
        sinks=st.integers(0, 6),
        chunks=st.lists(st.integers(1, 7), min_size=1, max_size=6),
    )
    def test_capacity_and_sink_retention(self, budget, sinks, chunks):
        if budget < sinks + 1:
            budget = sinks + 1
        cache = _cache(budget=budget, sinks=sinks)
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(sum(chunks), HEAD_DIM)).astype(np.float32)
        pos = 0
        for n in chunks:
            k = rows[pos : pos + n]
            append_and_evict(cache, k, k + 1)
            pos += n
            assert cache.retained <= budget
            assert cache.total_seen == pos
            _assert_holds(cache, sink_window_trace(budget, sinks, pos), rows, rows + 1)

    @settings(max_examples=60, deadline=None)
    @given(
        budgets=st.lists(st.integers(1, 9), min_size=1, max_size=3),
        sinks=st.integers(0, 4),
        group=st.integers(0, 2),
        extra=st.integers(0, 20),
    )
    def test_an_append_into_a_full_cache_writes_only_the_ring_slot(
        self, budgets, sinks, group, extra
    ):
        budgets = [b + sinks for b in budgets]
        group %= len(budgets)
        store = LayerStore(len(budgets), max(budgets), HEAD_DIM)
        views = [BudgetedCache(b, sinks, HEAD_DIM, store, g) for g, b in enumerate(budgets)]
        rng = np.random.default_rng(extra)
        for cache in views:
            _append_each(cache, cache.budget + extra, rng)
        cache, pos = views[group], views[group].total_seen
        before = [a.copy() for a in (store.keys, store.values, store.positions)]
        row = rng.normal(size=(1, HEAD_DIM)).astype(np.float32)
        append_and_evict(cache, row, row + 1)
        slot = _slot(pos, cache.budget, sinks)
        assert cache.positions[slot] == pos
        assert np.array_equal(cache.keys[slot], row[0])
        assert np.array_equal(cache.values[slot], row[0] + 1)
        # every other slot of every group is untouched in all three arrays (keys transposed)
        written = ((group, slice(None), slot), (group, slot), (group, slot))
        for old, new, index in zip(before, (store.keys, store.values, store.positions), written):
            untouched = np.ones(new.shape, bool)
            untouched[index] = False
            assert np.array_equal(new[untouched], old[untouched])


class TestAttendWithCache:
    def test_no_eviction_equals_full_attention(self, rng):
        cache = _cache(budget=32, sinks=0)
        k = rng.normal(size=(10, HEAD_DIM)).astype(np.float32)
        v = rng.normal(size=(10, HEAD_DIM)).astype(np.float32)
        append_and_evict(cache, k, v)
        q = rng.normal(size=(10, HEAD_DIM)).astype(np.float32)
        got = attend_with_cache(cache, q)
        np.testing.assert_allclose(got, scaled_dot_attention(q, k, v), atol=1e-6)

    def test_after_eviction_matches_retained_subset_oracle(self, rng):
        cache = _cache(budget=6, sinks=2)
        k = rng.normal(size=(12, HEAD_DIM)).astype(np.float32)
        v = rng.normal(size=(12, HEAD_DIM)).astype(np.float32)
        for i in range(12):
            append_and_evict(cache, k[i : i + 1], v[i : i + 1])
        q = rng.normal(size=(1, HEAD_DIM)).astype(np.float32)
        got = attend_with_cache(cache, q)
        kept = cache.positions.tolist()
        expected = brute_attention(q, k[kept], v[kept], causal=False)
        np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_single_retained_token_returns_its_value(self, rng):
        cache = _cache(budget=1, sinks=0)
        k = rng.normal(size=(1, HEAD_DIM)).astype(np.float32)
        v = rng.normal(size=(1, HEAD_DIM)).astype(np.float32)
        append_and_evict(cache, k, v)
        q = rng.normal(size=(1, HEAD_DIM)).astype(np.float32)
        assert np.array_equal(attend_with_cache(cache, q), v)

    def test_empty_cache_is_input_error(self, rng):
        with pytest.raises(InputError):
            attend_with_cache(_cache(4), rng.normal(size=(1, HEAD_DIM)).astype(np.float32))

    def test_multi_row_causal_masking(self, rng):
        cache = _cache(budget=32, sinks=0)
        k = rng.normal(size=(6, HEAD_DIM)).astype(np.float32)
        v = rng.normal(size=(6, HEAD_DIM)).astype(np.float32)
        append_and_evict(cache, k, v)
        q = rng.normal(size=(6, HEAD_DIM)).astype(np.float32)
        got = attend_with_cache(cache, q)
        expected = brute_attention(q, k, v, causal=True)
        np.testing.assert_allclose(got, expected, atol=1e-6)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("t_q", [1, 3, 7])
    def test_grouped_heads_bit_identical_to_per_head_calls(self, rng, heads, t_q):
        cache = _cache(budget=9, sinks=2)
        _append_each(cache, 14, rng)
        # (t_q, heads, d) rows viewed as (heads, t_q, d), as forward_chunk passes them
        rows = rng.normal(size=(t_q, heads, HEAD_DIM)).astype(np.float32)
        q = rows.transpose(1, 0, 2)
        got = attend_with_cache(cache, q)
        assert got.shape == (heads, t_q, HEAD_DIM)
        for h in range(heads):
            assert np.array_equal(got[h], attend_with_cache(cache, q[h]))

    def test_randomized_eviction_equivalence(self):
        # Randomized sequences of appends; attention over the store must equal
        # dense attention restricted to the retained positions.
        rng = np.random.default_rng(42)
        for trial in range(50):
            budget = int(rng.integers(3, 12))
            sinks = int(rng.integers(0, min(4, budget - 1) + 1))
            cache = _cache(budget=budget, sinks=sinks)
            total = int(rng.integers(budget, 3 * budget))
            k = rng.normal(size=(total, HEAD_DIM)).astype(np.float32)
            v = rng.normal(size=(total, HEAD_DIM)).astype(np.float32)
            pos = 0
            while pos < total:
                n = min(int(rng.integers(1, 4)), total - pos)
                append_and_evict(cache, k[pos : pos + n], v[pos : pos + n])
                pos += n
            q = rng.normal(size=(1, HEAD_DIM)).astype(np.float32)
            kept = cache.positions.tolist()
            expected = brute_attention(q, k[kept], v[kept], causal=False)
            np.testing.assert_allclose(attend_with_cache(cache, q), expected, atol=1e-6)


class TestLayerStoreAttention:
    """One call over a layer store against brute force and per-group calls."""

    @settings(max_examples=60, deadline=None)
    @given(
        extra=st.lists(st.integers(1, 10), min_size=2, max_size=4, unique=True),
        sinks=st.integers(0, 4),
        first=st.integers(1, 14),
        steps=st.integers(0, 10),
        heads=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    # the first append overflows group 0, so its earliest query rows see nothing
    @example(extra=[2, 5], sinks=0, first=8, steps=3, heads=2, seed=0)
    # no eviction in the first append; the groups are padded to width 6
    @example(extra=[1, 4, 2], sinks=2, first=3, steps=6, heads=1, seed=1)
    def test_matches_brute_force_and_standalone_caches(
        self, extra, sinks, first, steps, heads, seed
    ):
        budgets = [e + sinks for e in extra]  # unequal, at or above the floor
        groups, total = len(budgets), first + steps
        store = LayerStore(groups, max(budgets), HEAD_DIM)
        views = [BudgetedCache(b, sinks, HEAD_DIM, store, g) for g, b in enumerate(budgets)]
        alone = [_cache(b, sinks) for b in budgets]
        rng = np.random.default_rng(seed)
        k = rng.normal(size=(groups, total, HEAD_DIM)).astype(np.float32)
        v = rng.normal(size=(groups, total, HEAD_DIM)).astype(np.float32)
        for a, b in [(0, first), *((i, i + 1) for i in range(first, total))]:
            for g in range(groups):
                for cache in (views[g], alone[g]):
                    append_and_evict(cache, k[g, a:b], v[g, a:b])
            q = rng.normal(size=(groups, heads, b - a, HEAD_DIM)).astype(np.float32)
            # row j of the call is the query for position a + j
            visible = [
                [[p for p in sink_window_trace(budget, sinks, b) if p <= a + j]
                 for j in range(b - a)]
                for budget in budgets
            ]
            if any(not rows for group in visible for rows in group):
                with pytest.raises(InputError, match="no retained token"):
                    attend_with_cache(store, q)
                continue
            got = attend_with_cache(store, q)
            assert got.shape == q.shape
            for g in range(groups):
                _assert_holds(views[g], sink_window_trace(budgets[g], sinks, b), k[g], v[g])
                for h in range(heads):
                    for j, kept in enumerate(visible[g]):
                        row = q[g, h, j : j + 1]
                        expected = brute_attention(row, k[g, kept], v[g, kept], causal=False)
                        np.testing.assert_allclose(got[g, h, j : j + 1], expected, atol=1e-6)
                for cache in (views[g], alone[g]):
                    np.testing.assert_allclose(got[g], attend_with_cache(cache, q[g]), atol=1e-6)

    def test_query_groups_must_match_the_store(self, rng):
        store = LayerStore(2, 4, HEAD_DIM)
        cache = BudgetedCache(4, 0, HEAD_DIM, store, 1)
        row = np.ones((1, HEAD_DIM), np.float32)
        append_and_evict(cache, row, row)
        q = rng.normal(size=(1, HEAD_DIM)).astype(np.float32)
        for bad in (q, q[None, None], np.stack([q[None]] * 3)):
            with pytest.raises(ShapeError):
                attend_with_cache(store, bad)
        with pytest.raises(InputError, match="one retained token"):
            attend_with_cache(store, np.stack([q[None]] * 2))  # group 0 is empty
        assert np.array_equal(attend_with_cache(cache, q), row)


class TestScoreTiling:
    """attend_with_cache under a small score cap against the one-tile call."""

    @settings(max_examples=50, deadline=None)
    @given(
        budgets=st.lists(st.integers(1, 12), min_size=1, max_size=6),
        sinks=st.integers(0, 3),
        first=st.integers(1, 14),
        steps=st.integers(0, 5),
        heads=st.integers(1, 3),
        cap=st.sampled_from([1, 7, 100, 1000]),
        seed=st.integers(0, 2**16),
    )
    def test_tiled_equals_untiled_and_brute_force(
        self, budgets, sinks, first, steps, heads, cap, seed
    ):
        budgets = [b + sinks for b in budgets]
        groups, total = len(budgets), first + steps
        store = LayerStore(groups, max(budgets), HEAD_DIM)
        views = [BudgetedCache(b, sinks, HEAD_DIM, store, g) for g, b in enumerate(budgets)]
        rng = np.random.default_rng(seed)
        k = rng.normal(size=(groups, total, HEAD_DIM)).astype(np.float32)
        v = rng.normal(size=(groups, total, HEAD_DIM)).astype(np.float32)
        for a, b in [(0, first), *((i, i + 1) for i in range(first, total))]:
            for g in range(groups):
                append_and_evict(views[g], k[g, a:b], v[g, a:b])
            q = rng.normal(size=(groups, heads, b - a, HEAD_DIM)).astype(np.float32)
            visible = [
                [[p for p in sink_window_trace(budget, sinks, b) if p <= a + j]
                 for j in range(b - a)]
                for budget in budgets
            ]
            if any(not rows for group in visible for rows in group):
                with mock.patch.object(cache_module, "SCORE_CAP", cap):
                    with pytest.raises(InputError, match="no retained token"):
                        attend_with_cache(store, q)
                continue
            untiled = attend_with_cache(store, q)
            with mock.patch.object(cache_module, "SCORE_CAP", cap):
                tiled = attend_with_cache(store, q)
            assert np.array_equal(tiled, untiled)
            for g in range(groups):
                for j, kept in enumerate(visible[g]):
                    expected = brute_attention(q[g, :, j], k[g, kept], v[g, kept], causal=False)
                    np.testing.assert_allclose(tiled[g, :, j], expected, atol=1e-6)


class TestCacheSet:
    def test_full_compression_budgets(self):
        plan = uniform_plan(SMALL, 1.0)
        caches = build_cache_set(plan, SMALL)
        assert all(c.budget == SMALL.max_context for c in caches.all_caches())
        assert caches.total_seen == 0

    def test_budget_at_sink_floor_rejected(self):
        plan = uniform_plan(SMALL, 1.0, sinks=4)
        bad = AllocationPlan(
            plan.compression_ratio,
            plan.sinks,
            plan.budgets.copy(),
            "uniform",
            PlanParams(),
        )
        bad.budgets[1, 1] = 4  # equal to sinks: below floor sinks + 1
        with pytest.raises(AllocationError, match=r"layer 1 group 1"):
            build_cache_set(bad, SMALL)

    def test_negative_sinks_rejected_by_the_floor_rule(self):
        plan = uniform_plan(SMALL, 1.0, sinks=4)
        bad = AllocationPlan(plan.compression_ratio, -1, plan.budgets, "uniform", PlanParams())
        assert floor_violations(bad.budgets, -1) == ["sinks must be >= 0, got -1"]
        assert validate_plan(bad, SMALL) == ["sinks must be >= 0, got -1"]
        with pytest.raises(AllocationError, match="sinks must be >= 0, got -1"):
            build_cache_set(bad, SMALL)
        with pytest.raises(AllocationError, match="sinks must be >= 0, got -1"):
            _cache(budget=4, sinks=-1)

    def test_standalone_cache_below_floor_rejected(self):
        with pytest.raises(AllocationError, match="below floor 3"):
            _cache(budget=2, sinks=2)

    def test_total_capacity_is_sum_of_budgets(self):
        plan = uniform_plan(SMALL, 0.5)
        caches = build_cache_set(plan, SMALL)
        assert sum(c.budget for c in caches.all_caches()) == int(plan.budgets.sum())

    def test_dimension_mismatch(self):
        plan = uniform_plan(SMALL, 1.0)
        with pytest.raises(ConfigError):
            build_cache_set(plan, ModelConfig())

    def test_reset_preserves_budgets(self, rng):
        plan = uniform_plan(SMALL, 0.5)
        caches = build_cache_set(plan, SMALL)
        for grp, cache in enumerate(caches.caches[0]):
            _append_each(cache, 6, rng)
        reset(caches)
        assert caches.total_seen == 0
        assert [c.budget for c in caches.caches[0]] == plan.budgets[0].tolist()
        cache = caches.caches[0][0]
        _append_each(cache, 3, rng)
        assert cache.retained == 3

    @pytest.mark.parametrize("layer, group", [(0, 1), (1, 0)])
    def test_a_cache_at_another_stream_position_is_named(self, small_model, layer, group, rng):
        caches = build_cache_set(uniform_plan(SMALL, 1.0), SMALL)
        forward_chunk(small_model, [1, 2, 3], caches)
        _append_each(caches.caches[layer][group], 1, rng)  # advanced directly, to position 4
        message = f"cache at layer {layer} group {group} is at stream position 4, not 3"
        with pytest.raises(InputError, match=message):
            caches.total_seen
        with pytest.raises(InputError, match=message):
            forward_chunk(small_model, [4], caches)
        with pytest.raises(InputError, match=message):
            greedy_generate(small_model, [4], 2, caches)

    def test_reset_idempotent(self):
        caches = build_cache_set(uniform_plan(SMALL, 1.0), SMALL)
        reset(caches)
        reset(caches)
        assert caches.total_seen == 0


class TestMemoryReport:
    def test_toy_default_full_budget_total(self):
        # 2 (K and V) * 512 tokens * head_dim 16 * 2 bytes * 16 caches
        cfg = ModelConfig()
        report = memory_report(uniform_plan(cfg, 1.0), cfg, bytes_per_element=2)
        assert report["total_bytes"] == 2 * 512 * 16 * 2 * (4 * 4)
        assert report["total_bytes"] == 524288
        assert report["achieved_compression"] == 1.0

    def test_per_cache_bytes(self):
        report = memory_report(uniform_plan(SMALL, 1.0), SMALL, bytes_per_element=4)
        assert report["per_cache_bytes"][0][0] == 2 * SMALL.max_context * SMALL.head_dim * 4

    @pytest.mark.parametrize("width", [0, -2])
    def test_non_positive_element_width_rejected(self, width):
        with pytest.raises(InputError, match=f"bytes_per_element must be >= 1, got {width}"):
            memory_report(uniform_plan(SMALL, 1.0), SMALL, bytes_per_element=width)

    def test_half_compression_ratio(self):
        cfg = ModelConfig()
        report = memory_report(uniform_plan(cfg, 0.5), cfg)
        assert abs(report["achieved_compression"] - 0.5) < 1.0 / cfg.max_context
