import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bklv import (
    AllocationError,
    CacheSet,
    InputError,
    LayerStore,
    ModelConfig,
    ShapeError,
    append_and_evict,
    attend_with_cache,
    banded_attention,
    build_cache_set,
    chunked_perplexity,
    evaluate_plans,
    forward_chunk,
    greedy_generate,
    memory_report,
    reset,
    uniform_plan,
)
from bklv.allocation import AllocationPlan, PlanParams, fit_violations, validate_plan
from bklv import cache as cache_module
from bklv.cache import softmax

from .conftest import SMALL
from .reference import brute_attention, scaled_dot_attention, sink_window_trace

HEAD_DIM = 8


def _cache(budget, sinks=0, head_dim=HEAD_DIM):
    """The one cache of a one-group store."""
    return LayerStore([budget], sinks, head_dim).caches[0]


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

    @pytest.mark.parametrize("k_shape, v_shape", [((3, HEAD_DIM), (2, HEAD_DIM)), ((2, 1, HEAD_DIM),) * 2])
    def test_rows_of_unequal_or_not_2_d_shapes_are_rejected(self, k_shape, v_shape):
        cache = _cache(budget=6)
        message = f"k_new {k_shape} and v_new {v_shape} must be equal 2-D shapes"
        with pytest.raises(ShapeError, match=re.escape(message)):
            append_and_evict(cache, np.zeros(k_shape), np.zeros(v_shape))
        assert cache.total_seen == 0

    def test_rows_not_head_dim_wide_are_rejected(self):
        cache, rows = _cache(budget=6), np.zeros((3, HEAD_DIM + 2), np.float32)
        with pytest.raises(ShapeError, match=f"^row width {HEAD_DIM + 2} != head_dim {HEAD_DIM}$"):
            append_and_evict(cache, rows, rows)
        assert cache.total_seen == 0

    def test_full_store_append_and_reset_write_the_layer_store_in_place(self, rng):
        # group 0 of layer 0 has budget 6 in a store padded to width 9
        plan = AllocationPlan(0.5, 2, np.array([[6, 9], [7, 7]]), "uniform", PlanParams())
        caches = build_cache_set(plan, SMALL)
        store = caches.stores[0]
        cache = store.caches[0]
        arrays = (store.keys, store.values)
        rows = rng.normal(size=(10, HEAD_DIM)).astype(np.float32)

        def append(pos):
            append_and_evict(cache, rows[pos : pos + 1], rows[pos : pos + 1] + 1)

        def check(n):
            _assert_holds(cache, sink_window_trace(6, 2, n), rows, rows + 1)
            for view, full in zip((cache.keys, cache.values), arrays):
                assert view.base is full
            # the store's counts are the cache's, and group 1's view holds nothing
            assert ([c.retained for c in store.caches], store.seen) == ([min(n, 6), 0], [n, 0])
            assert store.caches[1].positions.tolist() == []

        for pos in range(6):
            append(pos)
        held = cache.keys
        append(6)  # into the full store: position 6 overwrites position 2 in slot 2
        check(7)
        assert cache.positions.tolist() == [0, 1, 6, 3, 4, 5]
        assert np.array_equal(held, cache.keys)  # a view taken before sees the write
        reset(caches)
        assert cache.retained == 0 and cache.total_seen == 0
        assert all(a is b for a, b in zip((store.keys, store.values), arrays))
        assert [view.positions.tolist() for view in store.caches] == [[], []]
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
        store = LayerStore(budgets, sinks, HEAD_DIM)
        views = store.caches
        rng = np.random.default_rng(extra)
        for cache in views:
            _append_each(cache, cache.budget + extra, rng)
        cache, pos = views[group], views[group].total_seen
        before = [a.copy() for a in (store.keys, store.values)]
        positions_before = [view.positions for view in views]
        row = rng.normal(size=(1, HEAD_DIM)).astype(np.float32)
        append_and_evict(cache, row, row + 1)
        slot = _slot(pos, cache.budget, sinks)
        assert cache.positions[slot] == pos
        assert np.array_equal(cache.keys[slot], row[0])
        assert np.array_equal(cache.values[slot], row[0] + 1)
        # every other slot of every group is untouched in both arrays (keys transposed)
        written = ((group, slice(None), slot), (group, slot))
        for old, new, index in zip(before, (store.keys, store.values), written):
            untouched = np.ones(new.shape, bool)
            untouched[index] = False
            assert np.array_equal(new[untouched], old[untouched])
        # and the derived positions changed at the written (group, slot) only
        for g, (view, before) in enumerate(zip(views, positions_before)):
            changed = np.flatnonzero(view.positions != before).tolist()
            assert changed == ([slot] if g == group else [])


class TestDerivedPositions:
    """Each view's positions, derived from its group's counts, against a
    slot-by-slot replay of every append."""

    @settings(max_examples=80, deadline=None)
    @given(
        extra=st.lists(st.integers(1, 10), min_size=2, max_size=4, unique=True),
        sinks=st.integers(0, 4),
        appends=st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 25)), min_size=1, max_size=12
        ),
        reset_at=st.integers(0, 12),
    )
    # the first append overflows group 0; the reset comes after two appends
    @example(extra=[2, 5], sinks=4, appends=[(0, 9), (1, 3), (1, 7), (0, 1)], reset_at=2)
    def test_positions_equal_a_slot_by_slot_replay(self, extra, sinks, appends, reset_at):
        budgets = [e + sinks for e in extra]  # unequal, at or above the floor
        store = LayerStore(budgets, sinks, HEAD_DIM)
        views = store.caches
        caches = CacheSet([store], SMALL)
        replay = np.full((len(budgets), max(budgets)), -1, dtype=np.int64)  # -1: unwritten
        rows = np.ones((25, HEAD_DIM), np.float32)
        for i, (group, n) in enumerate(appends):
            if i == reset_at:
                reset(caches)
                replay.fill(-1)
            g = group % len(budgets)
            seen = views[g].total_seen
            append_and_evict(views[g], rows[:n], rows[:n])
            for pos in range(seen, seen + n):
                replay[g, _slot(pos, budgets[g], sinks)] = pos
            for cache, slots in zip(views, replay):
                # the filled slots are the first `retained`, each holding the replay's position
                assert np.array_equal(cache.positions, slots[: cache.retained])
                assert np.all(slots[cache.retained :] == -1)
                assert not cache.positions.flags.writeable
                held = sorted(cache.positions.tolist())
                assert held == sink_window_trace(cache.budget, sinks, cache.total_seen)


class TestOneRowAppend:
    """append_and_evict's one-row path (two slot writes) against the
    multi-row runs it bypasses: a store fed one row at a time and a twin
    fed the same rows in batches stay equal at every batch boundary."""

    @settings(max_examples=80, deadline=None)
    @given(
        extra=st.lists(st.integers(1, 10), min_size=2, max_size=4, unique=True),
        sinks=st.integers(0, 4),
        batches=st.lists(
            st.tuples(st.integers(0, 3), st.integers(2, 25)), min_size=1, max_size=12
        ),
        reset_at=st.integers(0, 12),
        seed=st.integers(0, 2**16),
    )
    # the first batch overflows group 0; the reset comes after two batches
    @example(extra=[2, 5], sinks=4, batches=[(0, 9), (1, 3), (1, 7), (0, 2)], reset_at=2, seed=0)
    def test_single_rows_equal_batched_appends(self, extra, sinks, batches, reset_at, seed):
        budgets = [e + sinks for e in extra]  # unequal, at or above the floor
        stores = [LayerStore(budgets, sinks, HEAD_DIM) for _ in range(2)]
        single, batched = (store.caches for store in stores)
        caches = CacheSet(stores, SMALL)
        rng = np.random.default_rng(seed)
        for i, (group, n) in enumerate(batches):
            if i == reset_at:
                reset(caches)
            g = group % len(budgets)
            k, v = rng.normal(size=(2, n, HEAD_DIM)).astype(np.float32)
            for j in range(n):
                append_and_evict(single[g], k[j : j + 1], v[j : j + 1])
            append_and_evict(batched[g], k, v)
            one, many = stores
            for name in ("keys", "values", "seen"):
                assert np.array_equal(getattr(one, name), getattr(many, name)), name
            assert [c.retained for c in single] == [c.retained for c in batched]
            for a, b in zip(single, batched):
                assert np.array_equal(a.positions, b.positions)


    def test_the_runs_write_one_row_where_the_one_row_path_does(self, rng):
        # a row given as lists takes the general path's runs, one as arrays the slot write
        rows = rng.normal(size=(80, 2, 1, HEAD_DIM)).astype(np.float32)
        for sinks in range(6):
            for budget in range(sinks + 1, sinks + 20):
                arrays, lists = (LayerStore([budget], sinks, HEAD_DIM) for _ in range(2))
                for k, v in rows:
                    append_and_evict(arrays.caches[0], k, v)
                    append_and_evict(lists.caches[0], k.tolist(), v.tolist())
                    assert arrays.keys.tobytes() == lists.keys.tobytes()
                    assert arrays.values.tobytes() == lists.values.tobytes()
                    assert (arrays.retained, arrays.seen) == (lists.retained, lists.seen)


def _attend_one(store, q):
    """One group's (1, head_dim) query through its one-group store."""
    return attend_with_cache(store, q[None, None])[0, 0]


def _ones_column(v):
    """v with a ones column appended, as banded_attention takes its values: a new array."""
    return np.concatenate([v, np.ones((*v.shape[:-1], 1), np.float32)], -1)


def _chunk_attention(budgets, sinks, q, k, v, cap=cache_module.SCORE_CAP):
    """A chunk's several queries over its own rows under score cap `cap`.
    k and v are left as they are: the pass works a copy of k, and of v
    with its ones column."""
    with mock.patch.object(cache_module, "SCORE_CAP", cap):
        return banded_attention(q, k.copy(), _ones_column(v), budgets, sinks)


class TestAttendWithCache:
    def test_no_eviction_equals_full_attention(self, rng):
        # a chunk's queries over their own rows, under a budget that holds them all
        k = rng.normal(size=(10, HEAD_DIM)).astype(np.float32)
        v = rng.normal(size=(10, HEAD_DIM)).astype(np.float32)
        q = rng.normal(size=(10, HEAD_DIM)).astype(np.float32)
        got = _chunk_attention([32], 0, q[None, None], k[None], v[None])[0, 0]
        np.testing.assert_allclose(got, scaled_dot_attention(q, k, v), atol=1e-6)

    def test_after_eviction_matches_retained_subset_oracle(self, rng):
        store = LayerStore([6], 2, HEAD_DIM)
        cache = store.caches[0]
        k = rng.normal(size=(12, HEAD_DIM)).astype(np.float32)
        v = rng.normal(size=(12, HEAD_DIM)).astype(np.float32)
        for i in range(12):
            append_and_evict(cache, k[i : i + 1], v[i : i + 1])
        q = rng.normal(size=(1, HEAD_DIM)).astype(np.float32)
        got = _attend_one(store, q)
        kept = cache.positions.tolist()
        expected = brute_attention(q, k[kept], v[kept], causal=False)
        np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_single_retained_token_returns_its_value(self, rng):
        store = LayerStore([1], 0, HEAD_DIM)
        cache = store.caches[0]
        k = rng.normal(size=(1, HEAD_DIM)).astype(np.float32)
        v = rng.normal(size=(1, HEAD_DIM)).astype(np.float32)
        append_and_evict(cache, k, v)
        q = rng.normal(size=(1, HEAD_DIM)).astype(np.float32)
        assert np.array_equal(_attend_one(store, q), v)

    def test_empty_cache_is_input_error(self, rng):
        with pytest.raises(InputError):
            _attend_one(LayerStore([4], 0, HEAD_DIM), rng.normal(size=(1, HEAD_DIM)).astype(np.float32))

    def test_multi_row_causal_masking(self, rng):
        k = rng.normal(size=(6, HEAD_DIM)).astype(np.float32)
        v = rng.normal(size=(6, HEAD_DIM)).astype(np.float32)
        q = rng.normal(size=(6, HEAD_DIM)).astype(np.float32)
        got = _chunk_attention([32], 0, q[None, None], k[None], v[None])[0, 0]
        expected = brute_attention(q, k, v, causal=True)
        np.testing.assert_allclose(got, expected, atol=1e-6)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("t_q", [1, 3, 7])
    def test_grouped_heads_bit_identical_to_per_head_calls(self, rng, heads, t_q):
        # one query, its token appended, over a store that has evicted, or several
        # over their own rows, which start the stream
        store = LayerStore([9], 2, HEAD_DIM)
        _append_each(store.caches[0], 14, rng)
        k, v = rng.normal(size=(2, 1, t_q, HEAD_DIM)).astype(np.float32)
        # (t_q, heads, d) rows viewed as (heads, t_q, d), as forward_chunk passes them
        rows = rng.normal(size=(t_q, heads, HEAD_DIM)).astype(np.float32)
        q = rows.transpose(1, 0, 2)
        got = _attend(store, q[None], k, v)
        assert got.shape == (1, heads, t_q, HEAD_DIM)
        for h in range(heads):
            assert np.array_equal(got[0, h], _attend(store, q[None, h : h + 1], k, v)[0, 0])

    def test_randomized_eviction_equivalence(self):
        # Randomized sequences of appends; attention over the store must equal
        # dense attention restricted to the retained positions.
        rng = np.random.default_rng(42)
        for trial in range(50):
            budget = int(rng.integers(3, 12))
            sinks = int(rng.integers(0, min(4, budget - 1) + 1))
            store = LayerStore([budget], sinks, HEAD_DIM)
            cache = store.caches[0]
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
            np.testing.assert_allclose(_attend_one(store, q), expected, atol=1e-6)


def _position_masked_attention(store, q):
    """One query per group masked by position, untiled, as attend_with_cache
    once did for every call: it is for position seen - 1 of its group, and a
    slot is set to -inf where the position its view holds is later, or where
    the view holds nothing."""
    views = store.caches
    (groups, heads, t_q, d), width = q.shape, store.retained
    held = np.full((groups, width), np.iinfo(np.int64).max)
    for g, view in enumerate(views):
        held[g, : view.retained] = view.positions
    q_pos = np.add.outer([view.total_seen for view in views], np.arange(-t_q, 0))
    scores = q.reshape(groups, heads * t_q, d) @ store.keys[:, :, :width]
    scores /= np.float32(math.sqrt(d))
    hidden = held[:, None, None, :] > q_pos[:, None, :, None]
    np.copyto(scores.reshape(groups, heads, t_q, width), np.float32(-np.inf), where=hidden)
    softmax(scores, out=scores)
    return (scores @ store.values[:, :width]).reshape(q.shape)


def _attend(store, q, k, v):
    """A layer step's attention after its appends: one query over the store
    (attend_with_cache), or a chunk's several, which start the stream, over
    k and v's first rows under the store's budgets (banded_attention)."""
    t_q = q.shape[2]
    if t_q == 1:
        return attend_with_cache(store, q)
    return banded_attention(q, k[:, :t_q].copy(), _ones_column(v[:, :t_q]), store.budgets, store.sinks)


def _check_attention(store, q, k, v, cap=cache_module.SCORE_CAP):
    """_attend under score cap `cap`. One query is for the newest token,
    already appended, and must equal _position_masked_attention at
    tolerance 0. Several start the stream, positions 0.., with k and v's
    rows there as theirs. Each query at position t must equal brute force
    over the positions that token-by-token generation holds at t (the
    literal eviction trace) within 1e-6 (k[g, p] and v[g, p] are group g's
    rows for position p). Returns the result."""
    views, t_q = store.caches, q.shape[2]
    with mock.patch.object(cache_module, "SCORE_CAP", cap):
        got = _attend(store, q, k, v)
    assert got.shape == q.shape
    if t_q == 1:
        assert np.array_equal(got, _position_masked_attention(store, q))
    for g, view in enumerate(views):
        for i in range(t_q):
            t = view.total_seen - 1 if t_q == 1 else i
            mine = sink_window_trace(view.budget, view.sinks, t + 1)
            expected = brute_attention(q[g, :, i], k[g, mine], v[g, mine], causal=False)
            np.testing.assert_allclose(got[g, :, i], expected, atol=1e-6)
    return got


def _append(views, k, v, a, e):
    for g, view in enumerate(views):
        append_and_evict(view, k[g, a:e], v[g, a:e])


class TestLayerStoreAttention:
    """One call per layer step, single and several queries, against the
    position mask, brute force and per-group standalone caches. Every
    segment is appended, then attends, as forward_layer runs them: a first
    one of several tokens starts the stream and attends over its own rows,
    and every later one is one token, attending over the store."""

    @settings(max_examples=60, deadline=None)
    @given(
        extra=st.lists(st.integers(1, 10), min_size=2, max_size=4, unique=True),
        sinks=st.integers(0, 4),
        first=st.integers(1, 9),
        steps=st.integers(0, 7),
        heads=st.integers(1, 3),
        cap=st.sampled_from([1, 7, cache_module.SCORE_CAP]),
        seed=st.integers(0, 2**16),
    )
    # the first segment overflows group 0
    @example(extra=[2, 5], sinks=0, first=8, steps=2, heads=2, cap=7, seed=0)
    # no eviction in the first segment; the groups are padded to width 6
    @example(extra=[1, 4, 2], sinks=2, first=3, steps=6, heads=1, cap=1, seed=1)
    # group 1 evicts in the first segment, group 0 only in the steps after it
    @example(extra=[9, 2], sinks=1, first=5, steps=7, heads=2, cap=1, seed=2)
    def test_matches_brute_force_and_standalone_caches(
        self, extra, sinks, first, steps, heads, cap, seed
    ):
        budgets = [e + sinks for e in extra]  # unequal, at or above the floor
        segments = [first] + [1] * steps
        groups, total = len(budgets), first + steps
        store = LayerStore(budgets, sinks, HEAD_DIM)
        views = store.caches
        alone = [LayerStore([b], sinks, HEAD_DIM) for b in budgets]
        rng = np.random.default_rng(seed)
        k = rng.normal(size=(groups, total, HEAD_DIM)).astype(np.float32)
        v = rng.normal(size=(groups, total, HEAD_DIM)).astype(np.float32)

        def append(a, e):
            _append(views, k, v, a, e)
            for g, one in enumerate(alone):
                _append(one.caches, k[g : g + 1], v[g : g + 1], a, e)

        seen = 0
        for rows in segments:
            append(seen, seen + rows)
            q = rng.normal(size=(groups, heads, rows, HEAD_DIM)).astype(np.float32)
            got = _check_attention(store, q, k, v, cap)
            for g, one in enumerate(alone):
                np.testing.assert_allclose(got[g], _attend(one, q[g : g + 1], k[g : g + 1], v[g : g + 1])[0], atol=1e-6)
            seen += rows
            for g in range(groups):
                _assert_holds(views[g], sink_window_trace(budgets[g], sinks, seen), k[g], v[g])

    @pytest.mark.parametrize("evicted", [0, 1])
    def test_several_queries_over_an_evicted_group_raise(self, rng, evicted):
        budgets = [4, 12] if evicted == 0 else [12, 4]
        store = LayerStore(budgets, 1, HEAD_DIM)
        k, v = rng.normal(size=(2, 2, 10, HEAD_DIM)).astype(np.float32)
        _append(store.caches, k, v, 0, 6)
        assert [c.retained for c in store.caches] == ([4, 6] if evicted == 0 else [6, 4])
        q = rng.normal(size=(2, 2, 4, HEAD_DIM)).astype(np.float32)
        for t_q in (2, 3, 4):  # several queries attend over their own rows, never a store
            with pytest.raises(InputError, match="one query"):
                attend_with_cache(store, q[:, :, :t_q])
        assert store.seen == [6, 6]  # attention appends nothing

    @pytest.mark.parametrize("short", [0, 1])
    def test_several_queries_need_a_token_each_in_every_group(self, rng, short):
        # each query brings its own token, a row in every group
        store = LayerStore([8, 8], 0, HEAD_DIM)
        k, v = rng.normal(size=(2, 2, 9, HEAD_DIM)).astype(np.float32)
        q = rng.normal(size=(2, 3, 4, HEAD_DIM)).astype(np.float32)
        _check_attention(store, q, k, v, 1)
        for k_new, v_new in ((k[:, :3], v[:, :3]), (k[short : short + 1, :4], v[short : short + 1, :4])):
            with pytest.raises(ShapeError, match="for 2 budgets"):  # a token short, or a group without its rows
                banded_attention(q, k_new.copy(), _ones_column(v_new), store.budgets, store.sinks)
        for g, view in enumerate(store.caches):
            n = 2 if g == short else 5
            append_and_evict(view, k[g, :n], v[g, :n])
        _check_attention(store, q[:, :, :1], k, v, 1)  # one query is each group's newest token

    def test_query_groups_must_match_the_store(self, rng):
        store = LayerStore([4, 4], 0, HEAD_DIM)
        views = store.caches
        row = np.ones((1, HEAD_DIM), np.float32)
        append_and_evict(views[1], row, row)
        q = rng.normal(size=(1, HEAD_DIM)).astype(np.float32)
        # one group's 2-D or 3-D queries, or 4-D ones for another number of groups
        for bad in (q, q[None], q[None, None], np.stack([q[None]] * 3)):
            with pytest.raises(ShapeError):
                attend_with_cache(store, bad)
        with pytest.raises(InputError, match="one retained token"):
            attend_with_cache(store, np.stack([q[None]] * 2))  # group 0 is empty
        append_and_evict(views[0], row, row)
        assert np.array_equal(attend_with_cache(store, np.stack([q[None]] * 2)), [[row], [row]])
        with pytest.raises(InputError, match="one query"):  # several queries
            attend_with_cache(store, rng.normal(size=(2, 1, 3, HEAD_DIM)).astype(np.float32))


class TestBandedAttention:
    """A chunk's queries, which start the stream and attend over their own
    rows, against brute force over what token-by-token generation holds at
    each position, under every block size and score cap, on both softmax
    paths (SCORE_BOUND 0 shifts every group)."""

    @settings(max_examples=100, deadline=None)
    @given(
        extra=st.lists(st.integers(1, 12), min_size=2, max_size=4, unique=True),
        sinks=st.integers(0, 4),
        n=st.integers(2, 40),
        heads=st.integers(1, 3),
        cap=st.sampled_from([1, 50, cache_module.SCORE_CAP]),
        block=st.sampled_from([1, 3, cache_module.BLOCK]),
        bound=st.sampled_from([cache_module.SCORE_BOUND, 0.0]),
        seed=st.integers(0, 2**16),
    )
    # group 1's window (budget 4) moves past its budget mid-chunk, group 0's (budget 12) later
    @example(extra=[9, 1], sinks=3, n=40, heads=2, cap=50, block=3, bound=80.0, seed=0)
    # a budget at the floor, sinks later than the first queries
    @example(extra=[1, 5, 2], sinks=4, n=33, heads=1, cap=1, block=1, bound=0.0, seed=1)
    def test_matches_brute_force_over_the_retained_set(self, extra, sinks, n, heads, cap, block, bound, seed):
        budgets = [e + sinks for e in extra]  # unequal, down to the floor
        store = LayerStore(budgets, sinks, HEAD_DIM)
        rng = np.random.default_rng(seed)
        k, v = rng.normal(size=(2, len(budgets), n, HEAD_DIM)).astype(np.float32)
        q = rng.normal(size=(len(budgets), heads, n, HEAD_DIM)).astype(np.float32)
        with mock.patch.object(cache_module, "BLOCK", block), mock.patch.object(cache_module, "SCORE_BOUND", bound):
            _check_attention(store, q, k, v, cap)

    def test_rows_must_match_the_queries_and_the_budgets_their_floor(self, rng):
        chunk = rng.normal(size=(2, 1, 3, HEAD_DIM)).astype(np.float32)
        k, v = np.ones((2, 3, HEAD_DIM), np.float32), np.ones((2, 3, HEAD_DIM + 1), np.float32)
        # rows of another shape, values without their ones column, or budgets for another group count
        for k_bad, v_bad in ((k[:, :2], v[:, :2]), (k, v[:1]), (k[..., :4], v[..., :5]), (k, v[..., :HEAD_DIM])):
            with pytest.raises(ShapeError, match="for 2 budgets"):
                banded_attention(chunk, k_bad, v_bad, [4, 4], 0)
        for q_bad, n in ((chunk[0], 2), (chunk[:, :, :0], 2), (chunk[:, :0], 2), (chunk, 1)):  # 3-D, no queries, no heads, a budget short
            with pytest.raises(ShapeError, match=f"for {n} budgets"):
                banded_attention(q_bad, k, v, [4, 4][:n], 0)
        with pytest.raises(AllocationError, match="budget 2 below floor 3 at layer 0 group 1"):
            banded_attention(chunk, k, v, [4, 2], 2)
        # rows given as float64 lists are taken as float32 arrays
        listed = banded_attention(chunk, k.tolist(), v.astype(np.float64).tolist(), [4, 4], 0)
        assert listed.dtype == np.float32
        assert np.array_equal(listed, banded_attention(chunk, k, v, [4, 4], 0))


class TestSingleQuery:
    """One query over padded stores, which hides only the unused slots,
    against the position mask and brute force."""

    @settings(max_examples=60, deadline=None)
    @given(
        extra=st.lists(st.integers(1, 10), min_size=2, max_size=5, unique=True),
        sinks=st.integers(0, 4),
        first=st.integers(1, 14),
        steps=st.integers(0, 10),
        heads=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    # the short group is the last of three
    @example(extra=[9, 8, 2], sinks=2, first=12, steps=3, heads=2, seed=0)
    @example(extra=[9, 8, 2], sinks=0, first=3, steps=8, heads=1, seed=1)
    def test_equals_position_mask_and_brute_force(self, extra, sinks, first, steps, heads, seed):
        budgets = [e + sinks for e in extra]  # unequal, so the store is padded
        groups, total = len(budgets), first + steps
        store = LayerStore(budgets, sinks, HEAD_DIM)
        views = store.caches
        rng = np.random.default_rng(seed)
        k = rng.normal(size=(groups, total, HEAD_DIM)).astype(np.float32)
        v = rng.normal(size=(groups, total, HEAD_DIM)).astype(np.float32)
        for a, b in [(0, first), *((i, i + 1) for i in range(first, total))]:
            for g in range(groups):
                append_and_evict(views[g], k[g, a:b], v[g, a:b])
            q = rng.normal(size=(groups, heads, 1, HEAD_DIM)).astype(np.float32)
            assert _check_attention(store, q, k, v) is not None


def _scaled_normal(rng, shape, scales):
    """float32 normal draws, group g (the first axis) scaled by scales[g]."""
    x = rng.normal(size=shape).astype(np.float32)
    return x * np.asarray(scales, np.float32).reshape(-1, *[1] * (len(shape) - 1))


PAST_BOUND = 100.0  # a query scale whose scores pass SCORE_BOUND: B is about 500 at head_dim 8
# scores of a few hundred: float32 rounding moves them by about 1e-5; measured
# largest |difference| from brute force 3.0e-5 over 300 random calls of this shape
PAST_BOUND_TOL = 1e-4


class TestScoreTiling:
    """A chunk into a fresh store under a small score cap against the
    one-tile call, bit for bit, and against brute force. Query scales push
    some groups past SCORE_BOUND, so tiles hold groups of both softmax paths."""

    @settings(max_examples=60, deadline=None)
    @given(
        budgets=st.lists(st.integers(1, 12), min_size=1, max_size=6),
        sinks=st.integers(0, 3),
        n=st.integers(2, 40),
        heads=st.integers(1, 3),
        cap=st.sampled_from([1, 7, 100, 1000]),
        scales=st.lists(st.sampled_from([1.0, PAST_BOUND]), min_size=6, max_size=6),
        seed=st.integers(0, 2**16),
    )
    # groups 0 and 2 past the bound, tiles of one group and of several
    @example(budgets=[3, 9, 4], sinks=2, n=40, heads=2, cap=100, scales=[PAST_BOUND, 1, PAST_BOUND] + [1] * 3,
             seed=0)
    def test_tiled_equals_untiled_and_brute_force(self, budgets, sinks, n, heads, cap, scales, seed):
        budgets, scales = [b + sinks for b in budgets], scales[: len(budgets)]
        rng = np.random.default_rng(seed)
        k, v = rng.normal(size=(2, len(budgets), n, HEAD_DIM)).astype(np.float32)
        q = _scaled_normal(rng, (len(budgets), heads, n, HEAD_DIM), scales)
        bounded = cache_module._bounded(q, k, v, np.float32(math.sqrt(HEAD_DIM)))
        assert bounded.tolist() == [scale == 1 for scale in scales]
        untiled = _chunk_attention(budgets, sinks, q, k, v)
        assert np.array_equal(_chunk_attention(budgets, sinks, q, k, v, cap), untiled)
        for g, (budget, fits) in enumerate(zip(budgets, bounded)):
            for i in range(n):
                mine = sink_window_trace(budget, sinks, i + 1)
                expected = brute_attention(q[g, :, i], k[g, mine], v[g, mine], causal=False)
                np.testing.assert_allclose(untiled[g, :, i], expected, atol=1e-6 if fits else PAST_BOUND_TOL)


class TestSpanMasks:
    """The banded pass builds one visibility mask per distinct span
    (budget - sinks) per block, and each group reads its own. Spans that
    alternate, so that no two neighbours share one, under tiles of one or
    two groups whose last tile is short, on both softmax paths: each group
    against its one-group call bit for bit, against the call with the groups
    reversed, and against brute force."""

    # 70 queries are 3 blocks of BLOCK = 32; a group's block scores 2 heads x
    # (32, 32), (32, 43) and (6, 17), so a cap of 500 makes tiles of 1, 1 and 2
    # groups, and one of 5000 tiles of 2, 1 and all 5
    @pytest.mark.parametrize("cap", [1, 500, 5000])
    @pytest.mark.parametrize("bound", [cache_module.SCORE_BOUND, 0.0])
    def test_each_group_reads_its_own_span(self, rng, cap, bound):
        budgets, sinks, heads, n = [12, 7, 12, 7, 9], 2, 2, 70
        k, v = rng.normal(size=(2, len(budgets), n, HEAD_DIM)).astype(np.float32)
        q = rng.normal(size=(len(budgets), heads, n, HEAD_DIM)).astype(np.float32)
        with mock.patch.object(cache_module, "SCORE_BOUND", bound):  # 0: every group shifted
            together = _chunk_attention(budgets, sinks, q, k, v, cap)
            # reversed, each group has other neighbours and another place in its tiles
            backwards = _chunk_attention(budgets[::-1], sinks, q[::-1], k[::-1], v[::-1], cap)
            alone = [_chunk_attention([b], sinks, q[g : g + 1], k[g : g + 1], v[g : g + 1], cap)[0]
                     for g, b in enumerate(budgets)]
        assert together.tobytes() == backwards[::-1].tobytes()
        for g, budget in enumerate(budgets):
            # a shifted row is normalized by its sum over the call's columns, so a
            # group narrower than the widest one matches only calls as wide
            if bound or budget == max(budgets):
                assert together[g].tobytes() == alone[g].tobytes(), g
            for i in range(n):
                mine = sink_window_trace(budget, sinks, i + 1)
                expected = brute_attention(q[g, :, i], k[g, mine], v[g, mine], causal=False)
                np.testing.assert_allclose(together[g, :, i], expected, atol=1e-6)


# measured: largest |difference| 1.4e-6 over 2,000 random calls of this
# test's shapes with queries scaled by 4, scores up to 29 at head_dim 8
BOUNDED_TOL = 5e-6


class TestBoundedSoftmax:
    """The banded pass's two softmax paths. A group whose score bound is
    within SCORE_BOUND takes exp without the row max and divides its PV
    product by the ones column's sum; any other keeps the shifted,
    normalized softmax. Each against the other, per group, and on the
    README's traffic (tests/test_readme.py)."""

    def test_e_to_the_minus_score_bound_is_a_normal_float32(self):
        # SCORE_BOUND's stated reason: every exp of a bounded score, e**-SCORE_BOUND the least, keeps full precision
        assert np.exp(np.float32(-cache_module.SCORE_BOUND)) >= np.finfo(np.float32).smallest_normal

    @settings(max_examples=200, deadline=None)
    @given(
        extra=st.lists(st.integers(1, 12), min_size=1, max_size=4),
        sinks=st.integers(0, 4),
        n=st.integers(2, 40),
        heads=st.integers(1, 3),
        scale=st.sampled_from([0.01, 0.5, 1.0, 2.0, 4.0]),
        seed=st.integers(0, 2**16),
    )
    @example(extra=[12, 3], sinks=1, n=40, heads=3, scale=4.0, seed=0)  # scores up to about 20
    def test_bounded_groups_match_the_shifted_path(self, extra, sinks, n, heads, scale, seed):
        budgets = [e + sinks for e in extra]
        rng = np.random.default_rng(seed)
        k, v = rng.normal(size=(2, len(budgets), n, HEAD_DIM)).astype(np.float32)
        q = rng.normal(size=(len(budgets), heads, n, HEAD_DIM)).astype(np.float32) * np.float32(scale)
        assert cache_module._bounded(q, k, v, np.float32(math.sqrt(HEAD_DIM))).all()
        bounded = _chunk_attention(budgets, sinks, q, k, v)
        with mock.patch.object(cache_module, "SCORE_BOUND", 0.0):  # every group shifted
            assert not cache_module._bounded(q, k, v, np.float32(math.sqrt(HEAD_DIM))).any()
            shifted = _chunk_attention(budgets, sinks, q, k, v)
        np.testing.assert_allclose(bounded, shifted, rtol=0, atol=BOUNDED_TOL)

    @settings(max_examples=60, deadline=None)
    @given(
        groups=st.integers(2, 4),
        budget=st.integers(1, 12),
        sinks=st.integers(0, 3),
        n=st.integers(2, 40),
        heads=st.integers(1, 3),
        past=st.integers(0, 3),
        cap=st.sampled_from([1, cache_module.SCORE_CAP]),
        seed=st.integers(0, 2**16),
    )
    def test_a_group_past_the_bound_leaves_the_others_bit_identical(
        self, groups, budget, sinks, n, heads, past, cap, seed
    ):
        past, budgets = past % groups, [budget + sinks] * groups  # one width, so a group's own call matches
        scales = [PAST_BOUND if g == past else 1.0 for g in range(groups)]
        rng = np.random.default_rng(seed)
        k, v = rng.normal(size=(2, groups, n, HEAD_DIM)).astype(np.float32)
        q = _scaled_normal(rng, (groups, heads, n, HEAD_DIM), scales)
        bounded = cache_module._bounded(q, k, v, np.float32(math.sqrt(HEAD_DIM)))
        assert bounded.tolist() == [g != past for g in range(groups)]
        together = _chunk_attention(budgets, sinks, q, k, v, cap)
        for g in range(groups):
            alone = _chunk_attention(budgets[:1], sinks, q[g : g + 1], k[g : g + 1], v[g : g + 1], cap)
            assert together[g].tobytes() == alone[0].tobytes(), g

    @settings(max_examples=60, deadline=None)
    @given(
        extra=st.integers(1, 12),
        sinks=st.integers(0, 3),
        n=st.integers(2, cache_module.BLOCK),
        heads=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_past_the_bound_a_group_keeps_the_normalized_softmax_bit_for_bit(self, extra, sinks, n, heads, seed):
        # one block, so its scores are the whole chunk's: softmax, then the PV product,
        # undivided. The product is taken with the values' ones column, as in the
        # call: BLAS may sum a head_dim + 1 wide product in another order than a head_dim one.
        rng = np.random.default_rng(seed)
        k, v = rng.normal(size=(2, 1, n, HEAD_DIM)).astype(np.float32)
        q = rng.normal(size=(1, heads, n, HEAD_DIM)).astype(np.float32) * np.float32(PAST_BOUND)
        got = _chunk_attention([extra + sinks], sinks, q, k, v)
        scores = (q[0] / np.float32(math.sqrt(HEAD_DIM))).reshape(-1, HEAD_DIM) @ k[0].T
        visible = np.zeros((n, n), bool)
        for i in range(n):
            visible[i, sink_window_trace(extra + sinks, sinks, i + 1)] = True
        scores[~np.tile(visible, (heads, 1))] = -np.inf
        expected = softmax(scores) @ np.concatenate([v[0], np.ones((n, 1), np.float32)], 1)
        assert got[0].reshape(-1, HEAD_DIM).tobytes() == expected[:, :HEAD_DIM].tobytes()

    @pytest.mark.parametrize(
        "poison, where",
        [(np.nan, "q"), (np.inf, "k"), (np.nan, "v"), (np.inf, "v"), (1e34, "v"), (1e20, "q")],
    )
    def test_a_nan_an_inf_or_a_huge_value_fails_the_bound(self, rng, poison, where):
        q = rng.normal(size=(2, 2, 6, HEAD_DIM)).astype(np.float32)
        k, v = rng.normal(size=(2, 2, 6, HEAD_DIM)).astype(np.float32)
        {"q": q[:, 0], "k": k, "v": v}[where][1, 3, 2] = poison  # group 1
        with np.errstate(over="ignore", invalid="ignore"):
            assert cache_module._bounded(q, k, v, 1.0).tolist() == [True, False]


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
        assert fit_violations(bad.budgets, -1) == ["sinks must be >= 0, got -1"]
        assert validate_plan(bad, SMALL) == ["sinks must be >= 0, got -1"]
        with pytest.raises(AllocationError, match="sinks must be >= 0, got -1"):
            build_cache_set(bad, SMALL)
        with pytest.raises(AllocationError, match="sinks must be >= 0, got -1"):
            _cache(budget=4, sinks=-1)

    def test_standalone_cache_below_floor_rejected(self):
        with pytest.raises(AllocationError, match="below floor 3"):
            _cache(budget=2, sinks=2)

    def test_layer_store_below_floor_rejected(self):
        with pytest.raises(AllocationError, match="budget 4 below floor 5 at layer 0 group 0"):
            LayerStore([4], 4, HEAD_DIM)
        with pytest.raises(AllocationError, match="budget 3 below floor 4 at layer 0 group 1"):
            LayerStore([6, 3], 3, HEAD_DIM)

    def test_total_capacity_is_sum_of_budgets(self):
        plan = uniform_plan(SMALL, 0.5)
        caches = build_cache_set(plan, SMALL)
        assert sum(c.budget for c in caches.all_caches()) == int(plan.budgets.sum())

    def test_dimension_mismatch(self):
        plan = uniform_plan(SMALL, 1.0)
        with pytest.raises(AllocationError) as info:
            build_cache_set(plan, ModelConfig())
        assert str(info.value) == "budget matrix shape (2, 2) does not match (4, 4)"
        assert info.value.violations == validate_plan(plan, ModelConfig())

    def test_reset_preserves_budgets(self, rng):
        plan = uniform_plan(SMALL, 0.5)
        caches = build_cache_set(plan, SMALL)
        for grp, cache in enumerate(caches.stores[0].caches):
            _append_each(cache, 6, rng)
        reset(caches)
        assert caches.total_seen == 0
        assert [c.budget for c in caches.stores[0].caches] == plan.budgets[0].tolist()
        cache = caches.stores[0].caches[0]
        _append_each(cache, 3, rng)
        assert cache.retained == 3

    @pytest.mark.parametrize("layer, group", [(0, 1), (1, 0)])
    def test_a_cache_at_another_stream_position_is_named(self, small_model, layer, group, rng):
        caches = build_cache_set(uniform_plan(SMALL, 1.0), SMALL)
        forward_chunk(small_model, [1, 2, 3], caches)
        _append_each(caches.stores[layer].caches[group], 1, rng)  # advanced directly, to position 4
        message = f"cache at layer {layer} group {group} is at stream position 4, not 3"
        with pytest.raises(InputError, match=message):
            caches.total_seen
        with pytest.raises(InputError, match=message):
            forward_chunk(small_model, [4], caches)
        with pytest.raises(InputError, match=message):
            greedy_generate(small_model, [4], 2, caches)

    def test_a_stray_row_stops_forward_chunk_before_it_writes(self, small_model, rng):
        caches = build_cache_set(uniform_plan(SMALL, 1.0), SMALL)
        _append_each(caches.stores[1].caches[1], 1, rng)  # one row past every other cache
        before = [(s.keys.tobytes(), s.values.tobytes(), list(s.seen)) for s in caches.stores]
        with pytest.raises(InputError, match="cache at layer 1 group 1 is at stream position 1, not 0"):
            forward_chunk(small_model, [1, 2, 3], caches)
        assert [(s.keys.tobytes(), s.values.tobytes(), s.seen) for s in caches.stores] == before

    def test_reset_idempotent(self):
        caches = build_cache_set(uniform_plan(SMALL, 1.0), SMALL)
        reset(caches)
        reset(caches)
        assert caches.total_seen == 0


def _wrong_shape_plan():
    """A plan of the default model's (4, 4) shape, for SMALL's (2, 2)."""
    return uniform_plan(ModelConfig(), 0.5)


def _below_floor_plan():
    """SMALL's uniform plan with two budgets cut below the floor 5, so its
    total no longer conserves either."""
    plan = uniform_plan(SMALL, 0.5, sinks=4)
    budgets = plan.budgets.copy()
    budgets[0, 0], budgets[1, 1] = 2, 4
    return AllocationPlan(plan.compression_ratio, 4, budgets, "uniform", PlanParams())


class TestPlanFitRule:
    """Every plan consumer raises the plan-fit rule's one AllocationError:
    validate_plan's leading violations, the first as its message."""

    CONSUMERS = {
        "build_cache_set": lambda model, plan: build_cache_set(plan, SMALL),
        "memory_report": lambda model, plan: memory_report(plan, SMALL),
        "chunked_perplexity": lambda model, plan: chunked_perplexity(model, np.arange(64), 16, plan),
        "evaluate_plans": lambda model, plan: evaluate_plans(
            model, np.arange(64), 16, [uniform_plan(SMALL, 1.0).budgets, plan.budgets], plan.sinks
        ),
    }

    @pytest.mark.parametrize("consumer", CONSUMERS)
    @pytest.mark.parametrize(
        "make_plan, expected",
        [
            (_wrong_shape_plan, ["budget matrix shape (4, 4) does not match (2, 2)"]),
            (_below_floor_plan, ["budget 2 below floor 5 at layer 0 group 0",
                                 "budget 4 below floor 5 at layer 1 group 1"]),
        ],
        ids=["wrong-shape", "below-floor"],
    )
    def test_every_consumer_raises_the_same_error(self, small_model, consumer, make_plan, expected):
        plan = make_plan()
        assert validate_plan(plan, SMALL)[: len(expected)] == expected
        with pytest.raises(AllocationError) as info:
            self.CONSUMERS[consumer](small_model, plan)
        assert str(info.value) == expected[0]
        assert info.value.violations == expected


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

    @pytest.mark.parametrize("width", [2**50, 10**30])
    def test_totals_are_exact_at_any_element_width(self, width):
        # 2 * 512 * 16 = 2**14 bytes per element of each of 16 caches: in int64
        # each cache wraps to 0 at 2**50, and 10**30 overflows
        cfg = ModelConfig()
        report = memory_report(uniform_plan(cfg, 1.0), cfg, bytes_per_element=width)
        assert report["per_cache_bytes"] == [[2**14 * width] * 4] * 4
        assert report["total_bytes"] == 2**18 * width
        assert all(type(b) is int for row in report["per_cache_bytes"] for b in row)

    def test_half_compression_ratio(self):
        cfg = ModelConfig()
        report = memory_report(uniform_plan(cfg, 0.5), cfg)
        assert abs(report["achieved_compression"] - 0.5) < 1.0 / cfg.max_context
