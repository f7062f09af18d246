import gc
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bklv import (
    InputError,
    LayerStore,
    Model,
    PlanParams,
    ShapeError,
    append_and_evict,
    build_cache_set,
    build_plan,
    chunk_nll,
    chunked_perplexity,
    evaluate_plans,
    heuristic_vs_empirical,
    init_model,
    layer_sweep,
    parameter_search,
    profile_model,
    uniform_plan,
)
from bklv import io
from bklv import search as search_module
from bklv.allocation import AllocationPlan
from bklv.model import forward_layer

from .conftest import SMALL
from .reference import readme_text, reference_nll, spearman_textbook


def _uniform_logits_model(model):
    """Zeroed embedding ties the output projection to zero: all logits 0."""
    return Model(
        model.config,
        np.zeros_like(model.embedding),
        model.layers,
        model.final_norm,
    )


def _corpus(rng, n):
    return rng.integers(0, 257, size=n)


@pytest.fixture(scope="module")
def small_profile(small_model):
    rng = np.random.default_rng(7)
    return profile_model(small_model, [rng.integers(0, 257, size=48).tolist()])


class TestChunkNll:
    def test_uniform_logits_stub_gives_log_vocab(self, small_model, rng):
        stub = _uniform_logits_model(small_model)
        caches = build_cache_set(uniform_plan(stub.config, 1.0), stub.config)
        nll = chunk_nll(stub, _corpus(rng, 20), caches)
        assert abs(nll - math.log(257)) < 1e-9
        assert abs(math.exp(nll) - 257.0) < 1e-6

    def test_full_budget_matches_cache_free_oracle(self, small_model, rng):
        tokens = _corpus(rng, 24)
        caches = build_cache_set(uniform_plan(small_model.config, 1.0), small_model.config)
        nll = chunk_nll(small_model, tokens, caches)
        assert abs(nll - reference_nll(small_model, tokens)) < 1e-5

    def test_deterministic(self, small_model, rng):
        tokens = _corpus(rng, 16)
        a = chunk_nll(small_model, tokens, build_cache_set(uniform_plan(SMALL, 0.3), SMALL))
        b = chunk_nll(small_model, tokens, build_cache_set(uniform_plan(SMALL, 0.3), SMALL))
        assert a == b

    def test_too_short(self, small_model):
        caches = build_cache_set(uniform_plan(SMALL, 1.0), SMALL)
        with pytest.raises(InputError):
            chunk_nll(small_model, [5], caches)


class TestChunkedPerplexity:
    def test_single_chunk_equals_chunk_nll(self, small_model, rng):
        tokens = _corpus(rng, 32)
        plan = uniform_plan(SMALL, 0.5)
        direct = chunk_nll(small_model, tokens, build_cache_set(plan, SMALL))
        assert chunked_perplexity(small_model, tokens, 32, plan) == direct

    def test_identical_chunks_average_to_one(self, small_model, rng):
        chunk = _corpus(rng, 16)
        doubled = np.concatenate([chunk, chunk])
        plan = uniform_plan(SMALL, 0.5)
        one = chunked_perplexity(small_model, chunk, 16, plan)
        two = chunked_perplexity(small_model, doubled, 16, plan)
        assert abs(two - one) < 1e-12

    def test_trailing_partial_chunk_dropped(self, small_model, rng):
        tokens = _corpus(rng, 40)
        plan = uniform_plan(SMALL, 0.5)
        assert chunked_perplexity(small_model, tokens, 16, plan) == chunked_perplexity(
            small_model, tokens[:32], 16, plan
        )

    def test_full_budget_matches_cache_free_oracle(self, small_model, rng):
        tokens = _corpus(rng, 48)
        plan = uniform_plan(SMALL, 1.0)
        got = chunked_perplexity(small_model, tokens, 24, plan)
        expected = np.mean([reference_nll(small_model, tokens[:24]), reference_nll(small_model, tokens[24:])])
        assert abs(got - expected) < 1e-5

    @pytest.mark.parametrize("context_len", [3, 4])
    def test_chunks_no_longer_than_the_sinks(self, small_model, rng, context_len):
        # every token of a chunk is a sink, so no cache evicts
        tokens = _corpus(rng, 3 * context_len)
        got = chunked_perplexity(small_model, tokens, context_len, uniform_plan(SMALL, 0.5, sinks=4))
        chunks = tokens.reshape(3, context_len)
        assert abs(got - np.mean([reference_nll(small_model, c) for c in chunks])) < 1e-5

    def test_chunk_order_independent(self, small_model, rng):
        tokens = _corpus(rng, 48)
        plan = uniform_plan(SMALL, 0.25)
        chunks = [tokens[:16], tokens[16:32], tokens[32:]]
        losses = [
            chunk_nll(small_model, c, build_cache_set(plan, SMALL)) for c in chunks
        ]
        got = chunked_perplexity(small_model, tokens, 16, plan)
        assert abs(got - np.mean(losses)) < 1e-12

    def test_corpus_too_short(self, small_model, rng):
        with pytest.raises(InputError, match="at least one full context"):
            chunked_perplexity(small_model, _corpus(rng, 10), 16, uniform_plan(SMALL, 1.0))

    def test_context_longer_than_model(self, small_model, rng):
        with pytest.raises(InputError, match="max_context"):
            chunked_perplexity(small_model, _corpus(rng, 200), 100, uniform_plan(SMALL, 1.0))


@st.composite
def _plan_sets(draw):
    """A corpus, a context length and 2-5 plans of one sink count drawn so
    that layer 0 rows repeat (shared prefixes), budgets often reach past
    the context length, and per-layer minimum budgets differ."""
    context_len = draw(st.integers(4, 12))
    size = draw(st.integers(context_len, 2 * context_len + 3))
    corpus = draw(st.lists(st.integers(0, SMALL.vocab_size - 1), min_size=size, max_size=size))
    budget = st.integers(4, 16)  # >= the floor for sinks <= 3
    row = st.lists(budget, min_size=SMALL.num_kv_heads, max_size=SMALL.num_kv_heads)
    first_rows = draw(st.lists(row, min_size=1, max_size=2))
    sinks = draw(st.integers(0, 3))
    plans = []
    for _ in range(draw(st.integers(2, 5))):
        rows = [draw(st.sampled_from(first_rows))]
        rows += [draw(row) for _ in range(SMALL.num_layers - 1)]
        plans.append(_plan(sinks, rows))
    order = draw(st.permutations(range(len(plans))))
    return np.array(corpus), context_len, plans, order


def _plan(sinks, budgets):
    return AllocationPlan(0.0, sinks, np.array(budgets, dtype=np.int64), "custom", PlanParams())


def _reference_loss(model, corpus, context_len, plan):
    """Mean over chunks of the token-by-token budgeted oracle's NLL."""
    starts = range(0, corpus.size - context_len + 1, context_len)
    return float(np.mean([
        reference_nll(model, corpus[a : a + context_len], plan.budgets, plan.sinks) for a in starts
    ]))


class TestEvaluatePlans:
    @settings(max_examples=20, deadline=None)
    @given(_plan_sets())
    # plans 2 and 3 differ only in budgets above context_len
    @example((
        np.arange(100, 124),
        12,
        [_plan(3, [[4, 5], [6, 20]]), _plan(3, [[4, 7], [6, 20]]),
         _plan(3, [[4, 5], [12, 9]]), _plan(3, [[4, 5], [30, 9]])],
        [3, 2, 1, 0],
    ))
    def test_matches_stepping_oracle_and_one_plan_evaluation(self, small_model, case):
        corpus, context_len, plans, order = case
        sinks = plans[0].sinks
        losses = evaluate_plans(small_model, corpus, context_len, [p.budgets for p in plans], sinks)
        for plan, loss in zip(plans, losses):
            assert abs(loss - _reference_loss(small_model, corpus, context_len, plan)) < 1e-5
            assert loss == chunked_perplexity(small_model, corpus, context_len, plan)  # bit-for-bit
        permuted = evaluate_plans(small_model, corpus, context_len, [plans[i].budgets for i in order], sinks)
        assert permuted == [losses[i] for i in order]

    def test_chunk_batches_match_one_chunk_evaluations(self, small_model, rng, monkeypatch):
        # five chunks run as batches of 2, 2 and 1; each chunk's loss is its
        # one-chunk evaluation bit for bit, and the plan loss their mean
        context_len = 12
        corpus = _corpus(rng, 5 * context_len + 3)
        plans = [_plan(2, [[4, 7], [9, 5]]), _plan(2, [[12, 3], [6, 20]])]
        sizes = []

        def counting(model, li, x, store):
            sizes.append(len(x))
            return forward_layer(model, li, x, store)

        # room for two chunks' hidden states, not three
        monkeypatch.setattr(search_module, "HIDDEN_CAP", 3 * context_len * SMALL.d_model - 1)
        monkeypatch.setattr(search_module, "forward_layer", counting)
        losses = evaluate_plans(small_model, corpus, context_len, [p.budgets for p in plans], 2)
        assert sizes == [2] * 8 + [1] * 4  # 2 batches of 2 chunks, then 1, each over 4 prefixes
        monkeypatch.undo()
        for plan, loss in zip(plans, losses):
            chunk_losses = [
                chunked_perplexity(small_model, corpus[i : i + context_len], context_len, plan)
                for i in range(0, 5 * context_len, context_len)
            ]
            assert loss == float(np.mean(chunk_losses))

    def test_a_chain_of_layers_frees_each_hidden_state(self, rng, monkeypatch):
        # one plan is a chain of single children: when a layer runs, no
        # earlier layer's input is still alive
        model = init_model(replace(SMALL, num_layers=4))
        inputs, alive = [], []

        def tracking(model, li, x, store):
            alive.append(sum(ref() is not None for ref in inputs))
            inputs.append(weakref.ref(x))
            return forward_layer(model, li, x, store)

        monkeypatch.setattr(search_module, "forward_layer", tracking)
        evaluate_plans(model, _corpus(rng, 48), 24, [uniform_plan(model.config, 0.5).budgets], 4)
        assert alive == [0, 0, 0, 0]

    def test_stores_and_their_views_form_no_cycle(self, small_model, rng, monkeypatch):
        # a view holds its store's arrays and count lists, not the store, so
        # reference counting alone frees a dropped store, while a view of it
        # lives on, and every store evaluate_plans builds once it returns
        stores = []

        def tracking(model, li, x, store):
            stores.append(weakref.ref(store))
            return forward_layer(model, li, x, store)

        monkeypatch.setattr(search_module, "forward_layer", tracking)
        budgets = [uniform_plan(SMALL, 0.5, sinks=1).budgets, np.array([[4, 7], [9, 5]])]
        gc.disable()
        try:
            store = LayerStore([4, 6], 1, SMALL.head_dim)
            view, dropped = store.caches[1], weakref.ref(store)
            del store
            assert dropped() is None
            row = np.ones((1, SMALL.head_dim), np.float32)
            append_and_evict(view, row, row)
            assert (view.retained, view.total_seen) == (1, 1)
            evaluate_plans(small_model, _corpus(rng, 48), 24, budgets, 1)
            assert len(stores) == 4 and all(ref() is None for ref in stores)
        finally:
            gc.enable()

    def test_a_warm_readme_call_peaks_under_3_5_mib_of_transient_arrays(self, toy_model):
        # the README corpus (4 chunks of 256 tokens, one batch) under the uniform
        # plan: the traced peak of a call's short-lived arrays above what was live
        # at its start. A first call fills the rotary tables. Unlike page-fault
        # counts, which follow the allocator's state, the peak is deterministic
        corpus = np.asarray(io.encode_bytes(readme_text(1100, 3)))
        plan = uniform_plan(toy_model.config, 0.3)
        chunked_perplexity(toy_model, corpus, 256, plan)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            chunked_perplexity(toy_model, corpus, 256, plan)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 3.5 * 2**20, f"{peak / 2**20:.2f} MiB"

    def test_no_plans(self, small_model, rng):
        assert evaluate_plans(small_model, _corpus(rng, 16), 16, [], 4) == []

    def test_token_out_of_range(self, small_model):
        corpus = np.full(16, SMALL.vocab_size)
        with pytest.raises(InputError, match="out of range"):
            evaluate_plans(small_model, corpus, 16, [uniform_plan(SMALL, 1.0).budgets], 4)


class TestParameterSearch:
    def test_singleton_grid_is_best(self, small_model, small_profile, rng):
        corpus = _corpus(rng, 96)
        report = parameter_search(
            small_model, corpus, 48, 0.3, [(0.6, 0.4)], small_profile
        )
        assert report["best"] == {"t": 0.6, "r": 0.4}
        assert report["best_loss"] == report["grid"][0]["loss"]

    def test_noop_anchor_equals_uniform_loss_exactly(self, small_model, small_profile, rng):
        corpus = _corpus(rng, 96)
        report = parameter_search(
            small_model, corpus, 48, 0.3, [(0.0, 0.0), (0.7, 0.5)], small_profile
        )
        anchor = report["grid"][0]
        assert anchor["t"] == 0.0 and anchor["r"] == 0.0
        assert anchor["loss"] == report["uniform_loss"]  # bit-for-bit

    def test_argmin_matches_bruteforce_reevaluation(self, small_model, small_profile, rng):
        corpus = _corpus(rng, 96)
        grid = [(t, r) for t in (0.5, 0.7, 0.9) for r in (0.2, 0.5)]
        report = parameter_search(small_model, corpus, 48, 0.25, grid, small_profile)
        # brute-force re-run, first-in-grid tie-break
        best = None
        best_loss = None
        for t, r in grid:
            plan = build_plan(
                small_profile, SMALL, "baklava", 0.25, PlanParams(t=t, r=r), 4
            )
            loss = chunked_perplexity(small_model, corpus, 48, plan)
            if best_loss is None or loss < best_loss:
                best, best_loss = (t, r), loss
        assert report["best"] == {"t": best[0], "r": best[1]}
        assert report["best_loss"] == best_loss

    def test_losses_finite_and_positive(self, small_model, small_profile, rng):
        corpus = _corpus(rng, 96)
        report = parameter_search(
            small_model, corpus, 48, 0.3, [(0.5, 0.3), (0.9, 0.8)], small_profile
        )
        for p in report["grid"]:
            assert p["feasible"]
            assert math.isfinite(p["loss"]) and p["loss"] > 0

    def test_each_distinct_plan_is_evaluated_once(self, small_model, small_profile, rng, monkeypatch):
        # At these thresholds (0.63, r) reallocates only layer 0 and
        # (0.65, r) only layer 1, so plans share layer prefixes; t = 0 or
        # r = 0 builds the uniform plan. (0.64, 0.3) builds the plan of
        # (0.63, 0.3), and its budgets above context_len are raised below.
        corpus = _corpus(rng, 96)
        context_len, compression, twin_point = 48, 0.75, (0.64, 0.3)
        grid = [(t, r) for t in (0.0, 0.63, 0.65) for r in (0.0, 0.3, 0.6)] + [twin_point]

        def building(profile, cfg, strategy, compression, params, sinks):
            plan = build_plan(profile, cfg, strategy, compression, params, sinks)
            if (params.t, params.r) == twin_point:
                budgets = np.where(plan.budgets > context_len, cfg.max_context, plan.budgets)
                plan = replace(plan, budgets=budgets)
            return plan

        monkeypatch.setattr(search_module, "build_plan", building)
        plans = [building(small_profile, SMALL, "baklava", compression, PlanParams(t=t, r=r), 4) for t, r in grid]
        twin, canonical_twin = plans[-1], plans[grid.index((0.63, 0.3))]
        assert twin.budgets.max() > context_len and not np.array_equal(twin.budgets, canonical_twin.budgets)

        def prefixes(plan):
            rows = np.minimum(plan.budgets, context_len).tolist()
            return {(plan.sinks, *map(tuple, rows[: depth + 1])) for depth in range(SMALL.num_layers)}

        nodes = set().union(*map(prefixes, [*plans, uniform_plan(SMALL, compression)]))
        assert prefixes(twin) == prefixes(canonical_twin)
        assert len(nodes) == 8  # layer 0: uniform and two (0.63, r) rows; layer 1: five plans

        calls = []

        def counting(model, li, x, store):
            calls.append(len(x))
            return forward_layer(model, li, x, store)

        monkeypatch.setattr(search_module, "forward_layer", counting)
        report = parameter_search(small_model, corpus, context_len, compression, grid, small_profile)
        # one call per canonical prefix, with every chunk on its batch axis
        assert calls == [report["chunks_evaluated"]] * len(nodes)
        monkeypatch.undo()
        for point, plan in zip(report["grid"], plans):
            assert point["loss"] == chunked_perplexity(small_model, corpus, context_len, plan)  # bit-for-bit
        assert report["grid"][-1]["loss"] == report["grid"][grid.index((0.63, 0.3))]["loss"]
        assert report["uniform_loss"] == report["grid"][0]["loss"]  # (0, 0) is the uniform plan

    def test_empty_grid(self, small_model, small_profile, rng):
        with pytest.raises(InputError):
            parameter_search(small_model, _corpus(rng, 48), 48, 0.3, [], small_profile)


class TestLayerSweep:
    def test_scores_length_and_bounds(self, small_model, rng):
        corpus = _corpus(rng, 48)
        report = layer_sweep(small_model, corpus, 24, 1, 0.5)
        assert len(report["scores"]) == SMALL.num_layers
        assert report["bounds"] == [[0, 0], [1, 1]]

    def test_full_compression_flat(self, small_model, rng):
        corpus = _corpus(rng, 48)
        report = layer_sweep(small_model, corpus, 24, 1, 1.0)
        assert len(set(report["scores"])) == 1

    def test_window_clamping(self, toy_model, rng):
        corpus = rng.integers(0, 257, size=32)
        report = layer_sweep(toy_model, corpus, 16, 3, 1.0)
        assert report["bounds"][0] == [0, 1]
        assert report["bounds"][-1] == [2, 3]

    def test_invalid_window(self, small_model, rng):
        with pytest.raises(InputError):
            layer_sweep(small_model, _corpus(rng, 48), 24, 2, 0.5)
        with pytest.raises(InputError):
            layer_sweep(small_model, _corpus(rng, 48), 24, 5, 0.5)

    def test_single_layer_model_window_covers_model(self, rng):
        from bklv import init_model

        cfg = replace(SMALL, num_layers=1)
        model = init_model(cfg)
        corpus = _corpus(rng, 48)
        report = layer_sweep(model, corpus, 24, 1, 0.5)
        assert len(report["scores"]) == 1
        assert report["bounds"] == [[0, 0]]


class TestHeuristicVsEmpirical:
    @pytest.mark.parametrize("n_scores", [1, 3])
    def test_scores_of_the_wrong_length_raise(self, small_profile, n_scores):
        # small_profile has 2 layers; spearman states the equal-vectors rule
        sweep = {"window": 1, "scores": [2.0, 1.0, 3.0][:n_scores]}
        with pytest.raises(ShapeError, match=r"expected equal 1-D vectors, got \(2,\) vs"):
            heuristic_vs_empirical(small_profile, sweep)

    def test_constant_scores_degenerate(self, small_profile):
        sweep = {"window": 1, "scores": [2.0, 2.0]}
        report = heuristic_vs_empirical(small_profile, sweep)
        assert report["full"] == 0.0 and report["full_degenerate"]

    def test_anti_aligned_gives_minus_one(self, small_model):
        profile = profile_model(small_model, [list(range(40))])
        imps = profile.layer_importance
        # scores strictly decreasing where importance increases
        order = np.argsort(imps)
        scores = np.empty(len(imps))
        scores[order] = np.linspace(5.0, 1.0, len(imps))
        sweep = {"window": 1, "scores": scores.tolist()}
        report = heuristic_vs_empirical(profile, sweep)
        assert abs(report["full"] + 1.0) < 1e-12
        assert abs(report["trimmed"] + 1.0) < 1e-12  # window 1: no trimming

    def test_matches_textbook_spearman(self, toy_model, rng):
        profile = profile_model(toy_model, [rng.integers(0, 257, size=64).tolist()])
        scores = rng.normal(size=toy_model.config.num_layers).tolist()
        sweep = {"window": 1, "scores": scores}
        report = heuristic_vs_empirical(profile, sweep)
        assert abs(report["full"] - spearman_textbook(profile.layer_importance, scores)) < 1e-9

    def test_trimmed_excludes_boundary_layers(self, toy_model, rng):
        profile = profile_model(toy_model, [rng.integers(0, 257, size=64).tolist()])
        scores = [10.0, 1.0, 2.0, 10.0]  # extreme ends
        sweep = {"window": 3, "scores": scores}
        report = heuristic_vs_empirical(profile, sweep)
        assert report["trim"] == 1
        imp = profile.layer_importance
        assert abs(report["trimmed"] - spearman_textbook(imp[1:3], scores[1:3])) < 1e-9
