import math
from dataclasses import replace

import numpy as np
import pytest

from bklv import (
    InputError,
    Model,
    PlanParams,
    build_cache_set,
    build_plan,
    chunk_nll,
    chunked_perplexity,
    heuristic_vs_empirical,
    layer_sweep,
    parameter_search,
    profile_model,
    uniform_plan,
)
from bklv import search as search_module
from bklv.search import SweepReport

from .conftest import SMALL
from .reference import reference_nll, spearman_textbook


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


class TestParameterSearch:
    def test_singleton_grid_is_best(self, small_model, small_profile, rng):
        corpus = _corpus(rng, 96)
        report = parameter_search(
            small_model, corpus, 48, 0.3, [(0.6, 0.4)], small_profile
        )
        assert report.best == (0.6, 0.4)
        assert report.best_loss == report.grid[0].loss

    def test_noop_anchor_equals_uniform_loss_exactly(self, small_model, small_profile, rng):
        corpus = _corpus(rng, 96)
        report = parameter_search(
            small_model, corpus, 48, 0.3, [(0.0, 0.0), (0.7, 0.5)], small_profile
        )
        anchor = report.grid[0]
        assert anchor.t == 0.0 and anchor.r == 0.0
        assert anchor.loss == report.uniform_loss  # bit-for-bit

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
        assert report.best == best
        assert report.best_loss == best_loss

    def test_losses_finite_and_positive(self, small_model, small_profile, rng):
        corpus = _corpus(rng, 96)
        report = parameter_search(
            small_model, corpus, 48, 0.3, [(0.5, 0.3), (0.9, 0.8)], small_profile
        )
        for p in report.grid:
            assert p.feasible
            assert math.isfinite(p.loss) and p.loss > 0

    def test_each_distinct_plan_is_evaluated_once(self, small_model, small_profile, rng, monkeypatch):
        corpus = _corpus(rng, 96)
        grid = [(t, r) for t in (0.0, 0.5, 0.7, 0.9) for r in (0.0, 0.3, 0.6)]
        plans = [build_plan(small_profile, SMALL, "baklava", 0.3, PlanParams(t=t, r=r)) for t, r in grid]
        plans.append(uniform_plan(SMALL, 0.3))
        distinct = {p.budgets.tobytes() for p in plans}
        assert len(distinct) < len(grid)  # the grid repeats plans: (0, r) and (t, 0) are uniform

        calls = []

        def counting(model, corpus_tokens, context_len, plan):
            calls.append(plan.budgets.tobytes())
            return chunked_perplexity(model, corpus_tokens, context_len, plan)

        monkeypatch.setattr(search_module, "chunked_perplexity", counting)
        report = parameter_search(small_model, corpus, 48, 0.3, grid, small_profile)
        assert sorted(calls) == sorted(distinct)
        for point, plan in zip(report.grid, plans):
            assert point.loss == chunked_perplexity(small_model, corpus, 48, plan)
        assert report.uniform_loss == report.grid[0].loss  # (0, 0) is the uniform plan

    def test_empty_grid(self, small_model, small_profile, rng):
        with pytest.raises(InputError):
            parameter_search(small_model, _corpus(rng, 48), 48, 0.3, [], small_profile)


class TestLayerSweep:
    def test_scores_length_and_bounds(self, small_model, rng):
        corpus = _corpus(rng, 48)
        report = layer_sweep(small_model, corpus, 24, 1, 0.5)
        assert len(report.scores) == SMALL.num_layers
        assert report.bounds == [(0, 0), (1, 1)]

    def test_full_compression_flat(self, small_model, rng):
        corpus = _corpus(rng, 48)
        report = layer_sweep(small_model, corpus, 24, 1, 1.0)
        assert len(set(report.scores)) == 1

    def test_window_clamping(self, toy_model, rng):
        corpus = rng.integers(0, 257, size=32)
        report = layer_sweep(toy_model, corpus, 16, 3, 1.0)
        assert report.bounds[0] == (0, 1)
        assert report.bounds[-1] == (2, 3)

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
        assert len(report.scores) == 1
        assert report.bounds == [(0, 0)]


class TestHeuristicVsEmpirical:
    def test_constant_scores_degenerate(self, small_profile):
        sweep = SweepReport(window=1, compression=1.0, scores=[2.0, 2.0], bounds=[(0, 0), (1, 1)])
        report = heuristic_vs_empirical(small_profile, sweep)
        assert report.full == 0.0 and report.full_degenerate

    def test_anti_aligned_gives_minus_one(self, small_model):
        profile = profile_model(small_model, [list(range(40))])
        imps = profile.layer_importance
        # scores strictly decreasing where importance increases
        order = np.argsort(imps)
        scores = np.empty(len(imps))
        scores[order] = np.linspace(5.0, 1.0, len(imps))
        sweep = SweepReport(window=1, compression=0.5, scores=scores.tolist(), bounds=[])
        report = heuristic_vs_empirical(profile, sweep)
        assert abs(report.full + 1.0) < 1e-12
        assert abs(report.trimmed + 1.0) < 1e-12  # window 1: no trimming

    def test_matches_textbook_spearman(self, toy_model, rng):
        profile = profile_model(toy_model, [rng.integers(0, 257, size=64).tolist()])
        scores = rng.normal(size=toy_model.config.num_layers).tolist()
        sweep = SweepReport(window=1, compression=0.5, scores=scores, bounds=[])
        report = heuristic_vs_empirical(profile, sweep)
        assert abs(report.full - spearman_textbook(profile.layer_importance, scores)) < 1e-9

    def test_trimmed_excludes_boundary_layers(self, toy_model, rng):
        profile = profile_model(toy_model, [rng.integers(0, 257, size=64).tolist()])
        scores = [10.0, 1.0, 2.0, 10.0]  # extreme ends
        sweep = SweepReport(window=3, compression=0.5, scores=scores, bounds=[])
        report = heuristic_vs_empirical(profile, sweep)
        assert report.trim == 1
        imp = profile.layer_importance
        assert abs(report.trimmed - spearman_textbook(imp[1:3], scores[1:3])) < 1e-9
