"""Budgeted forwards on random model shapes against the token-by-token
oracles: one KV group (MQA), group size 1 (MHA), up to 3 layers and
head_dim 2 included, where the other oracle tests run SMALL or the
seed-7 default. Q/K/V weights are scaled by 20, so attention is far from
uniform and a key in the wrong slot, group or head shows."""

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bklv import ModelConfig, build_cache_set, evaluate_plans, forward_chunk, init_model
from bklv import cache as cache_module
from bklv import search as search_module
from bklv.allocation import AllocationPlan, PlanParams

from .reference import reference_budgeted_logits, reference_nll

QKV_GAIN = 20.0


@st.composite
def _models(draw):
    """A model of 1-3 layers, 1-3 KV groups of 1-3 query heads each,
    head_dim 2, 4 or 8 and max_context 8-40, its Q/K/V scaled by QKV_GAIN."""
    kv, group, head_dim = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.sampled_from([2, 4, 8]))
    cfg = ModelConfig(
        num_layers=draw(st.integers(1, 3)),
        num_q_heads=kv * group,
        num_kv_heads=kv,
        head_dim=head_dim,
        d_model=kv * group * head_dim,
        d_ff=draw(st.sampled_from([8, 16, 32])),
        max_context=draw(st.integers(8, 40)),
        seed=draw(st.integers(0, 2**16)),
    )
    model = init_model(cfg)
    layers = [
        dataclasses.replace(layer, **{name: getattr(layer, name) * np.float32(QKV_GAIN)
                                      for name in ("attn_q", "attn_k", "attn_v")})
        for layer in model.layers
    ]
    return dataclasses.replace(model, layers=layers)


def _plans(draw, cfg, count):
    """`count` plans of one sink count 0-3 and budgets at or above the
    floor, some past max_context."""
    plans = []
    sinks = draw(st.integers(0, 3))
    for _ in range(count):
        budget = st.integers(sinks + 1, cfg.max_context + 8)
        budgets = [[draw(budget) for _ in range(cfg.num_kv_heads)] for _ in range(cfg.num_layers)]
        plans.append(AllocationPlan(0.0, sinks, np.array(budgets, dtype=np.int64), "custom", PlanParams()))
    return plans


def _tokens(draw, n):
    return np.array(draw(st.lists(st.integers(0, 256), min_size=n, max_size=n)), dtype=np.int64)


@st.composite
def _chunked_runs(draw):
    """A model, a plan, tokens up to max_context and their random cuts into calls."""
    model = draw(_models())
    cfg = model.config
    n = draw(st.integers(2, cfg.max_context))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=4)))
    return model, _plans(draw, cfg, 1)[0], _tokens(draw, n), cuts


@st.composite
def _evaluations(draw):
    """A model, 1-3 plans, a corpus of 1-3 chunks and random HIDDEN_CAP and
    SCORE_CAP, the first often batching several chunks."""
    model = draw(_models())
    cfg = model.config
    context_len = draw(st.integers(2, cfg.max_context))
    corpus = _tokens(draw, draw(st.integers(context_len, 3 * context_len + 2)))
    hidden_cap = draw(st.integers(1, 3 * context_len * cfg.d_model))
    score_cap = draw(st.sampled_from([1, 7, 50, cache_module.SCORE_CAP]))
    plans = _plans(draw, cfg, draw(st.integers(1, 3)))
    return model, plans, corpus, context_len, hidden_cap, score_cap


@settings(max_examples=60, deadline=None)
@given(_chunked_runs())
def test_forward_chunk_matches_the_stepping_oracle(run):
    model, plan, tokens, cuts = run
    caches = build_cache_set(plan, model.config)
    bounds = [0, *cuts, tokens.size]
    logits = np.concatenate([
        forward_chunk(model, tokens[a:b], caches)[0] for a, b in zip(bounds[:-1], bounds[1:])
    ])
    expected, _ = reference_budgeted_logits(model, tokens, plan.budgets, plan.sinks)
    np.testing.assert_allclose(logits, expected, rtol=0, atol=2e-5)


@settings(max_examples=40, deadline=None)
@given(_evaluations())
def test_evaluate_plans_matches_the_stepping_oracle(case):
    model, plans, corpus, context_len, hidden_cap, score_cap = case
    with mock.patch.object(search_module, "HIDDEN_CAP", hidden_cap), \
            mock.patch.object(cache_module, "SCORE_CAP", score_cap):
        losses = evaluate_plans(model, corpus, context_len, [p.budgets for p in plans], plans[0].sinks)
    starts = range(0, corpus.size - context_len + 1, context_len)
    for plan, loss in zip(plans, losses):
        expected = np.mean([
            reference_nll(model, corpus[a : a + context_len], plan.budgets, plan.sinks)
            for a in starts
        ])
        assert abs(loss - expected) < 1e-5
