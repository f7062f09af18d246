"""Perplexity evaluation under budgeted caches, (t, r) grid search, and
the empirical layer sweep.

Losses are mean teacher-forced negative log-likelihoods (natural log);
perplexity is exp(loss). Sweep scores are perplexities, so higher score
means more degradation from compressing that window of layers.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .allocation import (
    AllocationPlan,
    DEFAULT_SINKS,
    PlanParams,
    build_plan,
    uniform_plan,
    window_plan,
)
from .cache import CacheSet, check_plan_fits, layer_caches
from .errors import AllocationError, InputError, ShapeError
from .model import Model, check_tokens, forward_chunk, forward_layer, output_logits
from .numerics import log_softmax_f64
from .profiling import ImportanceProfile, spearman

DEFAULT_T_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
DEFAULT_R_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_WINDOW = 5
# elements of one batched hidden state (chunks x context_len x d_model), 1 MiB
# of float32: 8 chunks of the README's 256 tokens. A trie walk holds one such
# state per branching node on its path, plus the layer it is running.
HIDDEN_CAP = 1 << 18


def _mean_nll(logits: np.ndarray, tokens: np.ndarray) -> float:
    log_probs = log_softmax_f64(logits[:-1])
    picked = log_probs[np.arange(tokens.size - 1), tokens[1:]]
    return float(-np.mean(picked))


def chunk_nll(model: Model, tokens, caches: CacheSet) -> float:
    """Mean negative log-likelihood of tokens[1:] given what precedes them,
    teacher-forced through the budgeted caches."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.size < 2:
        raise InputError(f"need at least 2 tokens for a loss, got {tokens.size}")
    logits, _ = forward_chunk(model, tokens, caches)
    return _mean_nll(logits, tokens)


def evaluate_plans(
    model: Model,
    corpus_tokens,
    context_len: int,
    plans: list[AllocationPlan],
) -> list[float]:
    """Each plan's mean chunk loss over consecutive non-overlapping chunks.

    The corpus splits into chunks of `context_len` tokens (a trailing
    partial chunk is dropped), each run from empty caches. Every chunk
    follows the same stepping schedule, so chunks run together on
    forward_layer's batch axis, as many as fit HIDDEN_CAP (one at least).
    A layer's output depends only on its input and its own budget row, so
    the plans' rows form a trie, walked depth-first once per batch: each
    distinct prefix runs its last layer once for the batch and each leaf
    is scored once. Rows are keyed by sinks and min(budget, context_len),
    since a cache that never fills evicts nothing. A plan's loss equals
    its one-plan evaluation bit for bit.
    """
    corpus_tokens = np.asarray(corpus_tokens, dtype=np.int64)
    cfg = model.config
    if context_len < 2:
        raise InputError(f"context_len must be >= 2, got {context_len}")
    if context_len > cfg.max_context:
        raise InputError(
            f"context_len {context_len} exceeds max_context {cfg.max_context}"
        )
    if corpus_tokens.size < context_len:
        raise InputError(
            f"corpus has {corpus_tokens.size} tokens; need at least one full "
            f"context (context length {context_len})"
        )
    for plan in plans:
        check_plan_fits(plan, cfg)
    n_chunks = corpus_tokens.size // context_len
    chunks = check_tokens(corpus_tokens[: n_chunks * context_len], cfg.vocab_size)
    rows = [
        [(plan.sinks, tuple(min(b, context_len) for b in row)) for row in plan.budgets.tolist()]
        for plan in plans
    ]
    losses = [[] for _ in plans]  # per plan, one loss per chunk in corpus order

    def step(depth, x, key):
        sinks, budgets = key
        caches = layer_caches(list(budgets) * len(x), sinks, cfg.head_dim)
        return forward_layer(model, depth, x, caches)

    def walk(depth, x, members, batch):
        while depth < cfg.num_layers:
            children = {}
            for i in members:
                children.setdefault(rows[i][depth], []).append(i)
            *branches, (key, members) = children.items()
            for branch, group in branches:
                walk(depth + 1, step(depth, x, branch), group, batch)
            # the last child replaces x, so a chain of single children holds
            # one hidden state per branching node, not one per layer
            x = step(depth, x, key)
            depth += 1
        nlls = [_mean_nll(output_logits(model, xb), tokens) for xb, tokens in zip(x, batch)]
        for i in members:
            losses[i].extend(nlls)

    if not plans:
        return []
    chunks = chunks.reshape(n_chunks, context_len)
    size = max(1, HIDDEN_CAP // (context_len * cfg.d_model))
    for lo in range(0, n_chunks, size):
        batch = chunks[lo : lo + size]
        walk(0, model.embedding[batch].astype(np.float32, copy=True), range(len(plans)), batch)
    return [float(np.mean(plan_losses)) for plan_losses in losses]


def chunked_perplexity(model: Model, corpus_tokens, context_len: int, plan: AllocationPlan) -> float:
    """Mean chunk loss of one plan (evaluate_plans); exp() for perplexity."""
    return evaluate_plans(model, corpus_tokens, context_len, [plan])[0]


@dataclass
class GridPoint:
    t: float
    r: float
    loss: float  # NaN when infeasible
    feasible: bool


@dataclass
class SearchReport:
    compression: float
    grid: list[GridPoint]
    best: tuple[float, float] | None  # (t, r) of the minimum feasible loss
    best_loss: float | None
    uniform_loss: float  # same corpus under the uniform plan, for comparison
    chunks_evaluated: int
    tokens_per_chunk: int
    sinks: int = DEFAULT_SINKS
    layer_t: float = 0.0
    layer_r: float = 0.0


def parameter_search(
    model: Model,
    corpus_tokens,
    context_len: int,
    compression: float,
    grid: list[tuple[float, float]],
    profile: ImportanceProfile,
    sinks: int = DEFAULT_SINKS,
    layer_t: float = 0.0,
    layer_r: float = 0.0,
) -> SearchReport:
    """Evaluate the head-reallocation plan at every (t, r) grid point.

    Out-of-range parameters raise AllocationError before any point is
    evaluated. Infeasible points (plan construction fails the budget
    floor) are recorded but excluded from the argmin. The best point is
    the first grid entry achieving the minimum loss. The feasible plans
    and the uniform plan are scored in one evaluate_plans call, so plans
    share their common layer prefixes and equal plans share one loss.
    """
    if not grid:
        raise InputError("parameter grid is empty")
    corpus_tokens = np.asarray(corpus_tokens, dtype=np.int64)
    cfg = model.config
    params = [PlanParams(t=t, r=r, layer_t=layer_t, layer_r=layer_r) for t, r in grid]
    for p in params:
        p.validate()

    def build(p):
        try:
            return build_plan(profile, cfg, "baklava", compression, p, sinks)
        except AllocationError:
            return None

    plans = [build(p) for p in params]
    uniform = uniform_plan(cfg, compression, sinks)
    feasible = [plan for plan in plans if plan is not None]
    uniform_loss, *losses = evaluate_plans(model, corpus_tokens, context_len, [uniform, *feasible])
    losses = iter(losses)
    points = [
        GridPoint(p.t, p.r, math.nan if plan is None else next(losses), plan is not None)
        for p, plan in zip(params, plans)
    ]
    best = None
    best_loss = None
    for point in points:
        if point.feasible and (best_loss is None or point.loss < best_loss):
            best, best_loss = (point.t, point.r), point.loss

    n_chunks = corpus_tokens.size // context_len
    return SearchReport(
        compression=compression,
        grid=points,
        best=best,
        best_loss=best_loss,
        uniform_loss=uniform_loss,
        chunks_evaluated=n_chunks,
        tokens_per_chunk=context_len,
        sinks=sinks,
        layer_t=layer_t,
        layer_r=layer_r,
    )


@dataclass
class SweepReport:
    window: int
    compression: float
    scores: list[float]  # perplexity per center layer; len == num_layers
    bounds: list[tuple[int, int]] = field(default_factory=list)


def layer_sweep(
    model: Model,
    corpus_tokens,
    context_len: int,
    window: int,
    compression: float,
    sinks: int = DEFAULT_SINKS,
) -> SweepReport:
    """Compress a sliding window of layers around each center and score it.

    For center L the window is [max(0, L - window//2),
    min(last_layer, L + window//2)]; only those layers are compressed,
    all others keep full budgets. The score is the chunked perplexity.
    All centers are scored in one evaluate_plans call.
    """
    cfg = model.config
    if window % 2 != 1 or not 1 <= window <= cfg.num_layers:
        raise InputError(
            f"window must be odd and within [1, {cfg.num_layers}], got {window}"
        )
    half = window // 2
    bounds = [
        (max(0, center - half), min(cfg.num_layers - 1, center + half))
        for center in range(cfg.num_layers)
    ]
    plans = [window_plan(cfg, lo, hi, compression, sinks) for lo, hi in bounds]
    losses = evaluate_plans(model, corpus_tokens, context_len, plans)
    scores = [float(math.exp(loss)) for loss in losses]
    return SweepReport(window=window, compression=compression, scores=scores, bounds=bounds)


@dataclass
class CorrelationReport:
    """Alignment between the layer heuristic and the empirical sweep.

    Sweep scores are perplexities, so a higher score already means more
    degradation; the correlation is positive when the heuristic ranks the
    empirically fragile layers as important. The trimmed variant drops
    window//2 layers at each end, where window overlap at the boundaries
    biases scores.
    """

    full: float
    full_degenerate: bool
    trimmed: float
    trimmed_degenerate: bool
    trim: int


def heuristic_vs_empirical(
    profile: ImportanceProfile, sweep: SweepReport
) -> CorrelationReport:
    imp = np.asarray(profile.layer_importance, dtype=np.float64)
    scores = np.asarray(sweep.scores, dtype=np.float64)
    if imp.shape != scores.shape:
        raise ShapeError(
            f"layer importance ({imp.shape}) and sweep scores ({scores.shape}) differ"
        )
    full, full_deg = spearman(imp, scores)
    trim = sweep.window // 2
    # fewer than two layers left after trimming is spearman's degenerate case
    kept = slice(trim, imp.size - trim)
    trimmed, trimmed_deg = spearman(imp[kept], scores[kept])
    return CorrelationReport(full, full_deg, trimmed, trimmed_deg, trim)
