"""Perplexity evaluation under budgeted caches, (t, r) grid search, and
the empirical layer sweep.

Losses are mean teacher-forced negative log-likelihoods (natural log);
perplexity is exp(loss). Sweep scores are perplexities, so higher score
means more degradation from compressing that window of layers.
"""

import math

import numpy as np

from .allocation import (
    AllocationPlan,
    DEFAULT_SINKS,
    PlanParams,
    apportion_largest_remainder,
    build_plan,
    check_compression,
    require_fit,
    round_half_up,
    uniform_plan,
)
from .cache import CacheSet, LayerStore, clamp_budgets
from .errors import InputError
from .model import Model, check_context, check_tokens, forward_chunk, forward_layer, output_logits
from .profiling import ImportanceProfile, spearman

DEFAULT_T_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
DEFAULT_R_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_WINDOW = 5
# elements of one batched hidden state (chunks x context_len x d_model), 1 MiB
# of float32: 8 chunks of the README's 256 tokens. A trie walk holds one such
# state per branching node on its path, plus the layer it is running.
HIDDEN_CAP = 1 << 18


def _mean_nll(logits: np.ndarray, tokens: np.ndarray) -> float:
    """Mean of -log softmax(logits[i])[tokens[i + 1]], in float64: each
    row's log-sum-exp is subtracted from its target logit only."""
    x = logits[:-1].astype(np.float64)
    m = np.max(x, axis=-1, keepdims=True)
    shifted = x - m
    lse = m + np.log(np.sum(np.exp(shifted, out=shifted), axis=-1, keepdims=True))
    picked = x[np.arange(tokens.size - 1), tokens[1:]] - lse[:, 0]
    return float(-np.mean(picked))


def chunk_nll(model: Model, tokens, caches: CacheSet) -> float:
    """Mean negative log-likelihood of tokens[1:] given what precedes them,
    teacher-forced through the budgeted caches."""
    tokens = check_tokens(tokens, model.config.vocab_size)
    if tokens.size < 2:
        raise InputError(f"need at least 2 tokens for a loss, got {tokens.size}")
    logits, _ = forward_chunk(model, tokens, caches)
    return _mean_nll(logits, tokens)


def evaluate_plans(
    model: Model,
    corpus_tokens,
    context_len: int,
    budgets: list[np.ndarray],
    sinks: int,
) -> list[float]:
    """Each budget matrix's mean chunk loss over consecutive non-overlapping
    chunks, every matrix with the same sink count.

    The corpus splits into chunks of `context_len` tokens (a trailing
    partial chunk is dropped), each run from empty caches at position 0,
    so chunks run together on forward_layer's batch axis, in one
    attention pass per layer, as many as fit HIDDEN_CAP (one at least).
    A layer's output depends only on its input and its own budget row, so
    the matrices' rows form a trie, walked depth-first once per batch: each
    distinct prefix runs its last layer once for the batch and each leaf
    is scored once. Rows are keyed by their budgets clamped to
    context_len (clamp_budgets). A matrix's loss equals its one-matrix
    evaluation bit for bit. Every matrix must fit (require_fit), checked first.
    """
    corpus_tokens = np.asarray(corpus_tokens)  # its ids are checked below (check_tokens)
    cfg = model.config
    for matrix in budgets:
        require_fit(matrix, sinks, cfg)
    if context_len < 2:
        raise InputError(f"context_len must be >= 2, got {context_len}")
    check_context(0, context_len, cfg)
    if corpus_tokens.size < context_len:
        raise InputError(
            f"corpus has {corpus_tokens.size} tokens; need at least one full "
            f"context (context length {context_len})"
        )
    n_chunks = corpus_tokens.size // context_len
    chunks = check_tokens(corpus_tokens[: n_chunks * context_len], cfg.vocab_size)
    rows = [[clamp_budgets(row, sinks, context_len) for row in matrix.tolist()] for matrix in budgets]
    losses = [[] for _ in budgets]  # per matrix, one loss per chunk in corpus order

    def step(depth, x, row):
        return forward_layer(model, depth, x, LayerStore(list(row) * len(x), sinks, cfg.head_dim))[0]

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

    if not budgets:
        return []
    chunks = chunks.reshape(n_chunks, context_len)
    size = max(1, HIDDEN_CAP // (context_len * cfg.d_model))
    for lo in range(0, n_chunks, size):
        batch = chunks[lo : lo + size]
        walk(0, model.embedding[batch].astype(np.float32, copy=False), range(len(budgets)), batch)
    return [float(np.mean(plan_losses)) for plan_losses in losses]


def chunked_perplexity(model: Model, corpus_tokens, context_len: int, plan: AllocationPlan) -> float:
    """Mean chunk loss of one plan (evaluate_plans); exp() for perplexity."""
    return evaluate_plans(model, corpus_tokens, context_len, [plan.budgets], plan.sinks)[0]


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
) -> dict:
    """Evaluate the head-reallocation plan at every (t, r) grid point.

    Returns the search report, every bklv-search-v1 key but
    format_version. A "grid" entry is {"t", "r", "loss", "feasible"},
    and "feasible" is always True: both reallocation stages keep every
    cut at the budget floor, so a grid plan breaks the floor only when
    the uniform plan at the same compression does, and that plan is
    built first and raises AllocationError with its violations. "best"
    is the {"t", "r"} of the first entry with the minimum loss.
    Out-of-range parameters raise AllocationError before any plan is
    built. The grid plans and the uniform plan ("uniform_loss") are
    scored in one evaluate_plans call, so plans share their common
    layer prefixes and equal plans share one loss.
    """
    if not grid:
        raise InputError("parameter grid is empty")
    cfg = model.config
    params = [PlanParams(t=t, r=r, layer_t=layer_t, layer_r=layer_r) for t, r in grid]
    for p in params:
        p.validate()
    uniform = uniform_plan(cfg, compression, sinks)
    plans = [build_plan(profile, cfg, "baklava", compression, p, sinks) for p in params]
    matrices = [plan.budgets for plan in [uniform, *plans]]
    uniform_loss, *losses = evaluate_plans(model, corpus_tokens, context_len, matrices, sinks)
    points = [
        {"t": p.t, "r": p.r, "loss": loss, "feasible": True} for p, loss in zip(params, losses)
    ]
    best = min(points, key=lambda point: point["loss"])
    return {
        "compression": compression,
        "grid": points,
        "best": {"t": best["t"], "r": best["r"]},
        "best_loss": best["loss"],
        "uniform_loss": uniform_loss,
        "chunks_evaluated": len(corpus_tokens) // context_len,
        "tokens_per_chunk": context_len,
        "sinks": sinks,
        "layer_t": layer_t,
        "layer_r": layer_r,
    }


def layer_sweep(
    model: Model,
    corpus_tokens,
    context_len: int,
    window: int,
    compression: float,
    sinks: int = DEFAULT_SINKS,
) -> dict:
    """Compress a sliding window of layers around each center and score it.

    For center L the window is [max(0, L - window//2),
    min(last_layer, L + window//2)]; only its caches are compressed, to
    round(compression * max_context * caches) tokens apportioned equally,
    and all others keep max_context. The compression range is checked
    before any matrix is built. The score is the chunked perplexity.
    All centers are scored in one evaluate_plans call. Returns the sweep
    report, every bklv-sweep-v1 key but format_version: "bounds" holds each
    center's [lo, hi] and "correlation" is None (heuristic_vs_empirical).
    """
    cfg = model.config
    if window % 2 != 1 or not 1 <= window <= cfg.num_layers:
        raise InputError(
            f"window must be odd and within [1, {cfg.num_layers}], got {window}"
        )
    half = window // 2
    bounds = [
        [max(0, center - half), min(cfg.num_layers - 1, center + half)]
        for center in range(cfg.num_layers)
    ]
    check_compression(compression)
    share = compression * cfg.max_context
    matrices = []
    for lo, hi in bounds:
        matrix = np.full((cfg.num_layers, cfg.num_kv_heads), cfg.max_context, dtype=np.int64)
        window_caches = matrix[lo : hi + 1]
        window_caches.flat = apportion_largest_remainder(
            [share] * window_caches.size, round_half_up(share * window_caches.size)
        )
        matrices.append(matrix)
    losses = evaluate_plans(model, corpus_tokens, context_len, matrices, sinks)
    return {
        "window": window,
        "compression": compression,
        "scores": [float(math.exp(loss)) for loss in losses],
        "bounds": bounds,
        "correlation": None,
    }


def heuristic_vs_empirical(profile: ImportanceProfile, sweep: dict) -> dict:
    """Alignment between the layer heuristic and a layer_sweep report.

    Sweep scores are perplexities, so a higher score already means more
    degradation; the correlation is positive when the heuristic ranks the
    empirically fragile layers as important. Returns the sweep report's
    "correlation" object: "full" and "full_degenerate" over all layers,
    and "trimmed" and "trimmed_degenerate" without the "trim" =
    window//2 layers at each end, where window overlap at the boundaries
    biases scores. Unequal layer counts raise spearman's ShapeError.
    """
    imp = np.asarray(profile.layer_importance, dtype=np.float64)
    scores = np.asarray(sweep["scores"], dtype=np.float64)
    full, full_deg = spearman(imp, scores)
    trim = sweep["window"] // 2
    # fewer than two layers left after trimming is spearman's degenerate case
    kept = slice(trim, imp.size - trim)
    trimmed, trimmed_deg = spearman(imp[kept], scores[kept])
    return {
        "full": full,
        "full_degenerate": full_deg,
        "trimmed": trimmed,
        "trimmed_degenerate": trimmed_deg,
        "trim": trim,
    }
