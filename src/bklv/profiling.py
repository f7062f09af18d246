"""One-time importance estimation for heads, KV groups, and layers.

A head that barely changes its tokens (attention output close to its V
input, cosine-wise) is considered unimportant; importance is the
complement of the normalized mean token similarity. KV-group importance
averages the similarities of the query heads sharing the group before
taking the complement. Layer importance applies the same pipeline to the
hidden states entering and leaving each layer.
"""

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from .cache import LayerStore
from .config import ModelConfig
from .errors import InputError, ShapeError
from .model import Model, check_context, check_tokens, forward_layer, model_checksum

MIN_PROMPT_LEN = 32
ZERO_NORM_EPS = 1e-12


@dataclass
class ImportanceProfile:
    """Importance scores for one model, averaged over profiling prompts.

    per_token_similarity, when kept, holds one (layers, tokens, q_heads)
    array of raw token cosines per prompt for heatmap rendering.
    prompt_consistency, for two prompts or more, holds one entry per
    prompt pair i < j: {"a", "b" (prompt ids), "per_layer_spearman"},
    the rank_correlation of the two prompts' own head similarities.
    """

    model_id: str
    prompt_ids: list[str]
    head_similarity: np.ndarray  # (layers, q_heads) in [0, 1]
    kv_importance: np.ndarray  # (layers, kv_groups) in [0, 1]
    layer_importance: np.ndarray  # (layers,) in [0, 1]
    config: ModelConfig
    per_token_similarity: list[np.ndarray] | None = None
    prompt_consistency: list[dict] | None = None


def token_cosine_similarities(v_in: np.ndarray, attn_out: np.ndarray) -> np.ndarray:
    """Cosine between like-indexed rows (the last axis), in [-1, 1].

    Inputs are (..., tokens, width) and broadcast against each other; the
    result drops the last axis. A row whose norm is below 1e-12 on either
    side counts as unchanged (similarity 1).
    """
    a = np.asarray(v_in, dtype=np.float64)
    b = np.asarray(attn_out, dtype=np.float64)
    if min(a.ndim, b.ndim) < 2:
        raise ShapeError(f"inputs must be at least 2-D, got {a.shape} vs {b.shape}")
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as exc:
        raise ShapeError(f"shapes {a.shape} and {b.shape} do not broadcast") from exc
    na = np.linalg.norm(a, axis=-1)
    nb = np.linalg.norm(b, axis=-1)
    # bit-identical rows are exactly unchanged: report 1 with no rounding
    exact = np.all(a == b, axis=-1) | (na < ZERO_NORM_EPS) | (nb < ZERO_NORM_EPS)
    denom = np.where(exact, 1.0, na * nb)
    sims = np.where(exact, 1.0, np.sum(a * b, axis=-1) / denom)
    return np.clip(sims, -1.0, 1.0)


def _unit_mean(token_sims: np.ndarray) -> np.ndarray:
    """Mean over the token (last) axis, mapped from [-1, 1] to [0, 1]."""
    return (np.mean(token_sims, axis=-1) + 1.0) / 2.0


def group_kv_importance(head_sims: np.ndarray, g: int) -> np.ndarray:
    """Per KV group: 1 - mean similarity of its g consecutive query heads."""
    head_sims = np.asarray(head_sims, dtype=np.float64)
    if head_sims.ndim != 2:
        raise ShapeError("head_sims must be (layers, q_heads)")
    layers, q_heads = head_sims.shape
    if g < 1 or q_heads % g != 0:
        raise ShapeError(f"q_heads ({q_heads}) not divisible by group size {g}")
    grouped = head_sims.reshape(layers, q_heads // g, g).mean(axis=2)
    return 1.0 - grouped


def _prompt_id(tokens: np.ndarray) -> str:
    digest = hashlib.sha256(tokens.tobytes()).hexdigest()  # check_tokens' int64 ids
    return f"{tokens.size}:{digest[:12]}"


def profile_model(
    model: Model,
    prompts: list,
    keep_per_token: bool = False,
) -> ImportanceProfile:
    """Run each prompt layer by layer over stores that hold all of it
    (slot j holds token j's V) and reduce.

    Per-head similarities are the unweighted mean over prompts; KV-group
    importances are group means of the reduced similarities, complemented;
    layer importances complement the mean layer similarity. Every prompt is
    checked before any runs: at least MIN_PROMPT_LEN tokens of valid ids
    (check_tokens) that fit in max_context (check_context).
    """
    if not prompts:
        raise InputError("prompt list is empty")
    cfg = model.config
    arrays = []
    for p in prompts:
        arr = check_tokens(p, cfg.vocab_size)
        if arr.size < MIN_PROMPT_LEN:
            raise InputError(
                f"profiling prompt of {arr.size} tokens is below the minimum {MIN_PROMPT_LEN}"
            )
        check_context(0, arr.size, cfg)
        arrays.append(arr)

    layers, kv, g, d = cfg.num_layers, cfg.num_kv_heads, cfg.group_size, cfg.head_dim
    per_prompt_head = []
    per_prompt_layer = []
    per_token = [] if keep_per_token else None
    for arr in arrays:
        t = arr.size
        x = model.embedding[arr[None]].astype(np.float32, copy=False)  # the gather copies
        v_in, heads, xs = [], [], [x[0]]
        for li in range(layers):
            store = LayerStore([t] * kv, 0, d)
            x, h = forward_layer(model, li, x, store)
            v_in.append(store.values)
            heads.append(h[0])
            xs.append(x[0])
        # (layers, q_heads, tokens): every head's token cosines in one pass,
        # each group's V broadcast over its query heads
        out = np.reshape(heads, (layers, kv, g, t, d))
        token_sims = token_cosine_similarities(np.stack(v_in)[:, :, None], out)
        token_sims = token_sims.reshape(layers, kv * g, t)
        per_prompt_head.append(_unit_mean(token_sims))
        xs = np.stack(xs)  # each layer's input, then the last layer's output
        per_prompt_layer.append(_unit_mean(token_cosine_similarities(xs[:-1], xs[1:])))
        if keep_per_token:
            per_token.append(token_sims.transpose(0, 2, 1))

    head_sims = np.mean(per_prompt_head, axis=0)
    layer_sims = np.mean(per_prompt_layer, axis=0)
    ids = [_prompt_id(a) for a in arrays]
    pairs = [
        {"a": a, "b": b, "per_layer_spearman": rank_correlation(sims_a, sims_b).tolist()}
        for (a, sims_a), (b, sims_b) in itertools.combinations(zip(ids, per_prompt_head), 2)
    ]
    return ImportanceProfile(
        model_id=model_checksum(model),
        prompt_ids=ids,
        head_similarity=head_sims,
        kv_importance=group_kv_importance(head_sims, cfg.group_size),
        layer_importance=1.0 - layer_sims,
        config=cfg,
        per_token_similarity=per_token,
        prompt_consistency=pairs or None,
    )


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    s = np.sort(x)
    return (np.searchsorted(s, x, "left") + np.searchsorted(s, x, "right") + 1) / 2


def spearman(x, y) -> tuple[float, bool]:
    """Spearman rank correlation with average-rank ties.

    The Pearson correlation of the average ranks. Returns (coefficient,
    degenerate). Degenerate inputs (a NaN anywhere, a constant vector, or
    fewer than two points) report 0.0 with the flag set; infinities are
    ranked like any other value.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeError(f"expected equal 1-D vectors, got {x.shape} vs {y.shape}")
    if x.size < 2 or np.isnan([x, y]).any() or np.all(x == x[0]) or np.all(y == y[0]):
        return 0.0, True
    ranks = np.column_stack((_average_ranks(x), _average_ranks(y)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0]), False


def rank_correlation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-layer Spearman correlation of two (layers, q_heads) head-similarity
    matrices, such as two prompts' own similarities (prompt_consistency)."""
    if a.ndim != 2 or a.shape != b.shape:
        raise ShapeError(f"expected equal (layers, q_heads) matrices, got {a.shape} vs {b.shape}")
    return np.array([spearman(row_a, row_b)[0] for row_a, row_b in zip(a, b)])
