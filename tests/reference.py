"""Independent oracles for the test suite.

These reimplement the documented behavior from scratch (loops, literal
rule transcriptions, cache-free forwards) so the production code is
checked against a separately written path, not against itself.
"""

import dataclasses
import functools
import math

import numpy as np

from bklv.cache import append_and_evict, attend_with_cache
from bklv.errors import ShapeError
from bklv.model import _silu, rms_norm, rope_rotate
from bklv.profiling import token_cosine_similarities

RMS_EPS = 1e-5


def naive_row_softmax(scores: np.ndarray) -> np.ndarray:
    out = np.zeros_like(scores, dtype=np.float64)
    for i in range(scores.shape[0]):
        row = scores[i].astype(np.float64)
        e = np.exp(row - row.max())
        out[i] = e / e.sum()
    return out


def brute_attention(q, k, v, causal: bool) -> np.ndarray:
    """Per-row exp/normalize attention; queries are the last len(q) positions."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    t_q, t_k = q.shape[0], k.shape[0]
    out = np.zeros((t_q, v.shape[1]))
    for i in range(t_q):
        limit = t_k if not causal else (t_k - t_q + i + 1)
        scores = np.array([q[i] @ k[j] / math.sqrt(q.shape[1]) for j in range(limit)])
        e = np.exp(scores - scores.max())
        p = e / e.sum()
        out[i] = sum(p[j] * v[j] for j in range(limit))
    return out


def scaled_dot_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """softmax(Q K^T / sqrt(d)) V with causal masking when len(q) > 1.

    Queries are taken to be the last len(q) positions of the key sequence:
    query i attends to keys 0 .. (len(k) - len(q) + i). Dense attention
    over explicit K/V, with no cache: float32 scores, the float64
    naive_row_softmax, and a float32 result.
    """
    q = np.asarray(q, dtype=np.float32)
    k = np.asarray(k, dtype=np.float32)
    v = np.asarray(v, dtype=np.float32)
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ShapeError("q, k, v must be 2-D")
    if q.shape[1] != k.shape[1] or k.shape != v.shape:
        raise ShapeError(f"incompatible shapes q={q.shape} k={k.shape} v={v.shape}")
    t_q, t_k = q.shape[0], k.shape[0]
    if t_q > 1 and t_k < t_q:
        raise ShapeError(f"causal attention needs len(k) >= len(q), got {t_k} < {t_q}")
    scores = (q @ k.T) / np.float32(math.sqrt(q.shape[1]))
    if t_q > 1:
        key_pos = np.arange(t_k)
        query_pos = np.arange(t_k - t_q, t_k)
        scores = np.where(
            key_pos[None, :] > query_pos[:, None], np.float32(-np.inf), scores
        )
    return (naive_row_softmax(scores) @ v.astype(np.float64)).astype(np.float32)


def _ref_rms(x, gain):
    x = x.astype(np.float32)
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        scale = 1.0 / np.sqrt(np.float32(np.mean(x[i] * x[i]) + np.float32(RMS_EPS)))
        out[i] = x[i] * scale * gain
    return out


@functools.lru_cache(maxsize=None)
def _ref_rope_factors(position: int, theta: float, head_dim: int):
    """float32 cos and sin of each pair's angle at one position, memoized:
    the oracles rotate every row of every step again."""
    angles = [float(position) * theta ** (-2.0 * j / head_dim) for j in range(head_dim // 2)]
    return (
        np.array([math.cos(a) for a in angles], dtype=np.float32),
        np.array([math.sin(a) for a in angles], dtype=np.float32),
    )


def _ref_rope_row(vec, position, theta):
    half = vec.shape[-1] // 2
    c, s = _ref_rope_factors(int(position), float(theta), vec.shape[-1])
    x1, x2 = vec[:half], vec[half:]
    return np.concatenate([x1 * c - x2 * s, x1 * s + x2 * c])


def _ref_silu(x):
    return x / (1.0 + np.exp(-x))


def reference_logits(model, tokens, attention: list | None = None) -> np.ndarray:
    """Cache-free full forward over the whole sequence, written separately
    from the production path (per-position rotary, per-head masked
    attention over the full history). If `attention` is a list, each
    head's (tokens, tokens) attention probabilities are appended to it,
    layer by layer and head by head."""
    cfg = model.config
    tokens = np.asarray(tokens, dtype=np.int64)
    t = tokens.size
    g = cfg.group_size
    x = model.embedding[tokens].astype(np.float32)
    for layer in model.layers:
        h = _ref_rms(x, layer.norm1)
        q = (h @ layer.attn_q).reshape(t, cfg.num_q_heads, cfg.head_dim)
        k = (h @ layer.attn_k).reshape(t, cfg.num_kv_heads, cfg.head_dim)
        v = (h @ layer.attn_v).reshape(t, cfg.num_kv_heads, cfg.head_dim)
        for pos in range(t):
            for head in range(cfg.num_q_heads):
                q[pos, head] = _ref_rope_row(q[pos, head], pos, cfg.rope_theta)
            for grp in range(cfg.num_kv_heads):
                k[pos, grp] = _ref_rope_row(k[pos, grp], pos, cfg.rope_theta)
        heads = np.zeros((t, cfg.num_q_heads, cfg.head_dim), dtype=np.float32)
        for head in range(cfg.num_q_heads):
            grp = head // g
            scores = (q[:, head] @ k[:, grp].T) / np.float32(math.sqrt(cfg.head_dim))
            for i in range(t):
                scores[i, i + 1 :] = -np.inf
            probs = naive_row_softmax(scores).astype(np.float32)
            heads[:, head] = probs @ v[:, grp]
            if attention is not None:
                attention.append(probs)
        x = x + heads.reshape(t, -1) @ layer.attn_out
        h2 = _ref_rms(x, layer.norm2)
        x = x + _ref_silu(h2 @ layer.mlp_in) @ layer.mlp_out
    return _ref_rms(x, model.final_norm) @ model.embedding.T


def reference_budgeted_logits(model, tokens, budgets, sinks: int):
    """Token-by-token forward under budgeted sink+window caches.

    Each token runs alone through every layer; its K/V join the layer's
    full history, and each query head attends (brute_attention) over the
    positions that sink_window_trace retains in its group's cache once the
    token is appended. Returns (logits, probes): logits is (tokens, vocab)
    and probes holds head_input_v (layers, kv_groups, tokens, head_dim),
    head_output (layers, q_heads, tokens, head_dim), and layer_input and
    layer_output (layers, tokens, d_model).
    """
    cfg = model.config
    tokens = np.asarray(tokens, dtype=np.int64)
    t = tokens.size
    g = cfg.group_size
    hist_k = np.zeros((cfg.num_layers, cfg.num_kv_heads, t, cfg.head_dim), np.float32)
    hist_v = np.zeros_like(hist_k)
    probes = {
        "head_input_v": np.zeros((cfg.num_layers, cfg.num_kv_heads, t, cfg.head_dim), np.float32),
        "head_output": np.zeros((cfg.num_layers, cfg.num_q_heads, t, cfg.head_dim), np.float32),
        "layer_input": np.zeros((cfg.num_layers, t, cfg.d_model), np.float32),
        "layer_output": np.zeros((cfg.num_layers, t, cfg.d_model), np.float32),
    }
    logits = np.zeros((t, cfg.vocab_size), np.float32)
    for pos in range(t):
        x = model.embedding[tokens[pos : pos + 1]].astype(np.float32)
        for li, layer in enumerate(model.layers):
            probes["layer_input"][li, pos] = x[0]
            h = _ref_rms(x, layer.norm1)
            q = (h @ layer.attn_q).reshape(cfg.num_q_heads, cfg.head_dim)
            k = (h @ layer.attn_k).reshape(cfg.num_kv_heads, cfg.head_dim)
            v = (h @ layer.attn_v).reshape(cfg.num_kv_heads, cfg.head_dim)
            for grp in range(cfg.num_kv_heads):
                hist_k[li, grp, pos] = _ref_rope_row(k[grp], pos, cfg.rope_theta)
                hist_v[li, grp, pos] = v[grp]
                probes["head_input_v"][li, grp, pos] = v[grp]
            heads = np.zeros((cfg.num_q_heads, cfg.head_dim), np.float32)
            for head in range(cfg.num_q_heads):
                grp = head // g
                kept = sink_window_trace(int(budgets[li][grp]), sinks, pos + 1)
                query = _ref_rope_row(q[head], pos, cfg.rope_theta)
                heads[head] = brute_attention(
                    query[None], hist_k[li, grp, kept], hist_v[li, grp, kept], causal=False
                )[0]
                probes["head_output"][li, head, pos] = heads[head]
            x = x + heads.reshape(1, -1) @ layer.attn_out
            h2 = _ref_rms(x, layer.norm2)
            x = x + _ref_silu(h2 @ layer.mlp_in) @ layer.mlp_out
            probes["layer_output"][li, pos] = x[0]
        logits[pos] = (_ref_rms(x, model.final_norm) @ model.embedding.T)[0]
    return logits, probes


def three_projection_step(model, li: int, x, store):
    """forward_layer of one token, x (batch, 1, d_model), as it ran before
    the packed projection: three matmuls with attn_q, attn_k and attn_v,
    their columns scattered into fresh qk and v buffers, qk rotated there,
    one row appended per cache and the token attended over the store.
    Returns (out, heads) as forward_layer does. It shares forward_layer's
    norm, rotary, append and attention, so it checks the packed product
    and its views bit for bit, not those."""
    cfg, layer = model.config, model.layers[li]
    batch, kv, g, d = x.shape[0], cfg.num_kv_heads, cfg.group_size, cfg.head_dim
    qk = np.empty((batch * kv, g + 1, 1, d), np.float32)
    v = np.empty((batch * kv, 1, d), np.float32)
    for b in range(batch):
        h, caches = rms_norm(x[b], layer.norm1), slice(b * kv, (b + 1) * kv)
        qk[caches, :g] = (h @ layer.attn_q).reshape(1, kv, g, d).transpose(1, 2, 0, 3)
        qk[caches, g] = (h @ layer.attn_k).reshape(1, kv, d).transpose(1, 0, 2)
        v[caches] = (h @ layer.attn_v).reshape(1, kv, d).transpose(1, 0, 2)
        qk_b = qk[caches].reshape(-1, 1, d).transpose(1, 0, 2)
        rope_rotate(qk_b, store.seen[0], cfg.rope_theta, out=qk_b)
    for cache, k_new, v_new in zip(store.caches, qk[:, g], v):
        append_and_evict(cache, k_new, v_new)
    heads = attend_with_cache(store, qk[:, :g]).reshape(batch, cfg.num_q_heads, 1, d)
    out = np.empty(x.shape, np.float32)
    for b in range(batch):
        np.add(x[b], heads[b].transpose(1, 0, 2).reshape(1, -1) @ layer.attn_out, out=out[b])
    with np.errstate(over="ignore"):
        for xb in out:
            xb += _silu(rms_norm(xb, layer.norm2) @ layer.mlp_in) @ layer.mlp_out
    return out, heads


def reference_generate(model, prompt, steps: int) -> list[int]:
    """Greedy generation by full recomputation each step (no cache)."""
    seq = list(np.asarray(prompt, dtype=np.int64))
    out = []
    for _ in range(steps):
        logits = reference_logits(model, seq)
        next_id = int(np.argmax(logits[-1]))
        out.append(next_id)
        seq.append(next_id)
    return out


def reference_nll(model, tokens, budgets=None, sinks: int = 0) -> float:
    """Teacher-forced mean NLL, float64, from the cache-free forward, or
    from the token-by-token budgeted forward when budgets are given."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if budgets is None:
        logits = reference_logits(model, tokens)
    else:
        logits, _ = reference_budgeted_logits(model, tokens, budgets, sinks)
    logits = logits.astype(np.float64)
    total = 0.0
    for i in range(1, tokens.size):
        row = logits[i - 1]
        lse = row.max() + math.log(np.sum(np.exp(row - row.max())))
        total += lse - row[tokens[i]]
    return total / (tokens.size - 1)


def head_similarity(v_in, attn_out) -> float:
    """One head's (or layer's) similarity on its own: the mean of its token
    cosines (bklv's token_cosine_similarities) mapped from [-1, 1] to
    [0, 1], the per-head loop that profile_model's one-pass reduction
    replaced."""
    return float((np.mean(token_cosine_similarities(v_in, attn_out)) + 1.0) / 2.0)


def head_importance(similarity: float) -> float:
    return 1.0 - similarity


def layer_similarity(layer_in, layer_out) -> float:
    """head_similarity applied to the hidden states entering and leaving a layer."""
    return head_similarity(layer_in, layer_out)


def sink_window_trace(budget: int, sinks: int, n_tokens: int, chunk_sizes=None):
    """Literal one-token-at-a-time eviction: append, then while over budget
    remove the oldest retained position >= sinks. Returns retained positions."""
    retained: list[int] = []
    for pos in range(n_tokens):
        retained.append(pos)
        while len(retained) > budget:
            for idx, p in enumerate(retained):
                if p >= sinks:
                    del retained[idx]
                    break
            else:
                raise AssertionError("nothing evictable")
    return retained


def reallocation_trace(budgets, importances, t_importance, r, floor=0):
    """Straight-line transcription of the reallocation rule."""
    m = len(budgets)
    low = []
    for i in range(m):
        if importances[i] < t_importance:
            low.append(i)
    if len(low) > m - 1:
        return list(budgets)
    if len(low) == 0:
        return list(budgets)
    out = list(budgets)
    freed = 0
    for i in low:
        cut = math.floor(r * budgets[i])
        if out[i] - cut < floor:
            cut = max(out[i] - floor, 0)
        out[i] = out[i] - cut
        freed = freed + cut
    n = len(low)
    k = min(n, m - n)
    high = [i for i in range(m) if i not in low]
    high_sorted = sorted(high, key=lambda i: (-importances[i], i))
    top = high_sorted[:k]
    each = freed // k
    remainder = freed - each * k
    for i in top:
        out[i] += each
    for i in sorted(top)[:remainder]:
        out[i] += 1
    return out


def spearman_textbook(x, y) -> float:
    """1 - 6*sum(d^2)/(n(n^2-1)); valid for tie-free vectors."""
    x = list(x)
    y = list(y)
    n = len(x)
    rank_x = [sorted(x).index(v) + 1 for v in x]
    rank_y = [sorted(y).index(v) + 1 for v in y]
    d2 = sum((rx - ry) ** 2 for rx, ry in zip(rank_x, rank_y))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def spearman_average_ranks(x, y) -> float:
    """Pearson correlation of average ranks, from the definitions: a value's
    rank is 1 + (number of smaller values) + (number of other equal values) / 2.
    Valid with ties and infinities; the inputs must not be constant."""
    x = list(x)
    y = list(y)
    n = len(x)

    def ranks(v):
        return [1 + sum(u < a for u in v) + (sum(u == a for u in v) - 1) / 2 for a in v]

    rx, ry = ranks(x), ranks(y)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    var_x = sum((a - mx) ** 2 for a in rx)
    var_y = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(var_x * var_y)


README_WORDS = [b"the", b"cache", b"holds", b"keys", b"and", b"values", b"for", b"each",
                b"head", b"token", b"budget", b"memory", b"long", b"context", b"model", b"layer"]


def readme_text(n_bytes: int, seed: int) -> bytes:
    """The README walkthrough's word salad: prompt_a.txt is (260, 1),
    prompt_b.txt (200, 2) and corpus.txt (1100, 3)."""
    rng = np.random.default_rng(seed)
    out, size = [], 0
    while size < n_bytes:
        word = README_WORDS[int(rng.integers(0, len(README_WORDS)))]
        out.append(word)
        size += len(word) + 1
    return b" ".join(out)


def planted_model(model, local_groups, q_gain: float = 40.0, out_gain: float = 10.0):
    """A copy of `model` with a known head structure in every layer.

    Each query head of a KV group in `local_groups` gets W_q = q_gain x its
    group's W_k. Rotary positions turn a query and a key at the same
    position alike, so the head favours its own token and its output stays
    nearer its own V row than a global head's: a low-importance head.
    Measured on the README prompts with the seed-7 model, groups (0, 1)
    local and q_gain 40, the own token takes about half of a local head's
    attention: averaged over positions and local heads, 0.535, 0.501, 0.544
    and 0.480 per layer on prompt_a and 0.588, 0.568, 0.590 and 0.572 on
    prompt_b, and as little as 0.013 at a single position and head.
    Every other group gets W_q = W_k = 0, so all its scores are equal and
    it averages V over the causal prefix: a high-importance head. attn_out
    is scaled by out_gain, so attention dominates the residual stream.
    """
    cfg = model.config
    d, g = cfg.head_dim, cfg.group_size
    layers = []
    for layer in model.layers:
        q, k = layer.attn_q.copy(), layer.attn_k.copy()
        for group in range(cfg.num_kv_heads):
            k_cols = slice(group * d, (group + 1) * d)
            q_cols = slice(group * g * d, (group + 1) * g * d)
            if group in local_groups:
                q[:, q_cols] = q_gain * np.tile(k[:, k_cols], g)
            else:
                q[:, q_cols] = 0.0
                k[:, k_cols] = 0.0
        layers.append(
            dataclasses.replace(layer, attn_q=q, attn_k=k, attn_out=layer.attn_out * out_gain)
        )
    return dataclasses.replace(model, layers=layers)
