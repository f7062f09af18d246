"""Independent oracles for the test suite.

These reimplement the documented behavior from scratch (loops, literal
rule transcriptions, cache-free forwards) so the production code is
checked against a separately written path, not against itself.
"""

import functools
import math

import numpy as np

from bklv.errors import ShapeError
from bklv.numerics import softmax

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
    query i attends to keys 0 .. (len(k) - len(q) + i). Dense float32
    attention over explicit K/V, with no cache.
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
    return softmax(scores, axis=-1) @ v


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


def reference_logits(model, tokens) -> np.ndarray:
    """Cache-free full forward over the whole sequence, written separately
    from the production path (per-position rotary, per-head masked
    attention over the full history)."""
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
    and probes holds head_input_v, head_output, layer_input and
    layer_output in ProbeCapture's shapes.
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
