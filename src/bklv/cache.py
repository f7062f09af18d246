"""Budgeted per-(layer, KV-group) key/value stores.

Each store holds at most `budget` tokens. When an append overflows the
budget, the oldest token that is not an attention sink is evicted; the
first `sinks` absolute positions are never evicted. Attention over a
store uses exactly the retained tokens, causally masked by absolute
position.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .allocation import AllocationPlan, floor_violations
from .config import ModelConfig
from .errors import AllocationError, ConfigError, InputError, ShapeError
from .numerics import softmax


def _raise_floor_violations(budgets: np.ndarray, sinks: int) -> None:
    violations = floor_violations(budgets, sinks)
    if violations:
        raise AllocationError(violations[0], violations)


@dataclass
class BudgetedCache:
    """One key/value store with a hard token budget.

    `positions` are absolute token positions, strictly increasing. The
    retained prefix with positions < sinks is permanent; the rest is a
    sliding window over the most recent tokens.
    """

    budget: int
    sinks: int
    head_dim: int
    keys: np.ndarray = field(default=None)  # (retained, head_dim) float32
    values: np.ndarray = field(default=None)  # (retained, head_dim) float32
    positions: np.ndarray = field(default=None)  # (retained,) int64
    total_seen: int = 0

    def __post_init__(self):
        # a standalone cache is checked as the only cache of a 1 x 1 plan
        _raise_floor_violations(np.array([[self.budget]]), self.sinks)
        if self.keys is None:
            self.keys = np.empty((0, self.head_dim), dtype=np.float32)
            self.values = np.empty((0, self.head_dim), dtype=np.float32)
            self.positions = np.empty((0,), dtype=np.int64)

    @property
    def retained(self) -> int:
        return len(self.positions)


def append_and_evict(
    cache: BudgetedCache,
    k_new: np.ndarray,
    v_new: np.ndarray,
    positions: np.ndarray,
) -> None:
    """Append new tokens, then evict oldest non-sink tokens down to budget.

    `positions` must continue the stream: arange(total_seen, total_seen + n).
    Repeated single-token eviction of the oldest non-sink is equivalent to
    keeping the sink prefix plus the most recent tail, which is what this
    does in one step. The stores are replaced by new arrays, never written
    in place.
    """
    k_new = np.asarray(k_new, dtype=np.float32)
    v_new = np.asarray(v_new, dtype=np.float32)
    positions = np.asarray(positions, dtype=np.int64)
    if k_new.ndim != 2 or v_new.ndim != 2 or k_new.shape != v_new.shape:
        raise ShapeError(f"k_new {k_new.shape} and v_new {v_new.shape} must be equal 2-D shapes")
    if k_new.shape[1] != cache.head_dim:
        raise ShapeError(f"row width {k_new.shape[1]} != head_dim {cache.head_dim}")
    n = k_new.shape[0]
    if positions.shape != (n,):
        raise ShapeError(f"positions shape {positions.shape} != ({n},)")
    if positions.tolist() != list(range(cache.total_seen, cache.total_seen + n)):
        raise InputError(
            f"positions must continue from total_seen={cache.total_seen}, got {positions.tolist()}"
        )

    # Of the old rows followed by the new ones, keep the first n_sink (sinks
    # are positions 0..sinks-1) and everything from `cut` on: the tail that
    # fits the budget, or all rows when nothing has to go.
    r = cache.retained
    n_sink = int(cache.positions.searchsorted(cache.sinks) + positions.searchsorted(cache.sinks))
    cut = max(n_sink, r + n - cache.budget + n_sink)
    new_head, new_cut = max(0, n_sink - r), max(0, cut - r)  # the same bounds within the new rows

    def keep(old, new):
        return np.concatenate([old[:n_sink], new[:new_head], old[cut:], new[new_cut:]])

    cache.keys, cache.values = keep(cache.keys, k_new), keep(cache.values, v_new)
    cache.positions = keep(cache.positions, positions)
    cache.total_seen += n


def attend_with_cache(cache: BudgetedCache, q: np.ndarray) -> np.ndarray:
    """Scaled dot-product attention of the newest queries over the store.

    `q` is (t_q, head_dim), or (heads, t_q, head_dim) for several query
    heads that share the store; each head's result is bit-identical to a
    call with that head alone. Row j of a head is the query for absolute
    position total_seen - t_q + j; it attends over retained tokens with
    position <= its own. Returns one output row per query, shaped like `q`.
    """
    q = np.asarray(q, dtype=np.float32)
    if q.ndim not in (2, 3) or q.shape[-1] != cache.head_dim:
        raise ShapeError(f"q shape {q.shape} incompatible with head_dim {cache.head_dim}")
    t_q = q.shape[-2]
    if t_q == 0 or cache.retained == 0:
        raise InputError("attention needs at least one query and one retained token")

    scores = (q @ cache.keys.T) / np.float32(math.sqrt(cache.head_dim))
    if t_q > 1:
        q_pos = np.arange(cache.total_seen - t_q, cache.total_seen, dtype=np.int64)
        masked = cache.positions[None, :] > q_pos[:, None]
        if np.any(np.all(masked, axis=1)):
            raise InputError("a query row has no retained token at or before its position")
        scores = np.where(masked, np.float32(-np.inf), scores)
    return softmax(scores, axis=-1) @ cache.values


@dataclass
class CacheSet:
    """All the budgeted stores of one model: indexed [layer][kv_group]."""

    caches: list[list[BudgetedCache]]
    config: ModelConfig

    @property
    def total_seen(self) -> int:
        return self.caches[0][0].total_seen

    def min_free(self) -> int:
        return min(c.budget - c.retained for row in self.caches for c in row)

    def all_caches(self):
        for row in self.caches:
            yield from row


def build_cache_set(plan: AllocationPlan, config: ModelConfig) -> CacheSet:
    """Empty caches sized from a plan's budget matrix."""
    expected = (config.num_layers, config.num_kv_heads)
    if plan.budgets.shape != expected:
        raise ConfigError(
            f"plan budget matrix {plan.budgets.shape} does not match config {expected}"
        )
    _raise_floor_violations(plan.budgets, plan.sinks)
    caches = [
        [
            BudgetedCache(int(plan.budgets[layer, group]), plan.sinks, config.head_dim)
            for group in range(config.num_kv_heads)
        ]
        for layer in range(config.num_layers)
    ]
    return CacheSet(caches, config)


def reset(cache_set: CacheSet) -> None:
    """Empty every store; budgets and sink counts are preserved."""
    for cache in cache_set.all_caches():
        cache.keys = np.empty((0, cache.head_dim), dtype=np.float32)
        cache.values = np.empty((0, cache.head_dim), dtype=np.float32)
        cache.positions = np.empty((0,), dtype=np.int64)
        cache.total_seen = 0


@dataclass
class MemoryReport:
    """Byte-level accounting of a cache set at a given storage width."""

    bytes_per_element: int
    per_cache_bytes: np.ndarray  # (num_layers, num_kv_heads) int64
    total_bytes: int
    total_budget_tokens: int
    achieved_compression: float

    def as_dict(self) -> dict:
        return {
            "bytes_per_element": self.bytes_per_element,
            "per_cache_bytes": self.per_cache_bytes.tolist(),
            "total_bytes": self.total_bytes,
            "total_budget_tokens": self.total_budget_tokens,
            "achieved_compression": self.achieved_compression,
        }


def memory_report(cache_set: CacheSet, bytes_per_element: int = 2) -> MemoryReport:
    """Bytes per cache and in total: 2 (keys and values) * budget tokens *
    head_dim * bytes_per_element. Also reports the achieved compression
    ratio relative to full context in every cache.
    """
    if bytes_per_element < 1:
        raise InputError(f"bytes_per_element must be >= 1, got {bytes_per_element}")
    cfg = cache_set.config
    budgets = np.array(
        [[c.budget for c in row] for row in cache_set.caches], dtype=np.int64
    )
    per_cache = 2 * budgets * cfg.head_dim * bytes_per_element
    total_tokens = int(budgets.sum())
    ratio = total_tokens / (cfg.num_layers * cfg.num_kv_heads * cfg.max_context)
    return MemoryReport(
        bytes_per_element=bytes_per_element,
        per_cache_bytes=per_cache,
        total_bytes=int(per_cache.sum()),
        total_budget_tokens=total_tokens,
        achieved_compression=ratio,
    )
