"""Budgeted per-(layer, KV-group) key/value stores.

Each store holds at most `budget` tokens. When an append overflows the
budget, the oldest token that is not an attention sink is evicted; the
first `sinks` absolute positions are never evicted. Attention over a
store uses exactly the retained tokens, causally masked by absolute
position.

The caches of one layer share one preallocated LayerStore, padded to the
layer's largest budget, and a BudgetedCache is a view of one group's
slots. Position p lives in slot p if p < sinks, else in ring slot
sinks + (p - sinks) % (budget - sinks), so an eviction is one overwrite.
Keys are stored transposed; one attention call over a layer's store
serves all its KV groups and query heads.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .allocation import AllocationPlan, floor_violations
from .config import ModelConfig
from .errors import AllocationError, ConfigError, InputError, ShapeError
from .numerics import softmax


EMPTY = np.iinfo(np.int64).max  # the position of an unused slot: no query sees it
SCORE_CAP = 1 << 17  # elements in one attention score buffer: 512 KiB of float32


def _raise_floor_violations(budgets: np.ndarray, sinks: int) -> None:
    violations = floor_violations(budgets, sinks)
    if violations:
        raise AllocationError(violations[0], violations)


class LayerStore:
    """The preallocated rows of one layer's KV groups.

    keys are (groups, head_dim, width) float32, transposed, values
    (groups, width, head_dim) float32 and positions (groups, width) int64,
    with width the layer's largest budget. Group g fills slots
    0..lengths[g]-1 (see BudgetedCache); its other slots are zero at
    position EMPTY. seen[g] counts the tokens ever appended to group g.
    """

    def __init__(self, groups: int, width: int, head_dim: int):
        self.keys = np.zeros((groups, head_dim, width), dtype=np.float32)
        self.values = np.zeros((groups, width, head_dim), dtype=np.float32)
        self.positions = np.full((groups, width), EMPTY, dtype=np.int64)
        self.lengths = [0] * groups
        self.seen = [0] * groups

    @property
    def retained(self) -> int:
        """The live width: the most rows any group holds."""
        return max(self.lengths)

    def clear(self) -> None:
        self.keys.fill(0)
        self.values.fill(0)
        self.positions.fill(EMPTY)
        self.lengths[:] = [0] * len(self.lengths)
        self.seen[:] = [0] * len(self.seen)


@dataclass(eq=False)
class BudgetedCache:
    """One KV group's slots of a layer store, with a hard token budget.

    Sink positions p < sinks are permanent, in slots 0..sinks-1; the rest
    is a sliding window over the most recent tokens, p in ring slot
    sinks + (p - sinks) % (budget - sinks). `keys`, `values` and
    `positions` are (retained, ...) views of the filled slots, in slot
    order; a cache built on its own gets a one-group store.
    """

    budget: int
    sinks: int
    head_dim: int
    store: LayerStore = field(default=None, repr=False)
    group: int = 0

    def __post_init__(self):
        if self.store is None:
            # a standalone cache is checked as the only cache of a 1 x 1 plan
            _raise_floor_violations(np.array([[self.budget]]), self.sinks)
            self.store = LayerStore(1, self.budget, self.head_dim)
        s, g = self.store, self.group
        self.slots = (s.keys[g], s.values[g], s.positions[g])  # full width, keys transposed

    @property
    def retained(self) -> int:
        return self.store.lengths[self.group]

    @property
    def total_seen(self) -> int:
        return self.store.seen[self.group]

    @property
    def keys(self) -> np.ndarray:  # (retained, head_dim) float32
        return self.slots[0][:, : self.retained].T

    @property
    def values(self) -> np.ndarray:  # (retained, head_dim) float32
        return self.slots[1][: self.retained]

    @property
    def positions(self) -> np.ndarray:  # (retained,) int64
        return self.slots[2][: self.retained]


def append_and_evict(cache: BudgetedCache, k_new: np.ndarray, v_new: np.ndarray) -> None:
    """Append new tokens, then evict oldest non-sink tokens down to budget.

    The new rows are the stream positions total_seen..total_seen + n - 1.
    Repeated single-token eviction of the oldest non-sink is equivalent to
    keeping the sink prefix plus the most recent tail. Every position has a
    fixed slot (see BudgetedCache), so this writes only the new rows that
    are kept, in place over the rows they evict: the new sinks, then the
    last budget - sinks others in at most two runs of ring slots.
    """
    k_new = np.asarray(k_new, dtype=np.float32)
    v_new = np.asarray(v_new, dtype=np.float32)
    if k_new.ndim != 2 or v_new.ndim != 2 or k_new.shape != v_new.shape:
        raise ShapeError(f"k_new {k_new.shape} and v_new {v_new.shape} must be equal 2-D shapes")
    if k_new.shape[1] != cache.head_dim:
        raise ShapeError(f"row width {k_new.shape[1]} != head_dim {cache.head_dim}")

    # Kept: new sinks seen..min(sinks, total)-1 in their own slots, then new
    # others first..total-1 from ring slot `ring`, wrapping to `sinks` at `wrap`.
    store, g, sinks, budget = cache.store, cache.group, cache.sinks, cache.budget
    seen = cache.total_seen
    total = seen + len(k_new)
    first = max(sinks, seen, total - (budget - sinks))
    ring = sinks + (first - sinks) % (budget - sinks)
    wrap = min(total, first + budget - ring)
    keys, values, slot_positions = cache.slots
    for a, e, slot in ((seen, min(sinks, total), seen), (first, wrap, ring), (wrap, total, sinks)):
        if a < e:
            rows, dest = slice(a - seen, e - seen), slice(slot, slot + e - a)
            keys[:, dest] = k_new[rows].T
            values[dest] = v_new[rows]
            slot_positions[dest] = np.arange(a, e)
    store.lengths[g] = min(total, budget)
    store.seen[g] = total


def attend_with_cache(cache: BudgetedCache | LayerStore, q: np.ndarray) -> np.ndarray:
    """Scaled dot-product attention of the newest queries over retained tokens.

    `cache` is one BudgetedCache or a whole LayerStore, and `q` is
    (groups, heads, t_q, head_dim): every query head of every group in
    one call. One group may also pass (heads, t_q, head_dim) or
    (t_q, head_dim). Row j of a group's queries is for absolute position
    total_seen - t_q + j of that group; it attends over the group's
    retained tokens with position <= its own. Only the live width (the
    most rows any group holds) is read; unused slots are masked by their
    EMPTY position. Groups run in tiles whose score buffer holds at most
    SCORE_CAP elements (one group at least); each group's result is the
    same whatever the tiling. Returns one output row per query, shaped
    like `q`.
    """
    store = cache if isinstance(cache, LayerStore) else cache.store
    g = slice(None) if cache is store else slice(cache.group, cache.group + 1)
    keys_t, values, positions = store.keys[g], store.values[g], store.positions[g]
    lengths, seen = store.lengths[g], store.seen[g]
    q = np.asarray(q, dtype=np.float32)
    groups, d, _ = keys_t.shape
    if q.ndim not in (2, 3, 4) or q.shape[-1] != d or (q.shape[0] if q.ndim == 4 else 1) != groups:
        raise ShapeError(f"q shape {q.shape} incompatible with {groups} groups of head_dim {d}")
    t_q = q.shape[-2]
    width = max(lengths)
    if t_q == 0 or min(lengths) == 0:
        raise InputError("attention needs at least one query and one retained token")

    rows = q.reshape(groups, -1, d)  # a group's query heads folded into rows
    heads = rows.shape[1] // t_q
    masked = t_q > 1 or min(lengths) < width
    if masked:
        q_pos = np.add.outer(seen, np.arange(-t_q, 0))  # (groups, t_q)
    step = max(1, SCORE_CAP // (heads * t_q * width))
    tiles = []
    for lo in range(0, groups, step):
        hi = lo + step
        scores = rows[lo:hi] @ keys_t[lo:hi, :, :width]  # (tile, heads * t_q, width)
        scores /= np.float32(math.sqrt(d))
        if masked:
            hidden = positions[lo:hi, None, None, :width] > q_pos[lo:hi, None, :, None]
            if t_q > 1 and np.any(np.all(hidden, axis=-1)):
                raise InputError("a query row has no retained token at or before its position")
            np.copyto(scores.reshape(-1, heads, t_q, width), np.float32(-np.inf), where=hidden)
        softmax(scores, out=scores)
        tiles.append(scores @ values[lo:hi, :width])
    # a single tile is returned as is, without a copy
    return (tiles[0] if len(tiles) == 1 else np.concatenate(tiles)).reshape(q.shape)


@dataclass
class CacheSet:
    """All the budgeted stores of one model: indexed [layer][kv_group]."""

    caches: list[list[BudgetedCache]]
    config: ModelConfig

    @property
    def stores(self) -> list[LayerStore]:
        """Each layer's store, which its caches share."""
        return [row[0].store for row in self.caches]

    @property
    def total_seen(self) -> int:
        """The stream position of every cache; InputError if one differs."""
        seen = self.caches[0][0].total_seen
        for layer, row in enumerate(self.caches):
            for group, cache in enumerate(row):
                if cache.total_seen != seen:
                    raise InputError(
                        f"cache at layer {layer} group {group} is at stream position "
                        f"{cache.total_seen}, not {seen}"
                    )
        return seen

    def all_caches(self):
        for row in self.caches:
            yield from row


def check_plan_fits(plan: AllocationPlan, config: ModelConfig) -> None:
    """Raise unless the plan's budget matrix fits the config and meets the floor."""
    expected = (config.num_layers, config.num_kv_heads)
    if plan.budgets.shape != expected:
        raise ConfigError(
            f"plan budget matrix {plan.budgets.shape} does not match config {expected}"
        )
    _raise_floor_violations(plan.budgets, plan.sinks)


def layer_caches(budgets: list[int], sinks: int, head_dim: int) -> list[BudgetedCache]:
    """Empty caches of one layer, one per KV group, sharing one store."""
    store = LayerStore(len(budgets), max(budgets), head_dim)
    return [BudgetedCache(b, sinks, head_dim, store, g) for g, b in enumerate(budgets)]


def build_cache_set(plan: AllocationPlan, config: ModelConfig) -> CacheSet:
    """Empty caches sized from a plan's budget matrix, one store per layer."""
    check_plan_fits(plan, config)
    rows = plan.budgets.tolist()
    return CacheSet([layer_caches(row, plan.sinks, config.head_dim) for row in rows], config)


def reset(cache_set: CacheSet) -> None:
    """Empty every store in place; budgets and sink counts are preserved."""
    for store in cache_set.stores:
        store.clear()


def memory_report(plan: AllocationPlan, config: ModelConfig, bytes_per_element: int = 2) -> dict:
    """Bytes per cache and in total: 2 (keys and values) * budget tokens *
    head_dim * bytes_per_element, with the plan's achieved compression
    ratio relative to full context in every cache. This counts budgeted
    tokens, not the float32 layer stores, which are padded to each layer's
    largest budget.
    """
    check_plan_fits(plan, config)
    if bytes_per_element < 1:
        raise InputError(f"bytes_per_element must be >= 1, got {bytes_per_element}")
    per_cache = 2 * plan.budgets * config.head_dim * bytes_per_element
    return {
        "bytes_per_element": bytes_per_element,
        "per_cache_bytes": per_cache.tolist(),
        "total_bytes": int(per_cache.sum()),
        "total_budget_tokens": plan.total_tokens,
        "achieved_compression": plan.achieved_compression(config),
    }
