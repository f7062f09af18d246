"""Budgeted per-(layer, KV-group) key/value stores, and attention under them.

Each cache holds at most `budget` tokens. When an append overflows the
budget, the oldest token that is not an attention sink is evicted; the
first `sinks` absolute positions are never evicted.

A layer's caches are one preallocated LayerStore, padded to the layer's
largest budget, which makes a BudgetedCache view of each group's slots
(store.caches). Position p lives in slot p if p < sinks, else in ring slot
sinks + (p - sinks) % (budget - sinks), so an eviction is one overwrite.
Keys and values are the store's only arrays, and a group's one count is
seen, the tokens it was given: with its budget, that fixes the slots it
fills, min(seen, budget), and the position each holds (BudgetedCache.positions),
so an append writes keys, values and seen only. Keys are stored transposed.
The query at position t sees p iff p <= t and either p < sinks or p > t -
budget + sinks, what token-by-token generation holds at t. A layer step
appends, then attends with all its KV groups and query heads at once: a single
query over the store (attend_with_cache), and a chunk, which starts a
stream, over its own rows (banded_attention, given only budgets and sinks).
"""

import math
from dataclasses import dataclass

import numpy as np

from .allocation import AllocationPlan, require_fit
from .config import ModelConfig
from .errors import InputError, ShapeError


SCORE_CAP = 1 << 17  # elements in one score buffer of a chunk's block: 512 KiB of float32
BLOCK = 32  # queries per block of a chunk's attention pass, from a measured scan
_NO_REACH = np.iinfo(np.int64).max  # a sink's reach: past every offset
SCORE_BOUND = 80.0  # the largest score bound whose exp skips the row max: e**-80 is a normal float32


class LayerStore:
    """The preallocated rows of one layer's KV groups, group g with budget
    budgets[g] and all with the same sink count.

    keys are (groups, head_dim, width) float32, transposed, and values
    (groups, width, head_dim) float32, with width the layer's largest
    budget; they are the only arrays. seen[g] counts the tokens ever
    appended to group g, its only count: the group fills slots
    0..min(seen[g], budgets[g])-1 (see BudgetedCache), and its other slots
    are zero, unused and hidden from attention by that length alone.
    caches[g] is group g's view, the only way a BudgetedCache is made.
    Raises AllocationError below the budget floor (require_fit), as a plan would.
    """

    def __init__(self, budgets: list[int], sinks: int, head_dim: int):
        self.budgets = list(budgets)
        require_fit(np.array([self.budgets]), sinks)
        self.sinks = sinks
        groups, width = len(self.budgets), max(self.budgets)
        self.keys = np.zeros((groups, head_dim, width), dtype=np.float32)
        self.values = np.zeros((groups, width, head_dim), dtype=np.float32)
        self.seen = [0] * groups
        self.caches = [BudgetedCache(self, g) for g in range(groups)]

    @property
    def retained(self) -> int:
        """The live width: the most rows any group holds."""
        return max(map(min, self.seen, self.budgets))

    def clear(self) -> None:
        self.keys.fill(0)
        self.values.fill(0)
        self.seen[:] = [0] * len(self.seen)  # in place: the views share the list


class BudgetedCache:
    """One KV group's slots of a layer store, with a hard token budget.

    Sink positions p < sinks are permanent, in slots 0..sinks-1; the rest
    is a sliding window over the most recent tokens, p in ring slot
    sinks + (p - sinks) % (budget - sinks). It retains min(seen, budget)
    tokens; `keys` and `values` are (retained, ...) views of the filled
    slots, in slot order, and `positions` is derived from seen and budget.
    Made by its store only, it reads its budget, sinks and head_dim, seen
    list and slot arrays from the store but keeps no reference to it: a
    store and its views would form a cycle, freed only when the cycle
    collector runs.
    """

    def __init__(self, store: LayerStore, group: int):
        self.budget, self.sinks, self.group = store.budgets[group], store.sinks, group
        self.head_dim = store.keys.shape[1]
        self.seen = store.seen  # shared, mutated in place
        self.slots = (store.keys[group].T, store.values[group])  # full width, (width, head_dim) views

    @property
    def retained(self) -> int:
        return min(self.seen[self.group], self.budget)

    @property
    def total_seen(self) -> int:
        return self.seen[self.group]

    @property
    def keys(self) -> np.ndarray:  # (retained, head_dim) float32
        return self.slots[0][: self.retained]

    @property
    def values(self) -> np.ndarray:  # (retained, head_dim) float32
        return self.slots[1][: self.retained]

    @property
    def positions(self) -> np.ndarray:
        """(retained,) int64, read-only, from seen and the budget: slot j holds
        j if j < sinks, else base + (j - base) % (budget - sinks), with base
        the oldest retained position past the sinks."""
        n, sinks = self.retained, self.sinks
        j, base = np.arange(n), self.total_seen - n + sinks
        positions = np.where(j < sinks, j, base + (j - base) % (self.budget - sinks))
        positions.flags.writeable = False
        return positions


def append_and_evict(cache: BudgetedCache, k_new: np.ndarray, v_new: np.ndarray) -> None:
    """Append new tokens, then evict oldest non-sink tokens down to budget.

    The new rows are the stream positions total_seen..total_seen + n - 1.
    Repeated single-token eviction of the oldest non-sink is equivalent to
    keeping the sink prefix plus the most recent tail. Every position has a
    fixed slot (see BudgetedCache), so this writes only the new rows that
    are kept, in place over the rows they evict: the new sinks, then the
    last budget - sinks others in at most two runs of ring slots. A pair of
    (1, head_dim) ndarrays, as every decode step appends, goes as is into
    its slot, checked by shape only; other input is converted and checked.
    """
    g, sinks, budget = cache.group, cache.sinks, cache.budget
    keys, values = cache.slots
    seen = cache.seen[g]
    if type(k_new) is type(v_new) is np.ndarray and k_new.shape == v_new.shape == (1, cache.head_dim):
        slot = seen if seen < sinks else sinks + (seen - sinks) % (budget - sinks)
        keys[slot] = k_new
        values[slot] = v_new
        total = seen + 1
    else:
        k_new = np.asarray(k_new, dtype=np.float32)
        v_new = np.asarray(v_new, dtype=np.float32)
        if k_new.ndim != 2 or k_new.shape != v_new.shape:
            raise ShapeError(f"k_new {k_new.shape} and v_new {v_new.shape} must be equal 2-D shapes")
        rows, width = k_new.shape
        if width != cache.head_dim:
            raise ShapeError(f"row width {width} != head_dim {cache.head_dim}")
        total = seen + rows
        # Kept: new sinks seen..min(sinks, total)-1 in their own slots, then new
        # others first..total-1 from ring slot `ring`, wrapping to `sinks` at `wrap`.
        first = max(sinks, seen, total - (budget - sinks))
        ring = sinks + (first - sinks) % (budget - sinks)
        wrap = min(total, first + budget - ring)
        for a, e, slot in ((seen, min(sinks, total), seen), (first, wrap, ring), (wrap, total, sinks)):
            if a < e:
                dest = slice(slot, slot + e - a)
                keys[dest] = k_new[a - seen : e - seen]
                values[dest] = v_new[a - seen : e - seen]
    cache.seen[g] = total


def attend_with_cache(store: LayerStore, q: np.ndarray) -> np.ndarray:
    """Scaled dot-product attention of a layer's newest token over its store:
    `q` (groups, heads, 1, head_dim) is its query, appended first, so it sees
    every retained slot; a padded group's unused slots are masked with -inf.
    Returns one output row per query, like `q`."""
    q = np.asarray(q, dtype=np.float32)
    groups, d, _ = store.keys.shape
    if q.ndim != 4 or q.shape[0] != groups or q.shape[-1] != d:
        raise ShapeError(f"q shape {q.shape} incompatible with {groups} groups of head_dim {d}")
    held = list(map(min, store.seen, store.budgets))  # each group's retained slots
    width = max(held)
    if q.shape[2] != 1 or min(held) == 0:
        raise InputError("attention over a store takes one query and one retained token")
    scores = q.reshape(groups, -1, d) @ store.keys[:, :, :width]  # (groups, heads, width)
    scores /= np.float32(math.sqrt(d))
    for g, n in enumerate(held):
        if n < width:
            scores[g, :, n:] = -np.inf
    softmax(scores, out=scores)
    return (scores @ store.values[:, :width]).reshape(q.shape)


def banded_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, budgets: list[int], sinks: int) -> np.ndarray:
    """Scaled dot-product attention of a chunk's queries, stream positions
    0..t_q - 1, over their own rows under the sink+window rule of `budgets`
    and `sinks`, which must fit (require_fit). `q` is (groups, heads, t_q,
    head_dim), `k` (groups, t_q, head_dim) and `v` (groups, t_q, head_dim +
    1), its last column ones. k and v are worked in place, not copied: the
    sinks move next to each block's band, over rows no later block reads,
    so a caller appends the rows first. Block [a, e) of BLOCK queries scores
    the sinks and positions a - (largest budget - sinks) + 1 to e - 1.
    Groups run in tiles of at most SCORE_CAP scores (one group at least),
    every tile computed into one score buffer per call. A group whose scores
    are bounded (_bounded: all within SCORE_BOUND, and no row sum or PV entry
    can overflow) takes exp without the row max, then is multiplied by a 0/1
    visibility mask, built once per distinct span per block; v's ones column
    makes the PV product return each row's weight sum too, and only the
    (rows, head_dim) result is divided. Any other group is masked with -inf
    and keeps the softmax shifted by the row max, its weights normalized
    before the PV product. Decided per group, a group's result is the same
    whatever the tiling, and a bounded group's whatever the other groups; a
    shifted group's row sums span the call's band, which the widest budget
    sets. Returns one output row per query, like `q`.
    """
    q, k, v = (np.asarray(x, dtype=np.float32) for x in (q, k, v))
    groups, heads, t_q, d = q.shape if q.ndim == 4 else (-1,) * 4
    if k.shape != (groups, t_q, d) or v.shape != (groups, t_q, d + 1) or groups != len(budgets) or 0 in q.shape:
        raise ShapeError(f"q {q.shape}, k {k.shape} and v {v.shape} (head_dim + 1 wide) "
                         f"are not a chunk's for {len(budgets)} budgets")
    require_fit(np.array([budgets]), sinks)
    scale = np.float32(math.sqrt(d))
    span, widest = np.array(budgets) - sinks, max(budgets) - sinks
    spans, span_of = np.unique(span, return_inverse=True)  # the distinct spans, and each group's
    bounded = _bounded(q, k, v, scale).tolist()
    out = np.empty(q.shape, np.float32)
    # one score buffer for every tile: a group's block scores at most heads * BLOCK rows
    # by BLOCK + widest + sinks - 1 columns, and a tile is one group or within SCORE_CAP
    per_group = heads * min(BLOCK, t_q) * min(t_q, BLOCK + widest + sinks - 1)
    buffer = np.empty(min(groups * per_group, max(SCORE_CAP, per_group)), np.float32)
    sink_col = 0  # the sinks' first row: their own, then next to the last block's band
    for a in range(0, t_q, BLOCK):
        e = min(a + BLOCK, t_q)
        n_sinks = min(sinks, e)
        start = max(n_sinks, a - widest + 1)  # the band's first position, and column
        lo_col = start - n_sinks
        if lo_col > sink_col:  # the sinks move next to the band (numpy buffers an overlap)
            k[:, lo_col:start] = k[:, sink_col : sink_col + n_sinks]
            v[:, lo_col:start] = v[:, sink_col : sink_col + n_sinks]
            sink_col = lo_col
        # t sees p iff 0 <= t - p < reach, past every offset for a sink; unsigned, t < p is past
        # it too. One float mask per distinct span, (spans, e - a, cols): 1 if seen, else 0
        positions = np.arange(lo_col, e)
        positions[:n_sinks] -= lo_col  # the moved sinks, 0..n_sinks - 1
        reach = np.where(positions < sinks, _NO_REACH, spans[:, None]).astype(np.uint64)
        visible = ((np.arange(a, e)[:, None] - positions).view(np.uint64) < reach[:, None]).astype(np.float32)
        # queries, not scores, are scaled, in the block's copy: exact when sqrt(d) is a power of 2
        rows, cols = (q[:, :, a:e] / scale).reshape(groups, -1, d), e - lo_col
        step = max(1, SCORE_CAP // (rows.shape[1] * cols))
        for lo in range(0, groups, step):
            hi, tile = lo + step, bounded[lo : lo + step]
            scores = buffer[: len(tile) * rows.shape[1] * cols].reshape(len(tile), -1, cols)
            np.matmul(rows[lo:hi], k[lo:hi, lo_col:e].transpose(0, 2, 1), out=scores)
            for group_scores, j, fits in zip(scores.reshape(-1, heads, e - a, cols), span_of[lo:hi], tile):
                if fits:  # a bounded score's exp is finite, so the mask zeroes what is hidden
                    np.exp(group_scores, out=group_scores)
                    group_scores *= visible[j]
                else:  # past the bound: masked with -inf, shifted by its row max and normalized
                    np.copyto(group_scores, -np.inf, where=visible[j] == 0)
                    softmax(group_scores, out=group_scores)
            pv = (scores @ v[lo:hi, lo_col:e]).reshape(-1, heads, e - a, d + 1)
            if not all(tile):
                pv[~np.array(tile), ..., d] = 1  # so the normalized groups divide by 1, exactly
            np.divide(pv[..., :d], pv[..., d:], out=out[lo:hi, :, a:e])
    return out


def softmax(scores: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable softmax along the last axis, into `out` if given
    (it may be `scores` itself).

    Entries masked with -inf receive weight 0; every row must keep at
    least one finite entry.
    """
    # the ufunc reductions, without np.max's and np.sum's wrappers; fmax skips
    # the NaN checks of maximum, and a row holding a NaN is still all NaN
    weights = np.subtract(scores, np.fmax.reduce(scores, -1, keepdims=True), out=out)
    np.exp(weights, out=weights)
    weights /= np.add.reduce(weights, -1, keepdims=True)
    return weights


def _bounded(q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float) -> np.ndarray:
    """(groups,) bool, per group of a chunk: its scores of queries q / scale,
    q (groups, heads, t_q, d), by keys k (groups, t_q, d) are within
    B = max |q_i| * max |k_j| / scale, and B <= SCORE_BOUND and
    t_q * e**B * max(1, max |v|) < FLT_MAX / 2, so no row sum or PV entry
    overflows. A NaN or inf fails both tests."""
    groups, t_q, _ = k.shape
    q_norms = np.einsum("...d,...d->...", q, q).reshape(groups, -1).max(1)
    bound = np.sqrt(q_norms.astype(np.float64) * np.einsum("...d,...d->...", k, k).max(1)) / scale
    growth = t_q * np.exp(np.minimum(bound, SCORE_BOUND)) * np.maximum(1.0, np.abs(v).reshape(groups, -1).max(1))
    return (bound <= SCORE_BOUND) & (growth < float(np.finfo(np.float32).max) / 2)


@dataclass
class CacheSet:
    """All the budgeted caches of one model: one LayerStore per layer, and
    the cache of (layer, kv_group) is stores[layer].caches[kv_group]."""

    stores: list[LayerStore]
    config: ModelConfig

    @property
    def total_seen(self) -> int:
        """The stream position of every cache, read from the stores' counts;
        InputError naming the first (layer, group) that differs."""
        seen = self.stores[0].seen[0]
        for layer, store in enumerate(self.stores):
            if store.seen.count(seen) != len(store.seen):
                group = next(g for g, s in enumerate(store.seen) if s != seen)
                raise InputError(
                    f"cache at layer {layer} group {group} is at stream position "
                    f"{store.seen[group]}, not {seen}"
                )
        return seen

    def all_caches(self):
        for store in self.stores:
            yield from store.caches


def clamp_budgets(budgets: list[int], sinks: int, tokens: int) -> tuple[int, ...]:
    """Budgets cut to `tokens`, the most a cache will be given, but kept above
    `sinks`: a cache that never fills evicts nothing, so it runs the same."""
    return tuple(min(b, max(tokens, sinks + 1)) for b in budgets)


def build_cache_set(plan: AllocationPlan, config: ModelConfig) -> CacheSet:
    """Empty stores sized from a plan that fits the config (require_fit), one
    per layer, each budget clamped to max_context (clamp_budgets)."""
    require_fit(plan.budgets, plan.sinks, config)
    rows = [clamp_budgets(row, plan.sinks, config.max_context) for row in plan.budgets.tolist()]
    return CacheSet([LayerStore(row, plan.sinks, config.head_dim) for row in rows], config)


def reset(cache_set: CacheSet) -> None:
    """Empty every store in place; budgets and sink counts are preserved."""
    for store in cache_set.stores:
        store.clear()


def memory_report(plan: AllocationPlan, config: ModelConfig, bytes_per_element: int = 2) -> dict:
    """Bytes per cache and in total: 2 (keys and values) * budget tokens *
    head_dim * bytes_per_element, with the plan's achieved compression
    ratio relative to full context in every cache. This counts budgeted
    tokens, not the float32 layer stores, which are padded to each layer's
    largest budget. Bytes are exact Python ints; the plan must fit (require_fit).
    """
    require_fit(plan.budgets, plan.sinks, config)
    if bytes_per_element < 1:
        raise InputError(f"bytes_per_element must be >= 1, got {bytes_per_element}")
    token_bytes = 2 * config.head_dim * bytes_per_element
    per_cache = [[b * token_bytes for b in row] for row in plan.budgets.tolist()]
    return {
        "bytes_per_element": bytes_per_element,
        "per_cache_bytes": per_cache,
        "total_bytes": sum(map(sum, per_cache)),
        "total_budget_tokens": plan.total_tokens,
        "achieved_compression": plan.achieved_compression(config),
    }
