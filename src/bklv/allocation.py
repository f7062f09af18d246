"""Budget plans: turn importance scores and a global compression ratio into
per-cache token budgets.

Three strategies: "uniform" gives every cache the same share, "layerwise"
rescales whole layers by layer importance, "baklava" additionally moves
budget between the KV caches inside each layer by head importance. All
integer rounding uses largest-remainder apportionment so the global token
total is conserved exactly.

Thresholds on the public surface (CLI, plan files, PlanParams) are in
similarity units: a cache is a reduction candidate when its similarity
exceeds the threshold, i.e. when importance < 1 - t. The internal
reallocation routine works in importance units.
"""

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .config import ModelConfig
from .errors import AllocationError, ShapeError

STRATEGIES = ("uniform", "layerwise", "baklava")
DEFAULT_SINKS = 4


def round_half_up(x: float) -> int:
    """Round a non-negative value half away from zero (4.5 -> 5)."""
    return int(math.floor(x + 0.5))


def apportion_largest_remainder(shares: list[float], total: int) -> list[int]:
    """Apportion integer `total` across fractional `shares`.

    Each entry gets floor(share); the leftover units go to the largest
    fractional remainders, lower index first on ties. The result sums to
    `total` exactly. Requires sum(shares) to be within one unit per entry
    of `total`.
    """
    floors = [int(math.floor(s)) for s in shares]
    leftover = total - sum(floors)
    if leftover < 0 or leftover > len(shares):
        raise AllocationError(
            f"shares sum {sum(shares):.6f} inconsistent with total {total}"
        )
    order = sorted(range(len(shares)), key=lambda i: (floors[i] - shares[i], i))
    out = list(floors)
    for i in order[:leftover]:
        out[i] += 1
    return out


def _check_compression(compression: float) -> None:
    """The compression range rule of every plan builder: (0, 1], so not NaN."""
    if not 0.0 < compression <= 1.0:
        raise AllocationError(f"compression must be in (0, 1], got {compression}")


def global_budget(config: ModelConfig, compression: float) -> int:
    """Total retained tokens across all caches at a compression ratio.

    Every strategy's budgets start here, so here the range is checked.
    """
    _check_compression(compression)
    return round_half_up(
        compression * config.num_layers * config.num_kv_heads * config.max_context
    )


@dataclass(frozen=True)
class PlanParams:
    """Reallocation controls.

    `t` / `layer_t` are similarity thresholds in [0, 1] (high similarity =
    low importance = reduction candidate). `r` / `layer_r` are fractions of
    the current budget removed from each selected cache or layer.
    """

    t: float = 0.0
    r: float = 0.0
    layer_t: float = 0.0
    layer_r: float = 0.0

    def validate(self) -> None:
        """Each field is a real number (not bool or str) in its range:
        thresholds in [0, 1], reduction fractions in [0, 1)."""
        for name, v in asdict(self).items():
            closed = name in ("t", "layer_t")
            real = isinstance(v, numbers.Real) and not isinstance(v, bool)
            if not real or not (0.0 <= v <= 1.0 if closed else 0.0 <= v < 1.0):
                raise AllocationError(f"{name} must be in [0, 1{']' if closed else ')'}, got {v!r}")


@dataclass
class AllocationPlan:
    """Per-cache token budgets for one (strategy, compression) setting."""

    compression_ratio: float
    sinks: int
    budgets: np.ndarray  # (num_layers, num_kv_heads) int64 token budgets
    strategy: str
    params: PlanParams

    @property
    def total_tokens(self) -> int:
        return int(self.budgets.sum())

    def achieved_compression(self, config: ModelConfig) -> float:
        return self.total_tokens / (
            config.num_layers * config.num_kv_heads * config.max_context
        )


def _uniform_layer_totals(config: ModelConfig, compression: float) -> list[int]:
    """Equal per-layer token totals conserving the exact global budget."""
    total = global_budget(config, compression)
    share = compression * config.num_kv_heads * config.max_context
    return apportion_largest_remainder([share] * config.num_layers, total)


def _split_layer_total(config: ModelConfig, layer_total: int) -> list[int]:
    share = layer_total / config.num_kv_heads
    return apportion_largest_remainder([share] * config.num_kv_heads, layer_total)


def uniform_plan(
    config: ModelConfig, compression: float, sinks: int = DEFAULT_SINKS
) -> AllocationPlan:
    """Equal budget for every cache at the requested compression ratio:
    build_plan's "uniform" strategy, which needs no profile.

    Rounding goes through the same two-stage apportionment as the other
    strategies (equal layer totals, then an equal split within each
    layer), so a reallocation pass with no-op parameters reproduces this
    plan bit for bit.
    """
    return build_plan(None, config, "uniform", compression, sinks=sinks)


def reallocate_caches(
    budgets: list[int],
    importances: list[float],
    t_importance: float,
    r: float,
    floor: int = 0,
) -> list[int]:
    """Move budget from low-importance caches to the most important ones.

    Caches with importance strictly below `t_importance` each lose
    floor(r * budget) tokens (clamped so no budget drops below `floor`);
    the freed tokens are split equally (largest remainder, lower index
    first) among the top-k remaining caches by importance, k = min(number
    selected, number not selected). If every cache is selected the input
    is returned unchanged. The total is conserved exactly.
    """
    if len(budgets) != len(importances):
        raise ShapeError(
            f"budgets ({len(budgets)}) and importances ({len(importances)}) differ in length"
        )
    m = len(budgets)
    if m < 1:
        raise ShapeError("need at least one cache")
    if not 0.0 <= t_importance <= 1.0:
        raise AllocationError(f"t_importance must be in [0, 1], got {t_importance}")
    if not 0.0 <= r < 1.0:
        raise AllocationError(f"r must be in [0, 1), got {r}")

    low = [i for i in range(m) if importances[i] < t_importance]
    if len(low) > m - 1 or not low:
        return [int(b) for b in budgets]

    out = [int(b) for b in budgets]
    freed = 0
    for i in low:
        cut = math.floor(r * budgets[i])
        cut = min(cut, max(out[i] - floor, 0))
        out[i] -= cut
        freed += cut

    n = len(low)
    k = min(n, m - n)
    rest = sorted((i for i in range(m) if i not in low), key=lambda i: (-importances[i], i))
    recipients = rest[:k]
    base, extra = divmod(freed, k)
    for i in recipients:
        out[i] += base
    for i in sorted(recipients)[:extra]:
        out[i] += 1
    return out


def layer_budget_scaling(
    layer_importances: list[float],
    compression: float,
    layer_t_importance: float,
    layer_r: float,
    config: ModelConfig,
    sinks: int = DEFAULT_SINKS,
) -> list[int]:
    """Per-layer token totals: uniform at the target compression, then the
    same select-reduce-redistribute move applied at layer granularity.

    The per-layer floor is num_kv_heads * (sinks + 1) so the within-layer
    split can still give every cache its minimum.
    """
    if len(layer_importances) != config.num_layers:
        raise ShapeError(
            f"expected {config.num_layers} layer importances, got {len(layer_importances)}"
        )
    base = _uniform_layer_totals(config, compression)
    layer_floor = config.num_kv_heads * (sinks + 1)
    for layer, tokens in enumerate(base):
        if tokens < layer_floor:
            raise AllocationError(
                f"layer {layer} total {tokens} below floor {layer_floor} "
                f"at compression {compression}"
            )
    return reallocate_caches(
        base, list(layer_importances), layer_t_importance, layer_r, floor=layer_floor
    )


def build_plan(
    profile,
    config: ModelConfig,
    strategy: str,
    compression: float,
    params: PlanParams | None = None,
    sinks: int = DEFAULT_SINKS,
) -> AllocationPlan:
    """Construct the budget matrix for a strategy.

    `profile` is an ImportanceProfile; it may be None only for the uniform
    strategy. Thresholds in `params` are similarity values and are
    converted to importance internally (importance = 1 - similarity).
    """
    if strategy not in STRATEGIES:
        raise AllocationError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    params = params or PlanParams()
    params.validate()
    if strategy == "uniform":
        layer_totals = _uniform_layer_totals(config, compression)
    elif profile is None:
        raise AllocationError(f"strategy {strategy!r} requires an importance profile")
    elif profile.kv_importance.shape != (config.num_layers, config.num_kv_heads):
        raise ShapeError(
            f"profile kv_importance shape {profile.kv_importance.shape} does not match "
            f"config ({config.num_layers}, {config.num_kv_heads})"
        )
    elif len(profile.layer_importance) != config.num_layers:
        raise ShapeError("profile layer_importance length does not match config")
    else:
        layer_totals = layer_budget_scaling(
            list(profile.layer_importance),
            compression,
            1.0 - params.layer_t,
            params.layer_r,
            config,
            sinks,
        )
    floor = sinks + 1
    rows = []
    for layer, layer_total in enumerate(layer_totals):
        row = _split_layer_total(config, layer_total)
        if strategy == "baklava":
            row = reallocate_caches(
                row,
                list(profile.kv_importance[layer]),
                1.0 - params.t,
                params.r,
                floor=floor,
            )
        rows.append(row)
    budgets = np.array(rows, dtype=np.int64)
    return require_valid(AllocationPlan(compression, sinks, budgets, strategy, params), config)


def window_plan(
    config: ModelConfig,
    layer_lo: int,
    layer_hi: int,
    compression: float,
    sinks: int = DEFAULT_SINKS,
) -> AllocationPlan:
    """Compress only layers in [layer_lo, layer_hi]; all others stay full.

    Used by the empirical layer sweep. The stored compression ratio is the
    achieved global ratio, which keeps the plan's conservation invariant
    self-consistent.
    """
    if not 0 <= layer_lo <= layer_hi < config.num_layers:
        raise AllocationError(f"bad layer window [{layer_lo}, {layer_hi}]")
    _check_compression(compression)
    budgets = np.full(
        (config.num_layers, config.num_kv_heads), config.max_context, dtype=np.int64
    )
    n_window = (layer_hi - layer_lo + 1) * config.num_kv_heads
    window_total = round_half_up(compression * config.max_context * n_window)
    flat = apportion_largest_remainder(
        [compression * config.max_context] * n_window, window_total
    )
    budgets[layer_lo : layer_hi + 1, :] = np.array(flat, dtype=np.int64).reshape(
        layer_hi - layer_lo + 1, config.num_kv_heads
    )
    plan = AllocationPlan(math.nan, sinks, budgets, "window", PlanParams())
    plan.compression_ratio = plan.achieved_compression(config)
    return require_valid(plan, config)


def floor_violations(budgets: np.ndarray, sinks: int) -> list[str]:
    """The budget floor: sinks >= 0, and every cache keeps at least sinks + 1
    slots so it can always take a new token. One message per (layer, group)
    below it."""
    floor = sinks + 1
    violations = [f"sinks must be >= 0, got {sinks}"] if sinks < 0 else []
    return violations + [
        f"budget {budgets[layer, group]} below floor {floor} at layer {layer} group {group}"
        for layer, group in np.argwhere(budgets < floor)
    ]


def validate_plan(plan: AllocationPlan, config: ModelConfig) -> list[str]:
    """Check a plan against a config; returns all violations (empty = ok)."""
    expected_shape = (config.num_layers, config.num_kv_heads)
    if plan.budgets.shape != expected_shape:
        return [f"budget matrix shape {plan.budgets.shape} does not match {expected_shape}"]
    violations = floor_violations(plan.budgets, plan.sinks)
    try:
        expected_total = global_budget(config, plan.compression_ratio)
    except AllocationError as exc:  # the compression range rule
        return violations + [str(exc)]
    if plan.total_tokens != expected_total:
        violations.append(
            f"budget total {plan.total_tokens} does not conserve the global "
            f"total {expected_total}"
        )
    return violations


def require_valid(plan: AllocationPlan, config: ModelConfig) -> AllocationPlan:
    """The plan, if validate_plan finds nothing; else AllocationError with
    every violation."""
    violations = validate_plan(plan, config)
    if violations:
        raise AllocationError("plan does not match this model", violations)
    return plan
