"""bklv: budgeted per-head KV-cache allocation lab.

A deterministic toy GQA decoder, budgeted key/value stores with
sink-plus-window eviction, head/layer importance profiling, budget
allocation strategies, and perplexity-based parameter search.
"""

from .allocation import (
    AllocationPlan,
    PlanParams,
    apportion_largest_remainder,
    build_plan,
    reallocate_caches,
    require_valid,
    uniform_plan,
    validate_plan,
)
from .cache import (
    BudgetedCache,
    CacheSet,
    LayerStore,
    append_and_evict,
    attend_with_cache,
    banded_attention,
    build_cache_set,
    memory_report,
    reset,
)
from .config import ModelConfig
from .errors import (
    AllocationError,
    BklvError,
    ConfigError,
    FormatError,
    InputError,
    ShapeError,
)
from .model import (
    Model,
    forward_chunk,
    greedy_generate,
    init_model,
    model_checksum,
)
from .profiling import (
    ImportanceProfile,
    group_kv_importance,
    profile_model,
    rank_correlation,
    token_cosine_similarities,
)
from .search import (
    chunk_nll,
    chunked_perplexity,
    evaluate_plans,
    heuristic_vs_empirical,
    layer_sweep,
    parameter_search,
)

__version__ = "0.1.0"
