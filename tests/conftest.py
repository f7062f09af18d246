import tracemalloc

import numpy as np
import pytest

from bklv import LayerStore, ModelConfig, init_model
from bklv.model import forward_layer

from .reference import layer_steps

SMALL = ModelConfig(
    num_layers=2,
    num_q_heads=4,
    num_kv_heads=2,
    head_dim=8,
    d_model=32,
    d_ff=64,
    vocab_size=257,
    max_context=64,
    seed=3,
)


@pytest.fixture(scope="session")
def toy_model():
    """Default desk-scale model (the documented defaults), seed 7."""
    return init_model(ModelConfig(seed=7))


@pytest.fixture(scope="session")
def small_model():
    """A smaller model for oracle comparisons that loop in Python."""
    return init_model(SMALL)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def layer_probes(model, tokens) -> dict:
    """What profiling compares, for `tokens` run layer by layer through
    forward_layer, or one token through layer_steps, over stores that hold
    them all (slot j holds token j): reference_budgeted_logits' probes, with
    the same keys and shapes."""
    cfg = model.config
    x = model.embedding[np.asarray(tokens)[None]].astype(np.float32)
    step = forward_layer if x.shape[1] > 1 else layer_steps
    probes = {"head_input_v": [], "head_output": [], "layer_input": [], "layer_output": []}
    for li in range(cfg.num_layers):
        store = LayerStore([x.shape[1]] * cfg.num_kv_heads, 0, cfg.head_dim)
        probes["layer_input"].append(x[0])
        x, heads = step(model, li, x, store)
        probes["head_input_v"].append(store.values)
        probes["head_output"].append(heads[0])
        probes["layer_output"].append(x[0])
    return {name: np.stack(arrays) for name, arrays in probes.items()}


def warm_peak_bytes(call) -> int:
    """The traced peak of a second call's short-lived arrays, above what was
    live at its start; the first call fills any memo (the rotary tables).
    Unlike page-fault counts, which follow the allocator's state, the peak
    is deterministic."""
    call()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
