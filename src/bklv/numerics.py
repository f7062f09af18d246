"""Small shared numeric helpers."""

import numpy as np


def softmax(scores: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable softmax along the last axis, into `out` if given
    (it may be `scores` itself).

    Entries masked with -inf receive weight 0; every row must keep at
    least one finite entry.
    """
    # the ufunc reductions np.max and np.sum call, without their wrappers
    weights = np.subtract(scores, np.maximum.reduce(scores, -1, keepdims=True), out=out)
    np.exp(weights, out=weights)
    weights /= np.add.reduce(weights, -1, keepdims=True)
    return weights


def log_softmax_f64(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax computed in float64 for loss accounting."""
    x = np.asarray(logits, dtype=np.float64)
    m = np.max(x, axis=-1, keepdims=True)
    lse = m + np.log(np.sum(np.exp(x - m), axis=-1, keepdims=True))
    return x - lse
