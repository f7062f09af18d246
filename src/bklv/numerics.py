"""Small shared numeric helpers."""

import numpy as np


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

