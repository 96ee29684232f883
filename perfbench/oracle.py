"""Dense reference implementation of the SCCE point estimate.

Independent of the package under test: the factor proxy is a plain mean, the
spline sieve is rebuilt here from its definition, and the annihilator is the
explicit T x T matrix I - A A^+. Affordable at T = 100, where it checks the
point estimate of every ``boot_cli`` op.
"""

from __future__ import annotations

import math

import numpy as np


def spline_sieve(proxy: np.ndarray) -> np.ndarray:
    """Truncated-power cubic basis per proxy column, knots at quantiles.

    J = floor(T ** (1/4)) knots per column at the k/(J+1) empirical quantiles
    (tied knots collapse); each column contributes [1, v, v^2, v^3,
    (v - knot)_+^3 ...].
    """
    t = proxy.shape[0]
    j = math.floor(t ** 0.25 + 1e-9)
    probs = np.arange(1, j + 1) / (j + 1)
    blocks = []
    for col in proxy.T:
        knots = np.unique(np.quantile(col, probs, method="linear"))
        blocks.append(np.column_stack([col ** p for p in range(4)]
                                      + [np.maximum(col - k, 0.0) ** 3 for k in knots]))
    return np.hstack(blocks)


def scce_beta(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Pooled SCCE slope for y (N x T) and x (N x T x d) by the dense formula."""
    proxy = np.concatenate([y[:, :, None], x], axis=2).mean(axis=0)
    a = spline_sieve(proxy)
    m = np.eye(a.shape[0]) - a @ np.linalg.pinv(a)
    gram = sum(xi.T @ m @ xi for xi in x)
    rhs = sum(xi.T @ m @ yi for xi, yi in zip(x, y))
    return np.linalg.solve(gram, rhs)
