"""Shared helpers: small panel builders and dense reference oracles.

The oracles here deliberately use the naive dense formulations (T x T
annihilator matrices, double loops) that the library avoids, so the two
implementations are independent.
"""

import numpy as np
import pytest

from scce import PanelData


def dense_annihilator(a: np.ndarray) -> np.ndarray:
    """I - A A^+ as an explicit T x T matrix.

    Equal to I - A (A'A)^+ A' in exact arithmetic, but pinv on A itself
    avoids squaring the condition number of A, so the oracle stays accurate
    on ill-conditioned basis matrices.
    """
    t = a.shape[0]
    return np.eye(t) - a @ np.linalg.pinv(a)


def write_panel_csv(path, panel):
    """Long-format CSV ``unit,time,y,x1,...`` with every digit of each value."""
    with open(path, "w", encoding="utf-8") as fh:
        d = panel.n_regressors
        fh.write("unit,time," + ",".join(["y"] + [f"x{k+1}" for k in range(d)]) + "\n")
        for i, unit in enumerate(panel.unit_labels):
            for s, time in enumerate(panel.time_labels):
                xs = ",".join(f"{float(v)!r}" for v in panel.x[i, s])
                fh.write(f"{unit},{time},{float(panel.y[i, s])!r},{xs}\n")
    return str(path)


def make_panel(y: np.ndarray, x: np.ndarray) -> PanelData:
    n, t = y.shape
    return PanelData(y=np.asarray(y, dtype=float), x=np.asarray(x, dtype=float),
                     unit_labels=tuple(range(n)), time_labels=tuple(range(t)))


@pytest.fixture
def random_panel():
    """Factor-free random panel factory: y = X beta + noise."""

    def build(n=6, t=25, d=2, beta=(1.0, 1.0), noise=1.0, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, t, d))
        y = x @ np.asarray(beta) + noise * rng.normal(size=(n, t))
        return make_panel(y, x)

    return build
