"""Data-generating processes and the Monte Carlo harness.

Two canned designs with m = d = 2: a nonlinear factor structure built from
products, exponentials, and sine transforms of two common factors, and a
linear counterpart. Robustness knobs cover random-walk factors, serially and
cross-sectionally correlated errors, and alternative knot rules.

All randomness flows through counter-based Philox streams keyed by
(seed, cell, replication), so replications are independent of execution
order and parallel runs reproduce serial ones bit for bit.
"""

from __future__ import annotations

import enum
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ScceError, TooManySkipped
from .estimators import EstimatorConfig, Method
from .panel import PanelData
from .sieve import knot_count

__all__ = ["Dgp", "FactorMode", "ErrorMode", "DgpConfig", "SimulatedPanel",
           "EstimatorConfig", "McCell", "McReport", "stream",
           "generate_panel", "generate_e1", "generate_e2",
           "generate_correlated_errors", "monte_carlo_run"]

_RW_INCREMENT_SD = math.sqrt(0.05)
_SKIP_TOLERANCE = 0.01
# Ceiling on replication threads: the pool may start one per replication.
_MAX_WORKERS = 256


class Dgp(str, enum.Enum):
    E1 = "e1"  # nonlinear factor structure
    E2 = "e2"  # linear factor structure


class FactorMode(str, enum.Enum):
    STATIONARY = "stationary"
    RANDOM_WALK = "random_walk"


@dataclass(frozen=True)
class ErrorMode:
    """Idiosyncratic error law: iid N(0,1) when pi == 0, otherwise the
    banded moving-average recursion with AR coefficient pi."""

    pi: float = 0.0
    l_band: int = 5

    def __post_init__(self):
        if not 0.0 <= self.pi < 1.0:
            raise ScceError("error correlation pi must lie in [0, 1)")
        if self.l_band < 0:
            raise ScceError("spatial band must be >= 0")

    @property
    def iid(self) -> bool:
        return self.pi == 0.0


@dataclass(frozen=True)
class DgpConfig:
    dgp: Dgp = Dgp.E1
    n: int = 100
    t: int = 100
    beta: tuple = (1.0, 1.0)
    factor_mode: FactorMode = FactorMode.STATIONARY
    error_mode: ErrorMode = ErrorMode()
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.t < 2:
            raise ScceError("DGP needs N >= 1 and T >= 2")
        if len(self.beta) != 2:
            raise ScceError("the canned designs are fixed at d = 2")


@dataclass(frozen=True)
class SimulatedPanel:
    """Simulated panel plus the pieces needed to reconstruct or check it."""

    panel: PanelData
    beta: np.ndarray
    factors: np.ndarray            # T x 2
    loadings: dict
    factor_component_y: np.ndarray  # N x T, g_i(f_t)
    factor_component_x: np.ndarray  # N x T x 2, G_i(f_t)
    eps: np.ndarray                 # N x T
    v: np.ndarray                   # N x T x 2


def stream(seed: int, *key) -> np.random.Generator:
    """Counter-based Philox generator on the stream (seed, *key)."""
    if seed < 0:
        raise ScceError("seed must be a non-negative integer")
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))))


def pool_map(fn, count: int, workers: int | None = None) -> list:
    """``[fn(i) for i in range(count)]`` on ``workers`` threads, by default
    SCCE_THREADS, else one; either must lie in 1.._MAX_WORKERS."""
    source, value = "max_workers", workers
    if workers is None:
        source, value = "SCCE_THREADS", os.environ.get("SCCE_THREADS") or "1"
    try:
        workers = int(value)
    except (TypeError, ValueError):
        workers = 0
    if not 1 <= workers <= _MAX_WORKERS:
        raise ScceError(f"{source} must be a positive integer, got {value!r}; "
                        f"the ceiling is {_MAX_WORKERS} threads")
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, range(count)))
    return [fn(i) for i in range(count)]


def drop_skipped(results: list) -> tuple[list, int]:
    """The results that are not None, in order, and the count of those that
    are: the skipped replications. Over 1% skipped raises TooManySkipped."""
    kept = [r for r in results if r is not None]
    skipped = len(results) - len(kept)
    if skipped > _SKIP_TOLERANCE * len(results):
        raise TooManySkipped(skipped, len(results))
    return kept, skipped


def _draw_factors(rng: np.random.Generator, t: int, mode: FactorMode) -> np.ndarray:
    if mode == FactorMode.RANDOM_WALK:
        increments = rng.normal(0.0, _RW_INCREMENT_SD, size=(t, 2))
        return np.cumsum(increments, axis=0)  # f_0 = 0
    return rng.normal(size=(t, 2))


def _correlated_from_rng(rng: np.random.Generator, n: int, t: int,
                         pi: float, l_band: int) -> np.ndarray:
    """Banded MA + AR(1) recursion, out-of-range neighbours contribute zero."""
    sigma = rng.uniform(0.5, 1.0, size=n)
    theta = rng.normal(size=(n, t)) * sigma[:, None]
    spatial = np.zeros_like(theta)
    for l in range(1, l_band + 1):
        spatial[l:] += theta[:-l]   # neighbour i - l
        spatial[:-l] += theta[l:]   # neighbour i + l
    base = theta + pi * spatial
    eps = np.empty_like(base)
    prev = np.zeros(n)  # eps_{i,0} = 0
    for tt in range(t):
        prev = pi * prev + base[:, tt]
        eps[:, tt] = prev
    return eps


def generate_correlated_errors(n: int, t: int, pi: float, l_band: int = 5,
                               seed: int = 0) -> np.ndarray:
    """N x T errors with weak serial and cross-sectional correlation."""
    mode = ErrorMode(pi=pi, l_band=l_band)  # validates pi and the band
    return _correlated_from_rng(stream(seed), n, t, mode.pi, mode.l_band)


def _draw_errors(rng: np.random.Generator, n: int, t: int, mode: ErrorMode) -> np.ndarray:
    if mode.iid:
        return rng.normal(size=(n, t))
    return _correlated_from_rng(rng, n, t, mode.pi, mode.l_band)


def _e1_components(f: np.ndarray, loadings: dict):
    f1, f2 = f[:, 0], f[:, 1]
    g = (loadings["gamma1"][:, None] * f1
         + loadings["gamma2"][:, None] * (f1 * f2)
         + 0.5 * (f1[None, :] - loadings["gamma3"][:, None]) ** 2)
    big_g = np.empty((loadings["gamma1"].size, f.shape[0], 2))
    for s in range(2):
        g1 = loadings["Gamma1"][:, s][:, None]
        g2 = loadings["Gamma2"][:, s][:, None]
        g3 = loadings["Gamma3"][:, s][:, None]
        g4 = loadings["Gamma4"][:, s][:, None]
        big_g[:, :, s] = (0.6 * (np.exp(g1) * (f1 * f2 ** 2) + g2 * np.exp(f2))
                          + 0.4 * np.sin(g3 * f1 + np.exp(g4) * (f1 * f2)))
    return g, big_g


def _e2_components(f: np.ndarray, loadings: dict):
    g = loadings["gamma1"][:, None] * f[:, 0] + loadings["gamma2"][:, None] * f[:, 1]
    big_g = np.empty((loadings["gamma1"].size, f.shape[0], 2))
    for s in range(2):
        big_g[:, :, s] = (loadings["Gamma1"][:, s][:, None] * f[:, 0]
                          + loadings["Gamma2"][:, s][:, None] * f[:, 1])
    return g, big_g


def generate_panel(config: DgpConfig) -> SimulatedPanel:
    """Draw factors, loadings, and errors, and assemble y and X.

    All loadings, factors, and errors are redrawn per call; sub-streams keep
    the draws for each component independent of the others' sizes.
    """
    n, t = config.n, config.t
    f = _draw_factors(stream(config.seed, 0), t, config.factor_mode)
    rng_load = stream(config.seed, 1)
    loadings = {
        "gamma1": rng_load.normal(size=n),
        "gamma2": rng_load.normal(size=n),
        "gamma3": rng_load.normal(size=n),
        "Gamma1": rng_load.normal(size=(n, 2)),
        "Gamma2": rng_load.normal(size=(n, 2)),
        "Gamma3": rng_load.normal(1.0, 1.0, size=(n, 2)),
        "Gamma4": rng_load.normal(1.0, 1.0, size=(n, 2)),
    }
    eps = _draw_errors(stream(config.seed, 2), n, t, config.error_mode)
    v = np.stack([_draw_errors(stream(config.seed, 3 + s), n, t, config.error_mode)
                  for s in range(2)], axis=2)

    if config.dgp == Dgp.E1:
        g, big_g = _e1_components(f, loadings)
    else:
        # The linear design centres the regressor loadings on the identity:
        # regressor s loads factor s with mean one and the other factor with
        # mean zero. The full-rank mean loading matrix keeps the
        # cross-sectional averages informative about the factor space as N
        # grows; with all-mean-zero loadings the averages carry the factors
        # only at the same order as the averaging noise and every
        # average-based estimator loses the parametric rate.
        loadings = dict(loadings)
        loadings["Gamma1"] = loadings["Gamma1"] + np.array([1.0, 0.0])
        loadings["Gamma2"] = loadings["Gamma2"] + np.array([0.0, 1.0])
        g, big_g = _e2_components(f, loadings)

    beta = np.asarray(config.beta, dtype=np.float64)
    x = big_g + v
    y = np.einsum("itk,k->it", x, beta) + g + eps
    panel = PanelData(y=y, x=x, unit_labels=tuple(range(n)), time_labels=tuple(range(t)))
    return SimulatedPanel(panel=panel, beta=beta, factors=f, loadings=loadings,
                          factor_component_y=g, factor_component_x=big_g, eps=eps, v=v)


def generate_e1(config: DgpConfig) -> SimulatedPanel:
    if config.dgp != Dgp.E1:
        raise ScceError("config.dgp must be E1")
    return generate_panel(config)


def generate_e2(config: DgpConfig) -> SimulatedPanel:
    if config.dgp != Dgp.E2:
        raise ScceError("config.dgp must be E2")
    return generate_panel(config)


@dataclass(frozen=True)
class McCell:
    """Per-cell summary; abs_bias is the magnitude of the mean estimation
    error (the quantity tabulated alongside RMSE in replication studies)."""

    n: int
    t: int
    abs_bias: tuple  # per coefficient
    rmse: tuple
    reps: int
    skipped: int


@dataclass(frozen=True)
class McReport:
    """Per-(N, T) absolute bias and RMSE across replications."""

    dgp: Dgp
    method: Method
    cells: tuple
    reps: int
    seed: int

    def to_rows(self) -> list[dict]:
        return [{"n": cell.n, "t": cell.t, "dgp": self.dgp.value, "estimator": self.method.value,
                 "coef": k + 1, "abs_bias": cell.abs_bias[k], "rmse": cell.rmse[k],
                 "reps": cell.reps, "skipped": cell.skipped}
                for cell in self.cells for k in range(len(cell.abs_bias))]


def monte_carlo_run(grid, dgp_config: DgpConfig,
                    estimator: EstimatorConfig = EstimatorConfig(),
                    reps: int = 1000, seed: int = 0) -> McReport:
    """Simulate, estimate, and aggregate over a grid of panel sizes.

    ``dgp_config`` acts as a template; its n, t, and seed fields are replaced
    per cell and replication. Replication r of cell c runs on the Philox
    stream (seed, c, r). Aggregation uses exact (fsum) summation in
    replication order, so the report is identical under any thread count.
    """
    grid = [(int(n), int(t)) for n, t in grid]
    if reps < 1:
        raise ScceError("need at least one replication")
    if reps > 1 << 28 or len(grid) > 1 << 12:
        raise ScceError("at most 2**28 replications and 2**12 grid cells fit the stream packing")
    if estimator.method == Method.SCCE:  # an error of the design, not a skip of each draw
        for _, t in grid:
            knot_count(t, estimator.knot_c, estimator.knot_rate)

    cells = []
    for cell_idx, (n, t) in enumerate(grid):
        def error(rep: int) -> np.ndarray | None:  # None: skipped; DGP errors propagate
            sim = generate_panel(replace(dgp_config, n=n, t=t,
                                         seed=_pack_stream_seed(seed, cell_idx, rep)))
            try:
                return estimator.estimate(sim.panel).beta - sim.beta
            except ScceError:
                return None

        kept, skipped = drop_skipped(pool_map(error, reps))
        n_kept = len(kept)
        d = len(kept[0])
        abs_bias = tuple(abs(math.fsum(e[k] for e in kept)) / n_kept for k in range(d))
        rmse = tuple(math.sqrt(math.fsum(e[k] ** 2 for e in kept) / n_kept) for k in range(d))
        cells.append(McCell(n=n, t=t, abs_bias=abs_bias, rmse=rmse,
                            reps=reps, skipped=skipped))
    return McReport(dgp=dgp_config.dgp, method=estimator.method,
                    cells=tuple(cells), reps=reps, seed=seed)


def _pack_stream_seed(seed: int, cell: int, rep: int) -> int:
    """Fold (cell, rep) into the entropy so generate_panel's sub-streams stay
    disjoint across replications. The packing is fixed, and injective for the
    rep < 2**28 and cell < 2**12 that monte_carlo_run admits."""
    return (seed << 40) ^ (cell << 28) ^ rep
