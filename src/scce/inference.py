"""Covariance estimation and hypothesis tests.

Covers the residual second-moment matrix, the Bartlett-kernel HAC long-run
covariance, the sandwich covariance and standard errors, pair-bootstrap
percentile confidence intervals, a score-type test of factor linearity, and
an augmented Dickey-Fuller pretest with BIC lag selection. Sigma_v and the HAC
reduce one pass over a result's blocks of units (``_moments``), unit by unit.
The linearity statistic's restricted CCEP fit, the one solve outside the
kernel, keeps its own einsums here (``_restricted_residuals``).

Only numpy is imported at module level. ``linearity_test`` imports
``scipy.special.chdtrc`` for its p-value on its first call, so importing the
package, estimating and simulating load no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSeries,
    NoNonlinearColumns,
    NumericalError,
    ScceError,
    SeriesTooShort,
    SingularSigmaV,
    WindowTooLarge,
)
from .estimators import (EstimationResult, EstimatorConfig, Method, _gate, _linear_columns,
                         _orthonormal_span, _solve)
from .panel import PanelData, cross_sectional_average
from .sieve import TAG_NONLINEAR, SieveBasis
from .simulate import drop_skipped, pool_map, stream

__all__ = ["CovarianceEstimate", "BootstrapResult", "TestResult", "BootstrapConfig",
           "default_hac_window", "sigma_v_hat", "hac_theta", "sandwich_covariance",
           "hac_covariance", "bootstrap_ci", "linearity_test", "adf_test"]

# Bytes one chunk of bootstrap draws holds: per draw, its (T, K) basis U and
# the (N(d+1), K) product C = Z U that downdates its Grams, K(N(d+1) + T)
# doubles. Larger chunks run a little faster; this size keeps the chunks of
# two pool threads to a few MB of peak memory.
_CHUNK_BYTES = 3 << 19

# Large-T constant-case ADF critical values at the 1%, 5% and 10% levels.
_ADF_CRITICAL = ((-3.43, 0.01), (-2.86, 0.05), (-2.57, 0.10))


@dataclass(frozen=True)
class CovarianceEstimate:
    """Sandwich covariance pieces and the implied standard errors."""

    sigma_v: np.ndarray
    theta: np.ndarray
    sandwich: np.ndarray
    std_errors: np.ndarray
    hac_window: int


@dataclass(frozen=True)
class BootstrapResult:
    """Pair-bootstrap draws and percentile confidence bounds."""

    draws: np.ndarray  # B x d
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    level: float
    seed: int
    skipped: int = 0


@dataclass(frozen=True)
class TestResult:
    statistic: float
    dof: int
    p_value: float
    decision_at_5pct: bool
    detail: dict = field(default_factory=dict)


def default_hac_window(t_periods: int) -> int:
    """Cube-root window; satisfies L -> inf with L/T -> 0."""
    return int(math.floor(t_periods ** (1.0 / 3.0)))


def _window(window: int | None, t: int, default: int) -> int:
    window = default if window is None else window
    if window < 0 or window >= t:
        raise WindowTooLarge(f"HAC window must satisfy 0 <= L <= T-1; got L={window}, T={t}")
    return window


def _bartlett(gammas) -> np.ndarray:
    """Gamma_0 + sum_{l=1..L} (1 - l/(L+1)) (Gamma_l + Gamma_l'), symmetrised,
    of the L + 1 matrices ``gammas``."""
    total = gammas[0].copy()
    for lag in range(1, len(gammas)):
        total += (1.0 - lag / len(gammas)) * (gammas[lag] + gammas[lag].T)
    return (total + total.T) / 2.0


def _moments(result: EstimationResult, window: int | None) -> tuple:
    """Sigma_v, the Bartlett Theta and the window, in one pass over
    ``EstimationResult._blocks``; lag products are per unit, pairing no two units."""
    n, t, d = result.n_units, result.n_periods, result.n_regressors
    window = _window(window, t, default_hac_window(t))
    gram, total = np.zeros((d, d)), np.zeros((window + 1, d, d))
    with np.errstate(over="ignore", invalid="ignore"):  # sandwich_covariance gates inf
        for _, eps, v in result._blocks():
            v = np.ascontiguousarray(v.transpose(1, 0, 2))  # one (d, m, T) layout, either source
            gram += v.reshape(d, -1) @ v.reshape(d, -1).T
            s = (eps * v).transpose(1, 0, 2)  # each unit's scores eps_it v_it
            for lag in range(window + 1):
                total[lag] += (s[..., lag:] @ s[..., :t - lag].transpose(0, 2, 1)).sum(0)
        total /= n * t
        return (gram + gram.T) / (2.0 * n * t), _bartlett(total), window


def sigma_v_hat(result: EstimationResult) -> np.ndarray:
    """(1/NT) sum_i V_hat_i' V_hat_i."""
    return _moments(result, 0)[0]


def hac_theta(result: EstimationResult, window: int | None = None) -> np.ndarray:
    """Bartlett-weighted HAC estimate of the score long-run covariance.

    Theta_l = (1/NT) sum_i sum_{t>l} eps_it eps_{i,t-l} v_it v_{i,t-l}' and
    Theta = Theta_0 + sum_{l=1..L} (1 - l/(L+1)) (Theta_l + Theta_l').
    """
    return _moments(result, window)[1]


def sandwich_covariance(sigma_v: np.ndarray, theta: np.ndarray,
                        n_units: int, n_periods: int,
                        hac_window: int) -> CovarianceEstimate:
    """Sigma_v^{-1} Theta Sigma_v^{-1} and std errors sqrt(diag / (N T))."""
    if _gate(sigma_v):
        raise SingularSigmaV("residual second-moment matrix is numerically singular")
    if not np.isfinite(theta).all():
        raise NumericalError("HAC covariance overflows: the scores are too large; rescale the data")
    inv = np.linalg.inv(sigma_v)
    sandwich = inv @ theta @ inv
    sandwich = (sandwich + sandwich.T) / 2.0
    return CovarianceEstimate(
        sigma_v=sigma_v,
        theta=theta,
        sandwich=sandwich,
        std_errors=np.sqrt(np.diag(sandwich) / (n_units * n_periods)),
        hac_window=hac_window,
    )


def hac_covariance(result: EstimationResult, window: int | None = None) -> CovarianceEstimate:
    """Convenience wrapper: Sigma_v, HAC Theta, and the sandwich in one call."""
    sigma_v, theta, window = _moments(result, window)
    return sandwich_covariance(sigma_v, theta, result.n_units, result.n_periods, window)


@dataclass(frozen=True)
class BootstrapConfig(EstimatorConfig):
    n_draws: int = 399
    level: float = 0.95
    seed: int = 0
    max_workers: int | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.n_draws < 2:
            raise ScceError("bootstrap needs at least 2 draws")
        if not 0.0 < self.level < 1.0:
            raise ScceError("confidence level must lie in (0, 1)")


def bootstrap_ci(p: PanelData, config: BootstrapConfig = BootstrapConfig()) -> BootstrapResult:
    """Pair bootstrap: resample whole units with replacement.

    Draw b takes its N unit indices from a counter-based stream keyed by
    (seed, b) and becomes the count of each unit among them: a unit weight.
    The draws are estimated in chunks (``draw_betas``) of a fixed size set by
    what a draw holds (``_CHUNK_BYTES``), with the proxy, knots, basis and
    projection of each draw's own resampled panel, so serial and parallel
    runs (over chunks) give identical draws. Draws that fail are skipped and
    counted; more than 1% skipped is an error that names the commonest cause.
    """
    n, d1, t = p.n_units, p.n_regressors + 1, p.n_periods
    k = config.columns(cross_sectional_average(p).values.T[None])[0].shape[-1]
    size = max(1, _CHUNK_BYTES // (8 * k * (n * d1 + t)))

    def chunk(c: int) -> list:
        draws = range(c * size, min((c + 1) * size, config.n_draws))
        w = np.array([np.bincount(stream(config.seed, b).integers(0, n, size=n), minlength=n)
                      for b in draws], dtype=np.float64)
        return config.draw_betas(p, w)

    chunks = pool_map(chunk, -(-config.n_draws // size), config.max_workers)
    kept, skipped = drop_skipped([beta for c in chunks for beta in c], "draws")
    draws = np.array(kept)
    alpha = (1.0 - config.level) / 2.0
    return BootstrapResult(
        draws=draws,
        ci_lower=np.quantile(draws, alpha, axis=0, method="linear"),
        ci_upper=np.quantile(draws, 1.0 - alpha, axis=0, method="linear"),
        level=config.level,
        seed=config.seed,
        skipped=skipped,
    )


def _project_panel(p: PanelData, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Annihilate span(u), u an orthonormal (T, r) basis, from every unit's y and X."""
    # Apply I - U U' along the time axis; memory stays O(NTd + Tr).
    my = p.y - (p.y @ u) @ u.T
    # Time-last (N, d, T): each einsum sums over a contiguous axis, 5-10x
    # faster than over the strided time axis of (N, T, d), in the same order,
    # so the bits hold at d >= 2 (d = 1 moves in the last bit). The contiguous
    # u' and the C-ordered result are part of that: their views change bits.
    # .copy(), since for N = 1 ascontiguousarray would return a read-only view.
    xt = p.x.transpose(0, 2, 1).copy()
    xt -= np.einsum("rt,ikr->ikt", np.ascontiguousarray(u.T), np.einsum("tr,ikt->ikr", u, xt))
    return my, np.ascontiguousarray(xt.transpose(0, 2, 1))


def _restricted_residuals(p: PanelData, u: np.ndarray) -> np.ndarray:
    """CCEP's eps_hat, u an orthonormal basis of [1, F_hat]: einsum projection
    and Gram, since the statistic turns a 2e-13 move in them into a 2e-6 move,
    past perfbench's rtol 1e-8 references; ``_solve`` keeps the kernel's rules."""
    my, mx = _project_panel(p, u)
    gram = np.zeros((1, 1, p.n_regressors + 1, p.n_regressors + 1))
    gram[0, 0, 1:, 1:] = np.einsum("itk,itl->kl", mx, mx)
    gram[0, 0, 1:, 0] = np.einsum("itk,it->k", mx, my)
    beta, (error,), _ = _solve(Method.CCEP, p.n_periods, gram, None, [True], [u.shape[1]], ())
    if error is not None:
        raise error
    return my - np.einsum("itk,k->it", mx, beta[0])


def linearity_test(p: PanelData, basis: SieveBasis,
                   window: int | None = None) -> TestResult:
    """Score-type test that the nonlinear sieve columns are jointly irrelevant.

    Restricted residuals come from CCEP. The tested directions are the
    nonlinear basis columns annihilated by the linear proxy. Because the
    cross-sectional sum of the restricted residuals lies in the annihilated
    span, the informative signal is in the per-unit scores: the statistic
    sums the unit-level score quadratic forms, each studentised by a
    Bartlett HAC estimate of the score covariance, and is compared against a
    chi-squared with (N - 1) * rank(tested block) degrees of freedom (one
    rank's worth is lost to the adding-up constraint on the unit scores).

    The default window is twice the slope-HAC default: the restricted
    residuals keep a slowly decaying common component (the proxies recover
    the factor space only up to averaging noise), so the score
    autocovariance dies off much more slowly than the slope scores'. The
    covariance also carries a T/(T - rank(A)) scale correction for the
    variance lost to the per-unit projection on the proxy span.
    """
    nonlinear = basis.columns_tagged(TAG_NONLINEAR)
    if nonlinear.shape[1] == 0:
        raise NoNonlinearColumns("basis has no nonlinear columns to test")
    n, t = p.n_units, p.n_periods
    window = _window(window, t, 2 * default_hac_window(t))

    u, proxy_rank = _orthonormal_span(_linear_columns(cross_sectional_average(p).values.T))
    u = u[:, :proxy_rank]  # an orthonormal basis of [1, F_hat]
    resid = _restricted_residuals(p, u)  # N x T, orthogonal to [1, F_hat]
    q_cols = nonlinear - u @ (u.T @ nonlinear)  # annihilate's arithmetic
    q_rank = int(_orthonormal_span(q_cols)[1])
    if np.linalg.norm(resid) <= 1e-10 * max(1.0, np.linalg.norm(p.y)):
        # Exact fit: the quadratic form below is scale-invariant, so rounding
        # noise would otherwise masquerade as signal.
        return TestResult(statistic=0.0, dof=(n - 1) * max(q_rank, 1), p_value=1.0,
                          decision_at_5pct=False,
                          detail={"hac_window": window, "degenerate": True})
    if q_rank == 0:
        raise NoNonlinearColumns("nonlinear columns lie entirely in the linear proxy span")

    # HAC covariance of the per-(i, t) score summands q_t * resid_it with
    # Bartlett weights; T * cov approximates the covariance of one unit score.
    def lag_cov(lag: int) -> np.ndarray:
        wl = (resid[:, lag:] * resid[:, :t - lag]).sum(axis=0)
        return (q_cols[lag:] * wl[:, None]).T @ q_cols[:t - lag] / (n * t)

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        scores = resid @ q_cols  # N x q, unit-level scores Q' u_i
        cov = _bartlett([lag_cov(lag) for lag in range(window + 1)])
        cov *= t / (t - proxy_rank)
    if not (np.isfinite(scores).all() and np.isfinite(cov).all()):
        raise NumericalError("linearity statistic overflows: the residuals are too large; "
                             "rescale the data")
    cov_pinv = np.linalg.pinv(cov)
    statistic = float(np.einsum("iq,qr,ir->", scores, cov_pinv, scores)) / t
    statistic = max(statistic, 0.0)
    dof = (n - 1) * q_rank
    from scipy.special import chdtrc  # here, so that only this test pays scipy's import

    p_value = float(chdtrc(dof, statistic))
    return TestResult(
        statistic=statistic,
        dof=dof,
        p_value=p_value,
        decision_at_5pct=p_value < 0.05,
        detail={"hac_window": window, "rank_tested": q_rank,
                "n_nonlinear_columns": int(nonlinear.shape[1])},
    )


def _adf_p_value(statistic: float) -> float:
    """Piecewise-linear interpolation over the fixed critical values.

    A coarse, documented approximation: exact beyond the tabulated points is
    out of scope, so the value is extrapolated linearly and clipped to [0, 1].
    """
    xs = [c for c, _ in _ADF_CRITICAL]
    ps = [p for _, p in _ADF_CRITICAL]
    if statistic <= xs[0]:
        slope = (ps[1] - ps[0]) / (xs[1] - xs[0])
        return max(0.0, ps[0] + slope * (statistic - xs[0]))
    if statistic >= xs[-1]:
        slope = (ps[-1] - ps[-2]) / (xs[-1] - xs[-2])
        return min(1.0, ps[-1] + slope * (statistic - xs[-1]))
    return float(np.interp(statistic, xs, ps))


def adf_test(series: np.ndarray, max_lag: int | None = None) -> TestResult:
    """Augmented Dickey-Fuller regression with constant, lag order by BIC.

    Fits ds_t = a + rho * s_{t-1} + sum phi_l ds_{t-l} + e_t for p = 0..p_max
    on a common sample, picks p by BIC, refits with the chosen p on the full
    available sample, and returns the t-ratio on rho. The 5% decision uses
    the constant-case asymptotic critical value -2.86.
    """
    series = np.asarray(series, dtype=np.float64)
    t = series.size
    if t < 10:
        raise SeriesTooShort(f"ADF needs at least 10 observations, got {t}")
    ds = np.diff(series)
    if np.all(ds == 0.0):
        raise DegenerateSeries("series is constant; ADF regression undefined")
    if max_lag is None:
        max_lag = int(math.floor(12.0 * (t / 100.0) ** 0.25))
    max_lag = max(0, min(max_lag, (t - 1) // 2 - 2))

    # The lags enter centred, so that the series' level costs the design no digits.
    level, ds_centred = series - series.mean(), ds - ds.mean()

    def fit(p_lags: int, start: int):
        # Rows are ds[start:], regressors [1, s_{t-1}, ds lags].
        lhs = ds[start:]
        cols = [np.ones(lhs.size), level[start:-1]]
        cols += [ds_centred[start - l:-l] for l in range(1, p_lags + 1)]
        design = np.column_stack(cols)
        coef, _, rank, _ = np.linalg.lstsq(design, lhs, rcond=None)
        resid = lhs - design @ coef
        nobs, k = design.shape
        if rank < k or nobs <= k:
            return None
        ssr = float(resid @ resid)
        if ssr <= 1e-20 * (lhs @ lhs):  # an exact fit leaves only rounding noise
            raise DegenerateSeries("ADF regression has a perfect fit; t-ratio undefined")
        sigma2 = ssr / (nobs - k)
        xtx_inv = np.linalg.inv(design.T @ design)
        t_rho = coef[1] / math.sqrt(sigma2 * xtx_inv[1, 1])
        bic = nobs * math.log(ssr / nobs) + k * math.log(nobs)
        return t_rho, bic

    common_start = max_lag
    best_p, best_bic = 0, math.inf
    for p_lags in range(max_lag + 1):
        fitted = fit(p_lags, common_start)
        if fitted is None:
            continue
        _, bic = fitted
        if bic < best_bic:
            best_p, best_bic = p_lags, bic
    final = fit(best_p, best_p)
    if final is None:
        raise DegenerateSeries("ADF regression is rank deficient")
    statistic = float(final[0])
    p_value = _adf_p_value(statistic)
    return TestResult(
        statistic=statistic,
        dof=best_p,
        p_value=p_value,
        decision_at_5pct=statistic < -2.86,
        detail={"selected_lags": best_p, "max_lag": max_lag},
    )
