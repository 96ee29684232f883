"""Annihilator projections and the pooled / mean-group coefficient estimators.

The sieve estimator projects the sieve basis out of each unit's data with a
shared annihilator and solves the pooled normal equations; the CCEP and CCEMG
baselines do the same with the linear proxy [1, F_hat]. The production path
never materialises the T x T projection matrix: residuals are computed as
X - U (U' X) from an orthonormal basis U of the projection columns. The
bootstrap solves a chunk of resampled panels, given as unit weights, in one
set of stacked products (``_estimate_reweighted``). Both paths share one
sieve and knot rule (``_sieve_stack``), one span cutoff
(``_orthonormal_span``) and one [1, F_hat] (``_linear_columns``). Only the
arithmetic differs: the bootstrap's proxy, residual and Grams are GEMMs; the
point estimate keeps the Kahan proxy and einsums, whose bits the linearity
statistic would amplify past the benchmark's references if they moved.

The panel's regressors are projected in a time-last (N, d, T) layout, so
that the summed time axis is contiguous. The einsum then runs its fast
contiguous loop while accumulating in the same order as over the (N, T, d)
storage, so every result keeps its bits at d >= 2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ScceError, SingularDesign, SingularUnit, TooSmall
from .panel import PanelData, cross_sectional_average
from .sieve import (BasisFamily, BasisKind, KnotRate, SieveBasis, _sieve_stack,
                    build_sieve_matrix, knot_count)

__all__ = ["Method", "EstimationResult", "EstimatorConfig", "annihilate", "scce_estimate",
           "ccep_estimate", "ccemg_estimate", "estimate_panel"]

# Relative eigenvalue gate for pooled and per-unit Gram matrices.
_EIG_GATE = 1e-10


class Method(str, enum.Enum):
    SCCE = "scce"
    CCEP = "ccep"
    CCEMG = "ccemg"


@dataclass(frozen=True)
class EstimationResult:
    """Coefficients plus the projected residual matrices used for inference.

    ``eps_hat`` (N x T) and ``v_hat`` (N x T x d) lie in the orthogonal
    complement of the projection columns. ``per_unit_betas`` is populated by
    the mean-group estimator only.
    """

    beta: np.ndarray
    method: Method
    eps_hat: np.ndarray
    v_hat: np.ndarray
    projection_rank: int
    per_unit_betas: np.ndarray | None = None

    @property
    def n_units(self) -> int:
        return self.eps_hat.shape[0]

    @property
    def n_periods(self) -> int:
        return self.eps_hat.shape[1]

    @property
    def n_regressors(self) -> int:
        return self.v_hat.shape[2]


def _orthonormal_span(columns: np.ndarray, widths=None) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases U of the column spans of a (..., T, K) stack, and
    their ranks: singular values at or below max(T, K_b) * eps * sigma_max
    count as zero, K_b being ``widths`` (default K), so duplicated or
    collinear columns do not change the span. U is zeroed past each rank;
    a zero or empty block has rank 0.
    """
    t, k = columns.shape[-2:]
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    width = np.maximum(t, k if widths is None else widths)
    kept = s > width[..., None] * np.finfo(np.float64).eps * s[..., :1]
    u *= kept[..., None, :]
    return u, kept.sum(axis=-1)


def annihilate(columns: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, int]:
    """Apply M_A = I - A (A'A)^+ A' to ``target``; also report rank(A).

    Computed through an orthonormal basis of span(A), which equals the
    pseudo-inverse formula exactly on the retained singular directions. A
    zero or empty A returns the target unchanged with rank 0.
    """
    columns = np.asarray(columns, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if columns.shape[0] != target.shape[0]:
        raise ScceError(f"row mismatch: columns has {columns.shape[0]} rows, target {target.shape[0]}")
    u, rank = _orthonormal_span(columns)
    u = u[:, :rank]
    return target - u @ (u.T @ target), int(rank)


def _project_panel(p: PanelData, proj_columns: np.ndarray):
    """Annihilate the projection columns from every unit's y and X."""
    u, rank = _orthonormal_span(np.asarray(proj_columns, dtype=np.float64))
    u = u[:, :rank]
    # Apply I - U U' along the time axis; memory stays O(NTd + Tr).
    my = p.y - (p.y @ u) @ u.T
    # Time-last (N, d, T): each einsum sums over a contiguous axis, 5-10x
    # faster than over the strided time axis of (N, T, d), in the same order,
    # so the bits hold at d >= 2 (d = 1 moves in the last bit). The contiguous
    # u' and the C-ordered result are part of that: their views change bits.
    # .copy(), since at d = 1 ascontiguousarray would return read-only p.x.
    xt = p.x.transpose(0, 2, 1).copy()
    xt -= np.einsum("rt,ikr->ikt", np.ascontiguousarray(u.T), np.einsum("tr,ikt->ikr", u, xt))
    return my, np.ascontiguousarray(xt.transpose(0, 2, 1)), int(rank)


def _gate(gram: np.ndarray) -> np.ndarray:
    """Which matrices of a stack (..., d, d) are not finite or fail the eigenvalue gate."""
    finite = np.isfinite(gram).all(axis=(-2, -1))
    eigvals = np.linalg.eigvalsh(np.where(finite[..., None, None], gram, 1.0))
    return ~finite | (eigvals[..., -1] <= 0) | (eigvals[..., 0] <= _EIG_GATE * eigvals[..., -1])


def _estimate(p: PanelData, proj_columns: np.ndarray, method: Method) -> EstimationResult:
    """Annihilate ``proj_columns`` from every unit's y and X, then solve the
    normal equations: pooled, or per unit and averaged for CCEMG."""
    d = p.n_regressors
    if method == Method.CCEP and p.n_periods < 2 * d + 3:
        raise TooSmall(f"CCEP needs T >= {2 * d + 3}, got T={p.n_periods}")
    my, mx, rank = _project_panel(p, proj_columns)
    per_unit = None
    if method == Method.CCEMG:
        if p.n_periods - rank <= d:
            raise TooSmall(f"CCEMG needs T - rank(proxy) > d; got T={p.n_periods}, "
                           f"rank={rank}, d={d}")
        # Stacked matmul, not einsum: it makes the same BLAS call per unit as
        # mx[i].T @ mx[i], so the per-unit betas keep their bits.
        mx_t = mx.transpose(0, 2, 1)
        with np.errstate(over="ignore", invalid="ignore"):  # _gate rejects inf
            gram = mx_t @ mx
        bad = np.flatnonzero(_gate(gram))
        if bad.size:
            raise SingularUnit(p.unit_labels[bad[0]])
        per_unit = np.linalg.solve(gram, mx_t @ my[:, :, None])[:, :, 0]
        beta = per_unit.mean(axis=0)
    else:
        gram = np.einsum("itk,itl->kl", mx, mx)
        rhs = np.einsum("itk,it->k", mx, my)
        if _gate(gram):
            raise SingularDesign("Gram matrix fails the relative-eigenvalue gate; "
                                 "design is collinear or T is too small relative to "
                                 "the projection rank")
        beta = np.linalg.solve(gram, rhs)
    return EstimationResult(
        beta=beta,
        method=method,
        eps_hat=my - np.einsum("itk,k->it", mx, beta),
        v_hat=mx,
        projection_rank=rank,
        per_unit_betas=per_unit,
    )


def scce_estimate(p: PanelData, basis: SieveBasis) -> EstimationResult:
    """Pooled estimator with the sieve basis as projection columns."""
    if basis.matrix.shape[0] != p.n_periods:
        raise ScceError("basis row count must equal the panel's T")
    return _estimate(p, basis.matrix, Method.SCCE)


def _linear_columns(proxies: np.ndarray) -> np.ndarray:
    """[1, F_hat] of each proxy of a (..., C, T) stack: (..., T, 1 + C)."""
    f = np.swapaxes(proxies, -1, -2)
    return np.concatenate([np.ones(f.shape[:-1] + (1,)), f], axis=-1)


def _linear_proxy_columns(p: PanelData) -> np.ndarray:
    return _linear_columns(cross_sectional_average(p).values.T)


def ccep_estimate(p: PanelData) -> EstimationResult:
    """Pooled CCE: projection columns are an intercept plus the averages."""
    return _estimate(p, _linear_proxy_columns(p), Method.CCEP)


def ccemg_estimate(p: PanelData) -> EstimationResult:
    """Mean-group CCE: average of per-unit estimates after projecting [1, F_hat]."""
    return _estimate(p, _linear_proxy_columns(p), Method.CCEMG)


@dataclass(frozen=True)
class EstimatorConfig:
    """The method and, for SCCE, the sieve: a family and J = knot_c * floor(T**(1/r)) knots.

    ``method`` and ``knot_rate`` may be given as their string values and
    ``family`` as its BasisKind or that kind's value; an unknown value or a
    ``knot_c`` that is not a positive integer raises ScceError here, not later.
    """

    method: Method = Method.SCCE
    family: BasisFamily = BasisFamily()
    knot_c: int = 1
    knot_rate: KnotRate = KnotRate.QUARTER

    def __post_init__(self):
        try:
            object.__setattr__(self, "method", Method(self.method))
            object.__setattr__(self, "knot_rate", KnotRate(self.knot_rate))
            if not isinstance(self.family, BasisFamily):
                object.__setattr__(self, "family", BasisFamily(BasisKind(self.family)))
        except ValueError as exc:
            raise ScceError(str(exc)) from None
        knot_c = self.knot_c
        if isinstance(knot_c, float) and knot_c.is_integer():
            knot_c = int(knot_c)
        if not isinstance(knot_c, (int, np.integer)) or knot_c < 1:
            raise ScceError("knot multiplier must be a positive integer")
        object.__setattr__(self, "knot_c", int(knot_c))

    def basis(self, p: PanelData) -> SieveBasis:
        """The sieve basis of the panel's own cross-sectional averages."""
        j = knot_count(p.n_periods, self.knot_c, self.knot_rate)
        return build_sieve_matrix(cross_sectional_average(p), self.family, j)

    def estimate(self, p: PanelData) -> EstimationResult:
        """``estimate_panel`` with these settings."""
        return estimate_panel(p, self.method, self.family, self.knot_c, self.knot_rate)


def _estimate_reweighted(config: EstimatorConfig, z: np.ndarray, w: np.ndarray) -> list:
    """``config.estimate(q).beta`` for each panel q that repeats unit i w[b, i]
    times (w is B x N, each row summing to N), or None where it would raise
    ScceError. ``z`` is the panel's [y, X] in (N, d + 1, T) layout.

    The B panels are solved together: one GEMM for their proxies, one stacked
    basis and span, one stacked residual Z - (Z U) U' that projects every
    unit once, and the weighted Grams. The results agree with the per-panel
    path to rounding (about 1e-13 relative).
    """
    n, d1, t = z.shape
    d = d1 - 1
    if config.method == Method.CCEP and t < 2 * d + 3:
        return [None] * len(w)
    proxies = (w @ z.reshape(n, -1) / n).reshape(-1, d1, t)
    if config.method == Method.SCCE:
        cols, widths, _ = _sieve_stack(proxies, config.family,
                                       knot_count(t, config.knot_c, config.knot_rate))
    else:
        cols, widths = _linear_columns(proxies), None
    # A basis that overflows raises NumericalError on the per-panel path.
    finite = np.isfinite(cols).all(axis=(1, 2))
    cols[~finite] = 0.0
    u, rank = _orthonormal_span(cols, widths)
    zr = z.reshape(n * d1, t)
    with np.errstate(over="ignore", invalid="ignore"):  # _gate rejects inf
        resid = (zr @ u) @ u.transpose(0, 2, 1)
        np.subtract(zr, resid, out=resid)
        resid = resid.reshape(len(w), n, d1, t)
        grams = resid @ resid.transpose(0, 1, 3, 2)  # per unit [y, X]' M [y, X]
    if config.method == Method.CCEMG:
        present = w > 0
        fits = finite & (t - rank > d) & ~(_gate(grams[:, :, 1:, 1:]) & present).any(axis=1)
        solved = fits[:, None] & present
        per_unit = np.zeros((len(w), n, d))
        per_unit[solved] = np.linalg.solve(grams[solved, 1:, 1:], grams[solved, 1:, :1])[..., 0]
        beta = np.einsum("bi,bik->bk", w, per_unit) / n
    else:
        pooled = np.einsum("bi,bikl->bkl", w, grams)
        fits = finite & ~_gate(pooled[:, 1:, 1:])
        beta = np.zeros((len(w), d))
        beta[fits] = np.linalg.solve(pooled[fits, 1:, 1:], pooled[fits, 1:, :1])[..., 0]
    return [b if fit else None for b, fit in zip(beta, fits)]


def estimate_panel(p: PanelData, method: Method = EstimatorConfig.method,
                   family: BasisFamily = EstimatorConfig.family,
                   knot_c: int = EstimatorConfig.knot_c,
                   knot_rate: KnotRate = EstimatorConfig.knot_rate) -> EstimationResult:
    """Run the configured estimator end to end on a panel.

    For the sieve estimator this rebuilds the factor proxy, knots, and basis
    from the panel; CCEP/CCEMG ignore the basis configuration.
    """
    method = Method(method)
    if method == Method.CCEP:
        return ccep_estimate(p)
    if method == Method.CCEMG:
        return ccemg_estimate(p)
    return scce_estimate(p, EstimatorConfig(method, family, knot_c, knot_rate).basis(p))
