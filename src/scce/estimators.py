"""Annihilator projections and the pooled / mean-group coefficient estimators.

The sieve estimator projects the sieve basis out of each unit's data with a
shared annihilator and solves the pooled normal equations; the CCEP and CCEMG
baselines do the same with the linear proxy [1, F_hat]. The production path
never materialises the T x T projection matrix: residuals are computed as
X - U (U' X) from an orthonormal basis U of the projection columns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ScceError, SingularDesign, SingularUnit, TooSmall
from .panel import PanelData, cross_sectional_average
from .sieve import BasisFamily, KnotRate, SieveBasis, build_sieve_matrix, knot_count

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


def _orthonormal_span(columns: np.ndarray) -> tuple[np.ndarray, int]:
    """Orthonormal basis of the column span, with rank by the SVD cutoff.

    Singular values below max(T, K) * eps * sigma_max are treated as zero,
    which makes the projection invariant to duplicated or collinear columns.
    """
    t, k = columns.shape
    if k == 0 or not columns.any():
        return np.zeros((t, 0)), 0
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    tol = max(t, k) * np.finfo(np.float64).eps * s[0]
    rank = int(np.count_nonzero(s > tol))
    return u[:, :rank], rank


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
    if rank == 0:
        return target.copy(), 0
    return target - u @ (u.T @ target), rank


def _project_panel(p: PanelData, proj_columns: np.ndarray):
    """Annihilate the projection columns from every unit's y and X."""
    u, rank = _orthonormal_span(np.asarray(proj_columns, dtype=np.float64))
    if rank == 0:
        return p.y.copy(), p.x.copy(), 0
    # Apply I - U U' along the time axis; memory stays O(NTd + Tr).
    my = p.y - (p.y @ u) @ u.T
    mx = p.x - np.einsum("tr,irk->itk", u, np.einsum("tr,itk->irk", u, p.x))
    return my, mx, rank


def _gate(gram: np.ndarray) -> int | None:
    """Index of the first matrix of a stack (0 for a single matrix) that fails
    the relative-eigenvalue gate, or None when all pass."""
    eigvals = np.linalg.eigvalsh(gram)
    failed = (eigvals[..., -1] <= 0) | (eigvals[..., 0] <= _EIG_GATE * eigvals[..., -1])
    return int(np.flatnonzero(failed)[0]) if failed.any() else None


def _estimate(p: PanelData, proj_columns: np.ndarray, method: Method) -> EstimationResult:
    """Annihilate ``proj_columns`` from every unit's y and X, then solve the
    normal equations: pooled, or per unit and averaged for CCEMG."""
    my, mx, rank = _project_panel(p, proj_columns)
    per_unit = None
    if method == Method.CCEMG:
        d = p.n_regressors
        if p.n_periods - rank <= d:
            raise TooSmall(f"CCEMG needs T - rank(proxy) > d; got T={p.n_periods}, "
                           f"rank={rank}, d={d}")
        # Stacked matmul, not einsum: it makes the same BLAS call per unit as
        # mx[i].T @ mx[i], so the per-unit betas keep their bits.
        mx_t = mx.transpose(0, 2, 1)
        gram = mx_t @ mx
        bad = _gate(gram)
        if bad is not None:
            raise SingularUnit(p.unit_labels[bad])
        per_unit = np.linalg.solve(gram, mx_t @ my[:, :, None])[:, :, 0]
        beta = per_unit.mean(axis=0)
    else:
        gram = np.einsum("itk,itl->kl", mx, mx)
        rhs = np.einsum("itk,it->k", mx, my)
        if _gate(gram) is not None:
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


def _linear_proxy_columns(p: PanelData) -> np.ndarray:
    proxy = cross_sectional_average(p)
    return np.hstack([np.ones((p.n_periods, 1)), proxy.values])


def ccep_estimate(p: PanelData) -> EstimationResult:
    """Pooled CCE: projection columns are an intercept plus the averages."""
    d = p.n_regressors
    if p.n_periods < 2 * d + 3:
        raise TooSmall(f"CCEP needs T >= {2 * d + 3}, got T={p.n_periods}")
    return _estimate(p, _linear_proxy_columns(p), Method.CCEP)


def ccemg_estimate(p: PanelData) -> EstimationResult:
    """Mean-group CCE: average of per-unit estimates after projecting [1, F_hat]."""
    return _estimate(p, _linear_proxy_columns(p), Method.CCEMG)


@dataclass(frozen=True)
class EstimatorConfig:
    """The method and, for SCCE, the sieve: a family and J = knot_c * floor(T**(1/r)) knots."""

    method: Method = Method.SCCE
    family: BasisFamily = BasisFamily()
    knot_c: int = 1
    knot_rate: KnotRate = KnotRate.QUARTER

    def basis(self, p: PanelData) -> SieveBasis:
        """The sieve basis of the panel's own cross-sectional averages."""
        j = knot_count(p.n_periods, self.knot_c, self.knot_rate)
        return build_sieve_matrix(cross_sectional_average(p), self.family, j)

    def estimate(self, p: PanelData) -> EstimationResult:
        """``estimate_panel`` with these settings."""
        return estimate_panel(p, self.method, self.family, self.knot_c, self.knot_rate)


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
