"""Annihilator projections and the pooled / mean-group coefficient estimators.

Each estimator projects a column span out of every unit's [y, X] and solves
the normal equations: SCCE the sieve of the factor proxy, pooled; CCEP
[1, F_hat], pooled; CCEMG [1, F_hat], per unit and averaged. One kernel,
``_estimate_reweighted``, solves a stack of panels, given as unit weights on
one panel, with one stacked SVD of their columns (``EstimatorConfig.columns``).
Its Grams are the downdates Z'Z - C C', C = Z U, of the panel's (N, d + 1, T)
stack Z of [y, X]'; only where the projection removes nearly all of X
(``_DOWNDATE_FLOOR``) do residuals, projected one cache-sized view of Z at a
time, give them. No T x T matrix is formed. A point estimate is the one-panel
case; its result reads residuals by the same blocks (``EstimationResult._blocks``)
for the HAC or to form eps_hat and v_hat on first read; draws and Monte Carlo
replications need only betas (``draw_betas``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ScceError, SingularDesign, SingularUnit, TooSmall
from .panel import PanelData, cross_sectional_average
from .sieve import _OVERFLOW as SIEVE_OVERFLOW, BasisFamily, BasisKind, KnotRate, SieveBasis
from .sieve import _sieve_stack, build_sieve_matrix, knot_count

__all__ = ["Method", "EstimationResult", "EstimatorConfig", "annihilate", "scce_estimate",
           "ccep_estimate", "ccemg_estimate", "estimate_panel"]

# Relative eigenvalue gate for pooled and per-unit Gram matrices.
_EIG_GATE = 1e-10
# A downdated Gram Z'Z - C C' loses about log10(1 / r) digits, r being the
# share of the regressors' sum of squares the projection keeps (for CCEMG, in
# a unit's weakest direction); at r <= this floor a draw's Grams come from
# its residuals instead.
_DOWNDATE_FLOOR = 1e-3
# Bytes of [y, X] per block of units: a block and its residuals stay in cache
# from the GEMMs that project them to their Grams or the HAC's scores.
_BLOCK_BYTES = 256 << 10


class Method(str, enum.Enum):
    SCCE = "scce"
    CCEP = "ccep"
    CCEMG = "ccemg"


class EstimationResult:
    """Coefficients plus the projected residual matrices used for inference.

    ``eps_hat`` (N x T) and ``v_hat`` (N x T x d) lie in the orthogonal
    complement of the projection columns. An estimate's result keeps the
    panel's [y, X] stack until either is read, then forms both in one blocked
    pass; the HAC reads its blocks (``_blocks``) and forms neither, nor does
    reading anything else. ``per_unit_betas`` is populated by the mean-group
    estimator only. A result is read-only.
    """

    def __init__(self, beta, method, eps_hat, v_hat, projection_rank, per_unit_betas=None):
        n, t, d = v_hat.shape
        vars(self).update(beta=beta, method=method, eps_hat=eps_hat, v_hat=v_hat,
                          projection_rank=projection_rank, per_unit_betas=per_unit_betas,
                          n_units=n, n_periods=t, n_regressors=d)

    @classmethod
    def _unformed(cls, beta, method, projection_rank, per_unit_betas, source):
        """A result whose eps_hat = My - MX beta and v_hat = MX, M = I - U U', form on
        first read from source = (Z = [y, X]' (N, d + 1, T), U (1, T, K))."""
        result, (n, d1, t) = cls.__new__(cls), source[0].shape
        vars(result).update(beta=beta, method=method, projection_rank=projection_rank,
                            per_unit_betas=per_unit_betas, n_units=n, n_periods=t,
                            n_regressors=d1 - 1, _source=source)
        return result

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: an EstimationResult is read-only")

    def __getattr__(self, name):  # only an attribute not yet in __dict__ gets here
        if name not in ("eps_hat", "v_hat"):
            raise AttributeError(f"'EstimationResult' object has no attribute {name!r}")
        if "_source" in vars(self):  # else a thread that formed them has published them
            eps = np.empty((self.n_units, self.n_periods))
            v = np.empty((*eps.shape, self.n_regressors))
            for lo, e, vt in self._blocks():
                eps[lo:lo + len(e)], v[lo:lo + len(e)] = e, vt.transpose(0, 2, 1)
            eps, v = vars(self).setdefault("_residuals", (eps, v))  # the first published wins
            vars(self).update(eps_hat=eps, v_hat=v)
            vars(self).pop("_source", None)
        return vars(self)[name]

    def _blocks(self):
        """Each _BLOCK_BYTES block of units' first unit, eps_hat (m, T) and v_hat
        time-last (m, d, T): projected from the panel until they are formed, v_hat in
        a buffer the next block reuses; then views of the formed arrays, same blocks."""
        source = vars(self).get("_source")
        if source is not None:
            for lo, resid in _residual_blocks(*source):
                yield lo, resid[0, :, 0] - self.beta @ resid[0, :, 1:], resid[0, :, 1:]
            return
        size = max(1, _BLOCK_BYTES // (8 * (self.n_regressors + 1) * self.n_periods))
        for lo in range(0, self.n_units, size):
            yield lo, self.eps_hat[lo:lo + size], self.v_hat[lo:lo + size].transpose(0, 2, 1)

    def __repr__(self) -> str:
        return (f"EstimationResult(beta={self.beta!r}, method={self.method!r}, projection_rank="
                f"{self.projection_rank!r}, per_unit_betas={self.per_unit_betas!r})")


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


def _gate(gram: np.ndarray) -> np.ndarray:
    """Which matrices of a stack (..., d, d) are not finite or fail the eigenvalue gate."""
    finite = np.isfinite(gram).all(axis=(-2, -1))
    eigvals = np.linalg.eigvalsh(np.where(finite[..., None, None], gram, 1.0))
    return ~finite | (eigvals[..., -1] <= 0) | (eigvals[..., 0] <= _EIG_GATE * eigvals[..., -1])


def _linear_columns(proxies: np.ndarray) -> np.ndarray:
    """[1, F_hat] of each proxy of a (..., C, T) stack: (..., T, 1 + C)."""
    f = np.swapaxes(proxies, -1, -2)
    return np.concatenate([np.ones(f.shape[:-1] + (1,)), f], axis=-1)


def _solve(method: Method, t: int, grams: np.ndarray, w, finite, rank, labels) -> tuple:
    """Gate and solve a (B, M, d + 1, d + 1) stack of Grams [y, X]' M [y, X],
    per unit for CCEMG (M = N, unit weights ``w``), else pooled (M = 1): the
    (B, d) betas (zero where a panel fails), each panel's ScceError or None,
    and the CCEMG per-unit betas (else None).
    """
    d = grams.shape[-1] - 1
    units = w > 0 if method == Method.CCEMG else np.ones(grams.shape[:2], dtype=bool)
    blown = (units & ~np.isfinite(grams[..., 1:, :]).all(axis=(-2, -1))).any(axis=1)
    bad = units & _gate(grams[..., 1:, 1:])

    def error(ok, r, over, singular):  # the first that applies, in this order
        if not ok:
            return NumericalError(SIEVE_OVERFLOW)
        if method == Method.CCEP and t < 2 * d + 3:
            return TooSmall(f"CCEP needs T >= {2 * d + 3}, got T={t}")
        if method == Method.CCEMG and t - r <= d:
            return TooSmall(f"CCEMG needs T - rank(proxy) > d; got T={t}, rank={r}, d={d}")
        if r >= t:  # the residuals are rounding noise
            return TooSmall(f"the projection spans all T periods (rank={r}, T={t}); "
                            "use fewer knots")
        if over:
            return NumericalError("Gram matrix overflows: the data are too large; rescale the data")
        if singular.any() and method == Method.CCEMG:
            return SingularUnit(labels[np.argmax(singular)])
        if singular.any():
            return SingularDesign("Gram matrix fails the relative-eigenvalue gate; design is "
                                  "collinear or T is too small relative to the projection rank")
        return None

    errors = [error(*draw) for draw in zip(finite, rank, blown, bad)]
    solved = units & np.array([e is None for e in errors])[:, None]
    per_unit = np.zeros(units.shape + (d,))
    per_unit[solved] = np.linalg.solve(grams[solved, 1:, 1:], grams[solved, 1:, :1])[..., 0]
    if method == Method.CCEMG:
        return np.einsum("bi,bik->bk", w, per_unit) / w.shape[1], errors, per_unit
    return per_unit[:, 0], errors, None


def _residual_blocks(z: np.ndarray, u: np.ndarray):
    """The residuals Z - (Z U) U' of a C-contiguous (N, d + 1, T) stack z of
    [y, X]', on each basis of a (B, T, K) stack u, _BLOCK_BYTES of them at a
    time: yields each block's first unit and its (B, m, d + 1, T) residuals,
    in a buffer reused so as not to fault in fresh pages."""
    (n, d1, t), b = z.shape, len(u)
    size = min(n, max(1, _BLOCK_BYTES // (8 * b * d1 * t)))
    rb = np.empty((b, size * d1, t))
    for lo in range(0, n, size):
        m = min(size, n - lo)
        zr, resid = z[lo:lo + m].reshape(-1, t), rb[:, :m * d1]
        np.matmul(zr @ u, u.transpose(0, 2, 1), out=resid)
        np.subtract(zr, resid, out=resid)
        yield lo, resid.reshape(b, m, d1, t)


def _downdated_grams(method: Method, z: np.ndarray, w: np.ndarray, u: np.ndarray,
                     rank: np.ndarray) -> np.ndarray:
    """The (B, N, d + 1, d + 1) per-unit Grams [y, X]' M [y, X] as Z'Z - C C',
    C = Z U, formed _BLOCK_BYTES of z's rows at a time, since one whole-panel
    GEMM gives C other bits at two BLAS threads than at one (seen at T = 500).
    A panel takes its Grams from ``_residual_blocks`` where its downdate is not
    finite or keeps at most _DOWNDATE_FLOOR of tr(X'X): pooled, in the trace
    tr(X'MX) summed over its units; for CCEMG, in the smallest eigenvalue of
    any of its units' X_i'MX_i, since each unit is solved alone."""
    n, d1, t = z.shape
    zr, size = z.reshape(n * d1, t), max(1, _BLOCK_BYTES // (8 * t))
    c = np.empty((len(u), n * d1, u.shape[2]))
    for lo in range(0, n * d1, size):
        np.matmul(zr[lo:lo + size], u, out=c[:, lo:lo + size])
    c = c.reshape(len(u), n, d1, -1)
    raw = z @ z.transpose(0, 2, 1)
    grams = raw - c @ c.transpose(0, 1, 3, 2)
    total = np.trace(raw[:, 1:, 1:], axis1=-2, axis2=-1)  # (N,) tr(X_i' X_i)
    if method == Method.CCEMG:  # lambda_min <= trace: this also bounds what the trace keeps
        xm = grams[..., 1:, 1:]
        finite = np.isfinite(xm).all(axis=(-2, -1))
        least = np.linalg.eigvalsh(np.where(finite[..., None, None], xm, 0.0))[..., 0]
        low = ((w > 0) & ~(finite & (least > _DOWNDATE_FLOOR * total))).any(axis=1)
    else:
        kept = np.trace(grams[..., 1:, 1:], axis1=-2, axis2=-1)  # (B, N) tr(X_i' M X_i)
        low = ~((w * kept).sum(axis=1) > _DOWNDATE_FLOOR * (w @ total))
    low &= rank < t  # _solve rejects a draw of rank T without its Grams
    if low.any():
        grams[low] = np.concatenate(
            [r @ r.transpose(0, 1, 3, 2) for _, r in _residual_blocks(z, u[low])], 1)
    return grams


def _estimate_reweighted(method: Method, z: np.ndarray, w: np.ndarray, cols: np.ndarray,
                         widths, labels) -> tuple:
    """The estimation kernel: panel b repeats unit i w[b, i] times (rows of w
    sum to N) and projects the span of cols[b] (``widths`` as in
    ``_orthonormal_span``) out of a panel's (N, d + 1, T) stack z of [y, X]'.
    Returns ``_solve``'s betas and errors (``labels`` name the units), the
    (B,) ranks, the (B, T, K) orthonormal bases and the CCEMG per-unit betas.
    Every panel's Grams come from ``_downdated_grams``."""
    finite = np.isfinite(cols).all(axis=(1, 2))
    u, rank = _orthonormal_span(np.where(finite[:, None, None], cols, 0.0), widths)
    with np.errstate(over="ignore", invalid="ignore"):  # _solve reports an overflow
        grams = _downdated_grams(method, z, w, u, rank)
        grams[w == 0] = 0.0  # a unit a panel leaves out must not overflow its sum
        if method != Method.CCEMG:
            grams = np.einsum("bi,bikl->bkl", w, grams)[:, None]
    beta, errors, per_unit = _solve(method, z.shape[2], grams, w, finite, rank, labels)
    return beta, errors, rank, u, per_unit


def _fit(method: Method, p: PanelData, cols: np.ndarray, widths=None) -> EstimationResult:
    """The kernel's B = 1, w = 1 case: estimate p with projection columns cols[0];
    the result forms its residuals when they are first read."""
    beta, (error,), rank, u, per_unit = _estimate_reweighted(
        method, p._z, np.ones((1, p.n_units)), cols, widths, p.unit_labels)
    if error is not None:
        raise error
    return EstimationResult._unformed(beta[0], method, int(rank[0]),
                                      None if per_unit is None else per_unit[0], (p._z, u))


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

    def columns(self, proxies: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """The projection columns of a (B, C, T) stack of proxies and their
        widths: the sieve for SCCE, [1, F_hat] for CCEP and CCEMG."""
        if self.method != Method.SCCE:
            return _linear_columns(proxies), None
        j = knot_count(proxies.shape[-1], self.knot_c, self.knot_rate)
        return _sieve_stack(proxies, self.family, j)[:2]

    def draw_betas(self, p: PanelData, w: np.ndarray) -> list:
        """``self.estimate(q).beta`` of each panel q that repeats unit i of p
        w[b, i] times, or its ScceError, with no result to hold residuals; q's
        proxy is the plain mean w[b] Z / N of p's stack Z."""
        n, d1, t = p._z.shape
        cols, widths = self.columns((w @ p._z.reshape(n, -1) / n).reshape(-1, d1, t))
        beta, errors, *_ = _estimate_reweighted(self.method, p._z, w, cols, widths, range(n))
        return [b if e is None else e for b, e in zip(beta, errors)]

    def basis(self, p: PanelData) -> SieveBasis:
        """The sieve basis of the panel's own cross-sectional averages."""
        j = knot_count(p.n_periods, self.knot_c, self.knot_rate)
        return build_sieve_matrix(cross_sectional_average(p), self.family, j)

    def estimate(self, p: PanelData) -> EstimationResult:
        """Estimate the panel with the columns of its own (compensated-sum) proxy."""
        return _fit(self.method, p, *self.columns(cross_sectional_average(p).values.T[None]))


def scce_estimate(p: PanelData, basis: SieveBasis) -> EstimationResult:
    """Pooled estimator with the sieve basis as projection columns."""
    if basis.matrix.shape[0] != p.n_periods:
        raise ScceError("basis row count must equal the panel's T")
    return _fit(Method.SCCE, p, basis.matrix[None])


def ccep_estimate(p: PanelData) -> EstimationResult:
    """Pooled CCE: projection columns are an intercept plus the averages."""
    return EstimatorConfig(Method.CCEP).estimate(p)


def ccemg_estimate(p: PanelData) -> EstimationResult:
    """Mean-group CCE: average of per-unit estimates after projecting [1, F_hat]."""
    return EstimatorConfig(Method.CCEMG).estimate(p)


def estimate_panel(p: PanelData, method: Method = EstimatorConfig.method,
                   family: BasisFamily = EstimatorConfig.family,
                   knot_c: int = EstimatorConfig.knot_c,
                   knot_rate: KnotRate = EstimatorConfig.knot_rate) -> EstimationResult:
    """``EstimatorConfig(method, family, knot_c, knot_rate).estimate(p)``;
    CCEP and CCEMG ignore the sieve settings."""
    return EstimatorConfig(method, family, knot_c, knot_rate).estimate(p)
