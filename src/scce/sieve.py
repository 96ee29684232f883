"""Sieve basis construction from the factor proxy.

Each proxy column is expanded through a univariate basis (truncated-power
cubic splines by default, Hermite and raw power series as alternatives) and
the per-column blocks are concatenated into the T x K design matrix used by
the annihilator. Knots sit at empirical quantiles of the proxy column.

The concatenated layout puts a 1 in every per-column block, so the matrix is
rank-deficient by construction; downstream projections keep the singular
directions above an SVD cutoff and are invariant to the duplicated columns.
One builder (``_sieve_stack``) serves one proxy and the bootstrap's stacks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ScceError, TooSmall
from .panel import FactorProxy

__all__ = ["BasisKind", "BasisFamily", "KnotRate", "SieveBasis",
           "knot_count", "compute_knots", "spline_basis_vector", "build_sieve_matrix"]

TAG_CONSTANT = "constant"
TAG_LINEAR = "linear"
TAG_NONLINEAR = "nonlinear"

_OVERFLOW = "sieve basis overflows: the factor proxy is too large to expand; rescale the data"


class BasisKind(str, enum.Enum):
    CUBIC_SPLINE = "cubic_spline"
    HERMITE = "hermite"
    POWER_SERIES = "power_series"


class KnotRate(str, enum.Enum):
    """Root of T used by the knot-count rule J = C * floor(T**(1/r))."""

    QUARTER = "quarter"
    THIRD = "third"
    FIFTH = "fifth"
    TENTH = "tenth"

    @property
    def root(self) -> int:
        return {"quarter": 4, "third": 3, "fifth": 5, "tenth": 10}[self.value]


@dataclass(frozen=True)
class BasisFamily:
    """Basis family and polynomial degree (cubic splines are fixed at 3)."""

    kind: BasisKind = BasisKind.CUBIC_SPLINE
    degree: int = 3

    def __post_init__(self):
        if self.degree < 1:
            raise ScceError("basis degree must be positive")
        if self.kind == BasisKind.CUBIC_SPLINE and self.degree != 3:
            raise ScceError("cubic splines require degree 3")


@dataclass(frozen=True)
class SieveBasis:
    """T x K basis matrix with knot metadata and per-column provenance tags."""

    matrix: np.ndarray
    knots: tuple  # per source column, ascending knot values
    family: BasisFamily
    j_requested: int
    column_tags: tuple

    def __post_init__(self):
        matrix = np.ascontiguousarray(self.matrix, dtype=np.float64)
        if len(self.column_tags) != matrix.shape[1]:
            raise ScceError("column tag count must equal basis width")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]

    def columns_tagged(self, *tags) -> np.ndarray:
        """Return the sub-matrix of columns whose tag is in ``tags``."""
        mask = np.array([t in tags for t in self.column_tags])
        return self.matrix[:, mask]


def knot_count(t_periods: int, c_multiplier: int = 1, rate: KnotRate = KnotRate.QUARTER) -> int:
    """Number of knots J = C * floor(T**(1/r)), never negative; J >= T raises
    TooSmall, before any basis of that width is allocated.

    A tiny epsilon guards the floor against representation error at exact
    integer roots (e.g. T = 81 at the quarter rate).
    """
    if t_periods < 2:
        raise ScceError(f"knot rule needs T >= 2, got {t_periods}")
    if c_multiplier < 1:
        raise ScceError("knot multiplier must be a positive integer")
    j = max(0, c_multiplier * math.floor(t_periods ** (1.0 / rate.root) + 1e-9))
    if j >= t_periods:
        raise TooSmall(f"the knot rule asks for J={j} knots at T={t_periods}; J must be "
                       "below T: use fewer knots")
    return j


def compute_knots(series: np.ndarray, j: int) -> np.ndarray:
    """Knots at the k/(j+1) empirical quantiles, k = 1..j.

    Quantiles use the linear-interpolation convention h = (T-1)p on the
    sorted values. Tied knots collapse to a single value, so the output is
    strictly increasing and possibly shorter than ``j``.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1 or series.size < 2:
        raise ScceError("knot placement needs a 1-d series of length >= 2")
    knots = _knots(series, j)
    return knots[np.isfinite(knots)]


def _knots(series: np.ndarray, j: int) -> np.ndarray:
    """``compute_knots`` of each series of a (..., T) stack, ascending, with each
    tied knot after the first of its value set to +inf: shape (..., max(j, 0))."""
    probs = np.arange(1, j + 1) / (j + 1)
    knots = np.sort(np.moveaxis(np.quantile(series, probs, axis=-1, method="linear"), 0, -1))
    knots[..., 1:][knots[..., 1:] == knots[..., :-1]] = np.inf
    return knots


def spline_basis_vector(value: float, knots: np.ndarray) -> np.ndarray:
    """Truncated-power cubic terms [1, v, v^2, v^3, (v - knot_j)_+^3, ...]."""
    return _spline_block(np.atleast_1d(np.asarray(value, dtype=np.float64)), np.asarray(knots))[0]


def _spline_block(col: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """[1, v, v^2, v^3, (v - k_1)_+^3, ...] of each entry of ``col`` (..., T) at
    ``knots`` (..., J): shape (..., T, 4 + J)."""
    poly = col[..., None] ** np.arange(4)
    if knots.shape[-1] == 0:
        return poly
    trunc = np.maximum(col[..., :, None] - knots[..., None, :], 0.0) ** 3
    return np.concatenate([poly, trunc], axis=-1)


def _hermite_block(col: np.ndarray, max_degree: int) -> np.ndarray:
    """Probabilists' Hermite polynomials He_0..He_max of each entry of ``col``:
    shape col.shape + (max_degree + 1,)."""
    out = np.empty(col.shape + (max_degree + 1,))
    out[..., 0] = 1.0
    if max_degree >= 1:
        out[..., 1] = col
    for n in range(1, max_degree):
        out[..., n + 1] = col * out[..., n] - n * out[..., n - 1]
    return out


def _power_block(col: np.ndarray, max_degree: int) -> np.ndarray:
    return col[..., None] ** np.arange(max_degree + 1)


def _block(col: np.ndarray, family: BasisFamily, j: int, knots: np.ndarray) -> np.ndarray:
    """The family's basis of each entry of ``col`` (..., T); splines use ``knots``,
    the others degree + j. Overflow gives inf, which the callers check for."""
    with np.errstate(over="ignore", invalid="ignore"):
        if family.kind == BasisKind.CUBIC_SPLINE:
            return _spline_block(col, knots)
        if family.kind == BasisKind.HERMITE:
            return _hermite_block(col, family.degree + j)
        return _power_block(col, family.degree + j)


def build_sieve_matrix(proxy: FactorProxy, family: BasisFamily = BasisFamily(),
                       j: int = 0) -> SieveBasis:
    """Expand every proxy column through the family's basis and concatenate.

    For splines each block has 4 + |knots| columns with knots placed per
    column; Hermite and power-series blocks share the spline block width
    (degree + 1 + j columns) with knots unused. In each block the leading 1
    is tagged constant, the degree-1 term linear, and the rest nonlinear.
    A basis that overflows raises NumericalError.
    """
    if j < 0:
        raise ScceError("knot count must be >= 0")
    stack, _, knots = _sieve_stack(proxy.values.T[None], family, j)
    knots = knots[0]
    live = np.ones((proxy.n_columns, stack.shape[2] // proxy.n_columns), dtype=bool)
    live[:, live.shape[1] - knots.shape[1]:] = np.isfinite(knots)  # drop tied knots
    matrix = stack[0][:, live.ravel()]
    if not np.isfinite(matrix).all():
        raise NumericalError(_OVERFLOW)
    kinds = [TAG_CONSTANT, TAG_LINEAR] + [TAG_NONLINEAR] * (live.shape[1] - 2)
    return SieveBasis(
        matrix=matrix,
        knots=tuple(k[np.isfinite(k)] for k in knots),
        family=family,
        j_requested=j,
        column_tags=tuple(kinds[k] for _, k in zip(*np.nonzero(live))),
    )


def _sieve_stack(proxies: np.ndarray, family: BasisFamily,
                 j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bases of a (B, C, T) stack of proxies, time last: a (B, T, K) stack,
    each basis's width after tied knots collapse, and the (B, C, J) knots
    (J = j for splines, else 0).

    A tied knot is +inf and its column zero here, so that every basis has the
    same K columns and spans what its collapsed basis spans. A basis that
    overflows is returned with its inf entries for the caller to check.
    """
    b, c, t = proxies.shape
    knots = _knots(proxies, j if family.kind == BasisKind.CUBIC_SPLINE else 0)
    block = _block(proxies, family, j, knots)  # (B, C, T, W)
    widths = c * (block.shape[-1] - knots.shape[-1]) + np.isfinite(knots).sum(axis=(1, 2))
    return block.transpose(0, 2, 1, 3).reshape(b, t, -1), widths, knots
