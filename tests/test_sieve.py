"""Knot rules, quantile placement, spline evaluation, and basis assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scce import (
    BasisFamily,
    BasisKind,
    FactorProxy,
    KnotRate,
    NumericalError,
    TooSmall,
    build_sieve_matrix,
    compute_knots,
    knot_count,
    spline_basis_vector,
)
from scce.sieve import (TAG_CONSTANT, TAG_LINEAR, TAG_NONLINEAR, _knots, _sieve_stack,
                        _spline_block)


class TestKnotCount:
    @pytest.mark.parametrize("t, c, rate, expected", [
        (20, 1, KnotRate.QUARTER, 2),
        (100, 1, KnotRate.QUARTER, 3),
        (300, 2, KnotRate.QUARTER, 8),
        (27, 1, KnotRate.THIRD, 3),
        (100, 1, KnotRate.FIFTH, 2),
        (100, 1, KnotRate.TENTH, 1),
    ])
    def test_formula(self, t, c, rate, expected):
        assert knot_count(t, c, rate) == expected

    @pytest.mark.parametrize("c", [15, 40, 10**6])
    def test_as_many_knots_as_periods_is_too_small(self, c):
        # J = 2C at T = 30; the check comes before any basis is built.
        with pytest.raises(TooSmall, match=f"J={2 * c} knots at T=30; J must be below T"):
            knot_count(30, c)
        assert knot_count(30, 14) == 28

    def test_exact_integer_root_is_stable(self):
        # 81 ** 0.25 == 3 up to float representation; must not floor to 2.
        assert knot_count(81, 1, KnotRate.QUARTER) == 3
        assert knot_count(1000, 1, KnotRate.THIRD) == 10


class TestComputeKnots:
    def test_median(self):
        series = np.arange(1.0, 11.0)
        assert np.allclose(compute_knots(series, 1), [5.5])

    def test_constant_series_dedups(self):
        assert np.array_equal(compute_knots(np.full(9, 7.0), 3), [7.0])

    def test_interpolated_quintiles(self):
        series = np.arange(1.0, 11.0)
        assert np.allclose(compute_knots(series, 4), [2.8, 4.6, 6.4, 8.2])

    def test_zero_knots(self):
        for j in (0, -1, -3):
            knots = compute_knots(np.arange(5.0), j)
            assert knots.size == 0 and knots.dtype == np.float64

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        series = rng.normal(size=40)
        assert np.array_equal(compute_knots(series, 3),
                              compute_knots(series[::-1].copy(), 3))

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(t=st.integers(2, 600), j=st.integers(0, 8), seed=st.integers(0, 2**16),
           kind=st.sampled_from(["normal", "ties", "signed_zeros", "zeros_and_ones",
                                 "constant", "nan"]))
    def test_bits_match_numpys_linear_quantile(self, t, j, seed, kind):
        rng = np.random.default_rng(seed)
        series = {"normal": lambda: rng.normal(size=t),
                  "ties": lambda: np.round(rng.normal(size=t), 1),  # also -0.0
                  "signed_zeros": lambda: rng.choice([-0.0, 0.0], size=t),
                  "zeros_and_ones": lambda: rng.choice([-0.0, 0.0, 1.0, -1.0], size=t),
                  "constant": lambda: np.full(t, rng.normal()),
                  "nan": lambda: np.where(np.arange(t) == rng.integers(t), np.nan,
                                          rng.normal(size=t))}[kind]()
        stack = np.stack([series, rng.permutation(series)])
        for data in (series, stack):
            probs = np.arange(1, j + 1) / (j + 1)
            want = np.sort(np.moveaxis(np.quantile(data, probs, axis=-1, method="linear"), 0, -1))
            want[..., 1:][want[..., 1:] == want[..., :-1]] = np.inf
            assert _knots(data, j).tobytes() == want.tobytes()

    def test_strictly_increasing(self):
        rng = np.random.default_rng(1)
        series = np.round(rng.normal(size=30), 1)  # force some ties
        knots = compute_knots(series, 8)
        assert np.all(np.diff(knots) > 0)


class TestSplineBasisVector:
    def test_direct_evaluation(self):
        assert np.allclose(spline_basis_vector(2.0, np.array([1.0])),
                           [1.0, 2.0, 4.0, 8.0, 1.0])

    def test_below_all_knots(self):
        assert np.allclose(spline_basis_vector(0.0, np.array([1.0, 2.0])),
                           [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])

    def test_empty_knots(self):
        assert np.allclose(spline_basis_vector(0.0, np.array([])),
                           [1.0, 0.0, 0.0, 0.0])

    def test_twice_differentiable_at_knot(self):
        # Numeric second derivative of the truncated-power column must agree
        # on both sides of the knot (C2 smoothness).
        knots = np.array([0.5])
        h = 1e-3

        def second_diff(v):
            f = lambda u: spline_basis_vector(u, knots)[4]
            return (f(v + h) - 2.0 * f(v) + f(v - h)) / h**2

        left, right = second_diff(0.5 - 5 * h), second_diff(0.5 + 5 * h)
        analytic_left, analytic_right = 0.0, 6.0 * 5 * h
        assert abs(left - analytic_left) <= 1e-4
        assert abs(right - analytic_right) <= 1e-4 * max(1.0, abs(analytic_right))


def proxy_from(matrix):
    return FactorProxy(values=np.asarray(matrix, dtype=float))


class TestBuildSieveMatrix:
    def test_column_count_paper_layout(self):
        rng = np.random.default_rng(2)
        proxy = proxy_from(rng.normal(size=(30, 3)))  # d = 2 source columns + ybar
        basis = build_sieve_matrix(proxy, BasisFamily(), 3)
        assert basis.matrix.shape == (30, 21)  # 3 * (4 + 3)

    def test_constant_column_block(self):
        c = 1.5
        values = np.column_stack([np.full(10, c), np.arange(10.0)])
        basis = build_sieve_matrix(proxy_from(values), BasisFamily(), 2)
        block = basis.matrix[:, :5]  # knots dedup to one -> 4 + 1 columns
        assert np.allclose(block, np.tile([1.0, c, c**2, c**3, 0.0], (10, 1)))

    def test_power_series_equals_spline_without_knots(self):
        rng = np.random.default_rng(3)
        proxy = proxy_from(rng.normal(size=(25, 2)))
        spline = build_sieve_matrix(proxy, BasisFamily(), 0)
        power = build_sieve_matrix(
            proxy, BasisFamily(kind=BasisKind.POWER_SERIES, degree=3), 0)
        assert np.allclose(spline.matrix, power.matrix)

    def test_bookkeeping(self):
        rng = np.random.default_rng(4)
        proxy = proxy_from(rng.normal(size=(40, 3)))
        basis = build_sieve_matrix(proxy, BasisFamily(), 2)
        expected_width = sum(4 + len(k) for k in basis.knots)
        assert basis.matrix.shape[1] == expected_width
        assert len(basis.column_tags) == expected_width
        assert sum(tag == TAG_CONSTANT for tag in basis.column_tags) == 3
        assert sum(tag == TAG_LINEAR for tag in basis.column_tags) == 3
        assert basis.columns_tagged(TAG_NONLINEAR).shape[1] == expected_width - 6

    def test_polynomial_part_nested_in_larger_basis(self):
        rng = np.random.default_rng(5)
        proxy = proxy_from(rng.normal(size=(50, 2)))
        small = build_sieve_matrix(proxy, BasisFamily(), 1)
        large = build_sieve_matrix(proxy, BasisFamily(), 3)
        # Knot locations move with J, so only the polynomial part of the
        # small basis is guaranteed to lie in the span of the large one.
        q_large, _ = np.linalg.qr(large.matrix)
        for _ in range(5):
            poly = small.matrix[:, :4] @ rng.normal(size=4)
            resid = poly - q_large @ (q_large.T @ poly)
            assert np.linalg.norm(resid) <= 1e-10 * max(1.0, np.linalg.norm(poly))

    def test_superset_knot_span_contains_subset(self):
        rng = np.random.default_rng(6)
        series = rng.normal(size=60)
        knots_small = compute_knots(series, 2)
        knots_large = np.unique(np.concatenate([knots_small, compute_knots(series, 5)]))
        small = np.array([spline_basis_vector(v, knots_small) for v in series])
        large = np.array([spline_basis_vector(v, knots_large) for v in series])
        q, _ = np.linalg.qr(large)
        for _ in range(5):
            z = small @ rng.normal(size=small.shape[1])
            resid = z - q @ (q.T @ z)
            assert np.linalg.norm(resid) <= 1e-10 * max(1.0, np.linalg.norm(z))

    def test_hermite_probabilists_convention(self):
        rng = np.random.default_rng(7)
        proxy = proxy_from(rng.normal(size=(15, 1)))
        basis = build_sieve_matrix(
            proxy, BasisFamily(kind=BasisKind.HERMITE, degree=3), 1)
        v = proxy.values[:, 0]
        expected = np.column_stack([
            np.ones_like(v), v, v**2 - 1.0, v**3 - 3.0 * v, v**4 - 6.0 * v**2 + 3.0])
        assert np.allclose(basis.matrix, expected)

    def test_finite_output(self):
        rng = np.random.default_rng(8)
        proxy = proxy_from(1e3 * rng.normal(size=(20, 3)))
        for kind in BasisKind:
            fam = BasisFamily(kind=kind) if kind == BasisKind.CUBIC_SPLINE \
                else BasisFamily(kind=kind, degree=3)
            assert np.isfinite(build_sieve_matrix(proxy, fam, 2).matrix).all()

    @pytest.mark.parametrize("kind", list(BasisKind))
    def test_overflow_raises_numerical_error(self, kind):
        # Finite proxy values whose cubes overflow.
        proxy = proxy_from(1e120 * np.random.default_rng(9).normal(size=(20, 3)))
        with pytest.raises(NumericalError, match="sieve basis overflows"):
            build_sieve_matrix(proxy, BasisFamily(kind=kind), 2)


class TestSieveStack:
    @pytest.mark.parametrize("kind", list(BasisKind))
    def test_each_basis_is_the_single_build_with_tied_columns_zero(self, kind):
        rng = np.random.default_rng(10)
        proxies = rng.normal(size=(4, 3, 40))
        proxies[1, 2, :30] = 0.5  # both knots of this column tie
        stack, widths, knots = _sieve_stack(proxies, BasisFamily(kind=kind), 2)
        assert knots.shape == (4, 3, 2 if kind == BasisKind.CUBIC_SPLINE else 0)
        for b in range(4):
            single = build_sieve_matrix(proxy_from(proxies[b].T), BasisFamily(kind=kind), 2)
            live = stack[b].any(axis=0)
            assert widths[b] == single.n_columns == live.sum()
            assert stack[b][:, live].tobytes() == single.matrix.tobytes()
            for got, want in zip(knots[b], single.knots):
                assert got[np.isfinite(got)].tobytes() == want.tobytes()
        if kind == BasisKind.CUBIC_SPLINE:
            assert widths[1] == stack.shape[2] - 1
            assert np.isinf(knots[1, 2, 1]) and np.isfinite(knots[[0, 2, 3]]).all()

    def test_spline_block_has_the_bits_of_pow_on_every_term(self):
        # pow(v, 2) and v * v may differ in the last bit, so the block must
        # keep pow's bits on every term, NaN, inf, overflow and ties included.
        proxies = np.random.default_rng(12).normal(size=(3, 2, 30))
        proxies[0, 0, :3] = [np.nan, np.inf, -np.inf]
        proxies[1, 1, 4] = 1e120
        proxies[2, 0, :20] = 0.0
        knots = _knots(proxies, 4)
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.concatenate([proxies[..., None] ** np.arange(4), np.maximum(
                proxies[..., :, None] - knots[..., None, :], 0.0) ** 3], axis=-1)
            assert _spline_block(proxies, knots).tobytes() == want.tobytes()
            assert _spline_block(proxies, knots[..., :0]).tobytes() == want[..., :4].tobytes()

    def test_overflow_is_left_for_the_caller(self):
        proxies = np.random.default_rng(11).normal(size=(2, 3, 20))
        proxies[1] *= 1e120
        stack, _, _ = _sieve_stack(proxies, BasisFamily(), 2)
        assert np.isfinite(stack[0]).all() and not np.isfinite(stack[1]).all()


def _quantile_knots(col, j):
    return np.unique(np.quantile(col, np.arange(1, j + 1) / (j + 1)))


def _reference_block(col, family, j):
    """One column's basis from numpy's own polynomial routines, or for splines
    from the definition: 1, v, v^2, v^3, then (v - k)^3 where v > k, else 0,
    at each deduplicated quantile knot k."""
    if family.kind == BasisKind.HERMITE:
        return np.polynomial.hermite_e.hermevander(col, family.degree + j)
    if family.kind == BasisKind.POWER_SERIES:
        return np.vander(col, family.degree + j + 1, increasing=True)
    rows = [[1.0, v, v * v, v * v * v] + [(v - k) ** 3 if v > k else 0.0
                                          for k in _quantile_knots(col, j)] for v in col]
    return np.array(rows).reshape(col.size, -1)


@st.composite
def tied_proxies(draw):
    """A (T, C) proxy whose columns each repeat one value over a drawn stretch."""
    t, c = draw(st.integers(4, 40)), draw(st.integers(1, 4))
    values = np.random.default_rng(draw(st.integers(0, 2**16))).uniform(-2.5, 2.5, size=(t, c))
    for r in range(c):
        start, length = draw(st.integers(0, t - 1)), draw(st.integers(0, t))
        values[start:start + length, r] = values[start, r]
    return values


class TestIndependentReferences:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(values=tied_proxies(), j=st.integers(0, 5),
           family=st.sampled_from([BasisFamily(), BasisFamily(BasisKind.HERMITE, 3),
                                   BasisFamily(BasisKind.HERMITE, 1),
                                   BasisFamily(BasisKind.POWER_SERIES, 3),
                                   BasisFamily(BasisKind.POWER_SERIES, 2)]))
    def test_basis_matches_numpy_references(self, values, j, family):
        basis = build_sieve_matrix(proxy_from(values), family, j)
        blocks = [_reference_block(col, family, j) for col in values.T]
        want = np.hstack(blocks)
        assert basis.matrix.shape == want.shape
        assert np.abs(basis.matrix - want).max() <= 1e-12 * np.abs(want).max()
        tags = []
        for block in blocks:
            tags += [TAG_CONSTANT, TAG_LINEAR] + [TAG_NONLINEAR] * (block.shape[1] - 2)
        assert basis.column_tags == tuple(tags)
        for col, knots in zip(values.T, basis.knots):
            want_knots = _quantile_knots(col, j)
            assert compute_knots(col, j).tobytes() == want_knots.tobytes()
            if family.kind != BasisKind.CUBIC_SPLINE:
                want_knots = np.empty(0)
            assert knots.tobytes() == want_knots.tobytes()
