"""Annihilator behaviour and the pooled / mean-group estimators.

Every numeric check is backed by an independent oracle: the dense T x T
annihilator from conftest, per-unit OLS solved by hand, or exact algebraic
identities on noiseless data.
"""

import numpy as np
import pytest

from scce import (
    BasisFamily,
    BasisKind,
    Dgp,
    DgpConfig,
    EstimatorConfig,
    KnotRate,
    Method,
    ScceError,
    SieveBasis,
    SingularDesign,
    SingularUnit,
    annihilate,
    build_sieve_matrix,
    ccemg_estimate,
    ccep_estimate,
    cross_sectional_average,
    estimate_panel,
    generate_panel,
    knot_count,
    scce_estimate,
)
from scce.estimators import _orthonormal_span, _project_panel
from scce.sieve import TAG_CONSTANT, TAG_LINEAR

from conftest import dense_annihilator, make_panel


class TestAnnihilate:
    def test_kills_own_span(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(12, 4))
        out, rank = annihilate(a, a)
        assert np.linalg.norm(out) <= 1e-10 * np.linalg.norm(a)
        assert rank == 4

    def test_full_span_annihilates_everything(self):
        rng = np.random.default_rng(1)
        a = np.eye(8)
        x = rng.normal(size=(8, 3))
        out, rank = annihilate(a, x)
        assert np.linalg.norm(out) <= 1e-10
        assert rank == 8

    def test_duplicated_column_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(15, 3))
        x = rng.normal(size=(15, 2))
        base, rank = annihilate(a, x)
        dup, rank_dup = annihilate(np.hstack([a, a[:, [1]]]), x)
        assert rank == rank_dup == 3
        assert np.allclose(base, dup, atol=1e-10)

    def test_zero_columns_is_identity(self):
        x = np.arange(6.0).reshape(3, 2)
        out, rank = annihilate(np.zeros((3, 2)), x)
        assert rank == 0
        assert np.array_equal(out, x)

    def test_idempotence(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(20, 5))
        x = rng.normal(size=(20, 4))
        once, _ = annihilate(a, x)
        twice, _ = annihilate(a, once)
        assert np.allclose(once, twice, atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(25, 6))
        x = rng.normal(size=(25, 3))
        out, _ = annihilate(a, x)
        assert np.allclose(out, dense_annihilator(a) @ x, atol=1e-10)

    def test_row_mismatch_rejected(self):
        with pytest.raises(Exception, match="row mismatch"):
            annihilate(np.ones((4, 1)), np.ones((5, 1)))


def _default_basis(p):
    proxy = cross_sectional_average(p)
    return build_sieve_matrix(proxy, BasisFamily(), knot_count(p.n_periods))


class TestScceEstimate:
    def test_noiseless_factor_free_is_exact(self, random_panel):
        p = random_panel(n=5, t=30, noise=0.0, beta=(1.0, 1.0), seed=5)
        result = scce_estimate(p, _default_basis(p))
        assert np.allclose(result.beta, [1.0, 1.0], atol=1e-8)

    def test_matches_dense_annihilator_oracle(self):
        sp = generate_panel(DgpConfig(dgp=Dgp.E1, n=5, t=15, seed=6))
        basis = _default_basis(sp.panel)
        result = scce_estimate(sp.panel, basis)
        m = dense_annihilator(basis.matrix)
        gram = sum(sp.panel.x[i].T @ m @ sp.panel.x[i] for i in range(5))
        rhs = sum(sp.panel.x[i].T @ m @ sp.panel.y[i] for i in range(5))
        assert np.allclose(result.beta, np.linalg.solve(gram, rhs), atol=1e-8)

    def test_residuals_orthogonal_to_basis(self):
        sp = generate_panel(DgpConfig(dgp=Dgp.E1, n=8, t=40, seed=7))
        basis = _default_basis(sp.panel)
        result = scce_estimate(sp.panel, basis)
        for i in range(result.n_units):
            eps = result.eps_hat[i]
            assert np.linalg.norm(basis.matrix.T @ eps) <= 1e-8 * np.linalg.norm(eps)
            for k in range(result.n_regressors):
                v = result.v_hat[i, :, k]
                assert np.linalg.norm(basis.matrix.T @ v) <= 1e-8 * np.linalg.norm(v)

    def test_singular_design_on_zero_regressors(self, random_panel):
        p = random_panel(n=4, t=20, seed=8)
        zeroed = make_panel(p.y, np.zeros_like(p.x))
        with pytest.raises(SingularDesign):
            scce_estimate(zeroed, _default_basis(zeroed))

    def test_projection_rank_bounded(self):
        sp = generate_panel(DgpConfig(dgp=Dgp.E1, n=6, t=30, seed=9))
        basis = _default_basis(sp.panel)
        result = scce_estimate(sp.panel, basis)
        assert result.projection_rank <= min(sp.panel.n_periods, basis.n_columns)


class TestCcepEstimate:
    def test_exact_under_linear_factors_with_noiseless_outcome(self):
        # y_i = X_i beta + gamma'f with the same gamma for every unit: the
        # cross-sectional average of y - xbar*beta reproduces gamma'f, so the
        # linear proxy annihilates the factor term exactly.
        rng = np.random.default_rng(10)
        n, t, beta = 5, 30, np.array([1.0, -0.5])
        f = rng.normal(size=(t, 2))
        gamma = np.array([0.7, -1.2])
        x = np.einsum("tk,ikl->itl", f, rng.normal(size=(n, 2, 2)))
        x += rng.normal(size=(n, t, 2))
        y = x @ beta + f @ gamma
        result = ccep_estimate(make_panel(y, x))
        assert np.allclose(result.beta, beta, atol=1e-8)

    def test_matches_dense_annihilator_oracle(self):
        sp = generate_panel(DgpConfig(dgp=Dgp.E2, n=5, t=15, seed=11))
        p = sp.panel
        result = ccep_estimate(p)
        a = np.hstack([np.ones((15, 1)), cross_sectional_average(p).values])
        m = dense_annihilator(a)
        gram = sum(p.x[i].T @ m @ p.x[i] for i in range(5))
        rhs = sum(p.x[i].T @ m @ p.y[i] for i in range(5))
        assert np.allclose(result.beta, np.linalg.solve(gram, rhs), atol=1e-10)

    def test_too_small_t_rejected(self, random_panel):
        p = random_panel(n=4, t=25, seed=12)
        small = make_panel(p.y[:, :6], p.x[:, :6])
        with pytest.raises(Exception, match="CCEP needs T >="):
            ccep_estimate(small)


class TestCcemgEstimate:
    def test_homogeneous_noiseless_units(self, random_panel):
        p = random_panel(n=6, t=25, noise=0.0, beta=(2.0, -1.0), seed=13)
        result = ccemg_estimate(p)
        assert np.allclose(result.per_unit_betas, [2.0, -1.0], atol=1e-8)
        assert np.allclose(result.beta, [2.0, -1.0], atol=1e-8)

    def test_matches_per_unit_ols_oracle(self, random_panel):
        p = random_panel(n=4, t=20, seed=14)
        result = ccemg_estimate(p)
        a = np.hstack([np.ones((20, 1)), cross_sectional_average(p).values])
        m = dense_annihilator(a)
        oracle = np.array([
            np.linalg.solve(p.x[i].T @ m @ p.x[i], p.x[i].T @ m @ p.y[i])
            for i in range(4)])
        assert np.allclose(result.per_unit_betas, oracle, atol=1e-10)
        assert np.allclose(result.beta, oracle.mean(axis=0), atol=1e-10)

    def test_beta_is_mean_of_per_unit(self, random_panel):
        result = ccemg_estimate(random_panel(n=7, t=30, seed=15))
        assert np.allclose(result.beta, result.per_unit_betas.mean(axis=0),
                           atol=1e-12)

    def test_singular_unit_names_the_unit(self, random_panel):
        p = random_panel(n=5, t=20, seed=16)
        # With several singular units the first in storage order is named.
        for zeroed in ([2], [2, 4]):
            x = p.x.copy()
            x[zeroed] = 0.0
            with pytest.raises(SingularUnit) as excinfo:
                ccemg_estimate(make_panel(p.y, x))
            assert excinfo.value.unit == 2


class TestEstimatePanelDispatch:
    def test_dispatch_matches_direct_calls(self, random_panel):
        p = random_panel(n=6, t=30, seed=17)
        assert np.array_equal(estimate_panel(p, Method.SCCE).beta,
                              scce_estimate(p, _default_basis(p)).beta)
        assert np.array_equal(estimate_panel(p, Method.CCEP).beta,
                              ccep_estimate(p).beta)
        assert np.array_equal(estimate_panel(p, Method.CCEMG).beta,
                              ccemg_estimate(p).beta)

    def test_accepts_method_strings(self, random_panel):
        p = random_panel(n=5, t=25, seed=18)
        assert estimate_panel(p, "ccep").method == Method.CCEP

    @pytest.mark.parametrize("method", list(Method))
    def test_config_estimate_is_estimate_panel_bit_for_bit(self, method):
        p = generate_panel(DgpConfig(dgp=Dgp.E1, n=8, t=40, seed=21)).panel
        family, knot_c, rate = BasisFamily(BasisKind.HERMITE), 2, KnotRate.THIRD
        got = EstimatorConfig(method, family, knot_c, rate).estimate(p)
        want = estimate_panel(p, method, family, knot_c, rate)
        for name in ("beta", "eps_hat", "v_hat"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    @pytest.mark.parametrize("kind", [BasisKind.CUBIC_SPLINE, BasisKind.POWER_SERIES])
    def test_config_basis_is_the_proxy_knots_sieve_chain(self, kind):
        p = generate_panel(DgpConfig(dgp=Dgp.E1, n=8, t=40, seed=22)).panel
        family = BasisFamily(kind)
        got = EstimatorConfig(family=family, knot_c=2, knot_rate=KnotRate.THIRD).basis(p)
        want = build_sieve_matrix(cross_sectional_average(p), family,
                                  knot_count(p.n_periods, 2, KnotRate.THIRD))
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.column_tags == want.column_tags
        assert got.j_requested == want.j_requested == 6
        assert len(got.knots) == len(want.knots) == 3
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got.knots, want.knots))


class TestEstimatorConfig:
    def test_string_settings_become_enums(self):
        p = generate_panel(DgpConfig(dgp=Dgp.E1, n=8, t=40, seed=23)).panel
        config = EstimatorConfig(method="ccep", knot_rate="third")
        assert config.method is Method.CCEP and config.knot_rate is KnotRate.THIRD
        got = EstimatorConfig(knot_rate="third").estimate(p)
        want = EstimatorConfig(knot_rate=KnotRate.THIRD).estimate(p)
        assert got.beta.tobytes() == want.beta.tobytes()

    @pytest.mark.parametrize("family", ["hermite", BasisKind.HERMITE,
                                        BasisFamily(BasisKind.HERMITE)])
    def test_family_given_as_kind_or_value_estimates_alike(self, family):
        p = generate_panel(DgpConfig(dgp=Dgp.E1, n=8, t=40, seed=26)).panel
        config = EstimatorConfig(family=family, knot_c=2.0)
        assert config.family == BasisFamily(BasisKind.HERMITE) and config.knot_c == 2
        want = estimate_panel(p, Method.SCCE, BasisFamily(BasisKind.HERMITE), 2)
        assert config.estimate(p).beta.tobytes() == want.beta.tobytes()

    @pytest.mark.parametrize("settings, message", [
        ({"knot_c": 0}, "knot multiplier must be a positive integer"),
        ({"method": Method.CCEP, "knot_c": -1}, "knot multiplier must be a positive integer"),
        ({"method": "ols"}, "'ols' is not a valid Method"),
        ({"knot_rate": "half"}, "'half' is not a valid KnotRate"),
        ({"knot_c": 1.5}, "knot multiplier must be a positive integer"),
        ({"family": "quadratic"}, "'quadratic' is not a valid BasisKind"),
    ])
    def test_bad_settings_fail_at_construction(self, settings, message):
        with pytest.raises(ScceError, match=message):
            EstimatorConfig(**settings)


def _former_projection(u, x):
    """The (N, T, d) einsum projection that _project_panel replaced."""
    return x - np.einsum("tr,irk->itk", u, np.einsum("tr,itk->irk", u, x))


class TestProjectPanel:
    def test_time_last_layout_keeps_the_bits_at_two_regressors(self):
        p = generate_panel(DgpConfig(dgp=Dgp.E1, n=30, t=60, seed=24)).panel
        cols = EstimatorConfig().basis(p).matrix
        my, mx, rank = _project_panel(p, cols)
        u, want_rank = _orthonormal_span(cols)
        assert rank == want_rank
        assert mx.tobytes() == _former_projection(u, p.x).tobytes()
        assert mx.flags.c_contiguous
        assert my.tobytes() == (p.y - (p.y @ u) @ u.T).tobytes()

    def test_single_regressor_agrees_to_rounding(self, random_panel):
        p = random_panel(n=20, t=50, d=1, beta=(1.0,), seed=25)
        cols = EstimatorConfig().basis(p).matrix
        _, mx, _ = _project_panel(p, cols)
        u, _ = _orthonormal_span(cols)
        assert mx.flags.c_contiguous
        assert np.abs(mx - _former_projection(u, p.x)).max() <= 1e-14


class TestInvariants:
    @pytest.mark.parametrize("method", list(Method))
    def test_scale_equivariance(self, random_panel, method):
        p = random_panel(n=6, t=30, seed=19)
        base = estimate_panel(p, method).beta
        c = 3.5

        scaled_y = estimate_panel(make_panel(c * p.y, p.x), method).beta
        assert np.allclose(scaled_y, c * base, rtol=1e-10)

        x = p.x.copy()
        x[:, :, 0] *= c
        scaled_x = estimate_panel(make_panel(p.y, x), method).beta
        assert np.allclose(scaled_x, [base[0] / c, base[1]], rtol=1e-10)

    def test_scce_restricted_to_linear_columns_reproduces_ccep(self, random_panel):
        p = random_panel(n=6, t=30, seed=20)
        full = build_sieve_matrix(cross_sectional_average(p), BasisFamily(), 0)
        restricted_cols = full.columns_tagged(TAG_CONSTANT, TAG_LINEAR)
        tags = tuple(
            t for t in full.column_tags if t in (TAG_CONSTANT, TAG_LINEAR))
        restricted = SieveBasis(matrix=restricted_cols, knots=full.knots,
                                family=full.family, j_requested=0,
                                column_tags=tags)
        assert np.allclose(scce_estimate(p, restricted).beta,
                           ccep_estimate(p).beta, atol=1e-10)
