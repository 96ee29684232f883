"""Annihilator behaviour and the pooled / mean-group estimators.

Every numeric check is backed by an independent oracle: the dense T x T
annihilator from conftest, per-unit OLS solved by hand, or exact algebraic
identities on noiseless data.
"""

import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scce import (
    BasisFamily,
    BasisKind,
    Dgp,
    DgpConfig,
    EstimationResult,
    EstimatorConfig,
    KnotRate,
    Method,
    NumericalError,
    ScceError,
    SieveBasis,
    SingularDesign,
    SingularUnit,
    TooSmall,
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
from scce import estimators
from scce.estimators import _estimate_reweighted, _orthonormal_span
from scce.inference import _project_panel, hac_covariance
from scce.sieve import TAG_CONSTANT, TAG_LINEAR

from conftest import dense_annihilator, make_panel


@st.composite
def random_blocks(draw, t=None, k=None):
    """A normal (T, K) block, K = 0 allowed, with some columns zeroed and
    some duplicated (a multiple of another column), or all zero."""
    t = draw(st.integers(1, 30)) if t is None else t
    k = draw(st.integers(0, 12)) if k is None else k
    block = np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=(t, k))
    if k and draw(st.booleans()):
        block[:] = 0.0
    for col in range(k):
        action = draw(st.sampled_from(["keep", "keep", "zero", "copy"]))
        if action == "zero":
            block[:, col] = 0.0
        elif action == "copy":
            block[:, col] = draw(st.sampled_from([1.0, -2.0, 0.5])) * block[:, draw(
                st.integers(0, k - 1))]
    return block


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

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(block=random_blocks())
    def test_matches_dense_oracle_with_its_rank(self, block):
        x = np.random.default_rng(block.shape[1]).normal(size=(block.shape[0], 3))
        out, rank = annihilate(block, x)
        assert type(rank) is int
        assert rank == (np.linalg.matrix_rank(block) if block.any() else 0)
        assert np.abs(out - dense_annihilator(block) @ x).max() <= 1e-10

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(t=st.integers(1, 30), k=st.integers(0, 12), data=st.data())
    def test_a_stack_is_its_single_spans_byte_for_byte(self, t, k, data):
        stack = np.stack([data.draw(random_blocks(t, k)) for _ in range(data.draw(
            st.integers(1, 5)))])
        u, rank = _orthonormal_span(stack)
        for b, block in enumerate(stack):
            single_u, single_rank = _orthonormal_span(block)
            assert rank[b] == single_rank
            assert u[b].tobytes() == single_u.tobytes()
            assert not u[b][:, single_rank:].any()


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

    def test_basis_rows_must_equal_the_panel_periods(self, random_panel):
        p = random_panel(n=6, t=30, seed=43)
        basis = _default_basis(random_panel(n=6, t=31, seed=43))
        with pytest.raises(ScceError, match="basis row count must equal the panel's T"):
            scce_estimate(p, basis)

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

    @pytest.mark.filterwarnings("error")
    def test_overflowing_unit_grams_fail_the_gate_without_a_warning(self):
        p = generate_panel(DgpConfig(dgp=Dgp.E1, n=10, t=30, seed=0)).panel
        with pytest.raises(NumericalError, match="rescale the data"):
            ccemg_estimate(make_panel(1e154 * p.y, 1e154 * p.x))


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
        u, rank = _orthonormal_span(EstimatorConfig().basis(p).matrix)
        u = u[:, :rank]
        my, mx = _project_panel(p, u)
        # einsum's bits follow its input's strides: the reference ran on a contiguous x.
        assert mx.tobytes() == _former_projection(u, np.ascontiguousarray(p.x)).tobytes()
        assert mx.flags.c_contiguous
        assert my.tobytes() == (p.y - (p.y @ u) @ u.T).tobytes()

    def test_single_regressor_agrees_to_rounding(self, random_panel):
        p = random_panel(n=20, t=50, d=1, beta=(1.0,), seed=25)
        u, rank = _orthonormal_span(EstimatorConfig().basis(p).matrix)
        u = u[:, :rank]
        _, mx = _project_panel(p, u)
        assert mx.flags.c_contiguous
        assert np.abs(mx - _former_projection(u, p.x)).max() <= 1e-14


def _failing_panel(kind):
    """A 10-unit panel and the method that fails on it as ``_FAILURES[kind]`` says."""
    rng = np.random.default_rng(40)
    t = 6 if kind.startswith("too_small") else 30
    x = rng.normal(size=(10, t, 2))
    y = x @ np.array([1.0, -1.0]) + rng.normal(size=(10, t))
    method = {"too_small_ccep": Method.CCEP, "too_small_ccemg": Method.CCEMG,
              "singular_unit": Method.CCEMG, "gram_overflow": Method.CCEP}.get(kind, Method.SCCE)
    if kind == "basis_overflow":
        y *= 1e110  # the cubic terms of y's average overflow
    elif kind == "gram_overflow":
        y, x = 1e154 * y, 1e154 * x
    elif kind == "singular_unit":
        x[2] = 0.0
    elif kind == "singular_design":
        x[:] = 0.0
    return make_panel(y, x), method


_FAILURES = {
    "basis_overflow": (NumericalError, "sieve basis overflows: the factor proxy is too large "
                                       "to expand; rescale the data"),
    "too_small_ccep": (TooSmall, "CCEP needs T >= 7, got T=6"),
    "too_small_ccemg": (TooSmall, "CCEMG needs T - rank(proxy) > d; got T=6, rank=4, d=2"),
    "gram_overflow": (NumericalError, "Gram matrix overflows: the data are too large; "
                                      "rescale the data"),
    "singular_unit": (SingularUnit, "unit-level regression singular for unit 2"),
    "singular_design": (SingularDesign, "Gram matrix fails the relative-eigenvalue gate; "
                                        "design is collinear or T is too small relative to "
                                        "the projection rank"),
}


def _good_panel(t):
    """10 units whose x2 come in +/- pairs: the x2 average is 0, so [1, F_hat]
    has rank 3 and CCEMG fits at T = 6 where a generic panel has rank 4."""
    rng = np.random.default_rng(41)
    x = rng.normal(size=(10, t, 2))
    x[5:, :, 1] = -x[:5, :, 1]
    return make_panel(x @ np.array([1.0, -1.0]) + rng.normal(size=(10, t)), x)


def dense_estimate(p, method):
    """The estimate by the dense T x T annihilator M of the method's columns:
    beta, eps_hat = My - MX beta, v_hat = MX and the CCEMG per-unit betas."""
    config, t = EstimatorConfig(method), p.n_periods
    if method == Method.SCCE:
        a = config.basis(p).matrix
    else:
        a = np.hstack([np.ones((t, 1)), cross_sectional_average(p).values])
    m = dense_annihilator(a)
    my, mx = p.y @ m, np.einsum("st,isk->itk", m, p.x)
    per_unit = None
    if method == Method.CCEMG:
        per_unit = np.array([np.linalg.solve(mx[i].T @ mx[i], mx[i].T @ my[i])
                             for i in range(p.n_units)])
        beta = per_unit.mean(axis=0)
    else:
        beta = np.linalg.solve(np.einsum("itk,itl->kl", mx, mx),
                               np.einsum("itk,it->k", mx, my))
    return {"beta": beta, "eps_hat": my - mx @ beta, "v_hat": mx, "per_unit_betas": per_unit}


def noise_panel(n, t, d, seed):
    """y = the sum of the d regressors + noise, all N(0, 1); ``seed`` may
    also be a Generator, which the draws then advance."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, t, d))
    return make_panel(x.sum(axis=2) + rng.normal(size=(n, t)), x)


class TestKernel:
    """``_estimate_reweighted`` is the only estimation kernel: a point estimate
    is its one-panel case, and each panel of a stack fails on its own."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", list(_FAILURES))
    def test_each_failure_keeps_its_class_and_message_and_its_draw(self, kind):
        p, method = _failing_panel(kind)
        cls, message = _FAILURES[kind]
        with pytest.raises(cls) as raised:
            EstimatorConfig(method).estimate(p)
        assert type(raised.value) is cls and str(raised.value) == message
        # A two-panel stack over [failing units, good units]: panel 0 repeats
        # each failing unit twice and panel 1 each good unit.
        good = _good_panel(p.n_periods)
        z = np.concatenate([p._z, good._z])
        w = np.kron(np.eye(2), np.full(10, 2.0))
        config = EstimatorConfig(method)
        cols, widths = config.columns((w @ z.reshape(20, -1) / 20).reshape(2, 3, -1))
        beta, errors, rank, _, _ = _estimate_reweighted(method, z, w, cols, widths, range(20))
        assert type(errors[0]) is cls and str(errors[0]) == message
        if kind == "too_small_ccep":  # a rule on T alone fails every panel
            assert type(errors[1]) is cls
            return
        assert errors[1] is None
        want = config.estimate(good)
        assert rank[1] == want.projection_rank
        assert np.abs(beta[1] - want.beta).max() <= 1e-12 * np.abs(want.beta).max()

    def test_a_projection_that_spans_all_periods_fails_only_its_draw(self):
        # The residuals of such a projection are rounding noise, so a beta
        # solved from them depends on the order of the sums.
        p = generate_panel(DgpConfig(dgp=Dgp.E1, n=20, t=20, seed=0)).panel
        message = "the projection spans all T periods (rank=20, T=20); use fewer knots"
        with pytest.raises(TooSmall) as raised:
            EstimatorConfig(knot_c=3).estimate(p)
        assert str(raised.value) == message
        # Panel 0 projects the knot_c = 3 sieve, panel 1 [1, F_hat] padded with zeros.
        sieve = EstimatorConfig(knot_c=3).basis(p).matrix
        cols = np.zeros((2,) + sieve.shape)
        cols[0], cols[1, :, :4] = sieve, np.hstack([np.ones((20, 1)),
                                                    cross_sectional_average(p).values])
        beta, errors, rank, _, _ = _estimate_reweighted(
            Method.SCCE, p._z, np.ones((2, 20)), cols, None, p.unit_labels)
        assert type(errors[0]) is TooSmall and str(errors[0]) == message
        assert errors[1] is None and rank.tolist() == [20, 4]
        want = ccep_estimate(p).beta
        assert np.abs(beta[1] - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("units", [1, 3, 4], ids=["1x10", "3-3-3-1", "4-4-2"])
    @pytest.mark.parametrize("method", list(Method))
    def test_blocks_of_units_change_only_rounding(self, monkeypatch, method, units):
        p = generate_panel(DgpConfig(dgp=Dgp.E1, n=10, t=30, seed=7)).panel
        whole = EstimatorConfig(method).estimate(p)  # 10 units of 3 x 30 doubles: one block
        whole.eps_hat  # form its residuals in that one block too, before the blocks shrink
        monkeypatch.setattr(estimators, "_BLOCK_BYTES", units * 8 * 3 * 30)
        split = EstimatorConfig(method).estimate(p)
        assert np.abs(split.beta - whole.beta).max() <= 1e-14 * np.abs(whole.beta).max()
        for got, want in ((split.eps_hat, whole.eps_hat), (split.v_hat, whole.v_hat)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert split.projection_rank == whole.projection_rank

    @pytest.mark.filterwarnings("error")
    def test_a_failing_unit_in_a_later_block_is_still_found(self, monkeypatch):
        monkeypatch.setattr(estimators, "_BLOCK_BYTES", 3 * 8 * 3 * 30)  # 3, 3, 3, 1 units
        rng = np.random.default_rng(40)
        x = rng.normal(size=(10, 30, 2))
        y = x @ np.array([1.0, -1.0]) + rng.normal(size=(10, 30))
        for unit in (4, 9):
            singular = x.copy()
            singular[unit] = 0.0
            with pytest.raises(SingularUnit) as raised:
                ccemg_estimate(make_panel(y, singular))
            assert str(raised.value) == f"unit-level regression singular for unit {unit}"
        # Units 8 and 9, in the last two blocks, cancel in the averages, so
        # the projection keeps their scale and their Grams overflow.
        big_y, big_x = y.copy(), x.copy()
        big_y[8:], big_x[8:] = 1e154 * y[8], 1e154 * x[8]
        big_y[9], big_x[9] = -big_y[9], -big_x[9]
        for method in (Method.CCEP, Method.CCEMG):
            with pytest.raises(NumericalError, match="^Gram matrix overflows"):
                EstimatorConfig(method).estimate(make_panel(big_y, big_x))

    def test_the_stacked_panel_is_contiguous_and_results_hold_no_view_of_it(self, random_panel):
        p = random_panel(n=7, t=30, d=3, beta=(1.0, 2.0, 3.0), seed=42)
        z = p._z
        assert z.flags.c_contiguous and not z.flags.writeable and z.shape == (7, 4, 30)
        assert p.y.base is z and p.x.base is z
        assert p.y.shape == (7, 30) and p.x.shape == (7, 30, 3)
        assert not (p.y.flags.writeable or p.x.flags.writeable)
        assert z[:, 0].tobytes() == p.y.tobytes()
        assert z[:, 1:].tobytes() == np.ascontiguousarray(p.x.transpose(0, 2, 1)).tobytes()
        for shape in ((7, -1), (28, 30)):
            assert np.shares_memory(z.reshape(shape), z)
        # A result owns its residuals, so it does not keep the stack alive.
        result = EstimatorConfig().estimate(p)
        assert result.v_hat.flags.c_contiguous
        assert result.v_hat.base is None and result.eps_hat.base is None

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(n=st.integers(2, 12), t=st.integers(30, 60), d=st.integers(1, 3),
           method=st.sampled_from(list(Method)), seed=st.integers(0, 2**16))
    def test_matches_the_dense_oracle(self, n, t, d, method, seed):
        p = noise_panel(n, t, d, seed)
        got = EstimatorConfig(method).estimate(p)
        want = dense_estimate(p, method)
        for name in ("beta", "eps_hat", "v_hat"):
            assert np.abs(getattr(got, name) - want[name]).max() <= 1e-10, name
        if method == Method.CCEMG:
            assert np.abs(got.per_unit_betas - want["per_unit_betas"]).max() <= 1e-10
        else:
            assert got.per_unit_betas is None


class TestLazyResiduals:
    """A point estimate's Grams are downdates, so it runs no residual pass; it
    forms eps_hat and v_hat on the first read of either, in one blocked pass
    over the panel; reading anything else runs no pass, and the HAC reads the
    same blocks of units without forming them."""

    @pytest.mark.parametrize("first", ["eps_hat", "v_hat"])
    @pytest.mark.parametrize("method", list(Method))
    def test_residuals_form_on_first_read_only(self, monkeypatch, method, first):
        p = noise_panel(9, 40, 2, 5)

        def forbidden(*args, **kwargs):
            raise AssertionError("the residual pass ran")

        with monkeypatch.context() as patch:
            patch.setattr(estimators, "_residual_blocks", forbidden)
            result = EstimatorConfig(method).estimate(p)  # its Grams are downdates
            assert result.beta.shape == (2,) and result.projection_rank > 0
            assert (result.per_unit_betas is None) == (method != Method.CCEMG)
            assert (result.n_units, result.n_periods, result.n_regressors) == (9, 40, 2)
            assert repr(result).startswith("EstimationResult(beta=array(")
        formed = getattr(result, first)  # forms both
        want = dense_estimate(p, method)
        for name in ("eps_hat", "v_hat"):
            array = getattr(result, name)
            assert array.flags.c_contiguous and array.flags.owndata, name
            assert getattr(result, name) is array, name
            assert np.abs(array - want[name]).max() <= 1e-10, name
        assert getattr(result, first) is formed
        with pytest.raises(AttributeError, match="read-only"):
            result.beta = np.zeros(2)
        with pytest.raises(TypeError):  # the public constructor takes the residuals
            type(result)(beta=np.zeros(2), method=method, projection_rank=0)

    def test_threads_that_read_at_once_get_the_same_arrays(self):
        result = EstimatorConfig(Method.CCEP).estimate(noise_panel(200, 60, 3, 6))
        start = threading.Barrier(4)

        def read(name):
            start.wait(timeout=10)
            return getattr(result, name)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                reads = list(pool.map(read, ["eps_hat", "v_hat"] * 2, timeout=30))
        finally:
            sys.setswitchinterval(interval)
        assert all(a is result.eps_hat for a in reads[::2])
        assert all(a is result.v_hat for a in reads[1::2])

    @pytest.mark.parametrize("method", list(Method))
    def test_neither_an_estimate_nor_its_hac_allocates_residuals(self, method):
        p = generate_panel(DgpConfig(dgp=Dgp.E1, n=1000, t=200, seed=2)).panel
        n, t = p.n_units, p.n_periods
        # What a first call imports is not traced.
        hac_covariance(EstimatorConfig(method).estimate(p))
        tracemalloc.start()
        try:
            result = EstimatorConfig(method).estimate(p)
            estimate_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            hac_covariance(result)
            hac_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert estimate_peak < 8 * n * t
        assert hac_peak < 8 * n * t  # eps_hat alone would take 8 N T bytes
        assert "eps_hat" not in vars(result) and "v_hat" not in vars(result)

    @pytest.mark.parametrize("method", list(Method))
    def test_the_hac_reads_the_same_blocks_before_and_after_the_residuals_form(
            self, monkeypatch, method):
        monkeypatch.setattr(estimators, "_BLOCK_BYTES", 3 * 8 * 3 * 30)  # 3, 3, 3, 1 units
        p = generate_panel(DgpConfig(dgp=Dgp.E1, n=10, t=30, seed=7)).panel
        result = EstimatorConfig(method).estimate(p)
        unformed = hac_covariance(result)
        assert "eps_hat" not in vars(result)
        rebuilt = EstimationResult(result.beta, method, result.eps_hat, result.v_hat,
                                   result.projection_rank, result.per_unit_betas)
        for est in (hac_covariance(result), hac_covariance(rebuilt)):
            for name in ("sigma_v", "theta", "std_errors"):
                assert getattr(est, name).tobytes() == getattr(unformed, name).tobytes(), name


def assert_scale_equivariant(p, config, c, k):
    """beta(c y) = c beta, and scaling column k of X by c divides beta_k by c."""
    base = config.estimate(p).beta
    np.testing.assert_allclose(config.estimate(make_panel(c * p.y, p.x)).beta, c * base,
                               rtol=1e-10, atol=0)
    x = p.x.copy()
    x[:, :, k] *= c
    want = base.copy()
    want[k] /= c
    np.testing.assert_allclose(config.estimate(make_panel(p.y, x)).beta, want,
                               rtol=1e-10, atol=0)


class TestInvariants:
    # SCCE expands the raw proxy, whose scale follows the data's, so its
    # sieve's column norms spread as c**(degree + J): within a factor 3 of
    # unit scale it stays equivariant to 1e-10, beyond it not (the strict
    # xfail below). CCEP and CCEMG project [1, F_hat] and hold at any scale.
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(n=st.integers(2, 12), t=st.integers(30, 60), d=st.integers(1, 3),
           method=st.sampled_from(list(Method)), kind=st.sampled_from(list(BasisKind)),
           seed=st.integers(0, 2**16), k=st.integers(0, 2))
    def test_scale_equivariance_at_random_sizes(self, n, t, d, method, kind, seed, k):
        rng = np.random.default_rng(seed)
        p = noise_panel(n, t, d, rng)
        reach = np.log10(3.0) if method == Method.SCCE else 3.0  # c in [1/3, 3] or [1e-3, 1e3]
        c = 10.0 ** rng.uniform(-reach, reach)
        assert_scale_equivariant(p, EstimatorConfig(method, kind), c, k % d)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="SCCE's sieve of an unscaled proxy loses its span at large scales")
    @pytest.mark.parametrize("kind, n, t, d, seed, c", [
        ("cubic_spline", 9, 32, 2, 11400, 758.0),
        ("hermite", 2, 50, 3, 25000, 285.0),
        ("power_series", 2, 33, 1, 20513, 926.0),
    ])
    def test_scce_far_from_unit_scale(self, kind, n, t, d, seed, c):
        assert_scale_equivariant(noise_panel(n, t, d, seed), EstimatorConfig("scce", kind), c, 0)

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
