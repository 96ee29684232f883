"""Covariance estimators, bootstrap intervals, and hypothesis tests.

Hand-arithmetic cases are computed in the comments; larger cases are checked
against naive double-loop oracles implemented inline.
"""

import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scce import (
    BasisFamily,
    BasisKind,
    BootstrapConfig,
    DegenerateSeries,
    EstimationResult,
    EstimatorConfig,
    KnotRate,
    Method,
    NoNonlinearColumns,
    NumericalError,
    PanelData,
    SeriesTooShort,
    SieveBasis,
    ScceError,
    SingularSigmaV,
    TooManySkipped,
    WindowTooLarge,
    adf_test,
    bootstrap_ci,
    build_sieve_matrix,
    cross_sectional_average,
    default_hac_window,
    hac_covariance,
    hac_theta,
    knot_count,
    linearity_test,
    sandwich_covariance,
    sigma_v_hat,
)
from scce import estimators, inference, simulate
from scce.sieve import TAG_CONSTANT, TAG_LINEAR, TAG_NONLINEAR
from scce.simulate import Dgp, DgpConfig, generate_panel, stream

from conftest import make_panel


def result_from(eps, v, method=Method.SCCE):
    eps = np.asarray(eps, dtype=float)
    v = np.asarray(v, dtype=float)
    return EstimationResult(beta=np.zeros(v.shape[2]), method=method,
                            eps_hat=eps, v_hat=v, projection_rank=0)


def random_result(n=4, t=30, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return result_from(rng.normal(size=(n, t)), rng.normal(size=(n, t, d)))


class TestSigmaVHat:
    def test_zero_v_gives_zero_matrix(self):
        result = result_from(np.ones((2, 5)), np.zeros((2, 5, 2)))
        assert np.array_equal(sigma_v_hat(result), np.zeros((2, 2)))

    def test_hand_arithmetic(self):
        # N=1, T=2, d=1, v = (1, 3): (1 + 9) / 2 = 5.
        result = result_from([[0.0, 0.0]], [[[1.0], [3.0]]])
        assert sigma_v_hat(result)[0, 0] == pytest.approx(5.0, abs=1e-15)

    def test_matches_double_loop_oracle(self):
        result = random_result(seed=1)
        n, t, d = 4, 30, 2
        oracle = np.zeros((d, d))
        for i in range(n):
            for s in range(t):
                oracle += np.outer(result.v_hat[i, s], result.v_hat[i, s])
        assert np.allclose(sigma_v_hat(result), oracle / (n * t), atol=1e-12)

    def test_overflow_gives_inf_without_a_warning(self):
        # sandwich_covariance rejects an inf Sigma_v or Theta with one error line.
        result = result_from(np.ones((2, 5)), np.full((2, 5, 2), 1e200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isinf(sigma_v_hat(result)).all() and np.isinf(hac_theta(result, 1)).all()


def dense_hac_oracle(result, window):
    """Triple-loop Bartlett HAC, independent of the vectorised implementation."""
    n, t, d = result.eps_hat.shape[0], result.eps_hat.shape[1], result.v_hat.shape[2]
    theta = np.zeros((d, d))
    for lag in range(window + 1):
        theta_l = np.zeros((d, d))
        for i in range(n):
            for s in range(lag, t):
                theta_l += (result.eps_hat[i, s] * result.eps_hat[i, s - lag]
                            * np.outer(result.v_hat[i, s], result.v_hat[i, s - lag]))
        theta_l /= n * t
        if lag == 0:
            theta += theta_l
        else:
            theta += (1.0 - lag / (window + 1.0)) * (theta_l + theta_l.T)
    return theta


class TestHacTheta:
    def test_window_zero_collapses_to_theta0(self):
        result = random_result(seed=2)
        theta0 = np.zeros((2, 2))
        for i in range(4):
            for s in range(30):
                theta0 += result.eps_hat[i, s] ** 2 * np.outer(
                    result.v_hat[i, s], result.v_hat[i, s])
        assert np.allclose(hac_theta(result, 0), theta0 / 120, atol=1e-12)

    def test_zero_residuals_give_zero(self):
        result = result_from(np.zeros((3, 10)), np.ones((3, 10, 2)))
        assert np.array_equal(hac_theta(result, 2), np.zeros((2, 2)))

    def test_hand_arithmetic(self):
        # N=1, T=3, d=1, L=1, eps = (1,1,1), v = (1,2,3):
        # Theta_0 = (1 + 4 + 9)/3 = 14/3; Theta_1 = (2 + 6)/3 = 8/3;
        # Theta = 14/3 + (1 - 1/2) * 2 * 8/3 = 22/3.
        result = result_from([[1.0, 1.0, 1.0]], [[[1.0], [2.0], [3.0]]])
        assert hac_theta(result, 1)[0, 0] == pytest.approx(22.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("window", [1, 3, 7])
    def test_matches_dense_oracle(self, window):
        result = random_result(seed=3)
        assert np.allclose(hac_theta(result, window),
                           dense_hac_oracle(result, window), atol=1e-12)

    @pytest.mark.parametrize("d", [1, 3])
    def test_matches_dense_oracle_at_both_ends_of_the_window(self, d):
        t = 9
        result = random_result(n=5, t=t, d=d, seed=20 + d)
        for window in (0, t - 1):
            assert np.allclose(hac_theta(result, window),
                               dense_hac_oracle(result, window), atol=1e-12)

    def test_no_lag_pairs_two_units(self):
        # Scores only in each unit's first and last period: within a unit
        # they are T - 1 apart, so every Theta_l with 0 < l < T - 1 is exactly
        # zero, while a layout that let lags run from one unit into the next
        # would pair a unit's last period with the next unit's first at l = 1.
        n, t = 4, 6
        rng = np.random.default_rng(24)
        v = np.zeros((n, t, 2))
        v[:, [0, -1]] = rng.normal(size=(n, 2, 2))
        result = result_from(np.ones((n, t)), v)
        theta0 = hac_theta(result, 0)
        for window in range(1, t - 1):
            assert np.array_equal(hac_theta(result, window), theta0)
        assert np.allclose(hac_theta(result, t - 1),
                           dense_hac_oracle(result, t - 1), atol=1e-12)
        assert not np.allclose(hac_theta(result, t - 1), theta0)

    @pytest.mark.parametrize("block_bytes", [1, 1 << 30], ids=["one_unit", "one_block"])
    def test_blocks_of_units_match_dense_oracle(self, monkeypatch, block_bytes):
        # A result of the public constructor reads its residuals' blocks; an
        # estimate's result, blocks of the panel until the oracle forms them.
        monkeypatch.setattr(estimators, "_BLOCK_BYTES", block_bytes)
        p = generate_panel(DgpConfig(dgp=Dgp.E1, n=7, t=30, seed=26)).panel
        for result in (random_result(n=7, t=20, d=2, seed=26),
                       EstimatorConfig(Method.CCEP).estimate(p)):
            got = {window: hac_theta(result, window) for window in (2, 5)}
            for window in (2, 5):
                want = dense_hac_oracle(result, window)
                assert np.abs(got[window] - want).max() <= 1e-13 * np.abs(want).max()

    def test_window_too_large(self):
        result = random_result(n=2, t=10, seed=4)
        for window in (10, -1):
            with pytest.raises(WindowTooLarge):
                hac_theta(result, window)

    def test_default_window_rule(self):
        assert default_hac_window(8) == 2
        assert default_hac_window(100) == 4
        assert default_hac_window(1000) in (9, 10)  # cube root of 1000


class TestSandwichCovariance:
    def test_theta_equal_sigma_cancels(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 2))
        sigma = a.T @ a + np.eye(2)
        est = sandwich_covariance(sigma, sigma, 4, 25, 2)
        assert np.allclose(est.sandwich, np.linalg.inv(sigma), atol=1e-12)

    def test_identity_sigma_returns_theta(self):
        theta = np.array([[2.0, 0.5], [0.5, 1.0]])
        est = sandwich_covariance(np.eye(2), theta, 3, 20, 1)
        assert np.allclose(est.sandwich, theta, atol=1e-14)

    def test_matches_closed_form_2x2_inverse(self):
        sigma = np.array([[3.0, 1.0], [1.0, 2.0]])
        theta = np.array([[1.5, -0.2], [-0.2, 0.8]])
        det = 3.0 * 2.0 - 1.0 * 1.0
        inv = np.array([[2.0, -1.0], [-1.0, 3.0]]) / det
        est = sandwich_covariance(sigma, theta, 5, 40, 3)
        assert np.allclose(est.sandwich, inv @ theta @ inv, atol=1e-12)
        assert np.allclose(est.std_errors,
                           np.sqrt(np.diag(inv @ theta @ inv) / 200), atol=1e-12)

    def test_singular_sigma_rejected(self):
        with pytest.raises(SingularSigmaV):
            sandwich_covariance(np.zeros((2, 2)), np.eye(2), 3, 20, 1)

    def test_non_finite_sigma_or_theta_rejected(self):
        # Both matrices have NaN eigenvalues, which pass every comparison of
        # the eigenvalue gate; the gate must test finiteness itself.
        for sigma in ([[np.inf, 0.0], [0.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]]):
            with pytest.raises(SingularSigmaV):
                sandwich_covariance(np.array(sigma), np.eye(2), 3, 20, 1)
        with pytest.raises(NumericalError, match="HAC covariance overflows"):
            sandwich_covariance(np.eye(2), np.array([[np.inf, 0.0], [0.0, 1.0]]), 3, 20, 1)

    def test_symmetric_psd_output(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        sigma = a.T @ a + 0.1 * np.eye(2)
        theta = b.T @ b
        est = sandwich_covariance(sigma, theta, 4, 30, 2)
        assert np.allclose(est.sandwich, est.sandwich.T, atol=1e-12)
        eigvals = np.linalg.eigvalsh(est.sandwich)
        assert eigvals[0] >= -1e-10 * max(eigvals[-1], 1.0)

    def test_wrapper_composes_the_pieces(self):
        result = random_result(seed=7)
        est = hac_covariance(result, 2)
        assert np.allclose(est.sigma_v, sigma_v_hat(result), atol=1e-15)
        assert np.allclose(est.theta, hac_theta(result, 2), atol=1e-15)
        assert est.hac_window == 2

    def test_bit_identical_at_one_and_two_blas_threads(self):
        # Large enough that OpenBLAS may split Sigma_v's block GEMMs across
        # threads; the estimate's HAC reads blocks the kernel projects.
        script = ("import numpy as np\n"
                  "from scce import (DgpConfig, EstimationResult, EstimatorConfig, Method,\n"
                  "                  generate_panel, hac_covariance)\n"
                  "rng = np.random.default_rng(25)\n"
                  "r = EstimationResult(beta=np.zeros(3), method=Method.SCCE, projection_rank=0,\n"
                  "                     eps_hat=rng.normal(size=(300, 200)),\n"
                  "                     v_hat=rng.normal(size=(300, 200, 3)))\n"
                  "p = generate_panel(DgpConfig(n=300, t=200, seed=25)).panel\n"
                  "for result in (r, EstimatorConfig(Method.CCEP).estimate(p)):\n"
                  "    est = hac_covariance(result)\n"
                  "    print(est.theta.tobytes().hex(), est.sigma_v.tobytes().hex(),\n"
                  "          result.beta.tobytes().hex())\n")
        src = str(Path(inference.__file__).parents[1])
        out = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "MKL_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            out.append(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                      capture_output=True, text=True).stdout)
        assert out[0] == out[1] and len(out[0].split()) == 6


class TestBootstrapCi:
    def test_percentile_convention(self, random_panel):
        # The pinned convention: quantiles of (1,2,3,4) at level 0.5 are
        # (1.75, 3.25) under linear interpolation.
        assert np.quantile([1.0, 2.0, 3.0, 4.0], 0.25, method="linear") == 1.75
        p = random_panel(n=8, t=30, seed=8)
        result = bootstrap_ci(p, BootstrapConfig(n_draws=19, seed=1))
        assert np.allclose(result.ci_lower,
                           np.quantile(result.draws, 0.025, axis=0, method="linear"))
        assert np.allclose(result.ci_upper,
                           np.quantile(result.draws, 0.975, axis=0, method="linear"))
        assert np.all(result.ci_lower <= result.ci_upper)

    def test_same_seed_is_bit_identical(self, random_panel):
        p = random_panel(n=8, t=30, seed=9)
        config = BootstrapConfig(n_draws=15, seed=7)
        first = bootstrap_ci(p, config)
        second = bootstrap_ci(p, config)
        assert np.array_equal(first.draws, second.draws)

    def test_parallel_equals_serial(self, random_panel):
        p = random_panel(n=8, t=30, seed=10)
        serial = bootstrap_ci(p, BootstrapConfig(n_draws=15, seed=7, max_workers=1))
        parallel = bootstrap_ci(p, BootstrapConfig(n_draws=15, seed=7, max_workers=4))
        assert np.array_equal(serial.draws, parallel.draws)

    def test_single_unit_panel_gives_zero_width_ci(self, random_panel):
        # N=1 resampling always returns the same panel, so every draw is the
        # same deterministic estimate and the interval collapses to a point.
        p = random_panel(n=1, t=30, seed=11)
        result = bootstrap_ci(p, BootstrapConfig(n_draws=9, seed=0))
        assert np.all(result.draws == result.draws[0])
        assert np.array_equal(result.ci_lower, result.ci_upper)

    def test_too_many_skipped_reported(self, random_panel):
        # Duplicated regressor columns make every replication singular.
        p = random_panel(n=6, t=30, seed=12)
        x = p.x.copy()
        x[:, :, 1] = x[:, :, 0]
        collinear = make_panel(p.y, x)
        with pytest.raises(TooManySkipped):
            bootstrap_ci(collinear, BootstrapConfig(n_draws=50, seed=0))

    def test_methods_dispatch(self, random_panel):
        p = random_panel(n=8, t=30, seed=13)
        for method in (Method.CCEP, Method.CCEMG):
            result = bootstrap_ci(p, BootstrapConfig(method=method, n_draws=9, seed=2))
            assert result.draws.shape == (9, 2)
            assert result.skipped == 0

    def test_rejects_worker_counts_out_of_range(self, random_panel, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool started")

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", no_pool)
        p = random_panel(n=8, t=30, seed=14)
        for workers in (0, -3, 257):
            with pytest.raises(ScceError, match=f"max_workers must be a positive "
                                                f"integer, got {workers}; the ceiling is 256"):
                bootstrap_ci(p, BootstrapConfig(n_draws=9, max_workers=workers))


def per_draw_oracle(p, config):
    """Each draw estimated on its own resampled panel, None where that raises."""
    n = p.n_units
    out = []
    for b in range(config.n_draws):
        idx = stream(config.seed, b).integers(0, n, size=n)
        try:
            out.append(config.estimate(make_panel(p.y[idx], p.x[idx])).beta)
        except ScceError:
            out.append(None)
    return out


def assert_draws_match(got, oracle, rtol=1e-12):
    want = np.array([beta for beta in oracle if beta is not None])
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def chunk_bytes(p, draws, config=EstimatorConfig()):
    """A chunk budget that holds ``draws`` draws of the panel ``p``: each holds
    its (T, K) basis and the (N(d+1), K) product C = Z U, K the number of
    ``config``'s columns on the panel's own proxy."""
    k = config.columns(cross_sectional_average(p).values.T[None])[0].shape[-1]
    return draws * 8 * k * (p.n_units * (p.n_regressors + 1) + p.n_periods)


def partly_collinear_panel(seed, n=10, special=6, t=30):
    """x2 = x1 in all but the first ``special`` units: a resample is singular
    when at most one of those is drawn, since the proxy then spans x2 - x1."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, t, 2))
    x[special:, :, 1] = x[special:, :, 0]
    return make_panel(x @ np.array([1.0, 1.0]) + rng.normal(size=(n, t)), x)


def chunk_sizes(monkeypatch, p, config):
    """The number of draws in each ``draw_betas`` call of ``bootstrap_ci(p, config)``,
    in the order the calls start (any order on more than one pool thread)."""
    sizes = []
    draw_betas = EstimatorConfig.draw_betas

    def counted(config, panel, w):
        sizes.append(len(w))
        return draw_betas(config, panel, w)

    monkeypatch.setattr(EstimatorConfig, "draw_betas", counted)
    bootstrap_ci(p, config)
    return sizes


def near_factor_panel(seed, n=30, t=40, s=1e-2):
    """x_i = F Lambda_i + s_i * noise, ``s`` one scale or one per unit: at
    s = 1e-2 the projection keeps about 4e-5 of the regressors' sum of
    squares, so a downdated Gram would lose 4 to 5 digits."""
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(t, 2))
    x = f @ (rng.normal(size=(n, 2, 2)) + np.eye(2))
    x += np.reshape(s, (-1, 1, 1)) * rng.normal(size=(n, t, 2))
    y = x @ np.array([1.0, 1.0]) + (f @ rng.normal(size=(2, n))).T + rng.normal(size=(n, t))
    return make_panel(y, x)


class TestBatchedBootstrap:
    """The draws are solved in stacked chunks; each must equal a re-estimate
    of its resampled panel to rounding."""

    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize("kind", ["cubic_spline", "hermite", "power_series"])
    def test_draws_match_the_per_draw_oracle(self, method, kind):
        p = generate_panel(DgpConfig(dgp=Dgp.E1, n=30, t=40, seed=31)).panel
        config = BootstrapConfig(method=method, family=kind, n_draws=25, seed=4)
        assert_draws_match(bootstrap_ci(p, config).draws, per_draw_oracle(p, config))

    @pytest.mark.parametrize("method, case", [
        *(pytest.param(m, "every_unit", id=m.value) for m in Method),
        *(pytest.param(m, "one_unit", id=f"{m.value}-one_unit_one_direction") for m in Method)])
    def test_regressors_almost_all_factor_match_the_oracle(self, method, case):
        # Such draws take the residual Grams, not the downdated ones.
        if case == "every_unit":
            p = near_factor_panel(seed=0)
        else:  # unit 0 keeps 2% of its sum of squares, nearly all in one direction
            p = near_factor_panel(seed=1, s=np.r_[1e-3, np.ones(29)])
        config = BootstrapConfig(method=method, n_draws=25, seed=4)
        v = config.estimate(p).v_hat
        if case == "every_unit":
            assert (v ** 2).sum() / (p.x ** 2).sum() < 1e-4
        else:
            total = (p.x[0] ** 2).sum()
            assert (v[0] ** 2).sum() / total > 1e-2
            assert np.linalg.eigvalsh(v[0].T @ v[0])[0] / total < 1e-5
        assert_draws_match(bootstrap_ci(p, config).draws, per_draw_oracle(p, config))

    def test_tied_knots_collapse_as_in_the_oracle(self, random_panel):
        # In 30 of 40 periods every unit's x2 is its own constant, so the
        # proxy x2bar repeats one value there and both its knots tie.
        p = random_panel(n=12, t=40, seed=32)
        x = p.x.copy()
        x[:, :30, 1] = np.arange(12.0)[:, None]
        p = make_panel(x @ np.array([1.0, 1.0]) + p.y - p.x.sum(axis=2), x)
        config = BootstrapConfig(n_draws=20, seed=5)
        idx = stream(config.seed, 0).integers(0, 12, size=12)
        basis = config.basis(make_panel(p.y[idx], p.x[idx]))
        assert len(basis.knots[2]) == 1 < basis.j_requested
        assert_draws_match(bootstrap_ci(p, config).draws, per_draw_oracle(p, config))

    @pytest.mark.parametrize("method", list(Method))
    def test_single_unit_draws_are_identical(self, random_panel, method):
        p = random_panel(n=1, t=30, seed=33)
        draws = bootstrap_ci(p, BootstrapConfig(method=method, n_draws=9)).draws
        assert draws.shape == (9, 2)
        assert all(d.tobytes() == draws[0].tobytes() for d in draws)

    @pytest.mark.parametrize("method", [Method.SCCE, Method.CCEP])
    def test_some_draws_failing_the_gate_are_skipped_as_in_the_oracle(self, method):
        p = partly_collinear_panel(seed=1)
        config = BootstrapConfig(method=method, n_draws=400, seed=1)
        oracle = per_draw_oracle(p, config)
        result = bootstrap_ci(p, config)
        assert result.skipped == sum(beta is None for beta in oracle) == 4
        assert_draws_match(result.draws, oracle)

    def test_mean_group_gates_only_the_drawn_units(self, random_panel):
        # Unit 3's own regression is singular: the draws that hold it fail,
        # the others do not.
        p = random_panel(n=8, t=30, seed=34)
        x = p.x.copy()
        x[3, :, 1] = x[3, :, 0]
        p = make_panel(p.y, x)
        config = BootstrapConfig(method=Method.CCEMG, n_draws=40, seed=6)
        oracle = per_draw_oracle(p, config)
        with pytest.raises(TooManySkipped) as failed:
            bootstrap_ci(p, config)
        skipped = sum(beta is None for beta in oracle)
        assert failed.value.skipped == skipped
        assert 0 < failed.value.skipped < config.n_draws
        assert str(failed.value) == (f"{skipped} of 40 draws failed (> 1% tolerated); most often "
                                     f"({skipped}) SingularUnit: unit-level regression singular "
                                     "for unit 3")

    def test_an_overflowing_draw_is_skipped_alone(self, random_panel):
        # Unit 0's y is so large that its cubic terms overflow when it is
        # drawn three times, but not once: the oracle raises NumericalError
        # for that draw only.
        p = random_panel(n=10, t=30, seed=35)
        y = p.y.copy()
        y[0] *= 2.2e103 / np.abs(y[0]).max()
        p = make_panel(y, p.x)
        rows = [[1] * 10, [3, 0, 0] + [1] * 7, [0, 2] + [1] * 8]
        got = EstimatorConfig().draw_betas(p, np.array(rows, dtype=float))
        assert isinstance(got[1], NumericalError)
        units = [[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], [1, 1, 2, 3, 4, 5, 6, 7, 8, 9]]
        for beta, idx in zip((got[0], got[2]), units):
            want = EstimatorConfig().estimate(make_panel(p.y[idx], p.x[idx])).beta
            assert np.abs(beta - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["ccemg", "ccep"])
    def test_overflowing_grams_are_skipped_without_a_warning(self, method):
        p = generate_panel(DgpConfig(dgp=Dgp.E1, n=10, t=30, seed=0)).panel
        with pytest.raises(TooManySkipped):
            bootstrap_ci(make_panel(1e154 * p.y, 1e154 * p.x),
                         BootstrapConfig(method=method, n_draws=9))

    def test_worker_counts_give_identical_draws_over_a_partial_chunk(self, random_panel,
                                                                     monkeypatch):
        p = random_panel(n=8, t=30, seed=36)
        monkeypatch.setattr(inference, "_CHUNK_BYTES", chunk_bytes(p, 3))
        draws = [bootstrap_ci(p, BootstrapConfig(n_draws=20, seed=7, max_workers=w)).draws
                 for w in (1, 2, 4)]  # 6 chunks of 3 draws and one of 2
        assert draws[0].tobytes() == draws[1].tobytes() == draws[2].tobytes()
        config = BootstrapConfig(n_draws=20, seed=7)
        assert_draws_match(draws[0], per_draw_oracle(p, config))

    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize("draws, slack, calls", [(5, 0, 5), (5, -1, 6), (23, 0, 1),
                                                     (0, 1, 23)])
    def test_chunks_hold_as_many_draws_as_the_budget_pays_for(self, random_panel, monkeypatch,
                                                             method, draws, slack, calls):
        p = random_panel(n=8, t=30, seed=37)
        config = BootstrapConfig(method=method, n_draws=23, seed=3)
        monkeypatch.setattr(inference, "_CHUNK_BYTES", chunk_bytes(p, draws, config) + slack)
        sizes = chunk_sizes(monkeypatch, p, config)
        assert len(sizes) == calls
        assert sum(sizes) == 23 and len(set(sorted(sizes)[1:])) <= 1  # any call order

    def test_the_default_budget_holds_23_draws_of_a_100_by_100_panel(self, monkeypatch):
        # K = 3 (4 + 3) = 21 sieve columns, 8 K (N (d + 1) + T) = 67,200 bytes a draw.
        p = generate_panel(DgpConfig(dgp=Dgp.E1, n=100, t=100, seed=1)).panel
        assert sorted(chunk_sizes(monkeypatch, p, BootstrapConfig(n_draws=60))) == [14, 23, 23]

    @settings(derandomize=True, database=None, deadline=None, max_examples=20)
    @given(n=st.integers(1, 12), t=st.integers(8, 40), method=st.sampled_from(list(Method)),
           seed=st.integers(0, 2**16))
    def test_serial_equals_parallel(self, n, t, method, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, t, 2))
        p = PanelData(y=x.sum(axis=2) + rng.normal(size=(n, t)), x=x,
                      unit_labels=tuple(range(n)), time_labels=tuple(range(t)))

        def outcome(workers):
            config = BootstrapConfig(method=method, n_draws=11, seed=seed, max_workers=workers)
            try:
                result = bootstrap_ci(p, config)
            except ScceError as exc:  # TooManySkipped, or TooSmall when every draw raised it
                return type(exc), str(exc)
            return result.draws.tobytes(), result.skipped

        original = inference._CHUNK_BYTES
        inference._CHUNK_BYTES = chunk_bytes(p, 4)
        try:
            assert outcome(1) == outcome(3)
        finally:
            inference._CHUNK_BYTES = original


class TestBootstrapConfig:
    def test_is_an_estimator_config_with_its_fields_first(self):
        assert issubclass(BootstrapConfig, EstimatorConfig)
        names = [f.name for f in dataclasses.fields(BootstrapConfig)]
        assert names == ["method", "family", "knot_c", "knot_rate",
                         "n_draws", "level", "seed", "max_workers"]
        config = BootstrapConfig(Method.CCEP, BasisFamily(), 2, KnotRate.THIRD, 9)
        assert (config.method, config.knot_c, config.knot_rate) == \
            (Method.CCEP, 2, KnotRate.THIRD)
        assert config.n_draws == 9

    def test_checks_the_estimator_settings_at_construction(self):
        # Not TooManySkipped after every draw has failed the knot rule.
        with pytest.raises(ScceError, match="knot multiplier must be a positive integer"):
            BootstrapConfig(knot_c=0, n_draws=9)
        with pytest.raises(ScceError, match="knot multiplier must be a positive integer"):
            BootstrapConfig(knot_c=1.5, n_draws=9)
        assert BootstrapConfig(method="ccemg", n_draws=9).method is Method.CCEMG
        assert BootstrapConfig(family="hermite", n_draws=9).family == BasisFamily(
            BasisKind.HERMITE)


def basis_for(p):
    proxy = cross_sectional_average(p)
    return build_sieve_matrix(proxy, BasisFamily(), knot_count(p.n_periods))


class TestLinearityTest:
    def test_exact_fit_is_degenerate_null(self, random_panel):
        p = random_panel(n=6, t=40, noise=0.0, seed=14)
        result = linearity_test(p, basis_for(p))
        assert result.statistic == 0.0
        assert result.p_value == 1.0
        assert not result.decision_at_5pct

    def test_invariant_to_rescaling_nonlinear_columns(self, random_panel):
        p = random_panel(n=6, t=40, seed=15)
        basis = basis_for(p)
        base = linearity_test(p, basis)

        matrix = basis.matrix.copy()
        mask = np.array([t == TAG_NONLINEAR for t in basis.column_tags])
        matrix[:, mask] *= 37.0
        scaled_basis = SieveBasis(matrix=matrix, knots=basis.knots,
                                  family=basis.family, j_requested=basis.j_requested,
                                  column_tags=basis.column_tags)
        scaled = linearity_test(p, scaled_basis)
        assert scaled.statistic == pytest.approx(base.statistic, rel=1e-8)
        assert scaled.dof == base.dof

    def test_requires_nonlinear_columns(self, random_panel):
        p = random_panel(n=6, t=40, seed=16)
        basis = basis_for(p)
        mask = np.array([t != TAG_NONLINEAR for t in basis.column_tags])
        stripped = SieveBasis(matrix=basis.matrix[:, mask], knots=basis.knots,
                              family=basis.family, j_requested=0,
                              column_tags=tuple(
                                  t for t in basis.column_tags if t != TAG_NONLINEAR))
        with pytest.raises(NoNonlinearColumns):
            linearity_test(p, stripped)

    def test_one_span_serves_the_restricted_fit_and_the_tested_block(self, random_panel,
                                                                     monkeypatch):
        p = random_panel(n=6, t=40, seed=19)
        basis = basis_for(p)
        want = linearity_test(p, basis)
        spans, span = [], inference._orthonormal_span

        def counted(columns, *args):
            spans.append(columns.shape)
            return span(columns, *args)

        monkeypatch.setattr(inference, "_orthonormal_span", counted)
        got = linearity_test(p, basis)
        # [1, F_hat] once, F_hat = [ybar, x1bar, x2bar]; then the tested block's
        # rank, by the same rule.
        assert spans == [(40, 4), basis.columns_tagged(TAG_NONLINEAR).shape]
        assert (got.statistic, got.dof, got.p_value) == (want.statistic, want.dof, want.p_value)

    def test_nonlinear_columns_in_the_linear_span_leave_nothing_to_test(self, random_panel):
        p = random_panel(n=6, t=40, seed=20)
        ybar = cross_sectional_average(p).values[:, :1]
        basis = SieveBasis(matrix=np.hstack([np.ones((40, 1)), ybar, np.zeros((40, 1))]),
                           knots=(np.empty(0),), family=BasisFamily(), j_requested=0,
                           column_tags=(TAG_CONSTANT, TAG_LINEAR, TAG_NONLINEAR))
        with pytest.raises(NoNonlinearColumns,
                           match="nonlinear columns lie entirely in the linear proxy span"):
            linearity_test(p, basis)

    def test_window_too_large(self, random_panel):
        p = random_panel(n=6, t=40, seed=17)
        for window in (40, -1):
            with pytest.raises(WindowTooLarge):
                linearity_test(p, basis_for(p), window=window)

    def test_reports_dof_and_window(self, random_panel):
        p = random_panel(n=6, t=40, seed=18)
        result = linearity_test(p, basis_for(p))
        assert result.dof == 5 * result.detail["rank_tested"]
        assert result.detail["hac_window"] == 2 * default_hac_window(40)
        assert 0.0 <= result.p_value <= 1.0


class TestAdfTest:
    def test_random_walk_rarely_rejected(self):
        non_rejections = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            walk = np.cumsum(rng.normal(size=200))
            if not adf_test(walk).decision_at_5pct:
                non_rejections += 1
        assert non_rejections >= 90

    def test_white_noise_usually_rejected(self):
        rejections = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            if adf_test(rng.normal(size=200)).decision_at_5pct:
                rejections += 1
        assert rejections >= 90

    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateSeries):
            adf_test(np.full(50, 3.0))

    # Series the ADF regression fits exactly: the SSR is rounding noise
    # (1e-32 to 1e-29 of the sum of squares), and its t-ratio read -3.44,
    # -1.4e16, 2.9e15 and 3.67, the last at the exact p = 1 fit BIC picks.
    @pytest.mark.parametrize("series", [np.arange(50.0), np.tile([0.0, 1.0], 25),
                                        1.05 ** np.arange(50), np.arange(50.0) ** 2],
                             ids=["trend", "alternating", "geometric", "quadratic"])
    def test_exact_fit_rejected(self, series):
        with pytest.raises(DegenerateSeries, match="perfect fit"):
            adf_test(series)

    def test_statistic_does_not_depend_on_the_level(self):
        # Uncentred, [1, s_{t-1}] lost digits to a large level: this walk read
        # -1.05821 at level 0, -1.06059 at 1e7 and was rank deficient at 1e8.
        walk = np.cumsum(np.random.default_rng(1).normal(size=100))
        base, shifted = adf_test(walk), adf_test(walk + 1e8)
        assert shifted.dof == base.dof
        assert shifted.statistic == pytest.approx(base.statistic, rel=1e-9, abs=0)

    def test_short_series_rejected(self):
        with pytest.raises(SeriesTooShort):
            adf_test(np.arange(9.0))

    def test_p_value_tracks_decision(self):
        rng = np.random.default_rng(19)
        result = adf_test(rng.normal(size=200))
        assert result.decision_at_5pct == (result.statistic < -2.86)
        assert 0.0 <= result.p_value <= 1.0
