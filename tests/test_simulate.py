"""Data-generating processes and the Monte Carlo harness.

The component formulas are checked against direct hand evaluation at pinned
loadings and factors, the correlated-error recursion against an independent
replay of the same RNG stream, and the runner against its own invariants.
"""

import math

import numpy as np
import pytest

from scce import (
    BasisKind,
    Dgp,
    DgpConfig,
    ErrorMode,
    EstimatorConfig,
    FactorMode,
    Method,
    ScceError,
    SingularDesign,
    TooManySkipped,
    TooSmall,
    ccep_estimate,
    generate_correlated_errors,
    generate_e1,
    generate_e2,
    generate_panel,
    monte_carlo_run,
    stream,
)
from scce import PanelData, estimators, simulate
from scce.cli import EXIT_DATA_ERROR, main
from scce.simulate import _e1_components, _e2_components, _pack_stream_seed

from conftest import make_panel


def unit_loadings(gamma1, gamma2, gamma3, big1, big2, big3, big4):
    """Single-unit loading dict with both x-columns sharing the same values."""
    return {
        "gamma1": np.array([gamma1]), "gamma2": np.array([gamma2]),
        "gamma3": np.array([gamma3]),
        "Gamma1": np.full((1, 2), big1), "Gamma2": np.full((1, 2), big2),
        "Gamma3": np.full((1, 2), big3), "Gamma4": np.full((1, 2), big4),
    }


class TestFactorComponents:
    def test_e1_hand_evaluation(self):
        # f = (1, 1), gamma = (1, 1, 0), (G1, G2, G3, G4) = (0, 1, 1, 0):
        # g = 1*1 + 1*1*1 + 0.5*(1 - 0)^2 = 2.5
        # G_s = 0.6*(e^0 * 1 * 1 + 1 * e^1) + 0.4*sin(1*1 + e^0 * 1) =
        #       0.6*(1 + e) + 0.4*sin(2)
        f = np.array([[1.0, 1.0]])
        g, big_g = _e1_components(f, unit_loadings(1, 1, 0, 0, 1, 1, 0))
        assert g[0, 0] == pytest.approx(2.5, abs=1e-12)
        expected = 0.6 * (1.0 + math.e) + 0.4 * math.sin(2.0)
        assert np.allclose(big_g[0, 0], expected, atol=1e-12)

    def test_e2_hand_evaluation(self):
        # f = (1, 2), gamma = (1, 1): g = 1*1 + 1*2 = 3; G_s = G1 + 2*G2.
        f = np.array([[1.0, 2.0]])
        g, big_g = _e2_components(f, unit_loadings(1, 1, 0, 0.5, -1.0, 0, 0))
        assert g[0, 0] == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(big_g[0, 0], 0.5 - 2.0, atol=1e-12)

    def test_e2_zero_loadings_degenerate_downstream(self):
        # Zero x-loadings and zero noise leave a zero regressor block, which
        # the estimators must reject as singular rather than answer.
        f = np.array([[1.0, 0.5]] * 20)
        loadings = unit_loadings(1, 1, 0, 0, 0, 0, 0)
        g, big_g = _e2_components(f, loadings)
        y = np.tile(g, (3, 1))
        x = np.tile(big_g, (3, 1, 1))
        assert not x.any()
        with pytest.raises(SingularDesign):
            ccep_estimate(make_panel(y, x))


class TestGeneratePanel:
    def test_shape_contract(self):
        sp = generate_e1(DgpConfig(dgp=Dgp.E1, n=20, t=20, seed=0))
        assert sp.panel.y.shape == (20, 20)
        assert sp.panel.x.shape == (20, 20, 2)
        assert sp.factors.shape == (20, 2)

    @pytest.mark.parametrize("dgp", [Dgp.E1, Dgp.E2])
    def test_reconstruction_invariant(self, dgp):
        for seed in range(100):
            sp = generate_panel(DgpConfig(dgp=dgp, n=8, t=12, seed=seed))
            rebuilt_y = (np.einsum("itk,k->it", sp.panel.x, sp.beta)
                         + sp.factor_component_y + sp.eps)
            assert np.allclose(sp.panel.y, rebuilt_y, atol=1e-12)
            assert np.allclose(sp.panel.x, sp.factor_component_x + sp.v, atol=1e-12)

    def test_dgp_guards(self):
        with pytest.raises(ScceError):
            generate_e1(DgpConfig(dgp=Dgp.E2))
        with pytest.raises(ScceError):
            generate_e2(DgpConfig(dgp=Dgp.E1))
        with pytest.raises(ScceError):
            DgpConfig(beta=(1.0, 1.0, 1.0))

    def test_random_walk_increment_variance(self):
        sp = generate_panel(DgpConfig(dgp=Dgp.E1, n=2, t=1000, seed=1,
                                      factor_mode=FactorMode.RANDOM_WALK))
        increments = np.diff(sp.factors, axis=0)
        for s in range(2):
            assert abs(increments[:, s].var() - 0.05) <= 0.2 * 0.05

    def test_stationary_factors_standard_normal(self):
        sp = generate_panel(DgpConfig(dgp=Dgp.E1, n=2, t=5000, seed=2))
        assert abs(sp.factors.var() - 1.0) <= 0.1
        assert abs(sp.factors.mean()) <= 0.05

    def test_e2_regressor_loadings_centre_on_identity(self):
        # The linear design must keep the cross-sectional averages
        # informative: regressor s loads factor s with mean one. Mean-zero
        # loadings would leave the averages as noisy as the factor signal.
        sp = generate_panel(DgpConfig(dgp=Dgp.E2, n=4000, t=5, seed=21))
        slope = np.linalg.lstsq(sp.factors,
                                sp.factor_component_x.mean(axis=0), rcond=None)[0]
        assert np.allclose(slope, np.eye(2), atol=0.1)

        e1 = generate_panel(DgpConfig(dgp=Dgp.E1, n=4000, t=5, seed=21))
        assert abs(e1.loadings["Gamma1"].mean()) <= 0.1  # E1 stays mean zero

    def test_same_seed_reproduces(self):
        a = generate_panel(DgpConfig(dgp=Dgp.E1, n=5, t=10, seed=3))
        b = generate_panel(DgpConfig(dgp=Dgp.E1, n=5, t=10, seed=3))
        assert np.array_equal(a.panel.y, b.panel.y)
        assert np.array_equal(a.panel.x, b.panel.x)


class TestCorrelatedErrors:
    def test_pi_zero_is_pure_theta(self):
        eps = generate_correlated_errors(4, 50, pi=0.0, seed=4)
        rng = stream(4)
        sigma = rng.uniform(0.5, 1.0, size=4)
        theta = rng.normal(size=(4, 50)) * sigma[:, None]
        assert np.allclose(eps, theta, atol=1e-15)

    def test_matches_hand_recursion_replay(self):
        n, t, pi, band = 5, 8, 0.5, 2
        eps = generate_correlated_errors(n, t, pi=pi, l_band=band, seed=5)
        rng = stream(5)
        sigma = rng.uniform(0.5, 1.0, size=n)
        theta = rng.normal(size=(n, t)) * sigma[:, None]
        oracle = np.zeros((n, t))
        for i in range(n):
            prev = 0.0
            for s in range(t):
                spatial = sum(theta[i - l, s] for l in range(1, band + 1) if i - l >= 0)
                spatial += sum(theta[i + l, s] for l in range(1, band + 1) if i + l < n)
                prev = pi * prev + theta[i, s] + pi * spatial
                oracle[i, s] = prev
        assert np.allclose(eps, oracle, atol=1e-12)

    def test_lag_one_autocorrelation(self):
        series = generate_correlated_errors(1, 5000, pi=0.5, seed=6)[0]
        centered = series - series.mean()
        rho = (centered[1:] @ centered[:-1]) / (centered @ centered)
        assert abs(rho - 0.5) <= 0.05

        iid = generate_correlated_errors(1, 5000, pi=0.0, seed=6)[0]
        centered = iid - iid.mean()
        rho0 = (centered[1:] @ centered[:-1]) / (centered @ centered)
        assert abs(rho0) <= 0.05

    def test_invalid_pi_rejected(self):
        with pytest.raises(ScceError):
            generate_correlated_errors(3, 10, pi=1.0)
        with pytest.raises(ScceError):
            ErrorMode(pi=-0.1)


class TestMonteCarloRun:
    def test_too_many_knots_fail_before_any_replication(self, monkeypatch):
        def no_draw(config):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(simulate, "generate_panel", no_draw)
        with pytest.raises(TooSmall, match="J=80 knots at T=30; J must be below T"):
            monte_carlo_run([(10, 256), (10, 30)], DgpConfig(dgp=Dgp.E1),
                            EstimatorConfig(knot_c=40), reps=5)

    def test_skips_are_counted_by_class_and_the_commonest_named(self):
        beta = np.zeros(2)
        assert simulate.drop_skipped([beta] * 100 + [SingularDesign("s")]) == ([beta] * 100, 1)
        with pytest.raises(TooManySkipped, match=r"^3 of 4 replications failed \(> 1% "
                                                 r"tolerated\); most often \(2\) SingularDesign: s$"):
            simulate.drop_skipped([beta, TooSmall("t"), SingularDesign("s"), SingularDesign("u")])
        # Only when every item failed on a data error is that error raised itself.
        with pytest.raises(TooManySkipped, match=r"^3 of 3 draws .* \(2\) TooSmall: t$"):
            simulate.drop_skipped([TooSmall("t"), SingularDesign("s"), TooSmall("u")], "draws")
        with pytest.raises(TooSmall, match="^t$"):
            simulate.drop_skipped([TooSmall("t"), TooSmall("u")], "draws")

    @pytest.mark.parametrize("dgp", [Dgp.E1, Dgp.E2])
    @pytest.mark.parametrize("config", [EstimatorConfig(), EstimatorConfig(family="hermite"),
                                        EstimatorConfig(family="power_series"),
                                        EstimatorConfig(method="ccep"),
                                        EstimatorConfig(method="ccemg")],
                             ids=["spline", "hermite", "power", "ccep", "ccemg"])
    def test_replications_equal_re_estimates(self, dgp, config):
        # A replication is a beta-only kernel draw with the plain-mean proxy,
        # where estimate sums the proxy compensated: the betas agree to about
        # 1e-13 of the coefficients, and abs_bias, a mean of signed errors,
        # is held to that absolute scale since it can cancel far below it.
        # Hermite and power-series bases of E1's proxies amplify the last-bit
        # proxy difference: their rmse moves by up to 4e-11 on these cells.
        rtol = 1e-9 if dgp == Dgp.E1 and config.family.kind != BasisKind.CUBIC_SPLINE else 1e-12
        grid, reps, seed = [(12, 30), (20, 40)], 6, 21
        report = monte_carlo_run(grid, DgpConfig(dgp=dgp), config, reps=reps, seed=seed)
        for c, ((n, t), cell) in enumerate(zip(grid, report.cells)):
            errors = []
            for r in range(reps):
                sim = generate_panel(DgpConfig(dgp=dgp, n=n, t=t,
                                               seed=_pack_stream_seed(seed, c, r)))
                errors.append(config.estimate(sim.panel).beta - sim.beta)
            assert cell.skipped == 0
            bias = [abs(math.fsum(e[k] for e in errors)) / reps for k in range(2)]
            rmse = [math.sqrt(math.fsum(e[k] ** 2 for e in errors) / reps) for k in range(2)]
            np.testing.assert_allclose(cell.abs_bias, bias, rtol=rtol, atol=rtol * sim.beta.max())
            np.testing.assert_allclose(cell.rmse, rmse, rtol=rtol)

    def test_replications_form_no_residual_stack(self, monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("a replication took the point-estimate path")

        monkeypatch.setattr(PanelData, "_proxy", property(forbidden))
        with monkeypatch.context() as patch:
            patch.setattr(estimators, "_residual_grams", forbidden)
            for method in Method:
                report = monte_carlo_run([(30, 40)], DgpConfig(dgp=Dgp.E1),
                                         EstimatorConfig(method), reps=3, seed=5)
                assert report.cells[0].skipped == 0
            # A skip is still the kernel's error, and a cell of nothing but skips
            # raises it. Here rank = T: the kernel rejects every replication
            # without its Grams, so none comes from the residuals either.
            with pytest.raises(TooSmall, match="the projection spans all T periods"):
                monte_carlo_run([(20, 20)], DgpConfig(dgp=Dgp.E1), EstimatorConfig(knot_c=3),
                                reps=5)
            assert main(["simulate", "--dgp", "e1", "--n", "20", "--t", "20", "--knot-c", "3",
                         "--reps", "5"]) == EXIT_DATA_ERROR
        assert "use fewer knots" in capsys.readouterr().err

    def test_single_rep_bias_equals_rmse(self):
        report = monte_carlo_run([(10, 20)], DgpConfig(dgp=Dgp.E1), reps=1, seed=7)
        cell = report.cells[0]
        assert cell.abs_bias == pytest.approx(cell.rmse, abs=1e-15)

    def test_rmse_at_least_abs_bias(self):
        report = monte_carlo_run([(10, 20), (15, 25)], DgpConfig(dgp=Dgp.E2),
                                 estimator=EstimatorConfig(method=Method.CCEP),
                                 reps=10, seed=8)
        for cell in report.cells:
            for k in range(2):
                assert cell.rmse[k] >= cell.abs_bias[k]

    def test_deterministic_across_thread_counts(self, monkeypatch):
        config = DgpConfig(dgp=Dgp.E1)
        monkeypatch.delenv("SCCE_THREADS", raising=False)
        serial = monte_carlo_run([(10, 20)], config, reps=6, seed=9)
        monkeypatch.setenv("SCCE_THREADS", "4")
        threaded = monte_carlo_run([(10, 20)], config, reps=6, seed=9)
        assert serial.cells == threaded.cells

    def test_method_given_as_a_string_reports_its_value(self):
        report = monte_carlo_run([(10, 20)], DgpConfig(dgp=Dgp.E1),
                                 EstimatorConfig(method="ccep"), reps=3, seed=11)
        assert [row["estimator"] for row in report.to_rows()] == ["ccep", "ccep"]

    def test_csv_report_shape(self):
        # The rows carry the CSV report's columns, in order, one per coefficient.
        report = monte_carlo_run([(10, 20)], DgpConfig(dgp=Dgp.E1), reps=2, seed=10)
        rows = report.to_rows()
        assert len(rows) == 2
        for coef, row in enumerate(rows, start=1):
            assert list(row) == ["n", "t", "dgp", "estimator", "coef",
                                 "abs_bias", "rmse", "reps", "skipped"]
            assert [row[k] for k in ("n", "t", "dgp", "estimator", "coef")] == \
                [10, 20, "e1", "scce", coef]

    def test_rejects_zero_reps(self):
        with pytest.raises(ScceError):
            monte_carlo_run([(10, 20)], DgpConfig(dgp=Dgp.E1), reps=0)

    def test_rejects_sizes_that_collide_in_the_stream_packing(self, monkeypatch):
        # (seed, cell, rep) packs into one integer; past 2**28 reps or 2**12
        # cells two replications would share a stream. Fails before any draw.
        def no_replication(*args, **kwargs):
            raise AssertionError("a replication started")

        monkeypatch.setattr(simulate, "pool_map", no_replication)
        with pytest.raises(ScceError, match="stream packing"):
            monte_carlo_run([(10, 20)], DgpConfig(dgp=Dgp.E1), reps=2 ** 28 + 1)
        with pytest.raises(ScceError, match="stream packing"):
            monte_carlo_run([(10, 20)] * (2 ** 12 + 1), DgpConfig(dgp=Dgp.E1), reps=1)
        # At the limits the check passes and the first replication is reached.
        with pytest.raises(AssertionError, match="a replication started"):
            monte_carlo_run([(10, 20)] * 2 ** 12, DgpConfig(dgp=Dgp.E1), reps=2 ** 28)

    def test_invalid_cell_raises_dgp_error_not_skips(self):
        # Only the estimate is guarded: a cell the DGP rejects must not be
        # counted as skipped replications.
        with pytest.raises(ScceError, match="DGP needs") as excinfo:
            monte_carlo_run([(0, 10)], DgpConfig(dgp=Dgp.E1), reps=3)
        assert not isinstance(excinfo.value, TooManySkipped)
