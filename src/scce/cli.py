"""Command-line front end.

Three subcommands: ``estimate`` runs an estimator on a CSV panel and reports
coefficients with HAC standard errors, optional bootstrap intervals, and
per-proxy-column unit-root pretests; ``simulate`` runs a Monte Carlo study
over a grid of panel sizes; ``test-linearity`` tests whether the nonlinear
sieve terms are jointly significant.

Exit codes: 0 success, 2 data or configuration errors, 3 numerical errors.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from .errors import NumericalError, PanelDataError, ScceError
from .estimators import Method, estimate_panel
from .inference import (
    BootstrapConfig,
    adf_test,
    bootstrap_ci,
    hac_covariance,
    linearity_test,
)
from .panel import cross_sectional_average, first_difference, load_panel_csv
from .sieve import BasisFamily, BasisKind, KnotRate, build_sieve_matrix, knot_count
from .simulate import (
    Dgp,
    DgpConfig,
    ErrorMode,
    EstimatorConfig,
    FactorMode,
    monte_carlo_run,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_DATA_ERROR = 2
EXIT_NUMERICAL_ERROR = 3


def _family(name: str) -> BasisFamily:
    kind = {"cubic": BasisKind.CUBIC_SPLINE, "hermite": BasisKind.HERMITE,
            "power": BasisKind.POWER_SERIES}[name]
    return BasisFamily(kind=kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scce",
                                     description="Sieve-augmented CCE estimation for panel data")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_basis_flags(p):
        p.add_argument("--method", choices=[m.value for m in Method], default="scce")
        p.add_argument("--knot-c", type=int, default=None,
                       help="knot multiplier C in J = C*floor(T**(1/r)) (default 1)")
        p.add_argument("--knot-rate", choices=[r.value for r in KnotRate], default=None,
                       help="root r of T in the knot rule (default quarter)")
        p.add_argument("--family", choices=["cubic", "hermite", "power"], default=None,
                       help="sieve basis family (default cubic)")

    est = sub.add_parser("estimate", help="estimate coefficients from a CSV panel")
    est.add_argument("--input", required=True)
    add_basis_flags(est)
    est.add_argument("--diff", action="store_true", help="first-difference the panel")
    est.add_argument("--hac-window", type=int, default=None)
    est.add_argument("--bootstrap", type=int, default=None, metavar="B",
                     help="number of pair-bootstrap draws (omit to skip)")
    est.add_argument("--level", type=float, default=0.95)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--no-adf", action="store_true", help="skip the unit-root pretests")
    est.add_argument("--output", default=None, help="write report here (default stdout)")
    est.add_argument("--format", choices=["json", "csv"], default="json")

    sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    sim.add_argument("--dgp", choices=[d.value for d in Dgp], required=True)
    sim.add_argument("--n", type=int, action="append", required=True,
                     help="cross-section size; repeat with --t for a grid")
    sim.add_argument("--t", type=int, action="append", required=True)
    sim.add_argument("--reps", type=int, default=1000)
    sim.add_argument("--seed", type=int, default=0)
    add_basis_flags(sim)
    sim.add_argument("--factor-mode", choices=[m.value for m in FactorMode],
                     default="stationary")
    sim.add_argument("--error-pi", type=float, default=0.0,
                     help="error correlation (0 = iid)")
    sim.add_argument("--output", default=None)
    sim.add_argument("--format", choices=["json", "csv"], default="csv")

    lin = sub.add_parser("test-linearity", help="test the nonlinear sieve terms")
    lin.add_argument("--input", required=True)
    add_basis_flags(lin)
    lin.add_argument("--diff", action="store_true")
    lin.add_argument("--hac-window", type=int, default=None)
    lin.add_argument("--output", default=None)
    lin.add_argument("--format", choices=["json", "csv"], default="json")

    return parser


def _resolve_basis(args):
    """Fill basis defaults; warn when knot flags are set on a linear method."""
    method = Method(args.method)
    knot_flags_set = any(v is not None for v in
                         (args.knot_c, args.knot_rate, getattr(args, "family", None)))
    if method != Method.SCCE and knot_flags_set:
        print(f"warning: --method {method.value} ignores knot/basis flags",
              file=sys.stderr)
    knot_c = args.knot_c if args.knot_c is not None else 1
    knot_rate = KnotRate(args.knot_rate) if args.knot_rate is not None else KnotRate.QUARTER
    family = _family(args.family) if getattr(args, "family", None) else BasisFamily()
    return method, family, knot_c, knot_rate


def _emit(payload: dict, csv_rows, args) -> None:
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        header, rows = csv_rows
        lines = [",".join(header)]
        lines += [",".join(str(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    _write(text, args.output)


def _write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_estimate(args) -> int:
    method, family, knot_c, knot_rate = _resolve_basis(args)
    panel = load_panel_csv(args.input)
    if args.diff:
        panel = first_difference(panel)

    result = estimate_panel(panel, method, family, knot_c, knot_rate)
    cov = hac_covariance(result, args.hac_window)

    boot = None
    if args.bootstrap is not None:
        boot = bootstrap_ci(panel, BootstrapConfig(
            method=method, family=family, knot_c=knot_c, knot_rate=knot_rate,
            n_draws=args.bootstrap, level=args.level, seed=args.seed))

    adf_rows = []
    if not args.no_adf:
        proxy = cross_sectional_average(panel)
        names = ["ybar"] + [f"x{k}bar" for k in range(1, panel.n_regressors + 1)]
        for name, col in zip(names, proxy.values.T):
            try:
                res = adf_test(col)
                adf_rows.append({"column": name, "statistic": res.statistic,
                                 "p_value": res.p_value, "lags": res.dof,
                                 "reject_unit_root_5pct": res.decision_at_5pct})
            except ScceError as exc:
                adf_rows.append({"column": name, "error": str(exc)})

    coef_rows = []
    for k in range(panel.n_regressors):
        row = {"coef": k + 1, "estimate": float(result.beta[k]),
               "hac_std_error": float(cov.std_errors[k])}
        if boot is not None:
            row["ci_lower"] = float(boot.ci_lower[k])
            row["ci_upper"] = float(boot.ci_upper[k])
        coef_rows.append(row)

    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "estimate",
        "method": method.value,
        "n_units": panel.n_units,
        "n_periods": panel.n_periods,
        "differenced": bool(args.diff),
        "hac_window": cov.hac_window,
        "projection_rank": result.projection_rank,
        "coefficients": coef_rows,
        "adf": adf_rows,
    }
    if boot is not None:
        payload["bootstrap"] = {"draws": args.bootstrap, "level": args.level,
                                "seed": args.seed, "skipped": boot.skipped}
    header = ["coef", "estimate", "hac_std_error", "ci_lower", "ci_upper"]
    rows = [[r["coef"], f"{r['estimate']:.10g}", f"{r['hac_std_error']:.10g}",
             f"{r['ci_lower']:.10g}" if "ci_lower" in r else "",
             f"{r['ci_upper']:.10g}" if "ci_upper" in r else ""] for r in coef_rows]
    _emit(payload, (header, rows), args)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    method, family, knot_c, knot_rate = _resolve_basis(args)
    if len(args.n) != len(args.t):
        raise PanelDataError("--n and --t must be given the same number of times")
    grid = list(zip(args.n, args.t))
    dgp_cfg = DgpConfig(dgp=Dgp(args.dgp), n=grid[0][0], t=grid[0][1],
                        factor_mode=FactorMode(args.factor_mode),
                        error_mode=ErrorMode(pi=args.error_pi))
    est_cfg = EstimatorConfig(method=method, family=family,
                              knot_c=knot_c, knot_rate=knot_rate)
    report = monte_carlo_run(grid, dgp_cfg, est_cfg, reps=args.reps, seed=args.seed)
    if args.format == "json":
        text = report.to_json() + "\n"
    else:
        buf = io.StringIO()
        report.write_csv(buf)
        text = buf.getvalue()
    _write(text, args.output)
    return EXIT_OK


def _cmd_test_linearity(args) -> int:
    _, family, knot_c, knot_rate = _resolve_basis(args)
    panel = load_panel_csv(args.input)
    if args.diff:
        panel = first_difference(panel)
    proxy = cross_sectional_average(panel)
    j = knot_count(panel.n_periods, knot_c, knot_rate)
    basis = build_sieve_matrix(proxy, family, j)
    res = linearity_test(panel, basis, args.hac_window)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "test-linearity",
        "statistic": res.statistic,
        "dof": res.dof,
        "p_value": res.p_value,
        "reject_linearity_5pct": res.decision_at_5pct,
        "hac_window": res.detail["hac_window"],
    }
    header = ["statistic", "dof", "p_value", "reject_linearity_5pct"]
    rows = [[f"{res.statistic:.10g}", res.dof, f"{res.p_value:.10g}", res.decision_at_5pct]]
    _emit(payload, (header, rows), args)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"estimate": _cmd_estimate, "simulate": _cmd_simulate,
                "test-linearity": _cmd_test_linearity}
    try:
        return handlers[args.command](args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    except ScceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
