"""Command-line front end.

Three subcommands: ``estimate`` runs an estimator on a CSV panel and reports
coefficients with HAC standard errors, optional bootstrap intervals, and
per-proxy-column unit-root pretests; ``simulate`` runs a Monte Carlo study
over a grid of panel sizes; ``test-linearity`` tests whether the nonlinear
sieve terms are jointly significant.

Exit codes: 0 success, 2 data or configuration errors, 3 numerical errors.
Exit 2 covers unreadable or malformed CSV panels (a missing file, text that
is not UTF-8, an oversized field, a row whose width differs from the
header's), bad flags (unknown, malformed or out of range, ``--hac-window``
outside 0..T-1 among them), an ``SCCE_THREADS`` outside 1..256, an
``--output`` that cannot be opened or names the ``--input`` file, both
checked before any work, and a report that cannot be written. Each error is
one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from .errors import NumericalError, PanelDataError, ScceError
from .estimators import EstimatorConfig, Method
from .inference import (
    BootstrapConfig,
    adf_test,
    bootstrap_ci,
    hac_covariance,
    linearity_test,
)
from .panel import cross_sectional_average, first_difference, load_panel_csv
from .sieve import BasisFamily, BasisKind, KnotRate
from .simulate import Dgp, DgpConfig, ErrorMode, FactorMode, monte_carlo_run

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_DATA_ERROR = 2
EXIT_NUMERICAL_ERROR = 3


_FAMILIES = {"cubic": BasisKind.CUBIC_SPLINE, "hermite": BasisKind.HERMITE,
             "power": BasisKind.POWER_SERIES}
# How each estimator flag's value becomes its EstimatorConfig field.
_ESTIMATOR_FLAGS = {"method": Method, "family": lambda name: BasisFamily(_FAMILIES[name]),
                    "knot_c": int, "knot_rate": KnotRate}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one `error:` line and exit 2, not usage and SystemExit
        raise ScceError(message)


def _seed(text: str) -> int:
    """A --seed value, checked at parse time whether or not a draw uses it."""
    with contextlib.suppress(ValueError):
        if (seed := int(text)) >= 0:
            return seed
    raise ScceError(f"seed must be a non-negative integer, got {text!r}")


def _level(text: str) -> float:
    """A --level value, checked at parse time whether or not --bootstrap is given."""
    with contextlib.suppress(ValueError):
        return BootstrapConfig(level=float(text)).level
    raise ScceError(f"argument --level: invalid float value: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scce", description="Sieve-augmented CCE estimation for panel data")
    sub = parser.add_subparsers(dest="command", required=True)

    default = EstimatorConfig()
    default_family = next(n for n, k in _FAMILIES.items() if k == default.family.kind)

    def add_basis_flags(p):
        p.add_argument("--knot-c", type=int, default=None, help="knot multiplier C in "
                       f"J = C*floor(T**(1/r)) (default {default.knot_c})")
        p.add_argument("--knot-rate", choices=[r.value for r in KnotRate], default=None,
                       help=f"root r of T in the knot rule (default {default.knot_rate.value})")
        p.add_argument("--family", choices=list(_FAMILIES), default=None,
                       help=f"sieve basis family (default {default_family})")

    def add_output_flags(p, default_format):
        p.add_argument("--output", default=None, help="write report here (default stdout)")
        p.add_argument("--format", choices=["json", "csv"], default=default_format)

    est = sub.add_parser("estimate", help="estimate coefficients from a CSV panel")
    est.add_argument("--input", required=True)
    est.add_argument("--method", choices=[m.value for m in Method])
    add_basis_flags(est)
    est.add_argument("--diff", action="store_true", help="first-difference the panel")
    est.add_argument("--hac-window", type=int, default=None)
    est.add_argument("--bootstrap", type=int, default=None, metavar="B",
                     help="number of pair-bootstrap draws (omit to skip)")
    est.add_argument("--level", type=_level, default=0.95)
    est.add_argument("--seed", type=_seed, default=0)
    est.add_argument("--no-adf", action="store_true", help="skip the unit-root pretests")
    add_output_flags(est, "json")

    sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    sim.add_argument("--dgp", choices=[d.value for d in Dgp], required=True)
    sim.add_argument("--n", type=int, action="append", required=True,
                     help="cross-section size; repeat with --t for a grid")
    sim.add_argument("--t", type=int, action="append", required=True)
    sim.add_argument("--reps", type=int, default=1000)
    sim.add_argument("--seed", type=_seed, default=0)
    sim.add_argument("--method", choices=[m.value for m in Method])
    add_basis_flags(sim)
    sim.add_argument("--factor-mode", choices=[m.value for m in FactorMode],
                     default="stationary")
    sim.add_argument("--error-pi", type=float, default=0.0,
                     help="error correlation (0 = iid)")
    add_output_flags(sim, "csv")

    lin = sub.add_parser("test-linearity", help="test the nonlinear sieve terms")
    lin.add_argument("--input", required=True)
    add_basis_flags(lin)
    lin.add_argument("--diff", action="store_true")
    lin.add_argument("--hac-window", type=int, default=None)
    add_output_flags(lin, "json")

    return parser


def _estimator(args) -> EstimatorConfig:
    """The estimator of the flags given, EstimatorConfig's defaults for the
    rest; warn when sieve flags are given to a linear method."""
    given = {name: parse(value) for name, parse in _ESTIMATOR_FLAGS.items()
             if (value := getattr(args, name, None)) is not None}
    config = EstimatorConfig(**given)
    if config.method != Method.SCCE and given.keys() - {"method"}:
        print(f"warning: --method {config.method.value} ignores knot/basis flags",
              file=sys.stderr)
    return config


def _load(args):
    panel = load_panel_csv(args.input)
    return first_difference(panel) if args.diff else panel


def _render(args, payload: dict, header: list, rows: list) -> str:
    """``payload`` with its ``schema_version`` as JSON, or the dict ``rows`` as
    CSV under ``header``: floats as .10g, other values as str, missing keys empty."""
    if args.format == "json":
        return json.dumps({"schema_version": SCHEMA_VERSION, **payload},
                          sort_keys=True, indent=2) + "\n"

    def field(row, key):
        value = row.get(key, "")
        return f"{value:.10g}" if isinstance(value, float) else str(value)

    lines = [",".join(header)] + [",".join(field(r, k) for k in header) for r in rows]
    return "\n".join(lines) + "\n"


def _write(out, name: str, text: str) -> None:
    """Write ``text`` to ``out``, flush it and close it unless it is stdout; a failed
    stdout is pointed at the null device, so the flush at exit drops its buffer."""
    try:
        with contextlib.nullcontext() if out is sys.stdout else out:
            out.write(text)
            out.flush()
    except OSError as exc:
        if out is sys.stdout:
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), out.fileno())
        raise ScceError(f"{name}: cannot write: {exc.strerror}") from None


def _cmd_estimate(args) -> tuple:
    config = _estimator(args)
    panel = _load(args)

    result = config.estimate(panel)
    cov = hac_covariance(result, args.hac_window)

    boot = None
    if args.bootstrap is not None:
        boot = bootstrap_ci(panel, BootstrapConfig(
            **vars(config), n_draws=args.bootstrap, level=args.level, seed=args.seed))

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
        "command": "estimate",
        "method": config.method.value,
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
    return payload, ["coef", "estimate", "hac_std_error", "ci_lower", "ci_upper"], coef_rows


def _cmd_simulate(args) -> tuple:
    config = _estimator(args)
    if len(args.n) != len(args.t):
        raise PanelDataError("--n and --t must be given the same number of times")
    grid = list(zip(args.n, args.t))
    dgp_cfg = DgpConfig(dgp=Dgp(args.dgp), n=grid[0][0], t=grid[0][1],
                        factor_mode=FactorMode(args.factor_mode),
                        error_mode=ErrorMode(pi=args.error_pi))
    report = monte_carlo_run(grid, dgp_cfg, config, reps=args.reps, seed=args.seed)
    rows = report.to_rows()
    return ({"rows": rows},
            ["n", "t", "dgp", "estimator", "coef", "abs_bias", "rmse", "reps", "skipped"], rows)


def _cmd_test_linearity(args) -> tuple:
    config = _estimator(args)
    panel = _load(args)
    res = linearity_test(panel, config.basis(panel), args.hac_window)
    payload = {
        "command": "test-linearity",
        "statistic": res.statistic,
        "dof": res.dof,
        "p_value": res.p_value,
        "reject_linearity_5pct": res.decision_at_5pct,
        "hac_window": res.detail["hac_window"],
    }
    return payload, ["statistic", "dof", "p_value", "reject_linearity_5pct"], [payload]


def main(argv=None) -> int:
    handlers = {"estimate": _cmd_estimate, "simulate": _cmd_simulate,
                "test-linearity": _cmd_test_linearity}
    try:
        args = build_parser().parse_args(argv)
        if args.output and getattr(args, "input", None):
            with contextlib.suppress(OSError):  # a path that does not exist names no file
                if os.path.samefile(args.output, args.input):
                    raise ScceError(f"{args.output}: --output names the --input file")
        try:
            target = (open(args.output, "w", encoding="utf-8") if args.output
                      else contextlib.nullcontext(sys.stdout))
        except OSError as exc:
            raise ScceError(f"{args.output}: cannot write: {exc.strerror}") from None
        with target as out:
            report = handlers[args.command](args)
            _write(out, args.output or "stdout", _render(args, *report))
        return EXIT_OK
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    except np.linalg.LinAlgError as exc:
        print(f"error: linear algebra failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    except ScceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
