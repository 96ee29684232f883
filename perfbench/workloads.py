"""The benchmark workloads: inputs, one operation, and its output check.

Inputs come from this file's own E1 generator, never from the package under
test, so a change to ``scce.simulate`` cannot change them. Every op calls the
package through module attributes looked up at call time (``cli.main``,
``estimators.estimate_panel``, ...), so the traced run's wrappers see it.

Each op returns a JSON-shaped result. ``check`` compares it with the stored
reference of its (size, workload, input seed) and with invariants the program
must meet (exit code 0, ``schema_version``, zero skips); ``boot_cli`` also
checks its point estimate against the dense oracle in ``oracle.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scce import cli, estimators, inference, panel, sieve, simulate

import oracle

# A stored value matches when |actual - ref| <= ATOL + RTOL * |ref|. Loose
# enough for the ~1e-14 changes that reassociated sums cause, tight enough
# that a 1e-6 relative error fails.
RTOL = 1e-8
ATOL = 1e-12
# Dense oracle against the CLI point estimate, as in acceptance criterion c05.
ORACLE_TOL = 1e-8

# Stored references exist for these input seeds; --seed s uses s % N_REF_SEEDS.
N_REF_SEEDS = 16

SIZES = {
    "full": {
        "boot_cli": {"n": 100, "t": 100, "draws": 399},
        "mc_cell": {"n": 300, "t": 300, "reps": 20},
        "wide_panel": {"n": 2000, "t": 500},
        "csv_ingest": {"n": 1000, "t": 200},
    },
    "toy": {
        "boot_cli": {"n": 20, "t": 30, "draws": 19},
        "mc_cell": {"n": 30, "t": 30, "reps": 4},
        "wide_panel": {"n": 40, "t": 40},
        "csv_ingest": {"n": 40, "t": 30},
    },
}


def e1_panel(n: int, t: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Design E1 with beta = (1, 1): nonlinear loadings of two N(0,1) factors."""
    rng = np.random.default_rng(seed)
    f1, f2 = rng.normal(size=(2, t))
    gamma1, gamma2, gamma3 = rng.normal(size=(3, n, 1))
    load1, load2 = rng.normal(size=(2, n, 1, 2))
    load3, load4 = rng.normal(1.0, 1.0, size=(2, n, 1, 2))
    g = gamma1 * f1 + gamma2 * (f1 * f2) + 0.5 * (f1 - gamma3) ** 2
    f1c, f2c = f1[:, None], f2[:, None]
    big_g = (0.6 * (np.exp(load1) * (f1c * f2c ** 2) + load2 * np.exp(f2c))
             + 0.4 * np.sin(load3 * f1c + np.exp(load4) * (f1c * f2c)))
    x = big_g + rng.normal(size=(n, t, 2))
    y = x.sum(axis=2) + g + rng.normal(size=(n, t))
    return y, x


def write_csv(path: Path, y: np.ndarray, x: np.ndarray) -> None:
    """Long format unit,time,y,x1,x2 with every digit of each value."""
    n, t = y.shape
    units, times = np.meshgrid(np.arange(n), np.arange(t), indexing="ij")
    table = np.column_stack([units.ravel(), times.ravel(), y.ravel(),
                             x.reshape(n * t, -1)])
    np.savetxt(path, table, fmt=["%d", "%d"] + ["%.17g"] * (table.shape[1] - 2),
               delimiter=",", header="unit,time,y,x1,x2", comments="")


def compare(actual: Any, ref: Any, path: str = "") -> list[str]:
    """Differences between a result and its reference; floats by tolerance."""
    if isinstance(ref, dict):
        if not isinstance(actual, dict) or set(actual) != set(ref):
            return [f"{path}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}"
                    f" != {sorted(ref)}"]
        return [p for k in ref for p in compare(actual[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, (list, tuple)):
        if not isinstance(actual, (list, tuple)) or len(actual) != len(ref):
            return [f"{path}: {actual!r} != {ref!r}"]
        return [p for i, (a, r) in enumerate(zip(actual, ref))
                for p in compare(a, r, f"{path}[{i}]")]
    if isinstance(ref, float) or isinstance(actual, float):
        numeric = all(isinstance(v, (int, float)) for v in (actual, ref))
        if numeric and math.isclose(actual, ref, rel_tol=RTOL, abs_tol=ATOL):
            return []
    elif actual == ref and type(actual) is type(ref):
        return []
    return [f"{path}: {actual!r} != {ref!r}"]


@dataclass(frozen=True)
class Workload:
    """One workload: set-up, op, invariants, the work an op completes, and
    the SCCE_THREADS it runs with."""

    setup: Callable[[dict, int, Path], dict]
    op: Callable[[dict], dict]
    invariants: Callable[[dict, dict], list[str]]
    work: Callable[[dict, dict], int]
    threads: int = 1

    def check(self, state: dict, out: dict, ref: dict) -> list[str]:
        return self.invariants(state, out) + compare(out, ref)


def _run_cli(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    text = buf.getvalue()
    return {"exit_code": code, "report": json.loads(text) if code == 0 else text}


def _cli_invariants(out: dict) -> list[str]:
    problems = []
    if out["exit_code"] != 0:
        problems.append(f"exit code {out['exit_code']}")
    elif out["report"].get("schema_version") != 1:
        problems.append(f"schema_version {out['report'].get('schema_version')!r}")
    return problems


def _csv_setup(size: dict, seed: int, workdir: Path) -> dict:
    y, x = e1_panel(size["n"], size["t"], seed)
    path = workdir / f"panel-{size['n']}x{size['t']}-seed{seed}.csv"
    write_csv(path, y, x)
    return {**size, "seed": seed, "csv": str(path), "y": y, "x": x}


def _boot_op(s: dict) -> dict:
    return _run_cli(["estimate", "--input", s["csv"], "--bootstrap", str(s["draws"]),
                     "--seed", str(s["seed"])])


def _boot_invariants(s: dict, out: dict) -> list[str]:
    problems = _cli_invariants(out)
    if problems:
        return problems
    report = out["report"]
    boot = report.get("bootstrap", {})
    if boot.get("draws") != s["draws"] or boot.get("skipped") != 0:
        problems.append(f"bootstrap {boot!r}: want {s['draws']} draws, 0 skipped")
    beta = np.array([c["estimate"] for c in report["coefficients"]])
    gap = np.abs(beta - oracle.scce_beta(s["y"], s["x"])).max()
    if not gap <= ORACLE_TOL:
        problems.append(f"point estimate is {gap:.3e} from the dense oracle")
    return problems


def _boot_work(s: dict, out: dict) -> int:
    boot = out["report"]["bootstrap"]
    return boot["draws"] - boot["skipped"]


def _csv_op(s: dict) -> dict:
    return _run_cli(["estimate", "--input", s["csv"]])


def _mc_setup(size: dict, seed: int, workdir: Path) -> dict:
    return {**size, "seed": seed}


def _mc_op(s: dict) -> dict:
    report = simulate.monte_carlo_run([(s["n"], s["t"])],
                                      simulate.DgpConfig(dgp=simulate.Dgp.E1),
                                      reps=s["reps"], seed=s["seed"])
    return {"cells": [dataclasses.asdict(c) for c in report.cells]}


def _mc_invariants(s: dict, out: dict) -> list[str]:
    return [f"cell {c['n']}x{c['t']}: {c['skipped']} of {c['reps']} reps skipped"
            for c in out["cells"] if c["skipped"] != 0]


def _mc_work(s: dict, out: dict) -> int:
    return sum(c["reps"] - c["skipped"] for c in out["cells"])


def _wide_setup(size: dict, seed: int, workdir: Path) -> dict:
    y, x = e1_panel(size["n"], size["t"], seed)
    data = panel.PanelData(y=y, x=x, unit_labels=tuple(range(size["n"])),
                           time_labels=tuple(range(size["t"])))
    return {**size, "seed": seed, "panel": data}


def _wide_op(s: dict) -> dict:
    p = s["panel"]
    result = estimators.estimate_panel(p, estimators.Method.SCCE)
    cov = inference.hac_covariance(result)
    ccep = estimators.estimate_panel(p, estimators.Method.CCEP)
    ccemg = estimators.estimate_panel(p, estimators.Method.CCEMG)
    basis = sieve.build_sieve_matrix(panel.cross_sectional_average(p),
                                     sieve.BasisFamily(), sieve.knot_count(p.n_periods))
    lin = inference.linearity_test(p, basis)
    return {"scce_beta": result.beta.tolist(), "hac_std_errors": cov.std_errors.tolist(),
            "ccep_beta": ccep.beta.tolist(), "ccemg_beta": ccemg.beta.tolist(),
            "linearity": {"statistic": lin.statistic, "dof": lin.dof,
                          "p_value": lin.p_value}}


WORKLOADS = {
    "boot_cli": Workload(setup=_csv_setup, op=_boot_op,
                         invariants=_boot_invariants, work=_boot_work, threads=2),
    "mc_cell": Workload(setup=_mc_setup, op=_mc_op,
                        invariants=_mc_invariants, work=_mc_work),
    "wide_panel": Workload(setup=_wide_setup, op=_wide_op,
                           invariants=lambda s, out: [],
                           work=lambda s, out: s["n"] * s["t"]),
    "csv_ingest": Workload(setup=_csv_setup, op=_csv_op,
                           invariants=lambda s, out: _cli_invariants(out),
                           work=lambda s, out: s["n"] * s["t"]),
}
