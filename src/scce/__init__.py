"""Sieve-augmented common correlated effects estimation for panel data.

Estimates slope coefficients in large panels where unobserved common factors
may enter the outcome and regressor equations through unknown, possibly
nonlinear functions. The factor space is proxied by cross-sectional averages,
enriched through a spline (or polynomial) sieve, and projected out before
pooled least squares. Includes HAC and pair-bootstrap inference, a test of
factor linearity, unit-root pretests, and a Monte Carlo harness.
"""

from .errors import (
    DegenerateSeries,
    DuplicateCell,
    NonFiniteValue,
    NoNonlinearColumns,
    NumericalError,
    PanelDataError,
    ScceError,
    SeriesTooShort,
    SingularDesign,
    SingularSigmaV,
    SingularUnit,
    TooManySkipped,
    TooSmall,
    UnbalancedPanel,
    WindowTooLarge,
)
from .estimators import (
    EstimationResult,
    EstimatorConfig,
    Method,
    annihilate,
    ccemg_estimate,
    ccep_estimate,
    estimate_panel,
    scce_estimate,
)
from .inference import (
    BootstrapConfig,
    BootstrapResult,
    CovarianceEstimate,
    TestResult,
    adf_test,
    bootstrap_ci,
    default_hac_window,
    hac_covariance,
    hac_theta,
    linearity_test,
    sandwich_covariance,
    sigma_v_hat,
)
from .panel import (
    FactorProxy,
    PanelData,
    cross_sectional_average,
    first_difference,
    load_panel_csv,
    validate_panel,
)
from .sieve import (
    BasisFamily,
    BasisKind,
    KnotRate,
    SieveBasis,
    build_sieve_matrix,
    compute_knots,
    knot_count,
    spline_basis_vector,
)
from .simulate import (
    Dgp,
    DgpConfig,
    ErrorMode,
    FactorMode,
    McCell,
    McReport,
    SimulatedPanel,
    generate_correlated_errors,
    generate_e1,
    generate_e2,
    generate_panel,
    monte_carlo_run,
    stream,
)

__version__ = "0.1.0"
