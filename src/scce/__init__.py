"""Sieve-augmented common correlated effects estimation for panel data.

Estimates slope coefficients in large panels where unobserved common factors
may enter the outcome and regressor equations through unknown, possibly
nonlinear functions. The factor space is proxied by cross-sectional averages,
enriched through a spline (or polynomial) sieve, and projected out before
pooled least squares. Includes HAC and pair-bootstrap inference, a test of
factor linearity, unit-root pretests, and a Monte Carlo harness.
"""

from . import errors, estimators, inference, panel, sieve, simulate
from .errors import *
from .estimators import *
from .inference import *
from .panel import *
from .sieve import *
from .simulate import *

__all__ = [name for module in (errors, estimators, inference, panel, sieve, simulate)
           for name in module.__all__]
__version__ = "0.1.0"
