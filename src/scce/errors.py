"""Exception hierarchy shared across the library.

Data errors (bad input panels) and numerical errors (singular designs,
degenerate regressions) are kept on separate branches so that callers --
in particular the CLI -- can map them to distinct exit codes.
"""

__all__ = ["ScceError", "PanelDataError", "UnbalancedPanel", "DuplicateCell", "NonFiniteValue",
           "TooSmall", "NumericalError", "SingularDesign", "SingularUnit", "SingularSigmaV",
           "WindowTooLarge", "SeriesTooShort", "DegenerateSeries", "NoNonlinearColumns",
           "TooManySkipped"]


class ScceError(Exception):
    """Base class for all library errors."""


class PanelDataError(ScceError):
    """Invalid or malformed panel input."""


class UnbalancedPanel(PanelDataError):
    """A (unit, time) cell is missing from the panel grid."""

    def __init__(self, unit, time):
        self.unit = unit
        self.time = time
        super().__init__(f"panel is unbalanced: missing cell (unit={unit!r}, time={time!r})")


class DuplicateCell(PanelDataError):
    """A (unit, time) cell appears more than once."""

    def __init__(self, unit, time):
        self.unit = unit
        self.time = time
        super().__init__(f"duplicate cell (unit={unit!r}, time={time!r})")


class NonFiniteValue(PanelDataError):
    """A panel entry is NaN or infinite."""


class TooSmall(PanelDataError):
    """Panel dimensions below the minimum the method supports."""


class NumericalError(ScceError):
    """Numerical failure during estimation or inference."""


class SingularDesign(NumericalError):
    """Pooled Gram matrix fails the relative-eigenvalue gate."""


class SingularUnit(NumericalError):
    """A unit-level regression in the mean-group estimator is singular."""

    def __init__(self, unit):
        self.unit = unit
        super().__init__(f"unit-level regression singular for unit {unit!r}")


class SingularSigmaV(NumericalError):
    """Residual second-moment matrix is not invertible."""


class WindowTooLarge(ScceError):
    """HAC window outside 0..T-1: a configuration error, not a numerical one."""


class SeriesTooShort(NumericalError):
    """Series too short for the requested time-series regression."""


class DegenerateSeries(NumericalError):
    """Series has no variation after differencing; regression undefined."""


class NoNonlinearColumns(NumericalError):
    """The sieve basis contains no nonlinear columns to test."""


class TooManySkipped(NumericalError):
    """More than the tolerated share of replications (or bootstrap draws)
    failed; the message quotes ``cause``, one error of the commonest class,
    and ``count``, how many of the skips are of that class."""

    def __init__(self, skipped, total, items="replications", cause=None, count=0):
        self.skipped = skipped
        self.total = total
        message = f"{skipped} of {total} {items} failed (> 1% tolerated)"
        if cause is not None:
            message += f"; most often ({count}) {type(cause).__name__}: {cause}"
        super().__init__(message)
