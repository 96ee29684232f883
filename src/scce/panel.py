"""Balanced-panel data model, validation, and preprocessing.

Holds the observed panel (y, X), performs first differencing, and computes
once per panel the cross-sectional averages that serve as the factor proxy,
in ascending unit-label order with compensated (Kahan) summation, so that
results are bit-stable across runs and unit orderings.
"""

from __future__ import annotations

import csv
import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateCell,
    NonFiniteValue,
    NumericalError,
    PanelDataError,
    TooSmall,
    UnbalancedPanel,
)

__all__ = ["PanelData", "FactorProxy", "validate_panel", "load_panel_csv",
           "first_difference", "cross_sectional_average"]


@dataclass(frozen=True)
class PanelData:
    """Balanced N x T panel with d regressors.

    ``y`` is N x T and ``x`` is N x T x d, both stored read-only. Unit labels
    are unique; time labels are strictly increasing and only their order
    matters, except that differencing requires integer labels to be consecutive.
    """

    y: np.ndarray
    x: np.ndarray
    unit_labels: tuple
    time_labels: tuple

    def __post_init__(self):
        y = np.ascontiguousarray(self.y, dtype=np.float64)
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        if y.ndim != 2 or x.ndim != 3:
            raise PanelDataError(f"expected y 2-d and x 3-d, got {y.ndim}-d and {x.ndim}-d")
        n, t = y.shape
        if x.shape[:2] != (n, t):
            raise PanelDataError(f"y shape {y.shape} inconsistent with x shape {x.shape}")
        if n < 1 or t < 2 or x.shape[2] < 1:
            raise TooSmall(f"need N >= 1, T >= 2, d >= 1; got N={n}, T={t}, d={x.shape[2]}")
        if len(self.unit_labels) != n or len(self.time_labels) != t:
            raise PanelDataError("label lengths inconsistent with data shapes")
        if len(set(self.unit_labels)) != n:
            raise PanelDataError("unit labels must be unique")
        if any(b <= a for a, b in zip(self.time_labels, self.time_labels[1:])):
            raise PanelDataError("time labels must be strictly increasing")
        if not (np.isfinite(y).all() and np.isfinite(x).all()):
            i, j = np.argwhere(~(np.isfinite(y) & np.isfinite(x).all(axis=2)))[0]
            raise NonFiniteValue(f"non-finite value in cell (unit={self.unit_labels[i]!r}, "
                                 f"time={self.time_labels[j]!r})")
        y.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "unit_labels", tuple(self.unit_labels))
        object.__setattr__(self, "time_labels", tuple(self.time_labels))

    @property
    def n_units(self) -> int:
        return self.y.shape[0]

    @property
    def n_periods(self) -> int:
        return self.y.shape[1]

    @property
    def n_regressors(self) -> int:
        return self.x.shape[2]

    @functools.cached_property
    def _proxy(self) -> FactorProxy:
        """The ``cross_sectional_average``, each unit's [y_i, x_i] filled into one buffer."""
        total = np.zeros((self.n_periods, self.n_regressors + 1))
        comp, new, row = np.zeros_like(total), np.empty_like(total), np.empty_like(total)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is checked below
            for i in sorted(range(self.n_units), key=self.unit_labels.__getitem__):
                row[:, 0], row[:, 1:] = self.y[i], self.x[i]
                row -= comp
                np.add(total, row, out=new)
                np.subtract(new, total, out=comp)
                comp -= row
                total, new = new, total
        if not np.isfinite(total).all():
            raise NumericalError("factor proxy overflows: the cross-sectional sums are too "
                                 "large; rescale the data")
        return FactorProxy(values=total / self.n_units)


@dataclass(frozen=True)
class FactorProxy:
    """Cross-sectional averages, T x (d+1), column order [ybar, x1bar, ..., xdbar]."""

    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise PanelDataError("factor proxy must be a 2-d array")
        if not np.isfinite(values).all():
            raise NonFiniteValue("factor proxy contains non-finite entries")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_periods(self) -> int:
        return self.values.shape[0]

    @property
    def n_columns(self) -> int:
        return self.values.shape[1]


def validate_panel(records) -> PanelData:
    """Build a PanelData from long-format records ``(unit, time, y, x1, ..., xd)``.

    Every (unit, time) pair must appear exactly once and the unit x time grid
    must be complete. Rows may arrive in any order and are read once, so this
    path names the first fault in input order, also for ``load_panel_csv``.
    Units are stored in ascending label order and periods in ascending time order.
    """
    cells: dict[tuple, tuple] = {}
    width = None
    for rec in records:
        if width is None:
            width = len(rec)
            if width < 4:
                raise PanelDataError("records need at least (unit, time, y, x1)")
        if len(rec) != width:
            raise PanelDataError(f"inconsistent record width: expected {width}, got {len(rec)}")
        unit, time = rec[0], rec[1]
        try:
            vals = tuple(float(v) for v in rec[2:])
        except (TypeError, ValueError) as exc:
            raise PanelDataError(f"non-numeric value in cell (unit={unit!r}, time={time!r})") from exc
        key = (unit, time)
        if key in cells:
            raise DuplicateCell(unit, time)
        cells[key] = vals

    if width is None:
        raise PanelDataError("no records supplied")
    units = sorted({u for u, _ in cells})
    times = sorted({t for _, t in cells})
    n, t_len = len(units), len(times)
    if n < 2 or t_len < 2:
        raise TooSmall(f"need N >= 2 and T >= 2; got N={n}, T={t_len}")

    try:
        rows = [cells[u, tm] for u in units for tm in times]
    except KeyError as exc:
        raise UnbalancedPanel(*exc.args[0]) from None
    # Fill y and x directly: no (N, T, d + 1) grid alive beside both.
    y = np.fromiter((r[0] for r in rows), np.float64, n * t_len).reshape(n, t_len)
    x = np.fromiter((v for r in rows for v in r[1:]), np.float64, n * t_len * (width - 3))
    return PanelData(y=y, x=x.reshape(n, t_len, -1), unit_labels=tuple(units),
                     time_labels=tuple(times))


def load_panel_csv(path) -> PanelData:
    """Read a panel from CSV in the long format ``unit,time,y,x1,...,xd``: numpy's
    C parser reads the body, and ``validate_panel`` rereads row by row any file it
    does not take whole, so the syntax and the messages stay the csv module's."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise PanelDataError(f"{path}: cannot open: {exc.strerror}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise PanelDataError(f"{path}: empty file")
            header = [h.strip().lower() for h in header]
            if header[:3] != ["unit", "time", "y"]:
                raise PanelDataError(f"{path}: header must start with 'unit,time,y', got {header[:3]}")
            if fh.seekable():
                if (panel := _parse_body(fh, len(header))) is not None:
                    return panel
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
            return validate_panel(_record(path, reader.line_num, row, len(header))
                                  for row in reader if row)
        except UnicodeDecodeError as exc:
            raise PanelDataError(f"{path}: not UTF-8 text: {exc.reason}") from None
        except csv.Error as exc:
            raise PanelDataError(f"{path}: line {reader.line_num}: {exc}") from None


def _parse_body(fh, width: int) -> PanelData | None:
    """The rest of ``fh`` as ``np.loadtxt`` reads it, or None for the record path."""
    fields = np.dtype([("unit", object), ("time", np.int64), ("values", np.float64, width - 2)])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(fh, dtype=fields, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    # Not np.unique: 8x slower on objects, and str arrays drop trailing NULs.
    labels = rows["unit"].tolist()
    units = sorted(set(labels))
    times, time_index = np.unique(rows["time"], return_inverse=True)
    n, t = len(units), len(times)
    # csv unquotes a '"', _record strips whitespace, and csv before Python 3.11 rejects NUL.
    if width < 4 or min(n, t) < 2 or any(u != u.strip() or '"' in u or "\0" in u for u in units):
        return None
    index = dict(zip(units, range(n)))
    cell = np.fromiter(map(index.__getitem__, labels), np.intp, len(rows)) * t + time_index
    # Every cell once, and no line (so no field) over csv's field size limit.
    fh.seek(0)
    if ((np.bincount(cell, minlength=n * t) != 1).any()
            or max(map(len, fh.buffer)) > csv.field_size_limit()):
        return None
    y, x = np.empty(n * t), np.empty((n * t, width - 3))
    y[cell], x[cell] = rows["values"][:, 0], rows["values"][:, 1:]
    return PanelData(y=y.reshape(n, t), x=x.reshape(n, t, -1), unit_labels=tuple(units),
                     time_labels=tuple(times.tolist()))


def _record(path, line: int, row: list, width: int) -> tuple:
    """CSV row ``line`` as a record ``(unit, time, y, x1, ...)``."""
    if len(row) != width:
        raise PanelDataError(f"{path}: line {line} has {len(row)} field(s); the header has {width}")
    try:
        return (row[0].strip(), int(row[1]), *row[2:])
    except ValueError:
        raise PanelDataError(f"{path}: time label {row[1]!r} is not an integer") from None


def first_difference(p: PanelData) -> PanelData:
    """First-difference y and every regressor column per unit.

    Returns a panel with T-1 periods; time labels are shifted to periods
    2..T of the source. Integer time labels must be consecutive, so that no
    difference spans a missing period; other labels are taken as consecutive.
    """
    if p.n_periods < 3:
        raise TooSmall(f"first differencing needs T >= 3, got T={p.n_periods}")
    for a, b in zip(p.time_labels, p.time_labels[1:]):
        if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)) and b - a != 1:
            raise PanelDataError(f"time labels skip from {a} to {b}; first differencing "
                                 "needs consecutive periods")
    return PanelData(
        y=np.diff(p.y, axis=1),
        x=np.diff(p.x, axis=1),
        unit_labels=p.unit_labels,
        time_labels=p.time_labels[1:],
    )


def cross_sectional_average(p: PanelData) -> FactorProxy:
    """Average the observables z_it = [y_it, x_it'] over units.

    Summed in ascending unit-label order whatever the storage order, so it is
    bit-identical under unit permutations; computed once per panel and kept.
    """
    return p._proxy
