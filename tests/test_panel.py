"""Panel construction, validation, differencing, and cross-sectional averages."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scce import (
    DgpConfig,
    DuplicateCell,
    EstimatorConfig,
    FactorProxy,
    NonFiniteValue,
    NumericalError,
    PanelData,
    PanelDataError,
    TooSmall,
    UnbalancedPanel,
    cross_sectional_average,
    first_difference,
    generate_panel,
    linearity_test,
    load_panel_csv,
    validate_panel,
)
from scce import panel as panel_module
from scce.cli import main
from scce.panel import _record

from conftest import make_panel, write_panel_csv


def records_grid(n, t, value=lambda i, s: float(i + s)):
    return [(f"u{i}", s, value(i, s), value(i, s) + 1.0, value(i, s) + 2.0)
            for i in range(n) for s in range(t)]


class TestValidatePanel:
    def test_complete_grid(self):
        p = validate_panel(records_grid(2, 2))
        assert p.n_units == 2 and p.n_periods == 2 and p.n_regressors == 2

    def test_missing_cell_names_the_hole(self):
        recs = records_grid(2, 2)
        recs = [r for r in recs if not (r[0] == "u1" and r[1] == 1)]
        with pytest.raises(UnbalancedPanel) as exc:
            validate_panel(recs)
        assert "u1" in str(exc.value) and "1" in str(exc.value)

    def test_duplicate_cell(self):
        recs = records_grid(2, 2)
        recs.append(recs[0])
        with pytest.raises(DuplicateCell):
            validate_panel(recs)

    def test_nan_value(self):
        recs = records_grid(2, 2)
        recs[0] = (recs[0][0], recs[0][1], float("nan"), 1.0, 2.0)
        with pytest.raises(NonFiniteValue):
            validate_panel(recs)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            validate_panel(records_grid(1, 3))
        with pytest.raises(TooSmall):
            validate_panel(records_grid(3, 1))

    def test_row_order_does_not_matter(self):
        recs = records_grid(3, 4, value=lambda i, s: float(10 * i - 3 * s))
        shuffled = list(reversed(recs))
        a, b = validate_panel(recs), validate_panel(shuffled)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x)


class TestPanelData:
    def test_immutability(self, random_panel):
        p = random_panel()
        with pytest.raises(ValueError):
            p.y[0, 0] = 99.0

    def test_rejects_nonfinite(self):
        y = np.ones((2, 3))
        y[0, 1] = np.inf
        with pytest.raises(NonFiniteValue, match=r"\(unit=0, time=1\)"):
            make_panel(y, np.ones((2, 3, 1)))

    def test_rejects_unsorted_time_labels(self):
        with pytest.raises(Exception):
            PanelData(y=np.ones((2, 3)), x=np.ones((2, 3, 1)),
                      unit_labels=(0, 1), time_labels=(3, 2, 1))


class TestFirstDifference:
    def test_arithmetic(self):
        y = np.array([[1.0, 2.0, 4.0], [1.0, 2.0, 4.0]])
        x = np.stack([y + 1.0], axis=2)
        d = first_difference(make_panel(y, x))
        assert np.array_equal(d.y, [[1.0, 2.0], [1.0, 2.0]])
        assert np.array_equal(d.x[:, :, 0], [[1.0, 2.0], [1.0, 2.0]])

    def test_constant_maps_to_zero(self):
        y = np.full((2, 4), 5.0)
        d = first_difference(make_panel(y, np.ones((2, 4, 1))))
        assert np.array_equal(d.y, np.zeros((2, 3)))

    def test_twice_equals_second_difference(self):
        y = np.array([[1.0, 2.0, 4.0, 7.0], [0.0, 1.0, 4.0, 9.0]])
        x = np.stack([2.0 * y], axis=2)
        p = make_panel(y, x)
        dd = first_difference(first_difference(p))
        direct = np.diff(np.diff(y, axis=1), axis=1)
        assert dd.n_periods == p.n_periods - 2
        assert np.array_equal(dd.y, direct)

    def test_labels_shift(self):
        p = make_panel(np.arange(8.0).reshape(2, 4), np.ones((2, 4, 1)))
        assert first_difference(p).time_labels == (1, 2, 3)

    def test_too_short(self):
        with pytest.raises(TooSmall):
            first_difference(make_panel(np.ones((2, 2)), np.ones((2, 2, 1))))

    def test_rejects_a_gap_in_integer_time_labels(self):
        def panel(labels):
            return PanelData(y=np.arange(8.0).reshape(2, 4), x=np.ones((2, 4, 1)),
                             unit_labels=(0, 1), time_labels=labels)

        with pytest.raises(PanelDataError, match="time labels skip from 2001 to 2003"):
            first_difference(panel((2001, 2003, 2004, 2005)))
        assert first_difference(panel((2001, 2002, 2003, 2004))).time_labels == (2002, 2003, 2004)
        # Labels that are not integers are taken as consecutive periods.
        assert first_difference(panel(("a", "c", "d", "e"))).n_periods == 3


class TestCrossSectionalAverage:
    def test_single_unit_is_identity(self):
        y = np.array([[1.0, 2.0, 3.0]])
        x = np.array([[[4.0], [5.0], [6.0]]])
        proxy = cross_sectional_average(PanelData(
            y=y, x=x, unit_labels=(0,), time_labels=(0, 1, 2)))
        assert np.array_equal(proxy.values[:, 0], y[0])
        assert np.array_equal(proxy.values[:, 1], x[0, :, 0])

    @pytest.mark.filterwarnings("error")
    def test_sums_that_overflow_raise_without_warnings(self):
        y = np.full((3, 4), 1.5e308)
        with pytest.raises(NumericalError, match="factor proxy overflows: the "
                                                 "cross-sectional sums are too large; "
                                                 "rescale the data"):
            cross_sectional_average(make_panel(y, np.ones((3, 4, 1))))

    def test_two_unit_mean(self):
        y = np.array([[1.0, 1.0], [3.0, 3.0]])
        proxy = cross_sectional_average(make_panel(y, np.zeros((2, 2, 1))))
        assert np.array_equal(proxy.values[:, 0], [2.0, 2.0])

    def test_permutation_invariant_bit_identical(self):
        rng = np.random.default_rng(3)
        recs = [(u, s, rng.normal(), rng.normal(), rng.normal())
                for u in ("b", "a", "d", "c") for s in range(6)]
        a = cross_sectional_average(validate_panel(recs))
        b = cross_sectional_average(validate_panel(list(reversed(recs))))
        assert np.array_equal(a.values, b.values)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(n=st.integers(1, 7), t=st.integers(2, 9), d=st.integers(1, 3), data=st.data())
    def test_byte_identical_to_the_kahan_mean_in_any_unit_order(self, n, t, d, data):
        labels = data.draw(st.lists(st.text(max_size=3) | st.integers(-99, 99).map(str),
                                    min_size=n, max_size=n, unique=True)
                           | st.lists(st.integers(-99, 99), min_size=n, max_size=n, unique=True))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        # Spread magnitudes, so that the compensation term matters.
        z = rng.normal(size=(n, t, d + 1)) * 10.0 ** rng.integers(-8, 9, size=(n, t, d + 1))
        perm = data.draw(st.permutations(range(n)))
        panels = [PanelData(y=z[o, :, 0], x=z[o, :, 1:], unit_labels=[labels[i] for i in o],
                            time_labels=tuple(range(t))) for o in (list(range(n)), perm)]
        # The proxy as computed before a panel kept it: a Kahan mean over the
        # (N, T, d + 1) stack reordered by unit label.
        order = sorted(range(n), key=lambda i: labels[i])
        stacked = np.concatenate([panels[0].y[:, :, None], panels[0].x], axis=2)[order]
        total = np.zeros((t, d + 1))
        comp = np.zeros_like(total)
        for row in stacked:
            adj = row - comp
            new = total + adj
            comp = (new - total) - adj
            total = new
        want = (total / n).tobytes()
        assert [cross_sectional_average(p).values.tobytes() for p in panels] == [want, want]

    def test_computed_once_per_panel(self, tmp_path, monkeypatch):
        built = []

        def counted(values):
            built.append(values)
            return FactorProxy(values=values)

        monkeypatch.setattr(panel_module, "FactorProxy", counted)
        p = generate_panel(DgpConfig(n=8, t=30, seed=4)).panel
        path = write_panel_csv(tmp_path / "panel.csv", p)
        # The estimate's sieve and the ADF pretests share one proxy.
        assert main(["estimate", "--input", path, "--output", str(tmp_path / "r.json")]) == 0
        assert len(built) == 1
        # So do the sieve, the CCEP residuals and the linear proxy columns.
        linearity_test(p, EstimatorConfig().basis(p))
        assert len(built) == 2

    def test_matches_average_factor_component(self):
        # With zero-mean errors averaged over many units, each proxy column
        # should sit within 3 standard errors of the averaged common part.
        sp = generate_panel(DgpConfig(n=200, t=30, seed=11))
        proxy = cross_sectional_average(sp.panel).values
        n = 200
        gbar = sp.factor_component_y.mean(axis=0)
        xbar_common = sp.factor_component_x.mean(axis=0)
        ybar_common = gbar + xbar_common @ sp.beta
        noise_y = sp.eps + sp.v @ sp.beta
        tol_y = 3.0 * noise_y.std() / np.sqrt(n)
        assert np.all(np.abs(proxy[:, 0] - ybar_common) <= 3.05 * tol_y + 3e-2)
        for k in range(2):
            tol_x = 3.0 * sp.v[:, :, k].std() / np.sqrt(n)
            assert np.all(np.abs(proxy[:, k + 1] - xbar_common[:, k]) <= 3.05 * tol_x + 3e-2)


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path, random_panel):
        p = random_panel(n=4, t=7, seed=5)
        path = tmp_path / "panel.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("unit,time,y,x1,x2\n")
            for i, u in enumerate(p.unit_labels):
                for s, tl in enumerate(p.time_labels):
                    fh.write(f"{u},{tl},{float(p.y[i, s])!r},"
                             f"{float(p.x[i, s, 0])!r},{float(p.x[i, s, 1])!r}\n")
        q = load_panel_csv(path)
        assert np.array_equal(p.y, q.y) and np.array_equal(p.x, q.x)
        assert tuple(map(str, p.unit_labels)) == tuple(map(str, q.unit_labels))

    def test_first_fault_in_file_order_is_reported(self, tmp_path):
        # Rows stream into validate_panel, so the duplicate on line 3 is met
        # before the bad time label on line 5.
        path = tmp_path / "panel.csv"
        path.write_text("unit,time,y,x1\n"
                        "a,0,1.0,2.0\n"
                        "a,0,1.5,2.5\n"
                        "a,1,1.0,2.0\n"
                        "b,x,1.0,2.0\n")
        with pytest.raises(DuplicateCell, match="unit='a', time=0"):
            load_panel_csv(path)

    # Arbitrary bytes, or a soup of CSV-like tokens that reaches the grid
    # checks more often, after a valid header.
    @settings(derandomize=True, database=None, deadline=None)
    @given(body=st.binary() | st.lists(st.sampled_from(
        [b"0", b"1", b"2", b"-1.5", b"nan", b"inf", b"x", b",", b'"', b"\n", b"\r",
         b" ", b"\x00", b"\xff", b"\xc3\xa9"])).map(b"".join))
    def test_arbitrary_body_loads_or_raises_panel_error(self, tmp_path_factory, body):
        path = tmp_path_factory.mktemp("fuzz") / "panel.csv"
        path.write_bytes(b"unit,time,y,x1\n" + body)
        try:
            assert isinstance(load_panel_csv(path), PanelData)
        except PanelDataError:
            pass


def record_path(path):
    """``load_panel_csv`` as it read every file before the C parser: each
    csv row through ``_record`` into ``validate_panel``. The oracle for it."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        width = len(next(reader))
        try:
            return validate_panel(_record(path, reader.line_num, row, width)
                                  for row in reader if row)
        except csv.Error as exc:
            raise PanelDataError(f"{path}: line {reader.line_num}: {exc}") from None


def outcome(load, path):
    """The panel's bytes and labels with their types, or the error's class and message."""
    try:
        p = load(path)
    except PanelDataError as exc:
        return type(exc), str(exc)
    return (p.y.shape, p.y.tobytes(), p.x.tobytes(),
            [(type(u), u) for u in p.unit_labels], [(type(s), s) for s in p.time_labels])


# Spellings the C parser and the record path might read differently. A unit
# or time label keeps one spelling on every row, so the panel can stay balanced.
ODD_UNITS = ['"{}"', " {}", "{} ", "{}#", "#", '"{},b"', "{}\x00", "", "\xe9", '"', "1"]
ODD_TIMES = ["+{}", " {} ", "{}.0", "0{}", "\x0c{}", "{}\u3000", "99999999999999999999",
             "\u0663", "0x{}", "", " "]
ODD_VALUES = ["1_0", " 1.5 ", "nan", "inf", "-inf", "1,5", '"1,5"', '"2.5"', "1e500", "1e-400",
              "#1", "1#", "", "\u30003", "2\x0c", "\u0663", "0x10", "1.5.5", '"']
ODD_LINES = ["", " ", "\t", ",", "#", "0,0,1,2,3,4"]


@st.composite
def csv_files(draw):
    """A panel's rows in shuffled order, now and then with an oddly spelled
    label, a few odd edits, and a header of 3 to 5 fields."""
    width = draw(st.sampled_from([5, 4, 3]))
    units = draw(st.lists(st.sampled_from(["0", "1", "2", "10", "a", "b"]),
                          min_size=1, max_size=4, unique=True))
    times = [str(s) for s in draw(st.lists(st.integers(-3, 12), min_size=2, max_size=4,
                                           unique=True))]
    for labels, odd in ((units, ODD_UNITS), (times, ODD_TIMES)):
        if draw(st.booleans()):
            k = draw(st.integers(0, len(labels) - 1))
            # "_".join("10") is "1_0", which int() reads as 10.
            labels[k] = draw(st.sampled_from(odd + ["_".join(labels[k])])).format(labels[k])
    values = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    rows = draw(st.permutations([[u, s] + draw(st.lists(values, min_size=width - 2,
                                                         max_size=width - 2))
                                 for u in units for s in times]))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        edit = draw(st.sampled_from(["value", "line", "repeat", "drop", "clash", "quote"]))
        if edit == "value" and len(row) == width:
            row[draw(st.integers(2, width - 1))] = draw(st.sampled_from(ODD_VALUES))
        elif edit == "line":
            rows.insert(i, [draw(st.sampled_from(ODD_LINES))])
        elif edit == "repeat":
            rows.insert(i, list(row))
        elif edit == "drop" and len(rows) > 1:
            del rows[i]
        elif edit == "clash" and len(row) == width:
            # Move the row onto another's cell: a duplicate and a hole at once.
            row[:2] = draw(st.sampled_from(rows))[:2]
        elif edit == "quote":
            k = draw(st.integers(0, len(row) - 1))
            row[k] = f'"{row[k]}"'
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    header = ",".join(["unit", "time", "y", "x1", "x2"][:width]) + "\n"
    body = end.join(",".join(row) for row in rows) + draw(st.sampled_from([end, ""]))
    return (header + body).encode("utf-8")


class TestCsvFastPath:
    """The C parser must give the record path's panel, or its error."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=500)
    @given(content=csv_files())
    def test_matches_the_record_path(self, tmp_path_factory, content):
        path = tmp_path_factory.mktemp("diff") / "panel.csv"
        path.write_bytes(content)
        assert outcome(load_panel_csv, path) == outcome(record_path, path)

    def test_a_row_wider_than_the_header_is_named(self, tmp_path):
        # np.loadtxt with usecols would drop the extra field without a word.
        path = tmp_path / "panel.csv"
        path.write_text("unit,time,y,x1\na,0,1,2\na,1,1,2,9\nb,0,1,2\nb,1,1,2\n")
        with pytest.raises(PanelDataError, match=r"line 3 has 5 field\(s\); the header has 4"):
            load_panel_csv(path)

    @pytest.mark.parametrize("field", ["1" * (128 * 1024 + 1), "0." + "0" * (128 * 1024) + "1"])
    def test_a_field_over_the_csv_limit_is_named(self, tmp_path, field):
        # np.loadtxt reads the first as inf and the second as 0.0.
        path = tmp_path / "panel.csv"
        path.write_text(f"unit,time,y,x1\na,0,1,2\na,1,{field},2\nb,0,1,2\nb,1,1,2\n")
        with pytest.raises(PanelDataError, match="line 3: field larger than field limit"):
            load_panel_csv(path)

    def test_shuffled_rows_load_as_the_sorted_file(self, tmp_path, random_panel):
        p = random_panel(n=4, t=5, seed=8)
        labels = ["0", "1", "2", "10"]
        lines = [f"{labels[i]},{s},{float(p.y[i, s])!r},{float(p.x[i, s, 0])!r},"
                 f"{float(p.x[i, s, 1])!r}\n" for i in range(4) for s in range(5)]
        loaded = []
        for order in (sorted(lines), list(np.random.default_rng(8).permutation(lines))):
            path = tmp_path / f"panel{len(loaded)}.csv"
            path.write_text("unit,time,y,x1,x2\n" + "".join(order))
            loaded.append(load_panel_csv(path))
        a, b = loaded
        assert a.unit_labels == b.unit_labels == ("0", "1", "10", "2")
        assert a.y.tobytes() == b.y.tobytes() and a.x.tobytes() == b.x.tobytes()
        assert a.y[2].tobytes() == p.y[3].tobytes()
