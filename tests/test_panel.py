"""Panel construction, validation, differencing, and cross-sectional averages."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scce import (
    DgpConfig,
    DuplicateCell,
    NonFiniteValue,
    PanelData,
    PanelDataError,
    TooSmall,
    UnbalancedPanel,
    cross_sectional_average,
    first_difference,
    generate_panel,
    load_panel_csv,
    validate_panel,
)

from conftest import make_panel


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


class TestCrossSectionalAverage:
    def test_single_unit_is_identity(self):
        y = np.array([[1.0, 2.0, 3.0]])
        x = np.array([[[4.0], [5.0], [6.0]]])
        proxy = cross_sectional_average(PanelData(
            y=y, x=x, unit_labels=(0,), time_labels=(0, 1, 2)))
        assert np.array_equal(proxy.values[:, 0], y[0])
        assert np.array_equal(proxy.values[:, 1], x[0, :, 0])

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
