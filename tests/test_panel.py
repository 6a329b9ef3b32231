import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ocametrics.errors import (
    CalendarGapError,
    DuplicateRowError,
    MissingCellError,
    NonPositiveValueError,
    PanelError,
    TooShortError,
)
from ocametrics.months import Month, month_range
from ocametrics.panel import (
    Panel,
    TransformedSeries,
    _read_rows,
    growth_pair,
    load_panel,
    panel_to_csv,
    seasonal_adjust_dummies,
    transform_pair,
)

from .conftest import panel_from_rows


def _rows(countries, dates, value=100.0):
    rows = []
    for c in countries:
        for d in dates:
            for v in ("MEAI", "CPI"):
                rows.append((c, d, v, value))
    return rows


class TestLoadPanel:
    def test_full_panel_shape(self, fixture_panel):
        assert len(fixture_panel.countries) == 7
        assert fixture_panel.n_months == 133
        assert fixture_panel.series("C00", "activity").shape == (133,)

    def test_minimal_panel(self):
        panel = panel_from_rows(_rows(["AAA"], ["2020-01", "2020-02", "2020-03"]))
        assert panel.countries == ("AAA",)
        assert panel.n_months == 3

    def test_row_order_irrelevant(self):
        rows = _rows(["AAA", "BBB"], ["2020-01", "2020-02"])
        shuffled = list(reversed(rows))
        a = panel_from_rows(rows)
        b = panel_from_rows(shuffled)
        assert a.dates == b.dates
        for key in a.values:
            np.testing.assert_array_equal(a.values[key], b.values[key])

    def test_calendar_gap_names_cell(self):
        rows = [r for r in _rows(["AAA", "BBB"],
                                 ["2015-04", "2015-05", "2015-06", "2015-07"])
                if not (r[0] == "BBB" and r[1] == "2015-06")]
        with pytest.raises(CalendarGapError) as excinfo:
            panel_from_rows(rows)
        assert excinfo.value.country == "BBB"
        assert excinfo.value.date == "2015-06"

    def test_shorter_range_is_a_gap(self):
        rows = _rows(["AAA"], ["2020-01", "2020-02"]) + _rows(["BBB"], ["2020-02"])
        with pytest.raises(CalendarGapError) as excinfo:
            panel_from_rows(rows)
        assert excinfo.value.country == "BBB"
        assert excinfo.value.date == "2020-01"

    def test_missing_single_variable_cell(self):
        rows = _rows(["AAA"], ["2020-01", "2020-02"])
        rows = [r for r in rows if not (r[1] == "2020-02" and r[2] == "CPI")]
        with pytest.raises(MissingCellError) as excinfo:
            panel_from_rows(rows)
        assert excinfo.value.variable == "CPI"
        assert excinfo.value.date == "2020-02"

    def test_duplicate_row(self):
        rows = _rows(["AAA"], ["2020-01", "2020-02"])
        with pytest.raises(DuplicateRowError):
            panel_from_rows(rows + [rows[0]])

    def test_non_positive_value(self):
        rows = _rows(["AAA"], ["2020-01", "2020-02"])
        rows[1] = ("AAA", "2020-01", "CPI", -3.0)
        with pytest.raises(NonPositiveValueError) as excinfo:
            panel_from_rows(rows)
        assert excinfo.value.country == "AAA"

    @pytest.mark.parametrize("bad", ["2020-13", "2020-1", "Jan 2020"])
    def test_malformed_date_names_its_own_line(self, bad):
        rows = _rows(["AAA", "BBB"], ["2020-01", "2020-02"])
        # the sixth data row (line 7) holds the bad date; the last row repeats it
        rows[5] = ("BBB", bad, "CPI", 100.0)
        rows.append(("BBB", bad, "MEAI", 100.0))
        with pytest.raises(PanelError) as excinfo:
            panel_from_rows(rows)
        assert str(excinfo.value).startswith("line 7: ")
        assert excinfo.value.country == "BBB"

    @pytest.mark.parametrize("code", ["", "  ", "C,01", '"C01', "C;01", "C:01", "C|01",
                                      "../C00", "C\\01", "C\t01", "C\x0001", "C\x7f01",
                                      "C\x8501"],
                             ids=["empty", "blank", "comma", "quote", "semicolon", "colon",
                                  "pipe", "slash", "backslash", "tab", "nul", "delete",
                                  "c1-control"])
    def test_code_that_breaks_the_bundle_names_its_line(self, code):
        # each is a separator of the bundle: a CSV cell or quote, a groups.csv member,
        # a --dummy field, a pair key, a shocks_<CC>.csv path, or a control character
        rows = _rows(["AAA"], ["2020-01", "2020-02"])
        rows[2] = (code, "2020-02", "MEAI", 100.0)  # line 4; csv quotes the comma
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([("country", "date", "variable", "value"),
                                                       *rows])
        buf.seek(0)
        with pytest.raises(PanelError, match=r"^line 4: country code .* must be non-empty"):
            load_panel(buf)

    def test_each_date_text_is_parsed_once(self, fixture_panel, monkeypatch):
        texts = []
        parse = Month.parse.__func__

        def counted(cls, text):
            texts.append(text)
            return parse(cls, text)

        monkeypatch.setattr(Month, "parse", classmethod(counted))
        again = load_panel(io.StringIO(panel_to_csv(fixture_panel)))
        assert sorted(texts) == fixture_panel.dates.labels()
        assert again.dates == fixture_panel.dates

    @pytest.mark.parametrize("cell, message, variable", [
        (("AAA", "2020-02", "GDP", "100.0"), "line 4: unknown variable 'GDP'", None),
        (("AAA", "2020-02", "MEAI", "abc"), "line 4: non-numeric value 'abc'", "MEAI"),
        (("AAA", "2020-02", "CPI", ""), "line 4: non-numeric value ''", "CPI"),
    ], ids=["unknown-variable", "text-value", "empty-value"])
    def test_malformed_cell_names_its_line(self, cell, message, variable):
        rows = _rows(["AAA"], ["2020-01", "2020-02"])
        rows[2] = cell  # line 4
        with pytest.raises(PanelError) as excinfo:
            panel_from_rows(rows)
        assert type(excinfo.value) is PanelError and str(excinfo.value) == message
        assert (excinfo.value.country, excinfo.value.date, excinfo.value.variable) == (
            "AAA", "2020-02", variable)

    def test_bad_header(self):
        with pytest.raises(PanelError):
            load_panel(io.StringIO("iso,month,series,value\n"))

    def test_header_only_is_refused(self):
        with pytest.raises(PanelError, match="^no data rows$"):
            load_panel(io.StringIO("country,date,variable,value\n"))

    def test_cell_error_from_a_file_passes_through_the_reader(self, tmp_path):
        # only the reader's own read errors are renamed; the file is closed
        # either way, or the suite's ResourceWarning filter fails this test
        path = tmp_path / "panel.csv"
        rows = _rows(["AAA"], ["2020-01", "2020-02"])
        path.write_text(panel_to_csv(panel_from_rows(rows)) + "AAA,2020-01,CPI,100.0\n")
        with pytest.raises(DuplicateRowError) as excinfo:
            load_panel(path)
        assert (excinfo.value.country, excinfo.value.date, excinfo.value.variable) == (
            "AAA", "2020-01", "CPI")

    def test_countries_sorted(self):
        panel = panel_from_rows(_rows(["ZZZ", "AAA"], ["2020-01", "2020-02"]))
        assert panel.countries == ("AAA", "ZZZ")

    def test_round_trip_bit_identical(self, fixture_panel):
        text = panel_to_csv(fixture_panel)
        again = load_panel(io.StringIO(text))
        assert again.dates == fixture_panel.dates
        for key in fixture_panel.values:
            np.testing.assert_array_equal(again.values[key], fixture_panel.values[key])
        # the csv module's rendering of the same rows: no field needs quoting
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["country", "date", "variable", "value"])
        for country in again.countries:
            for t, date in enumerate(again.dates.labels()):
                for column, variable in (("MEAI", "activity"), ("CPI", "price")):
                    writer.writerow([country, date, column,
                                     repr(float(again.series(country, variable)[t]))])
        assert panel_to_csv(again) == buf.getvalue() == text


def test_read_rows_skips_blank_rows_and_keeps_line_numbers():
    text = "a, b\n1,2\n\n   \n 3 , 4 \n"
    rows = list(_read_rows(io.StringIO(text), ("a", "b"), PanelError, "test"))
    assert rows == [(2, ["1", "2"]), (5, ["3", "4"])]


def _log_growth(values):
    """``growth_pair`` of an index used as both activity and price."""
    dates = month_range(Month(2010, 1), len(values))
    logs = np.log(np.asarray(values, dtype=np.float64))
    activity, price = growth_pair("AAA", dates, (logs, logs))
    assert activity.dates == price.dates == dates[1:]
    np.testing.assert_array_equal(activity.values, price.values)
    return activity.values


class TestLogDiff:
    def test_constant_is_zero(self):
        np.testing.assert_array_equal(_log_growth(np.full(10, 42.0)), np.zeros(9))

    def test_hand_value(self):
        out = _log_growth(np.array([100.0, 105.0]))
        assert out.shape == (1,)
        assert abs(out[0] - math.log(1.05)) < 1e-15

    def test_geometric_series(self):
        r = 1.07
        series = 3.0 * r ** np.arange(20)
        np.testing.assert_allclose(_log_growth(series), math.log(r), rtol=1e-12)

    @given(st.floats(min_value=1e-6, max_value=1e6),
           st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=2, max_size=20))
    def test_scale_invariance(self, scale, raw):
        values = np.array(raw)
        np.testing.assert_allclose(_log_growth(scale * values), _log_growth(values),
                                   atol=1e-12)


def _seasonal_oracle(dates, values):
    """Independent route: normal-equation OLS and explicit recentering."""
    months = np.array([d.month for d in dates])
    n = values.size
    X = np.column_stack(
        [np.ones(n), np.arange(n, dtype=np.float64)]
        + [(months == m).astype(np.float64) for m in range(2, 13)])
    beta = np.linalg.solve(X.T @ X, X.T @ values)
    seasonal = X[:, 2:] @ beta[2:]
    return values - (seasonal - seasonal.mean())


class TestSeasonalAdjust:
    def test_pure_seasonal_pattern_flattens(self):
        dates = month_range(Month(2009, 1), 48)
        pattern = {m: 0.5 * math.sin(m) for m in range(1, 13)}
        values = np.array([10.0 + pattern[d.month] for d in dates])
        out = seasonal_adjust_dummies(dates, values)
        assert np.ptp(out) < 1e-10

    def test_matches_direct_ols_oracle_and_preserves_mean(self):
        rng = np.random.default_rng(11)
        dates = month_range(Month(2009, 5), 60)
        values = rng.normal(0.0, 1.0, 60)
        out = seasonal_adjust_dummies(dates, values)
        np.testing.assert_allclose(out, _seasonal_oracle(dates, values), atol=1e-10)
        assert abs(out.mean() - values.mean()) < 1e-12

    def test_linear_trend_untouched(self):
        dates = month_range(Month(2009, 1), 36)
        values = 2.0 + 0.25 * np.arange(36)
        np.testing.assert_allclose(seasonal_adjust_dummies(dates, values), values,
                                   atol=1e-8)

    def test_mean_preservation_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(24, 80))
            dates = month_range(Month(2009, int(rng.integers(1, 13))), n)
            values = rng.normal(5.0, 2.0, n) + 0.1 * np.arange(n)
            out = seasonal_adjust_dummies(dates, values)
            assert abs(out.mean() - values.mean()) < 1e-10

    def test_too_short(self):
        dates = month_range(Month(2009, 1), 23)
        with pytest.raises(TooShortError):
            seasonal_adjust_dummies(dates, np.ones(23))


def test_transform_pair_seasonal_option_removes_planted_pattern():
    rng = np.random.default_rng(19)
    dates = month_range(Month(2009, 1), 96)
    pattern = np.array([0.06 * math.sin(2 * math.pi * d.month / 12) for d in dates])
    base = 100.0 * np.exp(np.cumsum(rng.normal(0.001, 0.004, 96)))
    rows = []
    for d, level, season in zip(dates, base, pattern):
        rows.append(("AAA", str(d), "MEAI", level * math.exp(season)))
        rows.append(("AAA", str(d), "CPI", level))
    panel = panel_from_rows(rows)
    raw, _ = transform_pair(panel, "AAA", seasonal=False)
    adjusted, _ = transform_pair(panel, "AAA", seasonal=True)
    assert adjusted.values.std() < 0.5 * raw.values.std()


def test_transform_pair_shapes(fixture_panel):
    activity, price = transform_pair(fixture_panel, "C03")
    assert activity.variable == "activity"
    assert price.variable == "price"
    assert len(activity.values) == fixture_panel.n_months - 1
    assert activity.dates == fixture_panel.dates[1:]
    assert np.all(np.isfinite(activity.values))


def test_dates_must_be_a_calendar():
    dates = month_range(Month(2009, 1), 3)
    values = {(c, v): np.full(3, 100.0) for c in ("AAA",) for v in ("activity", "price")}
    assert Panel(countries=("AAA",), dates=dates, values=values).n_months == 3
    with pytest.raises(PanelError):
        Panel(countries=("AAA",), dates=tuple(dates), values=values)
    with pytest.raises(PanelError):
        TransformedSeries(country="AAA", variable="price", dates=tuple(dates),
                          values=np.zeros(3))
