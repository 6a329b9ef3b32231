import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ocametrics.errors import DateRangeError
from ocametrics.identification import identify_bq
from ocametrics.months import Calendar, Month, month_range
from ocametrics.var import fit_var

from .conftest import make_pair


def test_parse_and_format_round_trip():
    m = Month.parse("2015-06")
    assert (m.year, m.month) == (2015, 6)
    assert str(m) == "2015-06"


def test_parse_rejects_malformed():
    for bad in ("2015/06", "2015-13", "2015-00", "15-06", "2015-6"):
        with pytest.raises(ValueError):
            Month.parse(bad)


def test_ordering_and_arithmetic():
    assert Month(2009, 12) < Month(2010, 1)
    assert Month(2009, 12) + 1 == Month(2010, 1)
    assert Month(2010, 1) - Month(2009, 1) == 12
    assert Month(2010, 3) - 3 == Month(2009, 12)


@given(st.integers(min_value=1900, max_value=2100),
       st.integers(min_value=1, max_value=12),
       st.integers(min_value=-600, max_value=600))
def test_add_subtract_round_trip(year, month, offset):
    m = Month(year, month)
    assert (m + offset) - offset == m
    assert (m + offset) - m == offset


def test_calendar_ends_by_9999_12():
    # the last month that YYYY-MM can write
    assert Calendar(Month(9999, 1), 12)[-1] == Month(9999, 12)
    with pytest.raises(ValueError, match="^a calendar of 13 months from 9999-01 ends after"):
        month_range(Month(9999, 1), 13)


@pytest.mark.parametrize("call, message", [
    (lambda: Calendar(Month(2009, 1), -1),
     "calendar needs a start Month and n >= 0, got Calendar(start=Month(year=2009, month=1), "
     "n=-1)"),
    (lambda: month_range(Month(2009, 1), 12)[::2], "calendar slices must be contiguous"),
], ids=["negative-length", "strided-slice"])
def test_calendar_refuses_bad_arguments(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_month_range_contiguous():
    dates = month_range(Month(2009, 11), 4)
    assert [str(d) for d in dates] == ["2009-11", "2009-12", "2010-01", "2010-02"]
    assert dates.labels() == ["2009-11", "2009-12", "2010-01", "2010-02"]
    assert dates == Calendar(Month(2009, 11), 4)
    assert str(dates) == "2009-11..2010-02"


@given(st.integers(min_value=1900 * 12, max_value=2100 * 12),
       st.integers(min_value=0, max_value=400), st.data())
def test_calendar_matches_explicit_months(start_index, n, data):
    start = Month.from_index(start_index)
    cal = month_range(start, n)
    explicit = tuple(Month.from_index(start_index + i) for i in range(n))
    assert len(cal) == n
    assert list(cal) == list(explicit)
    np.testing.assert_array_equal(cal.years, [m.year for m in explicit])
    np.testing.assert_array_equal(cal.months, [m.month for m in explicit])
    for i, m in enumerate(explicit):
        assert cal[i] == m == cal[i - n]
        assert cal.offset(m) == i
        assert m in cal
    for outside in (start - 1, start + n):
        assert outside not in cal
        with pytest.raises(DateRangeError):
            cal.offset(outside)
    with pytest.raises(IndexError):
        cal[n]
    if n:
        a = data.draw(st.integers(min_value=0, max_value=n - 1))
        b = data.draw(st.integers(min_value=a, max_value=n))
        assert cal[a:b] == month_range(cal[a], b - a)
        assert list(cal[a:b]) == list(explicit[a:b])


def test_estimation_builds_no_month_per_row(monkeypatch):
    built = []
    check = Month._check

    def counted(self):
        built.append(self)
        check(self)

    values = np.random.default_rng(3).standard_normal((10_000, 2))
    monkeypatch.setattr(Month, "_check", counted)
    dates = month_range(Month(2009, 2), 10_000)
    svar = identify_bq(fit_var(make_pair(values, start=dates[0]), p=2))
    assert svar.dates == dates[2:]
    assert len(built) < 10
