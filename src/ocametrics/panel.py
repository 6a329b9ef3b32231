"""Monthly macro panel: loading, validation and series transforms.

The on-disk format is a long CSV with header ``country,date,variable,value``
where ``date`` is ``YYYY-MM`` and ``variable`` is ``MEAI`` (activity index)
or ``CPI`` (price index).  Row order is irrelevant.  In memory the two
variables are called ``activity`` and ``price``.  :func:`panel_to_csv` writes
it through :func:`csv_text`, the writer of every CSV the package outputs.

Transforms are plain functions: :func:`log_level_series` (the log of
an index as given), :func:`seasonal_adjust_dummies` (OLS month-of-year dummy
adjustment, mean preserving) and :func:`growth_pair` (month-on-month log
growth of a country's two log levels).  An index's base only shifts its
log, which the differences drop and every pretest's intercept absorbs.  All
are pure; panels and transformed series are immutable after construction.

:func:`special_ufuncs` loads scipy's two p-value ufuncs for the lag gate's
tests and the correlation tests; it sits here because ``var`` and ``metrics``
both import this module.
"""

from __future__ import annotations

import contextlib
import csv
import math
import re
import sys
import threading
from pathlib import Path
from typing import IO, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    CalendarGapError,
    DuplicateRowError,
    MissingCellError,
    NonPositiveValueError,
    PanelError,
    TooShortError,
    checked,
)
from .months import Calendar, Month, month_range

VARIABLES = ("activity", "price")
CSV_HEADER = ("country", "date", "variable", "value")
# two years: seasonal_adjust_dummies fits 13 regressors, two per month of year
SEASONAL_MIN_MONTHS = 24
_COLUMN_TO_VARIABLE = {"MEAI": "activity", "CPI": "price"}
_VARIABLE_TO_COLUMN = {v: k for k, v in _COLUMN_TO_VARIABLE.items()}
# separators of the report bundle: CSV cells and quotes, groups.csv members,
# --dummy fields, pair keys and the paths of shocks_<CC>.csv; and control characters
_CODE_BREAKERS = re.compile(r'[,";:|/\\\x00-\x1f\x7f-\x9f]')


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64)
    out.flags.writeable = False
    return out


_special_lock = threading.Lock()
_special = None


def special_ufuncs():
    """The module that holds scipy's compiled p-value ufuncs ``chdtrc`` and ``stdtr``.

    The package inits of ``scipy``, ``scipy._lib`` and ``scipy.special`` cost
    more than the rest of a seed ``run`` and the ufuncs need none of them.
    Each of the three that is not yet imported gets a bare stand-in with its
    ``__path__`` in ``sys.modules`` while ``scipy.special._ufuncs`` loads, and
    loses it after, so the process loads only the ``scipy.special`` extension
    modules and ``scipy._lib._ccallback``; if that private module cannot be
    imported, the package is.  Either way the functions are the objects a
    later ``import scipy.special`` binds.  The module is loaded once per
    process, under a lock, so no worker thread sees a stand-in.
    """
    global _special
    with _special_lock:
        if _special is None:
            _special = sys.modules.get("scipy.special") or _load_special_ufuncs()
    return _special


def _load_special_ufuncs():
    import importlib.util
    import types

    # _ufuncs' own dependencies import scipy._lib._ccallback, so scipy._lib
    # needs a stand-in too.  Parents come first: find_spec of a dotted name
    # reads its parent's __path__ from sys.modules, and that of the top-level
    # name runs no package init.
    inserted = []
    try:
        for name in ("scipy", "scipy._lib", "scipy.special"):
            if name not in sys.modules:
                stub = types.ModuleType(name)
                stub.__path__ = importlib.util.find_spec(name).submodule_search_locations
                sys.modules[name] = stub
                inserted.append(name)
        return importlib.import_module("scipy.special._ufuncs")
    except ImportError:  # a private path, which a later scipy may move
        pass
    finally:
        for name in inserted:
            del sys.modules[name]
    return importlib.import_module("scipy.special")


@checked
class Panel(NamedTuple):
    """Aligned positive monthly (activity, price) series for several countries."""

    countries: tuple[str, ...]
    dates: Calendar
    values: Mapping[tuple[str, str], np.ndarray]

    def _check(self):
        if list(self.countries) != sorted(set(self.countries)):
            raise PanelError("countries must be sorted and unique")
        if not isinstance(self.dates, Calendar):
            raise PanelError("panel dates must be a Calendar")
        for country in self.countries:
            for variable in VARIABLES:
                arr = self.values[(country, variable)]
                if arr.shape != (len(self.dates),):
                    raise PanelError(f"misaligned series for {country}/{variable}")
                if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
                    raise NonPositiveValueError(
                        f"non-positive or non-finite value in {country}/{variable}",
                        country=country, variable=variable)

    def series(self, country: str, variable: str) -> np.ndarray:
        """Raw index series for one country and one variable."""
        return self.values[(country, variable)]

    @property
    def n_months(self) -> int:
        return len(self.dates)


@checked
class TransformedSeries(NamedTuple):
    """A differenced (dimensionless growth-rate) series with its calendar."""

    country: str
    variable: str
    dates: Calendar
    values: np.ndarray

    def _check(self):
        if self.variable not in VARIABLES:
            raise PanelError(f"unknown variable {self.variable!r}")
        if not isinstance(self.dates, Calendar):
            raise PanelError("series dates must be a Calendar")
        if len(self.dates) != len(self.values):
            raise PanelError("dates and values must align")
        if not np.all(np.isfinite(self.values)):
            raise PanelError("transformed series must be finite")


def _read_rows(source: str | Path | IO[str], header: tuple[str, ...], error, what: str):
    """Yield ``(line number, stripped fields)`` for each non-blank data row of the
    CSV ``source``, a path read as UTF-8 or a text stream.  A file that cannot be
    read or decoded, a first row other than ``header`` and a row with another
    field count are refused with ``error(message)``."""
    try:
        with (open(source, "r", encoding="utf-8", newline="")
              if isinstance(source, (str, Path)) else contextlib.nullcontext(source)) as fh:
            rows = csv.reader(fh)
            first = next(rows, [])
            if tuple(f.strip() for f in first) != header:
                raise error(f"expected header {','.join(header)}, "
                            f"got {','.join(first) or 'an empty file'}")
            for lineno, row in enumerate(rows, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != len(header):
                    raise error(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
                yield lineno, [f.strip() for f in row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise error(f"cannot read {what} {source}: {exc}") from None


def csv_text(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Every CSV the package writes or prints: ``header``, then each row of text
    fields, joined by commas into newline-ended lines.  Nothing is quoted: a field
    is a number, date or label, or a country code ``load_panel`` would accept."""
    return "\n".join([",".join(header), *map(",".join, rows), ""])


def load_panel(source: str | Path | IO[str]) -> Panel:
    """Parse and validate the long CSV panel format.

    Raises
    ------
    PanelError
        For a file that cannot be read, a wrong header or a malformed row,
        including a country code that is empty or holds a bundle separator
        (``, " ; : | / \\``) or a control character.
    DuplicateRowError, NonPositiveValueError, CalendarGapError,
    MissingCellError
        Each names the offending (country, date, variable) cell.
    """
    # each distinct date text is parsed once; cells hold its month index
    month_of: dict[str, int] = {}
    cells: dict[tuple[str, int, str], float] = {}
    codes: set[str] = set()
    for lineno, (country, date, column, value_text) in _read_rows(source, CSV_HEADER,
                                                                  PanelError, "panel"):
        if country not in codes:
            if not country or _CODE_BREAKERS.search(country):
                raise PanelError(f"line {lineno}: country code {country!r} must be non-empty "
                                 'and hold none of , " ; : | / \\ or a control character')
            codes.add(country)
        month = month_of.get(date)
        if month is None:
            try:
                month = month_of[date] = Month.parse(date).index
            except ValueError as exc:
                raise PanelError(f"line {lineno}: {exc}", country=country) from None
        if column not in _COLUMN_TO_VARIABLE:
            raise PanelError(f"line {lineno}: unknown variable {column!r}",
                             country=country, date=date)
        variable = _COLUMN_TO_VARIABLE[column]
        try:
            value = float(value_text)
        except ValueError:
            raise PanelError(f"line {lineno}: non-numeric value {value_text!r}",
                             country=country, date=date, variable=column) from None
        if not math.isfinite(value) or value <= 0:
            raise NonPositiveValueError(
                f"non-positive value for {country} {date} {column}: {value_text}",
                country=country, date=date, variable=column)
        key = (country, month, variable)
        if key in cells:
            raise DuplicateRowError(f"duplicate row for {country} {date} {column}",
                                    country=country, date=date, variable=column)
        cells[key] = value

    if not cells:
        raise PanelError("no data rows")

    countries = sorted(codes)
    lo = min(month_of.values())
    dates = month_range(Month.from_index(lo), max(month_of.values()) - lo + 1)
    grid = {country: np.full((len(VARIABLES), len(dates)), np.nan) for country in countries}
    for (country, month, variable), value in cells.items():
        grid[country][VARIABLES.index(variable), month - lo] = value

    for country in countries:
        missing = np.isnan(grid[country])
        if missing.any():
            t = int(missing.any(axis=0).argmax())
            date = str(dates[t])
            if missing[:, t].all():
                raise CalendarGapError(f"no observations for {country} at {date}",
                                       country=country, date=date)
            column = _VARIABLE_TO_COLUMN[VARIABLES[int(missing[:, t].argmax())]]
            raise MissingCellError(f"missing {column} for {country} at {date}",
                                   country=country, date=date, variable=column)

    values = {(country, variable): _frozen(grid[country][i])
              for country in countries for i, variable in enumerate(VARIABLES)}
    return Panel(countries=tuple(countries), dates=dates, values=values)


def panel_to_csv(panel: Panel) -> str:
    """Serialize in the same long CSV format; round-trips values exactly."""
    return csv_text(CSV_HEADER, (
        (country, date, column, repr(value))
        for country in panel.countries
        for date, *values in zip(panel.dates.labels(), *(panel.series(country, v).tolist()
                                                         for v in _VARIABLE_TO_COLUMN))
        for column, value in zip(_VARIABLE_TO_COLUMN.values(), values)))


def seasonal_adjust_dummies(dates: Calendar, values: np.ndarray) -> np.ndarray:
    """Remove OLS-fitted month-of-year effects, preserving the sample mean.

    The regression uses an intercept, a linear trend and 11 monthly dummies;
    only the fitted dummy component (recentered over the sample) is
    subtracted, so trends and non-seasonal variation pass through.
    """
    values = np.asarray(values, dtype=np.float64)
    months = dates.months
    n = values.size
    if n < SEASONAL_MIN_MONTHS:
        raise TooShortError(f"seasonal adjustment needs at least {SEASONAL_MIN_MONTHS} months")
    X = np.column_stack(
        [np.ones(n), np.arange(n, dtype=np.float64)]
        + [(months == m).astype(np.float64) for m in range(2, 13)])
    coef, *_ = np.linalg.lstsq(X, values, rcond=None)
    seasonal = X[:, 2:] @ coef[2:]
    return values - seasonal + seasonal.mean()


def log_level_series(panel: Panel, country: str, variable: str, *,
                     seasonal: bool = False) -> np.ndarray:
    """Log of the index as given, optionally dummy-adjusted on the log scale."""
    logs = np.log(panel.series(country, variable))
    if seasonal:
        logs = seasonal_adjust_dummies(panel.dates, logs)
    return logs


def growth_pair(country: str, dates: Calendar,
                logs: tuple[np.ndarray, np.ndarray]) -> tuple[TransformedSeries, TransformedSeries]:
    """First differences of the (activity, price) log levels on ``dates``."""
    activity, price = (
        TransformedSeries(country=country, variable=variable, dates=dates[1:],
                          values=_frozen(np.diff(series)))
        for variable, series in zip(VARIABLES, logs))
    return activity, price


def transform_pair(panel: Panel, country: str, *,
                   seasonal: bool = False) -> tuple[TransformedSeries, TransformedSeries]:
    """Per-country (activity, price) growth-rate pair fed to the VAR."""
    logs = tuple(log_level_series(panel, country, variable, seasonal=seasonal)
                 for variable in VARIABLES)
    return growth_pair(country, panel.dates, logs)
