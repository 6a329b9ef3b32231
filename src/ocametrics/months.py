"""Monthly calendar arithmetic.

All series in this package are monthly; dates are (year, month) pairs with
no day component.  A :class:`Month` converts to and from the ``YYYY-MM``
text form used by every CSV interface.  A :class:`Calendar` is the row
axis of every series: ``n`` consecutive months from ``start``, so a row's
position is an integer offset and contiguity holds by construction.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DateRangeError

_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$")


@dataclass(frozen=True, order=True)
class Month:
    """A calendar month, ordered chronologically."""

    year: int
    month: int

    def __post_init__(self):
        if not 1 <= self.month <= 12:
            raise ValueError(f"month out of range: {self.month}")

    @classmethod
    def parse(cls, text: str) -> "Month":
        m = _MONTH_RE.match(text.strip())
        if not m:
            raise ValueError(f"expected YYYY-MM date, got {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    @classmethod
    def from_index(cls, idx: int) -> "Month":
        return cls(idx // 12, idx % 12 + 1)

    @property
    def index(self) -> int:
        """Months since year 0, a convenient integer timeline."""
        return self.year * 12 + self.month - 1

    def __add__(self, n: int) -> "Month":
        return Month.from_index(self.index + n)

    def __sub__(self, other):
        if isinstance(other, Month):
            return self.index - other.index
        return Month.from_index(self.index - other)

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


LAST_MONTH = Month(9999, 12)  # the last month that YYYY-MM can write


@dataclass(frozen=True)
class Calendar(Sequence):
    """``n`` consecutive months from ``start``, a sequence of :class:`Month`.

    Slices are calendars; equality compares ``(start, n)``.  A calendar ends
    by ``LAST_MONTH``.
    """

    start: Month
    n: int

    def __post_init__(self):
        if not isinstance(self.start, Month) or self.n < 0:
            raise ValueError(f"calendar needs a start Month and n >= 0, got {self!r}")
        if self.start.index + self.n - 1 > LAST_MONTH.index:
            raise ValueError(f"a calendar of {self.n} months from {self.start} "
                             f"ends after {LAST_MONTH}")

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, key):
        if isinstance(key, slice):
            lo, hi, step = key.indices(self.n)
            if step != 1:
                raise ValueError("calendar slices must be contiguous")
            return Calendar(self.start + lo, max(hi - lo, 0))
        i = operator.index(key)
        if not -self.n <= i < self.n:
            raise IndexError(f"calendar index {i} out of range for {self.n} months")
        return self.start + (i % self.n)

    def __contains__(self, month) -> bool:
        return isinstance(month, Month) and 0 <= month - self.start < self.n

    def offset(self, month: Month) -> int:
        """Row position of ``month``; :class:`DateRangeError` outside the calendar."""
        if month not in self:
            raise DateRangeError(f"{month} outside calendar {self}")
        return month - self.start

    @property
    def years(self) -> np.ndarray:
        return (self.start.index + np.arange(self.n)) // 12

    @property
    def months(self) -> np.ndarray:
        return (self.start.index + np.arange(self.n)) % 12 + 1

    def labels(self) -> list[str]:
        """``YYYY-MM`` text of every row, as the CSV interfaces write it."""
        return [f"{y:04d}-{m:02d}" for y, m in zip(self.years.tolist(), self.months.tolist())]

    def __str__(self) -> str:
        return f"{self.start}..{self.start + (self.n - 1)}"


def month_range(start: Month, n: int) -> Calendar:
    """``n`` consecutive months starting at ``start``."""
    return Calendar(start, n)
