"""Exception hierarchy.

Every domain error derives from :class:`OcaError` so callers (and the CLI)
can catch one base class.  Errors that point at a specific panel cell carry
``country`` / ``date`` / ``variable`` attributes.  :func:`checked` makes
the records that refuse bad field values.
"""

from __future__ import annotations


class OcaError(Exception):
    """Base class for all library errors."""


class ConfigError(OcaError):
    """Invalid pipeline configuration."""


# --- panel / series ---------------------------------------------------------

class PanelError(OcaError):
    """Malformed panel input; names the offending cell when known."""

    def __init__(self, message: str, *, country: str | None = None,
                 date: str | None = None, variable: str | None = None):
        super().__init__(message)
        self.country = country
        self.date = date
        self.variable = variable


class DuplicateRowError(PanelError):
    pass


class CalendarGapError(PanelError):
    pass


class MissingCellError(PanelError):
    pass


class NonPositiveValueError(PanelError):
    pass


class TooShortError(OcaError):
    pass


# --- statistical testing ----------------------------------------------------

class DegenerateRegressorError(OcaError):
    pass


class SingularMomentMatrixError(OcaError):
    pass


# --- VAR estimation ---------------------------------------------------------

class RankDeficientError(OcaError):
    pass


class LagWindowError(OcaError):
    """Portmanteau horizon h must exceed the VAR order."""


class NoAdmissibleLagError(OcaError):
    """No lag order passes the diagnostic gate.  ``trail`` holds one row per
    order tried, keyed as ``report.json``'s ``var.gate_trail``: ``p``,
    ``stable``, ``max_modulus``, ``portmanteau_h``, ``portmanteau_pvalue``,
    ``arch_pvalues`` and ``passed``."""

    def __init__(self, message: str, trail=()):
        super().__init__(message)
        self.trail = tuple(trail)


# --- identification ---------------------------------------------------------

class UnstableModelError(OcaError):
    pass


class SigmaNotPositiveDefiniteError(OcaError):
    pass


class ZeroLongRunError(OcaError):
    pass


# --- group metrics ----------------------------------------------------------

class InsufficientOverlapError(OcaError):
    pass


class ZeroVarianceError(OcaError):
    pass


class MissingWeightYearError(OcaError):
    pass


class DegenerateWeightsError(OcaError):
    pass


class GroupTooSmallError(OcaError):
    pass


class ZeroDispersionError(OcaError):
    pass


class DateRangeError(OcaError):
    pass


class ZeroBaseError(OcaError):
    pass


# --- records that check their fields ----------------------------------------

def checked(record: type) -> type:
    """Class decorator for a ``typing.NamedTuple`` record whose ``_check``
    raises on bad field values: the record then runs it on every construction
    path, the constructor, ``_make`` and so ``_replace``."""
    new = record.__new__

    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        return self

    record.__new__ = staticmethod(__new__)
    record._make = classmethod(lambda cls, fields: cls(*fields))
    return record
