"""Cross-country symmetry and synchronization analytics.

Includes pairwise shock correlations with exact t-based significance,
clique-based detection of mutually symmetric country groups, the
size-weighted cross-country dispersion index, the Hodrick-Prescott trend
via a banded Cholesky solve, and leave-one-out cost-of-inclusion
series.  ``run``, ``disperse`` and ``cost`` call ``group_dispersion``, one
weighted pass for both; its one-series wrappers ``dispersion_index`` and
``cost_of_inclusion`` are kept only for perfbench's tracer and its
``group_dense`` workload (ROADMAP item 7).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import (
    DateRangeError,
    DegenerateWeightsError,
    GroupTooSmallError,
    InsufficientOverlapError,
    MissingWeightYearError,
    TooShortError,
    ZeroBaseError,
    ZeroDispersionError,
    ZeroVarianceError,
)
from .months import Calendar, Month
from .panel import _frozen, _read_rows, special_ufuncs

WEIGHT_SUM_TOLERANCE = 0.005


# --------------------------------------------------------------------------
# correlations and symmetry
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationReport:
    countries: tuple[str, ...]
    r: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)
    n: int = 0
    shock_kind: str = "supply"  # unread here; perfbench's group_dense sets it by keyword


@dataclass(frozen=True)
class SymmetryReport:
    """Pairwise symmetric/asymmetric labels and candidate country groups."""

    alpha: float
    symmetric_pairs: Mapping[tuple[str, str], bool]
    groups: tuple[tuple[str, ...], ...]


def _pvalues(r: np.ndarray, n: int) -> np.ndarray:
    # elementwise: p = 0 where |r| >= 1
    perfect = np.abs(r) >= 1.0
    r = np.where(perfect, 0.0, r)
    t = r * np.sqrt((n - 2) / (1.0 - r * r))
    return np.where(perfect, 0.0, 2.0 * special_ufuncs().stdtr(n - 2, -np.abs(t)))


def check_group(countries: Sequence[str], excluded: Sequence[str], task: str) -> None:
    """Refuse an ``excluded`` country outside ``countries``, and a group too
    small for ``task``: 3 countries when one is left out of it, else 2."""
    for country in excluded:
        if country not in countries:
            raise DateRangeError(f"unknown country {country!r}")
    n, need = len(countries), 3 if excluded else 2
    if n < need:
        raise GroupTooSmallError(f"{task} needs at least {need} countries, the panel has {n}")


def correlation_matrix(shocks: Mapping[str, np.ndarray],
                       kind: str = "supply") -> CorrelationReport:
    """Pairwise Pearson correlations of aligned per-country shock series."""
    countries = tuple(sorted(shocks))
    check_group(countries, (), "correlation")
    arrays = [np.asarray(shocks[c], dtype=np.float64) for c in countries]
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise InsufficientOverlapError("shock series must share a common calendar")
    if n < 10:
        raise InsufficientOverlapError(f"common overlap {n} < 10")
    for c, a in zip(countries, arrays):
        if np.ptp(a) == 0.0:
            raise ZeroVarianceError(f"zero-variance shock series for {c}")

    # the upper triangle, mirrored: exactly symmetric with a unit diagonal
    upper = np.triu(np.corrcoef(np.vstack(arrays)), 1)
    r = upper + upper.T + np.eye(len(countries))
    return CorrelationReport(countries=countries, r=_frozen(r), p=_frozen(_pvalues(r, n)),
                             n=n, shock_kind=kind)


def _maximal_cliques(neighbours: Sequence[set[int]]) -> list[frozenset[int]]:
    """Every maximal clique: Bron-Kerbosch with Tomita pivoting."""
    cliques: list[frozenset[int]] = []

    def expand(clique: frozenset[int], candidates: set[int], excluded: set[int]) -> None:
        if not candidates and not excluded:
            cliques.append(clique)
            return
        # branching only on non-neighbours of the best-connected pivot
        pivot = max(candidates | excluded, key=lambda u: len(candidates & neighbours[u]))
        for v in sorted(candidates - neighbours[pivot]):
            expand(clique | {v}, candidates & neighbours[v], excluded & neighbours[v])
            candidates.remove(v)
            excluded.add(v)

    expand(frozenset(), set(range(len(neighbours))), set())
    return cliques


def classify_symmetry(report: CorrelationReport, alpha: float = 0.05) -> SymmetryReport:
    """Label pairs symmetric iff positively and significantly correlated.

    Candidate groups are the maximal cliques (size >= 3) of the graph whose
    edges are the symmetric pairs; mutual symmetry is required throughout.
    """
    countries = report.countries
    k = len(countries)
    pairs: dict[tuple[str, str], bool] = {}
    neighbours: list[set[int]] = [set() for _ in range(k)]
    for i, j in itertools.combinations(range(k), 2):
        symmetric = bool(report.r[i, j] > 0.0 and report.p[i, j] < alpha)
        key = tuple(sorted((countries[i], countries[j])))
        pairs[key] = symmetric
        if symmetric:
            neighbours[i].add(j)
            neighbours[j].add(i)

    groups = tuple(sorted((tuple(sorted(countries[i] for i in c))
                           for c in _maximal_cliques(neighbours) if len(c) >= 3),
                          key=lambda g: (-len(g), g)))
    return SymmetryReport(alpha=alpha, symmetric_pairs=pairs, groups=groups)


STARS = {0.01: "***", 0.05: "**", 0.10: "*"}


def significance_stars(p: float) -> str:
    return next((stars for level, stars in STARS.items() if p < level), "")


# --------------------------------------------------------------------------
# weights
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightTable:
    """Per-year, per-country economic-size weights, renormalized to sum to 1."""

    weights: Mapping[int, Mapping[str, float]]
    raw_sums: Mapping[int, float]

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(sorted(self.weights))

    def for_group(self, year: int, countries: Sequence[str]) -> np.ndarray:
        """Weights for a subset of countries, renormalized to sum to 1."""
        if year not in self.weights:
            raise MissingWeightYearError(f"no weights for year {year}")
        year_weights = self.weights[year]
        try:
            w = np.array([year_weights[c] for c in countries], dtype=np.float64)
        except KeyError as exc:
            raise MissingWeightYearError(
                f"no weight for country {exc.args[0]} in year {year}") from None
        total = w.sum()
        if total <= 0.0:
            raise DegenerateWeightsError(f"weights for {year} sum to {total}")
        return w / total


def build_weight_table(rows: Mapping[int, Mapping[str, float]]) -> WeightTable:
    weights: dict[int, dict[str, float]] = {}
    raw_sums: dict[int, float] = {}
    for year in sorted(rows):
        year_weights = dict(rows[year])
        if len(year_weights) < 2:
            raise DegenerateWeightsError(f"year {year} needs at least 2 countries")
        for country, w in year_weights.items():
            if not (0.0 < w < 1.0):
                raise DegenerateWeightsError(
                    f"weight for {country} in {year} must be in (0, 1), got {w}")
        total = sum(year_weights.values())
        if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
            raise DegenerateWeightsError(
                f"weights for {year} sum to {total:.4f}, outside 1 +/- {WEIGHT_SUM_TOLERANCE}")
        raw_sums[year] = total
        weights[year] = {c: w / total for c, w in year_weights.items()}
    if not weights:
        raise DegenerateWeightsError("empty weight table")
    return WeightTable(weights=weights, raw_sums=raw_sums)


def load_weights(source: str | Path | IO[str]) -> WeightTable:
    """Parse the ``year,country,weight`` CSV."""
    rows: dict[int, dict[str, float]] = {}
    for lineno, (year_text, country, weight_text) in _read_rows(
            source, ("year", "country", "weight"), DegenerateWeightsError, "weights"):
        try:
            year = int(year_text)
            weight = float(weight_text)
        except ValueError:
            raise DegenerateWeightsError(f"line {lineno}: malformed row") from None
        per_year = rows.setdefault(year, {})
        if country in per_year:
            raise DegenerateWeightsError(
                f"line {lineno}: duplicate weight for {country} in {year}")
        per_year[country] = weight
    return build_weight_table(rows)


# --------------------------------------------------------------------------
# dispersion and cost of inclusion
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DispersionSeries:
    values: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class CostSeries:
    values: np.ndarray = field(repr=False)


def _aligned_matrix(shocks: Mapping[str, np.ndarray], dates: Calendar):
    countries = tuple(sorted(shocks))
    arrays = [np.asarray(shocks[c], dtype=np.float64) for c in countries]
    n = len(dates)
    if any(a.size != n for a in arrays):
        raise InsufficientOverlapError("shock series must match the calendar")
    return countries, np.column_stack(arrays)


def _check_spread(concentration: np.ndarray, dates: Calendar) -> None:
    # concentration: sum of squared weights per month, one column per group
    bad = np.argwhere(concentration.T >= 1.0)
    if bad.size:
        year = int(dates.years[bad[0, 1]])
        raise DegenerateWeightsError(
            f"weight concentration leaves no cross-country variance in {year}")


def _dispersion_pass(x: np.ndarray, dates: Calendar, countries: Sequence[str],
                     weights: WeightTable, left_out: Sequence[int]):
    """Dispersion of the whole group and of the group without each column in
    ``left_out``, from one weighted pass over the T x N shock matrix ``x``.

    With the group's weights ``w`` (each year's on its months), mean ``m``,
    deviations ``d = x - m``, ``V = sum w d^2`` and ``s2 = sum w^2``, dropping
    country ``j`` renormalizes the rest by ``1 - w_j``, so
    ``m' - m = -w_j d_j / (1 - w_j)``,
    ``V' = (V - w_j d_j^2) / (1 - w_j) - (m' - m)^2`` and
    ``s2' = (s2 - w_j^2) / (1 - w_j)^2``; the dispersion is
    ``sqrt(V / (1 - s2))``.
    """
    years, rows = np.unique(dates.years, return_inverse=True)
    w = np.array([weights.for_group(y, countries) for y in years.tolist()])[rows]
    s2 = (w * w).sum(axis=1)
    _check_spread(s2[:, None], dates)
    d = x - (w * x).sum(axis=1)[:, None]
    wd = w * d
    v = (wd * d).sum(axis=1)
    full = np.sqrt(np.maximum(v / (1.0 - s2), 0.0))

    w, d, wd = w[:, left_out], d[:, left_out], wd[:, left_out]
    rest = 1.0 - w
    s2_out = (s2[:, None] - w * w) / (rest * rest)
    _check_spread(s2_out, dates)
    shift = wd / rest
    v_out = (v[:, None] - wd * d) / rest - shift * shift
    return full, np.sqrt(np.maximum(v_out / (1.0 - s2_out), 0.0))


def group_dispersion(shocks: Mapping[str, np.ndarray], dates: Calendar,
                     weights: WeightTable,
                     excluded: Sequence[str] = ()) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The group's dispersion index and the cost of inclusion of each of
    ``excluded``, from one pass over the shocks, as read-only arrays."""
    countries, x = _aligned_matrix(shocks, dates)
    check_group(countries, excluded, "cost of inclusion" if excluded else "dispersion")
    left_out = [countries.index(c) for c in excluded]
    full, subgroups = _dispersion_pass(x, dates, countries, weights, left_out)
    if excluded and np.any(full == 0.0):
        raise ZeroDispersionError("full-group dispersion is zero at some date")
    costs = (subgroups - full[:, None]) / full[:, None]
    return _frozen(full), {c: _frozen(costs[:, i]) for i, c in enumerate(excluded)}


# One-series wrappers over ``group_dispersion``, kept only because perfbench's
# tracer and ``group_dense`` workload call them by name (ROADMAP item 7).
def dispersion_index(shocks: Mapping[str, np.ndarray], dates: Calendar,
                     weights: WeightTable) -> DispersionSeries:
    """Size-weighted cross-country standard deviation of shocks, per month.

    Annual weights apply as step functions across the months of their year
    and are renormalized to sum to exactly 1 before use.
    """
    return DispersionSeries(group_dispersion(shocks, dates, weights)[0])


def cost_of_inclusion(shocks: Mapping[str, np.ndarray], dates: Calendar,
                      weights: WeightTable, country: str) -> CostSeries:
    """Relative change in group dispersion when ``country`` is excluded.

    Positive values mean the country's inclusion lowers dispersion (a
    convergence source); negative values mean it raises dispersion.
    """
    return CostSeries(group_dispersion(shocks, dates, weights, (country,))[1][country])


# --------------------------------------------------------------------------
# trend filtering
# --------------------------------------------------------------------------

# The banded solve below loses about smoothing * eps of relative accuracy.
# Against an exact rational solve (n = 133 and 600) the trend's worst relative
# error is 4e-7 at 1e10, 3e-5 at 1e12 and 6e-3 at 1e14; at 1e16 the factor
# breaks down. 1e10, about 700,000 times the monthly 14,400, keeps six digits.
MAX_HP_SMOOTHING = 1e10


def hp_filter(values: np.ndarray, smoothing: float = 14400.0):
    """Split a series into trend and cycle.

    The trend solves ``(I + smoothing * D'D) trend = values`` with ``D`` the
    second-difference operator by banded Cholesky in O(T): a forward pass
    factors the matrix as ``L L'`` and solves ``L z = values``, a backward pass
    solves ``L' trend = z``, both on Python floats (faster there than numpy
    scalars). At ``smoothing == 0`` the matrix is the identity and the trend
    is ``values`` itself. NaN or inf in ``values``, or ``smoothing`` outside
    ``[0, MAX_HP_SMOOTHING]`` (NaN and inf included), raises ``ValueError``.
    """
    y = np.asarray(values, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError("values must be 1-D")
    n = y.size
    if n < 4:
        raise TooShortError("HP filter needs at least 4 observations")
    lam = float(smoothing)
    if not 0.0 <= lam <= MAX_HP_SMOOTHING:
        raise ValueError(f"smoothing must be in [0, {MAX_HP_SMOOTHING:g}], got {lam!r}")
    if not np.isfinite(y).all():
        raise ValueError("values must be finite")
    # row i of the matrix holds far, sub, diag in columns i-2, i-1, i; row i of L: c, b, d
    diag = [1.0 + lam, 1.0 + 5.0 * lam] + [1.0 + 6.0 * lam] * (n - 4) + [1.0 + 5.0 * lam, 1.0 + lam]
    sub = [0.0, -2.0 * lam] + [-4.0 * lam] * (n - 3) + [-2.0 * lam]
    far = [0.0, 0.0] + [lam] * (n - 2)
    rows, d1, d2, b1, z1, z2 = [], 1.0, 1.0, 0.0, 0.0, 0.0
    for a0, a1, a2, yi in zip(diag, sub, far, y.tolist()):
        c = a2 / d2
        b = (a1 - c * b1) / d1
        d = math.sqrt(a0 - b * b - c * c)
        z = (yi - b * z1 - c * z2) / d
        rows.append((d, b, c, z))
        d2, d1, b1, z2, z1 = d1, d, b, z1, z
    d, b, c, z = zip(*rows, (1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))
    t = [0.0] * (n + 2)
    for i in range(n - 1, -1, -1):
        t[i] = (z[i] - b[i + 1] * t[i + 1] - c[i + 2] * t[i + 2]) / d[i]
    trend = np.array(t[:n])
    return trend, y - trend


def trend_change(dates: Calendar, trend: np.ndarray,
                 start: Month, end: Month) -> float:
    """Percent change of the trend between two sample dates."""
    base, last = (float(trend[dates.offset(d)]) for d in (start, end))
    if base == 0.0:
        raise ZeroBaseError(f"trend value at {start} is zero")
    return 100.0 * (last - base) / base
