"""Synthetic data-generating processes with known structural parameters.

These DGPs are the ground truth used to validate estimation and
identification end to end: draw orthonormal Gaussian shocks, map them to
reduced-form innovations through a known impact matrix, and run the VAR
recursion.  Every draw comes from a seeded ``numpy.random.Generator``
(PCG64 bit stream, ziggurat normal variates), so fixtures are bit-exactly
reproducible for a given seed; derived seeds are ``seed + index``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DateRangeError, UnstableModelError, checked
from .identification import StructuralModel
from .months import Month, month_range
from .panel import VARIABLES, Panel, _frozen, csv_text
from .var import companion_matrix

BURN_IN = 500
LONG_RUN_RESTRICTION_TOL = 1e-12
# Steps per block of the simulation scan: the in-block products are one
# matmul, and only one companion-state step per block is sequential.
SIM_BLOCK = 64
# random_dgp's cap on the companion modulus: a DGP settles within the burn-in
DGP_MAX_MODULUS = 0.75


@checked
class Dgp(NamedTuple):
    """A stable bivariate VAR with a long-run-restricted impact matrix."""

    coefs: np.ndarray       # (p, 2, 2)
    impact: np.ndarray      # true impact matrix
    intercept: np.ndarray
    n_obs: int = 0
    seed: int = 0

    def _check(self):
        coefs = np.asarray(self.coefs, dtype=np.float64)
        if coefs.ndim != 3 or coefs.shape[1:] != (2, 2):
            raise ValueError("coefs must have shape (p, 2, 2)")
        if np.asarray(self.impact, dtype=np.float64).shape != (2, 2):
            raise ValueError("impact must have shape (2, 2)")
        if np.asarray(self.intercept, dtype=np.float64).shape != (2,):
            raise ValueError("intercept must have shape (2,)")
        if self.n_obs < 1:
            raise ValueError("n_obs must be >= 1")
        moduli = np.abs(np.linalg.eigvals(companion_matrix(coefs)))
        if moduli.max() >= 1.0:
            raise UnstableModelError(
                f"DGP companion modulus {moduli.max():.6f} >= 1")
        f = self.long_run_impact
        if abs(f[0, 1]) > LONG_RUN_RESTRICTION_TOL:
            raise ValueError(f"long-run restriction violated: F[0,1] = {f[0, 1]:.3e}")
        if f[0, 0] <= 0 or f[1, 1] <= 0:
            raise ValueError("long-run diagonal must be positive")

    @property
    def p(self) -> int:
        return np.asarray(self.coefs, dtype=np.float64).shape[0]

    @property
    def long_run_impact(self) -> np.ndarray:
        coefs = np.asarray(self.coefs, dtype=np.float64)
        return np.linalg.solve(np.eye(2) - coefs.sum(axis=0),
                               np.asarray(self.impact, dtype=np.float64))


class SimulatedSample(NamedTuple):
    """Differences and the true structural shocks that generated them."""

    diffs: np.ndarray     # (n_obs, 2): activity, price growth
    shocks: np.ndarray    # (n_obs, 2): supply, demand


class RecoveryReport(NamedTuple):
    a0_error_max: float
    supply_correlation: float
    demand_correlation: float
    sign_agreement: bool


def _structural_shocks(dgp: Dgp) -> np.ndarray:
    """The DGP's seeded shock draws, burn-in included: ``(n_obs + BURN_IN, 2)``."""
    return np.random.default_rng(dgp.seed).standard_normal((dgp.n_obs + BURN_IN, 2))


def var_simulate(coefs: np.ndarray, intercept: np.ndarray, shocks: np.ndarray) -> np.ndarray:
    """Run the VAR recursion ``x_t = c + sum_i B_i x_{t-i} + u_t`` over a
    pre-drawn shock matrix, from zero initial conditions.

    With the companion state ``s_t = (x_t, ..., x_{t-p+1})`` and
    ``w_t = c + u_t``, each block of ``SIM_BLOCK`` steps is its lower
    block-Toeplitz product of impulse responses with ``w`` plus the
    response to the state carried in from the previous block.
    """
    p, n = coefs.shape[0], coefs.shape[1]
    m = n * p
    n_obs = shocks.shape[0]
    L = SIM_BLOCK
    n_blocks = -(-n_obs // L)

    companion = companion_matrix(coefs)
    powers = np.empty((L + 1, m, m))          # F^0 .. F^L
    powers[0] = np.eye(m)
    for k in range(L):
        powers[k + 1] = companion @ powers[k]

    # in-block responses: x[k] gets psi[k - j] @ w[j] for j <= k
    lag = np.arange(L)[:, None] - np.arange(L)[None, :]
    psi = powers[np.maximum(lag, 0), :n, :n] * (lag >= 0)[:, :, None, None]
    toeplitz = psi.transpose(0, 2, 1, 3).reshape(L * n, L * n)
    # state at a block's end from its own inputs, and x[k] from the state before it
    to_state = powers[L - 1::-1, :, :n].transpose(1, 0, 2).reshape(m, L * n)
    from_state = powers[1:, :n, :].reshape(L * n, m)

    w = np.zeros((n_blocks * L, n))
    w[:n_obs] = shocks + intercept
    w = w.reshape(n_blocks, L * n)
    own_state = w @ to_state.T
    carried = np.empty((n_blocks, m))
    state = np.zeros(m)
    for b in range(n_blocks):
        carried[b] = state
        state = powers[L] @ state + own_state[b]
    x = w @ toeplitz.T + carried @ from_state.T
    return x.reshape(n_blocks * L, n)[:n_obs]


def simulate(dgp: Dgp) -> SimulatedSample:
    """Draw one sample; the first ``BURN_IN`` observations are discarded."""
    shocks = _structural_shocks(dgp)
    innovations = shocks @ np.asarray(dgp.impact, dtype=np.float64).T
    path = var_simulate(np.asarray(dgp.coefs, dtype=np.float64),
                        np.asarray(dgp.intercept, dtype=np.float64), innovations)
    return SimulatedSample(diffs=_frozen(path[BURN_IN:]),
                           shocks=_frozen(shocks[BURN_IN:]))


def recovery_report(dgp: Dgp, fitted: StructuralModel) -> RecoveryReport:
    """Compare a fitted structural model against the DGP's own shock draws."""
    n_fit = fitted.shocks.shape[0]
    if n_fit > dgp.n_obs or n_fit < 2:
        raise DateRangeError(
            f"fitted shock sample of {n_fit} does not fit inside {dgp.n_obs} observations")
    truth = _structural_shocks(dgp)[-n_fit:]
    supply_corr = float(np.corrcoef(fitted.shocks[:, 0], truth[:, 0])[0, 1])
    demand_corr = float(np.corrcoef(fitted.shocks[:, 1], truth[:, 1])[0, 1])
    f = np.asarray(fitted.long_run)
    sign_ok = bool(f[0, 0] > 0 and f[1, 1] > 0 and supply_corr > 0 and demand_corr > 0)
    return RecoveryReport(
        a0_error_max=float(np.max(np.abs(np.asarray(fitted.a0) - np.asarray(dgp.impact)))),
        supply_correlation=supply_corr,
        demand_correlation=demand_corr,
        sign_agreement=sign_ok,
    )


def random_dgp(seed: int, p: int = 1, n_obs: int = 10_000) -> Dgp:
    """A reproducible stable DGP that satisfies the long-run restriction."""
    if not 1 <= p <= 6:
        raise ValueError("p must be in 1..6")
    rng = np.random.default_rng(seed)
    coefs = rng.normal(0.0, 0.25 / p, size=(p, 2, 2))
    while np.abs(np.linalg.eigvals(companion_matrix(coefs))).max() > DGP_MAX_MODULUS:
        coefs *= 0.85
    # any lower-triangular positive-diagonal long-run matrix L yields a valid
    # impact matrix (I - sum B) @ L
    lower = np.array([[0.5 + rng.uniform(0.0, 1.0), 0.0],
                      [rng.normal(0.0, 0.5), 0.5 + rng.uniform(0.0, 1.0)]])
    impact = (np.eye(2) - coefs.sum(axis=0)) @ lower
    intercept = rng.normal(0.0, 0.001, size=2)
    return Dgp(coefs=_frozen(coefs), impact=_frozen(impact),
               intercept=_frozen(intercept), n_obs=n_obs, seed=seed)


def panel_from_diffs(diffs_by_country: dict[str, np.ndarray],
                     start: Month) -> Panel:
    """Integrate growth-rate pairs into a positive index panel.

    Each country's array holds (activity, price) log differences; levels
    start at 100 so the output round-trips through the CSV panel format.
    """
    countries = tuple(sorted(diffs_by_country))
    n_diffs = {c: np.asarray(d).shape[0] for c, d in diffs_by_country.items()}
    if len(set(n_diffs.values())) != 1:
        raise ValueError("all countries must have the same number of observations")
    n_months = next(iter(n_diffs.values())) + 1
    dates = month_range(start, n_months)
    values = {}
    for country in countries:
        diffs = np.asarray(diffs_by_country[country], dtype=np.float64)
        for vi, variable in enumerate(VARIABLES):
            logs = np.concatenate([[0.0], np.cumsum(diffs[:, vi])])
            values[(country, variable)] = _frozen(100.0 * np.exp(logs))
    return Panel(countries=countries, dates=dates, values=values)


def synthetic_panel(seed: int, n_countries: int, n_months: int,
                    start: Month = Month(2009, 1)) -> Panel:
    """A multi-country fixture panel; country ``i`` uses seed ``seed + i``."""
    if n_months < 2:
        raise ValueError("n_months must be >= 2")
    diffs = {}
    for i in range(n_countries):
        dgp = random_dgp(seed + i, p=(i % 3) + 1, n_obs=n_months - 1)
        diffs[f"C{i:02d}"] = 0.01 * simulate(dgp).diffs
    return panel_from_diffs(diffs, start)


def equal_weights_csv(panel: Panel) -> str:
    """Equal weights CSV text for every calendar year of ``panel``.

    Shares are whole millionths, spread so that each year's shares sum to
    exactly 1, which ``load_weights`` accepts for any number of countries.
    """
    n = len(panel.countries)
    units, extra = divmod(10**6, n)
    shares = [f"{(units + (i < extra)) / 1e6:.6f}" for i in range(n)]
    return csv_text(("year", "country", "weight"), (
        (str(year), country, share)
        for year in range(panel.dates[0].year, panel.dates[-1].year + 1)
        for country, share in zip(panel.countries, shares)))
