"""Reduced-form VAR estimation, lag selection and residual diagnostics.

Estimation is equation-by-equation OLS on ``[1, X_{t-1}, ..., X_{t-p}]``
plus optional break-dummy columns.  The residual covariance uses the
maximum-likelihood divisor (the residual row count), which is what the
long-run identification algebra downstream expects.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DateRangeError,
    LagWindowError,
    NoAdmissibleLagError,
    RankDeficientError,
    TooShortError,
    checked,
)
from .months import Calendar, Month
from .panel import VARIABLES, TransformedSeries, _frozen, special_ufuncs

N_VARS = 2


@checked
class DummySpec(NamedTuple):
    """Exogenous break dummy, a regressor of both equations like the
    intercept.  ``form`` is ``step`` (one from the break date onward) or
    ``pulse`` (one only at the break date).
    """

    break_date: Month
    form: str = "step"

    def _check(self):
        if self.form not in ("step", "pulse"):
            raise ValueError(f"unknown dummy form {self.form!r}")

    def column(self, dates: Calendar) -> np.ndarray:
        at = dates.offset(self.break_date)
        end = None if self.form == "step" else at + 1
        col = np.zeros(len(dates))
        col[at:end] = 1.0
        return col

    def label(self) -> str:
        return f"{self.break_date}:{self.form}"


class VarModel(NamedTuple):
    p: int
    intercept: np.ndarray
    coefs: np.ndarray                # (p, 2, 2)
    dummies: tuple[DummySpec, ...]
    exog_coefficients: np.ndarray    # (2, n_dummies)
    residuals: np.ndarray            # (T - p, 2)
    sigma: np.ndarray
    effective_dates: Calendar

    @property
    def nobs(self) -> int:
        return self.residuals.shape[0]


class LagSelection(NamedTuple):
    """The accepted model, its ``diagnose`` dict and the gate trail that led to
    it.  Each ``trail`` row is the dict ``report.json`` records under
    ``var.gate_trail``: ``p``, ``stable``, ``max_modulus``, ``portmanteau_h``,
    ``portmanteau_pvalue``, ``arch_pvalues`` (one per equation) and ``passed``."""

    criterion_choices: Mapping[str, int]
    trail: tuple[dict, ...]
    model: VarModel
    diagnostics: dict

    @property
    def p(self) -> int:
        return self.model.p


def _check_pair(data: tuple[TransformedSeries, TransformedSeries]):
    first, second = data
    if (first.variable, second.variable) != VARIABLES:
        raise ValueError("data must be the (activity, price) pair, in that order")
    if first.dates != second.dates:
        raise ValueError("the two series must share their calendar")
    return np.column_stack([first.values, second.values]), first.dates


def _design(y: np.ndarray, p: int, dummy_cols: np.ndarray):
    # dummy_cols: (n_obs, n_dummies), on the same calendar as y
    n_obs = y.shape[0]
    rows = n_obs - p
    lag_cols = [y[p - 1 - i:n_obs - 1 - i] for i in range(p)]
    X = np.column_stack([np.ones(rows)] + lag_cols + [dummy_cols[p:]])
    return X, y[p:]


def _dummy_columns(dummies: Sequence[DummySpec], dates: Calendar) -> np.ndarray:
    cols = np.zeros((len(dates), len(dummies)))
    for j, d in enumerate(dummies):
        cols[:, j] = d.column(dates)
    return cols


def fit_var(data: tuple[TransformedSeries, TransformedSeries], p: int,
            dummies: Sequence[DummySpec] = ()) -> VarModel:
    """OLS fit of a bivariate VAR(p) with optional exogenous dummies."""
    if p < 1:
        raise ValueError("p must be >= 1")
    y, dates = _check_pair(data)
    dummies = tuple(dummies)
    n_base = 1 + N_VARS * p
    n_reg = n_base + len(dummies)
    rows = y.shape[0] - p
    if rows < 10 + n_reg:
        raise TooShortError(
            f"need at least {10 + n_reg} effective observations for p={p}, have {rows}")
    for d in dummies:
        # the first p rows only feed the lags: a pulse there leaves a zero
        # column, and a step there or at row p duplicates the intercept
        need = p + (d.form == "step")
        if dates.offset(d.break_date) < need:
            raise DateRangeError(f"dummy {d.label()} must be dated after {dates[need - 1]} "
                                 f"to be estimable at p={p}")

    X, z = _design(y, p, _dummy_columns(dummies, dates))
    # column-major: the summation order of X @ beta, and with it the last
    # bits of the residuals in report.json, depends on the layout
    X = np.asfortranarray(X)

    intercept = np.empty(N_VARS)
    coefs = np.zeros((p, N_VARS, N_VARS))
    exog = np.zeros((N_VARS, len(dummies)))
    resid = np.empty((rows, N_VARS))
    # one lstsq per equation: a two-column solve moves the last bits.  Its rank
    # has matrix_rank's cutoff: singular values above eps * max(M, N) * s_max
    for a in range(N_VARS):
        beta, _, rank, _ = np.linalg.lstsq(X, z[:, a], rcond=None)
        if rank < n_reg:
            raise RankDeficientError("regressor matrix rank-deficient")
        resid[:, a] = z[:, a] - X @ beta
        intercept[a] = beta[0]
        for i in range(p):
            coefs[i, a, :] = beta[1 + N_VARS * i:1 + N_VARS * (i + 1)]
        exog[a, :] = beta[n_base:]

    sigma = resid.T @ resid / rows
    sigma = (sigma + sigma.T) / 2.0
    return VarModel(p=p, intercept=_frozen(intercept), coefs=_frozen(coefs),
                    dummies=dummies, exog_coefficients=_frozen(exog),
                    residuals=_frozen(resid), sigma=_frozen(sigma),
                    effective_dates=dates[p:])


def companion_matrix(coefs: np.ndarray) -> np.ndarray:
    p = coefs.shape[0]
    top = np.hstack([coefs[i] for i in range(p)])
    lower = np.hstack([np.eye(N_VARS * (p - 1)),
                       np.zeros((N_VARS * (p - 1), N_VARS))])
    return np.vstack([top, lower])


def stability(model: VarModel) -> dict:
    """``{stable, max_modulus, moduli}``: the companion-matrix eigenvalue
    moduli, descending; stable iff all < 1."""
    moduli = np.sort(np.abs(np.linalg.eigvals(companion_matrix(model.coefs))))[::-1].tolist()
    return {"stable": moduli[0] < 1.0, "max_modulus": moduli[0], "moduli": moduli}


def portmanteau_test(model: VarModel, h: int) -> dict:
    """Adjusted multivariate portmanteau test for residual serial correlation:
    ``{statistic, df, p_value}``, the p-value from the chi-square tail."""
    if h <= model.p:
        raise LagWindowError(f"h must exceed the VAR order (h={h}, p={model.p})")
    u = model.residuals
    t_eff = u.shape[0]
    if h >= t_eff:
        raise LagWindowError(f"h={h} must be below the residual count {t_eff}")
    c0 = u.T @ u / t_eff
    c0_inv = np.linalg.inv(c0)
    stat = 0.0
    for j in range(1, h + 1):
        cj = u[j:].T @ u[:-j] / t_eff
        stat += np.trace(cj.T @ c0_inv @ cj @ c0_inv) / (t_eff - j)
    stat *= t_eff**2
    df = N_VARS**2 * (h - model.p)
    return {"statistic": float(stat), "df": int(df),
            "p_value": float(special_ufuncs().chdtrc(df, stat))}


def arch_lm_test(residuals: np.ndarray, q: int) -> dict:
    """LM test for autoregressive conditional heteroskedasticity, as
    ``portmanteau_test`` reports it: ``{statistic, df, p_value}``."""
    u = np.asarray(residuals, dtype=np.float64)
    if u.ndim != 1:
        raise ValueError("residuals must be a single equation's series")
    if q < 1:
        raise ValueError("q must be >= 1")
    if u.size <= 5 * q:
        raise TooShortError(f"need more than {5 * q} residuals, have {u.size}")
    u2 = u * u
    z = u2[q:]
    n = z.size
    X = np.column_stack([np.ones(n)] + [u2[q - 1 - i:q - 1 - i + n] for i in range(q)])
    tss = float(((z - z.mean()) ** 2).sum())
    if tss == 0.0:
        return {"statistic": 0.0, "df": q, "p_value": 1.0}
    beta, *_ = np.linalg.lstsq(X, z, rcond=None)
    rss = float(((z - X @ beta) ** 2).sum())
    r2 = max(0.0, 1.0 - rss / tss)
    stat = n * r2
    return {"statistic": float(stat), "df": int(q),
            "p_value": float(special_ufuncs().chdtrc(q, stat))}


def diagnose(model: VarModel, portmanteau_h: int, arch_q: int) -> dict:
    """The residual checks of one fitted model, keyed as ``report.json``'s
    ``var`` block: ``stability``'s keys, ``portmanteau`` at ``h = max(portmanteau_h,
    p + 1)`` and ``arch``, each equation's LM test by variable."""
    h = max(portmanteau_h, model.p + 1)
    archs = (arch_lm_test(model.residuals[:, a], arch_q) for a in range(N_VARS))
    return {**stability(model), "portmanteau": {"h": h, **portmanteau_test(model, h)},
            "arch": {variable: {"q": arch["df"], "statistic": arch["statistic"],
                                "p_value": arch["p_value"]}
                     for variable, arch in zip(VARIABLES, archs)}}


_IC_NAMES = ("aic", "sc", "hq")


def _information_criteria(data, max_p: int, dummies) -> dict[str, int]:
    """The AIC, SC and HQ lag picks over ``1..max_p`` on the common sample
    that ``max_p`` leaves.  Order p's design is the fixed block (intercept and
    dummies), then lags 1..p, so one QR of ``[B, lag 1, ..., lag max_p, z]``
    gives every order's residual cross-product, ``R[k:, -2:]'R[k:, -2:]`` with
    k = rank(B) + 2p.  ``B`` is an orthonormal basis of the fixed block's span,
    its SVD cut at matrix_rank's tolerance: dummies can add up to the intercept
    on the common sample (a step dated at or before its first month, or a pulse
    there plus a step at the next), and the block itself would leave R
    singular.  The penalty still counts every dummy.
    """
    y, dates = _check_pair(data)
    t_common = y.shape[0] - max_p
    if t_common < 10 + 1 + N_VARS * max_p + len(dummies):
        raise TooShortError(f"sample too short for lag search up to {max_p}")
    penalties = {
        "aic": 2.0,
        "sc": float(np.log(t_common)),
        "hq": 2.0 * float(np.log(np.log(t_common))),
    }
    # dummy columns are built on the full calendar, so a break date inside
    # the first max_p months is as valid here as it is for fit_var
    X, z = _design(y, max_p, _dummy_columns(dummies, dates))
    n_lags, orders = N_VARS * max_p, np.arange(1, max_p + 1)
    fixed = np.delete(X, np.s_[1:1 + n_lags], axis=1)
    basis, sv, _ = np.linalg.svd(fixed, full_matrices=False)
    basis = basis[:, sv > sv[0] * max(fixed.shape) * np.finfo(float).eps]
    rz = np.linalg.qr(np.column_stack([basis, X[:, 1:1 + n_lags], z]), mode="r")[:, -N_VARS:]
    sigmas = np.stack([rz[k:].T @ rz[k:] for k in basis.shape[1] + N_VARS * orders]) / t_common
    _, logdets = np.linalg.slogdet(sigmas)
    n_params = N_VARS * (1 + N_VARS * orders + len(dummies))
    return {name: int(np.argmin(logdets + penalties[name] * n_params / t_common)) + 1
            for name in _IC_NAMES}


def select_lag(data: tuple[TransformedSeries, TransformedSeries], max_p: int = 12,
               dummies: Sequence[DummySpec] = (), portmanteau_h: int = 12,
               arch_q: int = 4, alpha: float = 0.05) -> LagSelection:
    """Sequential lag-order choice.

    Starts from the most parsimonious of the AIC/SC/HQ picks and walks
    upward until the fitted model is stable and passes the
    serial-correlation and heteroskedasticity checks at ``alpha``.  The
    accepted model and its diagnostics come back with the gate trail, one
    ``LagSelection.trail`` row per order tried; when no order passes,
    ``NoAdmissibleLagError.trail`` holds the rows.
    """
    if max_p < 1:
        raise ValueError("max_p must be >= 1")
    choices = _information_criteria(data, max_p, tuple(dummies))
    start = min(choices.values())

    trail: list[dict] = []
    for p in range(start, max_p + 1):
        model = fit_var(data, p, dummies)
        diag = diagnose(model, portmanteau_h, arch_q)
        port = diag["portmanteau"]
        arch = [a["p_value"] for a in diag["arch"].values()]
        passed = diag["stable"] and port["p_value"] > alpha and all(pa > alpha for pa in arch)
        trail.append({"p": p, "stable": diag["stable"], "max_modulus": diag["max_modulus"],
                      "portmanteau_h": port["h"], "portmanteau_pvalue": port["p_value"],
                      "arch_pvalues": arch, "passed": passed})
        if passed:
            return LagSelection(criterion_choices=choices, trail=tuple(trail),
                                model=model, diagnostics=diag)
    raise NoAdmissibleLagError(
        f"no lag order in [{start}, {max_p}] passes the diagnostic gate",
        trail=trail)
