"""Johansen cointegration testing for a bivariate levels system.

One deterministic case is implemented: an unrestricted constant with the
linear trend restricted to the cointegrating relation (the configuration
whose 5% critical values are the embedded constants below).  Reduced-rank
statistics come from the canonical-correlation eigenproblem between the
level and difference residual moment matrices after partialling out the
short-run terms.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMomentMatrixError, TooShortError

# 5% critical values, hypothesized rank r = 0 and r <= 1
TRACE_CV_5PCT = (25.32, 12.25)
MAXEIG_CV_5PCT = (18.96, 12.25)

MIN_EFFECTIVE_OBS = 30


def _partial_out(target: np.ndarray, regressors: np.ndarray) -> np.ndarray:
    coef, *_ = np.linalg.lstsq(regressors, target, rcond=None)
    return target - regressors @ coef


def johansen_test(pair: tuple[np.ndarray, np.ndarray], lag_order: int) -> dict:
    """Trace and maximum-eigenvalue tests on two aligned log-level series.

    ``lag_order`` is the levels-VAR order; the error-correction form uses
    ``lag_order - 1`` lagged differences.  The result is a dict of
    ``eigenvalues``, ``trace_stats``, ``max_eig_stats``,
    ``critical_values_trace`` and ``critical_values_maxeig`` (two-element
    lists, for r = 0 and r <= 1), ``selected_rank``, ``lag_order`` and
    ``nobs`` (the effective sample size).
    """
    if lag_order < 2:
        raise ValueError("lag_order must be >= 2")
    y = np.column_stack([np.asarray(s, dtype=np.float64) for s in pair])
    if y.shape[1] != 2:
        raise ValueError("exactly two series required")
    n_obs = y.shape[0]
    k = int(lag_order)
    if n_obs < MIN_EFFECTIVE_OBS + k:
        raise TooShortError(f"need >= {MIN_EFFECTIVE_OBS + k} observations for lag order {k}, "
                            f"have {n_obs}")
    t_eff = n_obs - k

    dy = np.diff(y, axis=0)
    z0 = dy[k - 1:]                                     # dY_t
    lagged = [dy[k - 1 - i:n_obs - 1 - i] for i in range(1, k)]
    z2 = np.column_stack([np.ones(t_eff)] + lagged)     # unrestricted terms
    z1 = np.column_stack([y[k - 1:n_obs - 1],
                          np.arange(1.0, t_eff + 1.0)])  # levels + restricted trend

    r0 = _partial_out(z0, z2)
    r1 = _partial_out(z1, z2)
    s00 = r0.T @ r0 / t_eff
    s11 = r1.T @ r1 / t_eff
    s01 = r0.T @ r1 / t_eff

    try:
        l11 = np.linalg.cholesky(s11)
        s00_inv_s01 = np.linalg.solve(s00, s01)
    except np.linalg.LinAlgError as exc:
        raise SingularMomentMatrixError(f"moment matrix not invertible: {exc}") from None
    l11_inv = np.linalg.inv(l11)
    m = l11_inv @ s01.T @ s00_inv_s01 @ l11_inv.T
    eigvals = np.linalg.eigvalsh((m + m.T) / 2.0)[::-1][:2]
    if eigvals[0] >= 1.0:
        raise SingularMomentMatrixError("degenerate eigenvalue >= 1")
    eigvals = np.clip(eigvals, 0.0, None)

    log1m = np.log(1.0 - eigvals)
    trace = [float(-t_eff * log1m[r:].sum()) for r in range(2)]
    maxeig = [float(-t_eff * log1m[r]) for r in range(2)]

    selected = 2
    for r in range(2):
        if trace[r] <= TRACE_CV_5PCT[r]:
            selected = r
            break

    return {"eigenvalues": eigvals.tolist(), "trace_stats": trace, "max_eig_stats": maxeig,
            "critical_values_trace": list(TRACE_CV_5PCT),
            "critical_values_maxeig": list(MAXEIG_CV_5PCT),
            "selected_rank": selected, "lag_order": k, "nobs": t_eff}
