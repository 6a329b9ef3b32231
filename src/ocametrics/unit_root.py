"""Augmented Dickey-Fuller testing and the integration-order rule.

The test regresses the first difference on the lagged level, optional
deterministic terms and ``k`` lagged differences; the statistic is the
t-ratio on the lagged level.  Critical values come from an embedded
response surface in the effective sample size (constants as published by
MacKinnon, 2010), so any sample length is handled without tables.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DegenerateRegressorError, OcaError, TooShortError

SPEC_CODES = {"none": 0, "constant": 1, "trend": 2}
LEVELS = (0.01, 0.05, 0.10)

# response-surface coefficients: cv = b0 + b1/T + b2/T^2 + b3/T^3,
# rows ordered 1%, 5%, 10%
_CV_SURFACE = {
    "none": np.array([
        [-2.56574, -2.2358, -3.627, 0.0],
        [-1.94100, -0.2686, -3.365, 31.223],
        [-1.61682, 0.2656, -2.714, 25.364],
    ]),
    "constant": np.array([
        [-3.43035, -6.5393, -16.786, -79.433],
        [-2.86154, -2.8903, -4.234, -40.040],
        [-2.56677, -1.5384, -2.809, 0.0],
    ]),
    "trend": np.array([
        [-3.95877, -9.0531, -28.428, -134.155],
        [-3.41049, -4.3904, -9.036, -45.374],
        [-3.12705, -2.5856, -3.925, -22.380],
    ]),
}

MIN_EFFECTIVE_OBS = 20


def canonical_spec(spec: str) -> str:
    if spec not in SPEC_CODES:
        raise ValueError(f"unknown deterministic spec {spec!r}")
    return spec


def critical_values(spec: str, nobs: int) -> dict[float, float]:
    """Finite-sample critical values for the given effective sample size."""
    surface = _CV_SURFACE[canonical_spec(spec)]
    t = float(nobs)
    cvs = surface[:, 0] + surface[:, 1] / t + surface[:, 2] / t**2 + surface[:, 3] / t**3
    return dict(zip(LEVELS, cvs.tolist()))


def adf_test(series: np.ndarray, spec: str = "trend", max_lags: int = 12,
             lag_rule: int | str = "aic") -> dict:
    """Unit-root t-test with the null of a unit root.

    ``lag_rule`` is either ``"aic"`` (lag count chosen over ``0..max_lags``)
    or an integer fixing the augmentation lag count.  The result is a dict:
    ``statistic`` (the t-ratio), ``lags_used``, ``spec``, ``nobs`` (the
    effective sample size), ``critical_values`` (``critical_values(spec,
    nobs)``, keyed by level) and ``reject_at``, the smallest of ``LEVELS``
    whose critical value the statistic is below, or ``None``.
    """
    result = adf_panel([series], spec=spec, max_lags=max_lags, lag_rule=lag_rule)[0]
    if isinstance(result, OcaError):
        raise result
    return result


def adf_panel(series: Sequence[np.ndarray], spec: str = "trend", max_lags: int = 12,
              lag_rule: int | str = "aic") -> list[dict | OcaError]:
    """``adf_test`` on each of ``series``, with one ``adf_batch`` call per series length.

    A series that ``adf_test`` refuses (too short, constant, non-finite,
    numerically degenerate) gets the error ``adf_test`` would raise in its
    place, so the caller decides which failures are fatal and whom to name in them.
    """
    spec = canonical_spec(spec)
    if isinstance(lag_rule, str):
        if lag_rule != "aic":
            raise ValueError(f"unknown lag rule {lag_rule!r}")
        autolag, k = True, int(max_lags)
    else:
        autolag, k = False, int(lag_rule)
        if k < 0:
            raise ValueError("fixed lag count must be >= 0")

    arrays = [np.asarray(s, dtype=np.float64) for s in series]
    results: list[dict | OcaError | None] = [None] * len(arrays)
    by_length: dict[int, list[int]] = {}
    for i, arr in enumerate(arrays):
        if arr.ndim != 1:
            raise ValueError("series must be 1-D")
        if arr.size - 1 - k < MIN_EFFECTIVE_OBS:
            results[i] = TooShortError(f"need >= {MIN_EFFECTIVE_OBS + 1 + k} observations "
                                       f"with {k} lags, have {arr.size}")
        elif (spread := np.ptp(arr)) == 0.0:
            results[i] = DegenerateRegressorError("series is constant")
        elif not np.isfinite(spread):
            results[i] = DegenerateRegressorError("series holds a non-finite value")
        else:
            by_length.setdefault(arr.size, []).append(i)

    for rows in by_length.values():
        stats, lags, nobs = _adf_rows(np.stack([arrays[i] for i in rows]),
                                      SPEC_CODES[spec], k, autolag)
        for i, statistic, lag, n in zip(rows, stats.tolist(), lags.tolist(), nobs.tolist()):
            if not np.isfinite(statistic):
                results[i] = DegenerateRegressorError("regression is numerically degenerate")
                continue
            cvs = critical_values(spec, n)
            reject_at = next((level for level in LEVELS if statistic < cvs[level]), None)
            results[i] = {"statistic": statistic, "lags_used": lag, "spec": spec,
                          "nobs": n, "critical_values": cvs, "reject_at": reject_at}
    return results


def _adf_rows(paths, det, max_lags, autolag):
    # adf_batch, or, when a singular design fails the whole stack, each series
    # on its own, with a NaN statistic for one that fails alone
    try:
        return adf_batch(paths, det, max_lags, autolag)
    except np.linalg.LinAlgError:
        if len(paths) == 1:
            return np.array([np.nan]), np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
        parts = [_adf_rows(path[None], det, max_lags, autolag) for path in paths]
        return tuple(np.concatenate(column) for column in zip(*parts))


def _adf_design(paths, det, max_lags, rows):
    # stacked design (n_rep, rows, det + 1 + max_lags) and regressand, from row max_lags on
    n_rep = paths.shape[0]
    dy = np.diff(paths, axis=1)
    cols = [np.broadcast_to(np.ones(rows), (n_rep, rows))]
    if det >= 2:
        trend = np.arange(1.0, rows + 1.0)
        cols.append(np.broadcast_to(trend, (n_rep, rows)))
    if det == 0:
        cols = []
    cols.append(paths[:, max_lags:max_lags + rows])
    for i in range(max_lags):
        cols.append(dy[:, max_lags - 1 - i:max_lags - 1 - i + rows])
    X = np.stack(cols, axis=2)
    z = dy[:, max_lags:max_lags + rows]
    return X, z


def _adf_stats(X, z, det):
    # batched OLS t-ratio on the level column (index det) from one SVD of X:
    # NaN where X is short of full rank at matrix_rank's tolerance, or fits z exactly
    rows, ncol = X.shape[1:]
    u, s, vt = np.linalg.svd(X, full_matrices=False)
    tstat = np.full(X.shape[0], np.nan)
    full = np.flatnonzero(s[:, -1] > s[:, 0] * max(rows, ncol) * np.finfo(X.dtype).eps)
    X, z, u, s, vt = X[full], z[full], u[full], s[full], vt[full]
    w = vt.transpose(0, 2, 1) / s[:, None, :]  # V diag(1/s), so beta = w U'z
    beta = (w @ (u.transpose(0, 2, 1) @ z[:, :, None]))[:, :, 0]
    rss = ((z - (X @ beta[:, :, None])[:, :, 0]) ** 2).sum(axis=1)
    var = rss / (rows - ncol) * np.einsum("ij,ij->i", w[:, det], w[:, det])
    fit = rss > 0.0
    tstat[full[fit]] = beta[fit, det] / np.sqrt(var[fit])
    return tstat


def adf_batch(paths: np.ndarray, det: int, max_lags: int, autolag: bool):
    """t-ratios, lag counts and effective sample sizes of a (series x observations)
    float64 matrix; ``det`` is a ``SPEC_CODES`` value.  With ``autolag`` each
    series' lag count minimises AIC over ``0..max_lags`` on a common sample, with
    every count's RSS read off one Cholesky factor L of the Gram matrix of
    ``[X z]`` (on X's first m columns it is ``sum_{j >= m} L[-1, j]^2``), and
    its statistic is refit on the longest usable sample; otherwise it is ``max_lags``.
    The refit is one SVD of each design, which gives both the t-ratio and the rank:
    a series whose design is short of full rank, at ``matrix_rank``'s tolerance, or
    that it fits exactly gets a NaN statistic instead of a meaningless t-ratio.
    """
    n_rep, n_obs = paths.shape
    nd = n_obs - 1
    if autolag:
        rows_c = nd - max_lags
        Xfull, z = _adf_design(paths, det, max_lags, rows_c)
        ncol = Xfull.shape[2]
        Xt = Xfull.transpose(0, 2, 1)
        gram = np.empty((n_rep, ncol + 1, ncol + 1))
        gram[:, :ncol, :ncol] = Xt @ Xfull
        gram[:, :ncol, ncol] = gram[:, ncol, :ncol] = (Xt @ z[:, :, None])[:, :, 0]
        gram[:, ncol, ncol] = np.einsum("ij,ij->i", z, z)
        rss = np.cumsum(np.linalg.cholesky(gram)[:, -1, ::-1] ** 2, axis=1)[:, ::-1]
        k = np.arange(max_lags + 1)
        ic = rows_c * np.log(rss[:, det + 1 + k] / rows_c) + 2.0 * (det + 1 + k)
        lags = np.argmin(ic, axis=1)
    else:
        lags = np.full(n_rep, max_lags, dtype=np.int64)
    stats = np.empty(n_rep)
    nobs = np.empty(n_rep, dtype=np.int64)
    # np.unique would import numpy.ma (np.ma.is_masked), which run never needs
    for k in sorted(set(lags.tolist())):
        sel = np.flatnonzero(lags == k)
        rows = nd - k
        X, z = _adf_design(paths[sel], det, k, rows)
        stats[sel] = _adf_stats(X, z, det)
        nobs[sel] = rows
    return stats, lags, nobs


def rejection_order(trail: Sequence[dict | OcaError | None]) -> int | None:
    """The integration-order rule: the differencing order of the first of
    ``trail`` (level, first difference, ...) that rejects a unit root at the
    5% level, or ``None`` when none does."""
    return next((order for order, result in enumerate(trail)
                 if isinstance(result, dict) and result["reject_at"] is not None
                 and result["reject_at"] <= 0.05), None)

