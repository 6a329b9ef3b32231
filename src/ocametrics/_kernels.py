"""Hot numeric kernels, vectorized in numpy.

Kernel surface:

``adf_batch(paths, det, max_lags, autolag)``
    Unit-root regression t-ratios for a batch of series.  ``det`` is the
    deterministic spec (0 none, 1 constant, 2 constant + trend).  With
    ``autolag`` the lag count is chosen per series by AIC over
    ``0..max_lags`` on a common sample, then the statistic is recomputed on
    the longest usable sample; otherwise the lag count is ``max_lags``.
    The regressions are batched across series.

``var_simulate(coefs, intercept, shocks)``
    VAR recursion ``x_t = c + sum_i B_i x_{t-i} + u_t`` with zero initial
    conditions, evaluated as a blocked scan over the companion form.
"""

from __future__ import annotations

import numpy as np

from .var import companion_matrix

BACKEND = "numpy"

# Steps per block of the simulation scan: the in-block products are one
# matmul, and only one companion-state step per block is sequential.
SIM_BLOCK = 64


def _adf_design(paths, det, max_lags, start, rows):
    # stacked design (n_rep, rows, det + 1 + max_lags) and regressand
    n_rep = paths.shape[0]
    dy = np.diff(paths, axis=1)
    cols = [np.broadcast_to(np.ones(rows), (n_rep, rows))]
    if det >= 2:
        trend = np.arange(1.0, rows + 1.0)
        cols.append(np.broadcast_to(trend, (n_rep, rows)))
    if det == 0:
        cols = []
    cols.append(paths[:, start:start + rows])
    for i in range(max_lags):
        cols.append(dy[:, start - 1 - i:start - 1 - i + rows])
    X = np.stack(cols, axis=2)
    z = dy[:, start:start + rows]
    return X, z


def _adf_stats(X, z, det):
    # batched OLS t-ratio on the level column (index det)
    ncol = X.shape[2]
    rows = X.shape[1]
    Xt = X.transpose(0, 2, 1)
    XtX = Xt @ X
    Xtz = Xt @ z[:, :, None]
    XtXinv = np.linalg.inv(XtX)
    beta = XtXinv @ Xtz
    resid = z - (X @ beta)[:, :, 0]
    rss = np.einsum("ij,ij->i", resid, resid)
    s2 = rss / (rows - ncol)
    tstat = beta[:, det, 0] / np.sqrt(s2 * XtXinv[:, det, det])
    return tstat, rss


def adf_batch(paths: np.ndarray, det: int, max_lags: int, autolag: bool):
    """t-ratios, lag counts and effective sample sizes for a batch of series."""
    paths = np.ascontiguousarray(paths, dtype=np.float64)
    if paths.ndim != 2:
        raise ValueError("paths must be 2-D (replications x observations)")
    det, max_lags = int(det), int(max_lags)
    n_rep, n_obs = paths.shape
    nd = n_obs - 1
    if autolag:
        rows_c = nd - max_lags
        Xfull, z = _adf_design(paths, det, max_lags, max_lags, rows_c)
        best_ic = np.full(n_rep, np.inf)
        best_k = np.zeros(n_rep, dtype=np.int64)
        for k in range(max_lags + 1):
            _, rss = _adf_stats(Xfull[:, :, :det + 1 + k], z, det)
            ic = rows_c * np.log(rss / rows_c) + 2.0 * (det + 1 + k)
            better = ic < best_ic
            best_ic = np.where(better, ic, best_ic)
            best_k = np.where(better, k, best_k)
        lags = best_k
    else:
        lags = np.full(n_rep, max_lags, dtype=np.int64)
    stats = np.empty(n_rep)
    nobs = np.empty(n_rep, dtype=np.int64)
    for k in np.unique(lags):
        sel = np.flatnonzero(lags == k)
        rows = nd - k
        X, z = _adf_design(paths[sel], det, int(k), int(k), rows)
        tstat, _ = _adf_stats(X, z, det)
        stats[sel] = tstat
        nobs[sel] = rows
    return stats, lags, nobs


def var_simulate(coefs: np.ndarray, intercept: np.ndarray, shocks: np.ndarray) -> np.ndarray:
    """Run the VAR recursion over a pre-drawn shock matrix.

    With the companion state ``s_t = (x_t, ..., x_{t-p+1})`` and
    ``w_t = c + u_t``, each block of ``SIM_BLOCK`` steps is its lower
    block-Toeplitz product of impulse responses with ``w`` plus the
    response to the state carried in from the previous block.
    """
    coefs = np.ascontiguousarray(coefs, dtype=np.float64)
    shocks = np.ascontiguousarray(shocks, dtype=np.float64)
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
    w[:n_obs] = shocks + np.asarray(intercept, dtype=np.float64)
    w = w.reshape(n_blocks, L * n)
    own_state = w @ to_state.T
    carried = np.empty((n_blocks, m))
    state = np.zeros(m)
    for b in range(n_blocks):
        carried[b] = state
        state = powers[L] @ state + own_state[b]
    x = w @ toeplitz.T + carried @ from_state.T
    return x.reshape(n_blocks * L, n)[:n_obs]
