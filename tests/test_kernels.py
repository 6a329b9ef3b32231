"""Kernel oracles: the batched unit-root regressions against dense per-series
least squares, their nested AIC search against one fit per lag count, and
the blocked VAR simulation against the explicit per-step recursion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocametrics import unit_root
from ocametrics.simulate import SIM_BLOCK, var_simulate
from ocametrics.unit_root import _adf_design, adf_batch
from ocametrics.var import companion_matrix

from .conftest import count_calls


def reference_var_simulate(coefs, intercept, shocks):
    """x_t = c + sum_i B_i x_{t-i} + u_t, one step at a time from x = 0."""
    p = coefs.shape[0]
    x = np.zeros_like(shocks)
    for t in range(shocks.shape[0]):
        acc = intercept + shocks[t]
        for i in range(min(p, t)):
            acc = acc + coefs[i] @ x[t - 1 - i]
        x[t] = acc
    return x


def reference_adf(y, det, max_lags, autolag):
    """t-ratio, lag and nobs from np.linalg.lstsq on the explicit design."""
    dy = np.diff(y)

    def regress(start, rows, k):
        t = np.arange(rows)
        cols = []
        if det >= 1:
            cols.append(np.ones(rows))
        if det >= 2:
            cols.append(t + 1.0)
        cols.append(y[start + t])
        cols += [dy[start + t - 1 - i] for i in range(k)]
        X = np.column_stack(cols)
        z = dy[start + t]
        beta, *_ = np.linalg.lstsq(X, z, rcond=None)
        resid = z - X @ beta
        rss = float(resid @ resid)
        # var(beta_j) = s^2 (X'X)^-1_jj = s^2 |row j of pinv(X)|^2
        se = np.sqrt(rss / (rows - X.shape[1]) * np.sum(np.linalg.pinv(X)[det] ** 2))
        return beta[det] / se, rss

    nd = dy.size
    if autolag:
        rows = nd - max_lags
        ics = [rows * np.log(regress(max_lags, rows, k)[1] / rows) + 2.0 * (det + 1 + k)
               for k in range(max_lags + 1)]
        k = int(np.argmin(ics))
    else:
        k = max_lags
    return regress(k, nd - k, k)[0], k, nd - k


@pytest.mark.parametrize("det", [0, 1, 2])
@pytest.mark.parametrize("autolag", [False, True])
def test_adf_paths_agree(det, autolag):
    max_lags = 4 if not autolag else 8
    for kind in ("walk", "near_trend"):
        paths = _adf_paths(np.random.default_rng(123 + det), kind, 40, 120)
        stats, lags, nobs = adf_batch(paths, det, max_lags, autolag)
        expected = [reference_adf(y, det, max_lags, autolag) for y in paths]
        np.testing.assert_array_equal(lags, [e[1] for e in expected], err_msg=kind)
        np.testing.assert_array_equal(nobs, [e[2] for e in expected], err_msg=kind)
        np.testing.assert_allclose(stats, [e[0] for e in expected], rtol=1e-9, atol=1e-11,
                                   err_msg=kind)
        if autolag and kind == "walk":
            assert len(set(lags.tolist())) > 1


def per_lag_adf_lags(paths, det, max_lags):
    """The AIC lag search as one batched normal-equation fit per lag count
    on the common sample: the oracle for ``adf_batch``'s nested search."""
    rows = paths.shape[1] - 1 - max_lags
    X, z = _adf_design(paths, det, max_lags, rows)
    best_ic = np.full(paths.shape[0], np.inf)
    best_k = np.zeros(paths.shape[0], dtype=np.int64)
    for k in range(max_lags + 1):
        Xk = X[:, :, :det + 1 + k]
        Xt = Xk.transpose(0, 2, 1)
        beta = np.linalg.inv(Xt @ Xk) @ (Xt @ z[:, :, None])
        resid = z - (Xk @ beta)[:, :, 0]
        rss = np.einsum("ij,ij->i", resid, resid)
        ic = rows * np.log(rss / rows) + 2.0 * (det + 1 + k)
        better = ic < best_ic
        best_ic = np.where(better, ic, best_ic)
        best_k = np.where(better, k, best_k)
    return best_k


def _adf_paths(rng, kind, n_rep, n_obs):
    eps = rng.standard_normal((n_rep, n_obs))
    if kind == "walk":
        return eps.cumsum(axis=1)
    if kind == "ar":  # |a1| + |a2| < 1: a stationary AR(2)
        a1, a2 = rng.uniform(-0.45, 0.45, size=2)
        out = eps.copy()
        for t in range(2, n_obs):
            out[:, t] += a1 * out[:, t - 1] + a2 * out[:, t - 2]
        return out
    if kind == "near_trend":  # a trend plus small noise: near-collinear columns
        return 4.6 + 0.01 * np.arange(n_obs) + 1e-4 * eps
    return np.diff(eps.cumsum(axis=1).cumsum(axis=1), n=2, axis=1)  # I(2) differenced


# fixed examples (derandomize): on the near-collinear paths two lag counts'
# criteria can tie within rounding, and either search may rank them either way
@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), det=st.sampled_from([0, 1, 2]),
       max_lags=st.integers(0, 12), n_rep=st.integers(1, 6),
       n_obs=st.sampled_from([40, 133, 241]),
       kind=st.sampled_from(["walk", "ar", "near_trend", "diff2"]))
def test_adf_lag_search_matches_per_lag_fits(seed, det, max_lags, n_rep, n_obs, kind):
    paths = _adf_paths(np.random.default_rng(seed), kind, n_rep, n_obs)
    _, lags, _ = adf_batch(paths, det, max_lags, True)
    np.testing.assert_array_equal(lags, per_lag_adf_lags(paths, det, max_lags))


@pytest.mark.parametrize("det", [0, 1, 2])
def test_adf_lag_search_matches_per_lag_fits_on_the_fixture(fixture_panel, det):
    levels = np.stack([np.log(fixture_panel.series(c, v))
                       for c in fixture_panel.countries for v in ("activity", "price")])
    for paths in (levels, np.diff(levels, axis=1), np.diff(levels, n=2, axis=1)):
        _, lags, _ = adf_batch(paths, det, 12, True)
        np.testing.assert_array_equal(lags, per_lag_adf_lags(paths, det, 12))


def test_adf_lag_search_follows_least_squares_on_an_explosive_path():
    # roots 0.53 and -1.11: the paths reach 1e6 in 133 steps.  The per-lag
    # normal-equation inverse is then too inexact to rank the orders (its
    # RSS grows when a lag is added) and, with OpenBLAS, picks 0 lags for
    # three of the six paths; the nested search picks what dense least
    # squares picks, and the SVD refit gives its statistics.
    eps = np.random.default_rng(60368).standard_normal((6, 133))
    paths = eps.copy()
    for t in range(2, 133):
        paths[:, t] += -0.584 * paths[:, t - 1] + 0.5895 * paths[:, t - 2]
    stats, lags, _ = adf_batch(paths, 0, 1, True)
    expected = [reference_adf(y, 0, 1, True) for y in paths]
    np.testing.assert_array_equal(lags, [e[1] for e in expected])
    np.testing.assert_allclose(stats, [e[0] for e in expected], rtol=1e-9)


def test_adf_autolag_refits_once_per_chosen_lag(monkeypatch):
    paths = np.random.default_rng(8).standard_normal((40, 133)).cumsum(axis=1)
    fits = count_calls(monkeypatch, unit_root._adf_stats)
    _, lags, _ = adf_batch(paths, 2, 12, True)
    assert len(fits) == len(np.unique(lags)) > 1


def test_var_simulate_paths_agree():
    rng = np.random.default_rng(5)
    coefs = np.array([[[0.4, 0.1], [0.0, 0.3]], [[0.1, 0.0], [0.05, 0.1]]])
    intercept = np.array([0.01, -0.02])
    shocks = rng.standard_normal((400, 2))
    a = reference_var_simulate(coefs, intercept, shocks)
    b = var_simulate(coefs, intercept, shocks)
    np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-14)


def _coefs_with_modulus(rng, p, modulus):
    # scaling B_i by a**i scales every companion eigenvalue by a
    coefs = rng.normal(0.0, 0.5 / p, size=(p, 2, 2))
    a = modulus / np.abs(np.linalg.eigvals(companion_matrix(coefs))).max()
    return coefs * (a ** np.arange(1, p + 1))[:, None, None]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       p=st.integers(1, 6),
       n_obs=st.sampled_from([1, SIM_BLOCK - 1, SIM_BLOCK, SIM_BLOCK + 1, 500, 10_500]),
       modulus=st.one_of(st.floats(0.05, 0.99), st.floats(1.0001, 1.02)))
def test_var_simulate_matches_recursion(seed, p, n_obs, modulus):
    rng = np.random.default_rng(seed)
    coefs = _coefs_with_modulus(rng, p, modulus)
    intercept = rng.normal(0.0, 0.1, size=2)
    shocks = rng.standard_normal((n_obs, 2))
    expected = reference_var_simulate(coefs, intercept, shocks)
    out = var_simulate(coefs, intercept, shocks)
    assert out.shape == expected.shape
    # an error at step t is judged against the path's size up to t, which
    # grows geometrically when the coefficients are unstable
    scale = 1.0 + np.maximum.accumulate(np.abs(expected).max(axis=1))
    assert np.all(np.abs(out - expected) <= 1e-10 * scale[:, None])


def test_var_simulate_zero_dynamics_passthrough():
    shocks = np.random.default_rng(1).standard_normal((50, 2))
    out = var_simulate(np.zeros((1, 2, 2)), np.zeros(2), shocks)
    np.testing.assert_array_equal(out, shocks)


def test_var_simulate_hand_recursion():
    # x_t = 0.5 x_{t-1} + u_t, scalar dynamics embedded in 2-D
    coefs = np.array([[[0.5, 0.0], [0.0, 0.0]]])
    shocks = np.zeros((4, 2))
    shocks[0, 0] = 1.0
    out = var_simulate(coefs, np.zeros(2), shocks)
    np.testing.assert_allclose(out[:, 0], [1.0, 0.5, 0.25, 0.125], rtol=1e-15)
    np.testing.assert_array_equal(out[:, 1], np.zeros(4))


def test_adf_batch_matches_statsmodels_fixed_lag():
    adfuller = pytest.importorskip("statsmodels.tsa.stattools").adfuller
    rng = np.random.default_rng(42)
    y = rng.standard_normal(180).cumsum()
    for det, regression in ((0, "n"), (1, "c"), (2, "ct")):
        for k in (0, 3):
            stats, lags, nobs = adf_batch(y[None, :], det, k, False)
            expected = adfuller(y, maxlag=k, regression=regression, autolag=None)
            assert abs(stats[0] - expected[0]) < 1e-8
            assert nobs[0] == expected[3]


def test_adf_batch_autolag_matches_statsmodels_choice():
    adfuller = pytest.importorskip("statsmodels.tsa.stattools").adfuller
    rng = np.random.default_rng(99)
    for seed in range(5):
        y = np.random.default_rng(seed).standard_normal(150).cumsum()
        y += 0.3 * np.roll(y, 1)  # induce short-run correlation
        stats, lags, nobs = adf_batch(y[None, :], 1, 8, True)
        expected = adfuller(y, maxlag=8, regression="c", autolag="aic")
        assert lags[0] == expected[2]
        assert abs(stats[0] - expected[0]) < 1e-8
    del rng
