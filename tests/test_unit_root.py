import math

import numpy as np
import pytest

from ocametrics.errors import DegenerateRegressorError, TooShortError
from ocametrics.unit_root import (
    LEVELS,
    SPEC_CODES,
    AdfResult,
    adf_batch,
    adf_panel,
    adf_test,
    critical_values,
    rejection_order,
)


def _classic_df_tstat(y):
    """Two-column oracle: regress dy on the lagged level alone."""
    dy = np.diff(y)
    x = y[:-1]
    gamma = float(x @ dy) / float(x @ x)
    resid = dy - gamma * x
    s2 = float(resid @ resid) / (len(dy) - 1)
    return gamma / math.sqrt(s2 / float(x @ x))


class TestAdfTest:
    def test_fixed_zero_lag_none_spec_matches_direct_oracle(self):
        for seed in range(10):
            y = np.random.default_rng(seed).standard_normal(150).cumsum()
            res = adf_test(y, spec="none", lag_rule=0)
            assert abs(res.statistic - _classic_df_tstat(y)) < 1e-10
            assert res.lags_used == 0

    def test_affine_invariance_constant_and_trend(self):
        y = np.random.default_rng(3).standard_normal(160).cumsum()
        for spec in ("constant", "trend"):
            base = adf_test(y, spec=spec)
            shifted = adf_test(7.5 + 3.2 * y, spec=spec)
            assert abs(base.statistic - shifted.statistic) < 1e-8
            assert base.lags_used == shifted.lags_used

    def test_critical_values_ordered_and_reject_at_consistent(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            y = rng.standard_normal(140)
            if rng.uniform() < 0.5:
                y = y.cumsum()
            res = adf_test(y, spec="constant")
            cvs = res.critical_values
            assert cvs[0.01] < cvs[0.05] < cvs[0.10] < 0
            expected = next((lv for lv in LEVELS if res.statistic < cvs[lv]), None)
            assert res.reject_at == expected

    def test_response_surface_matches_statsmodels_constants(self):
        sm_values = pytest.importorskip("statsmodels.tsa.adfvalues")
        for spec, name in (("none", "nc"), ("constant", "c"), ("trend", "ct")):
            table = getattr(sm_values, f"tau_{name}_2010")[0]
            for nobs in (50, 131, 500):
                ours = critical_values(spec, nobs)
                for row, level in enumerate(LEVELS):
                    expected = np.polynomial.polynomial.polyval(1.0 / nobs, table[row])
                    assert abs(ours[level] - expected) < 1e-12

    def test_degenerate_and_short_inputs(self):
        with pytest.raises(DegenerateRegressorError):
            adf_test(np.full(100, 3.0), spec="constant")
        with pytest.raises(TooShortError):
            adf_test(np.arange(15.0), spec="constant", lag_rule=0)

    def test_spec_aliases(self):
        # the three names are the only input format; short forms are refused
        y = np.random.default_rng(0).standard_normal(100).cumsum()
        for spec in ("quadratic", "ct", "c", "nc", "n", "constant+trend"):
            with pytest.raises(ValueError, match="unknown deterministic spec"):
                adf_test(y, spec=spec)


def _mixed_series(rng):
    out = []
    for n in (133, 132, 131, 60, 133, 45):
        walk = rng.standard_normal(n).cumsum()
        out += [walk, np.diff(walk), 0.05 * np.arange(n) + rng.standard_normal(n),
                walk.cumsum()]
    return out


class TestAdfPanel:
    @pytest.mark.parametrize("lag_rule", ["aic", 0, 3])
    @pytest.mark.parametrize("spec", ["none", "constant", "trend"])
    def test_matches_per_series_bit_for_bit(self, spec, lag_rule):
        series = _mixed_series(np.random.default_rng(11))
        panel = adf_panel(series, spec=spec, max_lags=8, lag_rule=lag_rule)
        assert panel == [adf_test(s, spec=spec, max_lags=8, lag_rule=lag_rule)
                         for s in series]

    def test_refused_series_get_their_error_in_place(self):
        walk = np.random.default_rng(3).standard_normal(100).cumsum()
        panel = adf_panel([walk, np.full(100, 3.0), walk[:25], walk[:40]], spec="constant")
        assert panel[0] == adf_test(walk, spec="constant")
        assert panel[3] == adf_test(walk[:40], spec="constant")
        for result, series in zip(panel[1:3], (np.full(100, 3.0), walk[:25])):
            with pytest.raises(type(result)) as excinfo:
                adf_test(series, spec="constant")
            assert str(excinfo.value) == str(result)
        assert isinstance(panel[1], DegenerateRegressorError)
        assert str(panel[2]) == "need >= 33 observations with 12 lags, have 25"

    @pytest.mark.parametrize("lag_rule", ["aic", 0])
    def test_singular_design_is_refused_on_its_own(self, lag_rule):
        # a line: its level is affine in the trend and its differences copy
        # the intercept; under "aic" numpy's batched solvers raise for the
        # whole stack, and at a fixed lag the refit's rank check refuses it
        linear = 4.6 + 0.01 * np.arange(133)
        walk = np.random.default_rng(5).standard_normal(133).cumsum()
        panel = adf_panel([linear, walk], lag_rule=lag_rule)
        assert isinstance(panel[0], DegenerateRegressorError)
        assert str(panel[0]) == "regression is numerically degenerate"
        assert panel[1] == adf_panel([walk], lag_rule=lag_rule)[0]

    @pytest.mark.parametrize("lag_rule", ["aic", 2])
    def test_non_finite_series_is_refused_up_front(self, capfd, lag_rule):
        walk = np.random.default_rng(4).standard_normal(100).cumsum()
        for value in (np.nan, np.inf, -np.inf):
            series = walk.copy()
            series[5] = value
            panel = adf_panel([series, walk], lag_rule=lag_rule)
            assert isinstance(panel[0], DegenerateRegressorError)
            assert str(panel[0]) == "series holds a non-finite value"
            assert panel[1] == adf_test(walk, lag_rule=lag_rule)
        # no numpy warning (an error in this suite) and no LAPACK message
        assert capfd.readouterr() == ("", "")

    def test_empty_panel(self):
        assert adf_panel([]) == []


class TestMonteCarlo:
    def test_random_walk_rarely_rejected_at_5pct_trend_spec(self):
        rng = np.random.default_rng(2026)
        paths = rng.standard_normal((1000, 133)).cumsum(axis=1)
        stats, _, nobs = adf_batch(paths, SPEC_CODES["trend"], 12, True)
        cv5 = np.array([critical_values("trend", n)[0.05] for n in nobs])
        no_reject = np.mean(stats >= cv5)
        assert no_reject >= 0.90

    def test_trend_stationary_power_at_5pct(self):
        rng = np.random.default_rng(2027)
        t = np.arange(133, dtype=np.float64)
        paths = 0.2 * t + rng.standard_normal((1000, 133))
        stats, _, nobs = adf_batch(paths, SPEC_CODES["trend"], 12, True)
        cv5 = np.array([critical_values("trend", n)[0.05] for n in nobs])
        assert np.mean(stats < cv5) >= 0.90

    def test_size_window_constant_spec(self):
        # 5000-replication smoke check at T=200; the full 10k run is in the
        # acceptance suite
        rng = np.random.default_rng(2028)
        paths = rng.standard_normal((5000, 200)).cumsum(axis=1)
        stats, _, nobs = adf_batch(paths, SPEC_CODES["constant"], 0, False)
        cv5 = critical_values("constant", int(nobs[0]))[0.05]
        rate = np.mean(stats < cv5)
        assert 0.03 <= rate <= 0.07


def _trail(series, spec, max_order=2):
    """ADF tests of ``series`` differenced 0..max_order times."""
    return [adf_test(np.diff(series, n=order), spec=spec) for order in range(max_order + 1)]


class TestIntegrationOrder:
    def test_stationary_ar1_is_order_zero_majority(self):
        orders = []
        for seed in range(51):
            rng = np.random.default_rng(1000 + seed)
            eps = rng.standard_normal(134)
            y = np.empty(133)
            y[0] = eps[0]
            for t in range(1, 133):
                y[t] = 0.5 * y[t - 1] + eps[t]
            orders.append(rejection_order(_trail(y, "constant")))
        assert np.median(orders) == 0

    def test_random_walk_is_order_one_majority(self):
        orders = []
        for seed in range(51):
            y = np.random.default_rng(2000 + seed).standard_normal(133).cumsum()
            orders.append(rejection_order(_trail(y, "constant")))
        assert np.median(orders) == 1

    def test_trail_records_every_level(self):
        y = np.random.default_rng(5).standard_normal(133).cumsum()
        trail = _trail(y, "constant")
        order = rejection_order(trail)
        assert order is not None and trail[order].reject_at <= 0.05
        for res in trail[:order]:
            assert res.reject_at is None or res.reject_at > 0.05

    def test_skips_refusals_and_ten_percent_rejections(self):
        cvs = critical_values("constant", 120)

        def result(reject_at):
            return AdfResult(statistic=-1.0, lags_used=0, spec="constant", nobs=120,
                             critical_values=cvs, reject_at=reject_at)

        refused = DegenerateRegressorError("series is constant")
        assert rejection_order([result(None), result(0.10), result(0.01)]) == 2
        assert rejection_order([refused, None, result(0.05)]) == 2
        assert rejection_order([result(0.10), refused, None]) is None
        assert rejection_order([]) is None


class TestTableFormatFixture:
    """Star coding for published-shape statistics (format fixture only)."""

    @pytest.mark.parametrize("statistic,expected", [
        (-1.443, None), (-5.678, 0.01), (-3.640, 0.05), (-3.20, 0.10)])
    def test_reject_levels_at_published_magnitudes(self, statistic, expected):
        cvs = critical_values("trend", 131)
        reject_at = next((lv for lv in LEVELS if statistic < cvs[lv]), None)
        assert reject_at == expected
        result = AdfResult(statistic=statistic, lags_used=1, spec="trend",
                           nobs=131, critical_values=cvs, reject_at=reject_at)
        stars = {None: "", 0.01: "***", 0.05: "**", 0.10: "*"}[result.reject_at]
        rendered = f"{result.statistic:.3f}{stars}"
        assert rendered in ("-1.443", "-5.678***", "-3.640**", "-3.200*")
