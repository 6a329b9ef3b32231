import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ocametrics.errors import (
    DateRangeError,
    LagWindowError,
    NoAdmissibleLagError,
    RankDeficientError,
    TooShortError,
)
from ocametrics.months import Month, month_range
from ocametrics.panel import VARIABLES, transform_pair
from ocametrics.simulate import Dgp, simulate, synthetic_panel
from ocametrics.var import (
    N_VARS,
    DummySpec,
    VarModel,
    _check_pair,
    _design,
    _dummy_columns,
    _information_criteria,
    arch_lm_test,
    companion_matrix,
    fit_var,
    portmanteau_test,
    select_lag,
    stability,
)

from .conftest import make_pair


def _simulated_pair(coefs, seed, n_obs, lower=((1.0, 0.0), (0.0, 1.0)),
                    intercept=(0.0, 0.0)):
    # a valid impact matrix follows from any lower-triangular long-run target
    coefs = np.asarray(coefs, dtype=float)
    impact = (np.eye(2) - coefs.sum(axis=0)) @ np.asarray(lower, dtype=float)
    dgp = Dgp(coefs=coefs, impact=impact,
              intercept=np.asarray(intercept, dtype=float), n_obs=n_obs, seed=seed)
    return make_pair(simulate(dgp).diffs)


class TestFitVar:
    def test_recovers_known_var1(self):
        b1 = np.array([[0.5, 0.0], [0.0, 0.3]])
        data = _simulated_pair([b1], seed=77, n_obs=10_000)
        model = fit_var(data, p=1)
        np.testing.assert_allclose(model.coefs[0], b1, atol=0.02)

    def test_white_noise_coefficients_within_three_stderr(self):
        hits = 0
        reps = 200
        for seed in range(reps):
            rng = np.random.default_rng(3000 + seed)
            data = make_pair(rng.standard_normal((300, 2)))
            model = fit_var(data, p=1)
            # independent OLS oracle for the standard errors
            y = np.column_stack([data[0].values, data[1].values])
            X = np.column_stack([np.ones(299), y[:-1]])
            xtx_inv = np.linalg.inv(X.T @ X)
            ok = True
            for a in range(2):
                beta = xtx_inv @ (X.T @ y[1:, a])
                resid = y[1:, a] - X @ beta
                s2 = resid @ resid / (299 - 3)
                se = np.sqrt(s2 * np.diag(xtx_inv))
                lag_coef = model.coefs[0][a]
                lag_se = se[1:]
                ok &= bool(np.all(np.abs(lag_coef) < 3.0 * lag_se))
            hits += ok
        assert hits / reps >= 0.95

    def test_sigma_matches_accumulation_oracle(self):
        data = _simulated_pair([np.array([[0.4, 0.1], [0.0, 0.2]])],
                               seed=5, n_obs=500, lower=[[1.0, 0.0], [0.4, 0.8]])
        model = fit_var(data, p=2)
        acc = np.zeros((2, 2))
        for row in model.residuals:
            acc += np.outer(row, row)
        acc /= model.residuals.shape[0]
        np.testing.assert_allclose(model.sigma, acc, atol=1e-12)
        np.testing.assert_allclose(model.sigma, model.sigma.T, atol=1e-15)

    def test_residuals_orthogonal_to_regressors(self):
        data = _simulated_pair([np.array([[0.3, 0.2], [0.1, 0.4]])],
                               seed=6, n_obs=800)
        model = fit_var(data, p=3)
        y = np.column_stack([data[0].values, data[1].values])
        rows = y.shape[0] - 3
        X = np.column_stack([np.ones(rows)]
                            + [y[3 - 1 - i:y.shape[0] - 1 - i] for i in range(3)])
        cross = X.T @ model.residuals
        assert np.abs(cross).max() / rows < 1e-8

    def test_residual_row_count_and_dates(self):
        data = _simulated_pair([np.zeros((2, 2))], seed=1, n_obs=120)
        model = fit_var(data, p=4)
        assert model.nobs == 116
        assert model.effective_dates == data[0].dates[4:]

    def test_zero_variance_input_is_rank_deficient(self):
        data = make_pair(np.ones((80, 2)))
        with pytest.raises(RankDeficientError):
            fit_var(data, p=1)

    def test_collinear_design_is_rank_deficient(self):
        # price growth is exactly twice activity growth: the lag columns are collinear
        x = np.random.default_rng(0).standard_normal(80)
        with pytest.raises(RankDeficientError):
            fit_var(make_pair(np.column_stack([x, 2.0 * x])), p=2)

    def test_too_short(self):
        data = make_pair(np.random.default_rng(0).standard_normal((14, 2)))
        with pytest.raises(TooShortError):
            fit_var(data, p=2)

    def test_consistency_error_shrinks_with_sample(self):
        b1 = np.array([[0.5, 0.1], [0.0, 0.3]])
        medians = []
        for n_obs in (500, 5_000, 50_000):
            errors = []
            for seed in range(15):
                data = _simulated_pair([b1], seed=9000 + seed, n_obs=n_obs)
                model = fit_var(data, p=1)
                errors.append(np.abs(model.coefs[0] - b1).max())
            medians.append(np.median(errors))
        assert medians[0] > medians[1] > medians[2]


class TestDummies:
    def test_step_dummy_absorbs_level_shift(self):
        rng = np.random.default_rng(21)
        values = rng.standard_normal((200, 2)) * 0.1
        dates = month_range(Month(2009, 2), 200)
        break_date = dates[120]
        shift = np.array([d >= break_date for d in dates], dtype=float)
        values[:, 0] += 0.5 * shift
        data = make_pair(values)
        spec = DummySpec(variable="activity", break_date=break_date, form="step")
        model = fit_var(data, p=1, dummies=[spec])
        assert abs(model.exog_coefficients[0, 0] - 0.5) < 0.1
        assert abs(model.exog_coefficients[1, 0]) < 0.1

    def test_break_outside_sample_rejected(self):
        data = make_pair(np.random.default_rng(0).standard_normal((100, 2)))
        from ocametrics.errors import DateRangeError
        spec = DummySpec(variable="price", break_date=Month(1990, 1))
        with pytest.raises(DateRangeError):
            fit_var(data, p=1, dummies=[spec])

    @pytest.mark.parametrize("form, first_valid", [("pulse", 3), ("step", 4)])
    def test_dummy_in_lag_rows_refused(self, form, first_valid):
        # at p = 3 a pulse needs row >= 3 and a step row >= 4 to be estimable
        data = make_pair(np.random.default_rng(0).standard_normal((100, 2)))
        dates = data[0].dates
        for row in range(first_valid):
            spec = DummySpec(variable="price", break_date=dates[row], form=form)
            with pytest.raises(DateRangeError, match=spec.label()):
                fit_var(data, p=3, dummies=[spec])
        spec = DummySpec(variable="price", break_date=dates[first_valid], form=form)
        assert fit_var(data, p=3, dummies=[spec]).dummies == (spec,)

    def test_invalid_spec_fields(self):
        with pytest.raises(ValueError):
            DummySpec(variable="gdp", break_date=Month(2010, 1))
        with pytest.raises(ValueError):
            DummySpec(variable="price", break_date=Month(2010, 1), form="ramp")


class TestStability:
    def test_diagonal_case(self):
        data = _simulated_pair([np.array([[0.5, 0.0], [0.0, 0.3]])],
                               seed=2, n_obs=5000)
        model = fit_var(data, p=1)
        res = stability(model)
        assert res.stable
        np.testing.assert_allclose(res.moduli, (0.5, 0.3), atol=0.03)

    def test_unit_root_not_stable(self):
        model = _manual_model(coefs=np.eye(2)[None, :, :])
        res = stability(model)
        assert not res.stable
        assert abs(res.max_modulus - 1.0) < 1e-12

    def test_triangular_case(self):
        model = _manual_model(coefs=np.array([[[0.9, 0.5], [0.0, 0.9]]]))
        res = stability(model)
        assert res.stable
        np.testing.assert_allclose(res.moduli, (0.9, 0.9), atol=1e-12)

    def test_companion_shape(self):
        coefs = np.zeros((3, 2, 2))
        assert companion_matrix(coefs).shape == (6, 6)

    def test_flag_agrees_with_explicit_simulation(self):
        from ocametrics.simulate import var_simulate

        stable_coefs = np.array([[[0.7, 0.1], [0.0, 0.6]]])
        unstable_coefs = np.array([[[1.05, 0.0], [0.0, 0.2]]])
        assert stability(_manual_model(stable_coefs)).stable
        assert not stability(_manual_model(unstable_coefs)).stable
        magnitudes = {}
        for name, coefs in (("stable", stable_coefs), ("unstable", unstable_coefs)):
            finals = []
            for seed in range(21):
                shocks = np.random.default_rng(seed).standard_normal((500, 2))
                path = var_simulate(coefs, np.zeros(2), shocks)
                finals.append(np.abs(path[-1]).max())
            magnitudes[name] = np.median(finals)
        assert magnitudes["unstable"] / magnitudes["stable"] > 1e6


def _manual_model(coefs, residuals=None, sigma=None, p=None):
    coefs = np.asarray(coefs, dtype=float)
    p = p or coefs.shape[0]
    if residuals is None:
        residuals = np.random.default_rng(0).standard_normal((200, 2))
    if sigma is None:
        sigma = residuals.T @ residuals / residuals.shape[0]
    dates = month_range(Month(2009, 2 + p), residuals.shape[0])
    return VarModel(p=p, intercept=np.zeros(2), coefs=coefs, dummies=(),
                    exog_coefficients=np.zeros((2, 0)), residuals=residuals,
                    sigma=np.asarray(sigma, dtype=float), effective_dates=dates)


class TestPortmanteau:
    def test_h_must_exceed_p(self):
        model = _manual_model(np.zeros((3, 2, 2)))
        with pytest.raises(LagWindowError):
            portmanteau_test(model, h=3)
        with pytest.raises(LagWindowError):
            portmanteau_test(model, h=model.residuals.shape[0])

    def test_size_on_fitted_white_noise(self):
        reps = 5000
        rejections = 0
        dates = month_range(Month(2009, 2), 1000)
        from ocametrics.panel import TransformedSeries
        for seed in range(reps):
            rng = np.random.default_rng(40_000 + seed)
            values = rng.standard_normal((1000, 2))
            data = (TransformedSeries("AAA", "activity", dates, values[:, 0]),
                    TransformedSeries("AAA", "price", dates, values[:, 1]))
            model = fit_var(data, p=1)
            rejections += portmanteau_test(model, h=12).p_value < 0.05
        assert 0.03 <= rejections / reps <= 0.07

    def test_power_against_ar1_residuals(self):
        reps = 300
        rejections = 0
        for seed in range(reps):
            rng = np.random.default_rng(50_000 + seed)
            eps = rng.standard_normal((1000, 2))
            u = np.empty_like(eps)
            u[0] = eps[0]
            for t in range(1, 1000):
                u[t] = 0.5 * u[t - 1] + eps[t]
            model = _manual_model(np.zeros((1, 2, 2)), residuals=u)
            rejections += portmanteau_test(model, h=12).p_value < 0.05
        assert rejections / reps >= 0.95

    def test_df_formula(self):
        model = _manual_model(np.zeros((2, 2, 2)))
        assert portmanteau_test(model, h=12).df == 4 * (12 - 2)

    @pytest.mark.parametrize("p, h", [(1, 2), (1, 12), (2, 3), (3, 4), (3, 12), (4, 24)])
    def test_matches_explicit_loop_oracle(self, p, h):
        # Lütkepohl (2005), eq. 4.4.23:
        # T^2 sum_j tr(C_j' C_0^-1 C_j C_0^-1) / (T - j), df = K^2 (h - p)
        b = np.array([[[0.4, 0.1], [0.0, 0.3]], [[0.1, 0.0], [0.05, 0.1]],
                      [[0.05, 0.0], [0.0, 0.05]], [[0.0, 0.02], [0.02, 0.0]]])
        model = fit_var(_simulated_pair(b, seed=60 + p, n_obs=300), p=p)
        u = model.residuals
        t_eff, k = u.shape

        def autocov(j):
            c = np.zeros((k, k))
            for t in range(j, t_eff):
                c += np.outer(u[t], u[t - j])
            return c / t_eff

        c0_inv = np.linalg.inv(autocov(0))
        expected = 0.0
        for j in range(1, h + 1):
            cj = autocov(j)
            expected += np.trace(cj.T @ c0_inv @ cj @ c0_inv) / (t_eff - j)
        expected *= t_eff**2
        result = portmanteau_test(model, h)
        assert result.statistic == pytest.approx(expected, rel=1e-12)
        assert result.df == k * k * (h - p)
        assert result.p_value == pytest.approx(stats.chi2.sf(expected, k * k * (h - p)),
                                               rel=1e-9, abs=1e-300)

    def test_matches_statsmodels_whiteness(self):
        sm_var = pytest.importorskip("statsmodels.tsa.api").VAR
        y = np.random.default_rng(0).standard_normal((500, 2))
        expected = sm_var(y).fit(1, trend="c").test_whiteness(nlags=12, adjusted=True)
        model = fit_var(make_pair(y), p=1)
        mine = portmanteau_test(model, h=12)
        assert abs(mine.statistic - expected.test_statistic) < 1e-8
        assert mine.df == expected.df
        assert abs(mine.p_value - expected.pvalue) < 1e-10


class TestArchLm:
    def test_size_iid(self):
        reps = 5000
        rejections = 0
        for seed in range(reps):
            u = np.random.default_rng(60_000 + seed).standard_normal(1000)
            rejections += arch_lm_test(u, q=4).p_value < 0.05
        assert 0.03 <= rejections / reps <= 0.07

    def test_power_against_arch1(self):
        reps = 300
        rejections = 0
        for seed in range(reps):
            rng = np.random.default_rng(70_000 + seed)
            z = rng.standard_normal(500)
            u = np.empty(500)
            u[0] = z[0]
            for t in range(1, 500):
                u[t] = z[t] * np.sqrt(1.0 + 0.5 * u[t - 1] ** 2)
            rejections += arch_lm_test(u, q=4).p_value < 0.05
        assert rejections / reps >= 0.90

    def test_constant_residuals_degenerate(self):
        res = arch_lm_test(np.full(100, 2.0), q=4)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_too_short(self):
        with pytest.raises(TooShortError):
            arch_lm_test(np.ones(20), q=4)


def test_pvalues_equal_scipy_stats():
    rng = np.random.default_rng(11)
    for p in (1, 2, 3):
        model = fit_var(make_pair(rng.standard_normal((240, 2))), p=p)
        port = portmanteau_test(model, h=12)
        assert port.p_value == float(stats.chi2.sf(port.statistic, port.df))
        for a in range(2):
            arch = arch_lm_test(model.residuals[:, a], q=4)
            assert arch.p_value == float(stats.chi2.sf(arch.statistic, arch.df))


class TestSelectLag:
    def test_sc_recovers_var2_order(self):
        b = np.array([[[0.35, 0.10], [0.05, 0.30]],
                      [[0.25, 0.00], [0.00, 0.25]]])
        hits = 0
        reps = 100
        for seed in range(reps):
            data = _simulated_pair(b, seed=80_000 + seed, n_obs=2000)
            hits += _information_criteria(data, 6, ())["sc"] == 2
        assert hits / reps >= 0.90

    def test_white_noise_passes_gate_at_one(self):
        passed_at_one = 0
        reps = 51
        for seed in range(reps):
            rng = np.random.default_rng(90_000 + seed)
            data = make_pair(rng.standard_normal((300, 2)))
            try:
                selection = select_lag(data, max_p=6)
            except NoAdmissibleLagError:
                continue
            passed_at_one += selection.p == 1
        assert passed_at_one / reps > 0.5

    def test_gate_trail_is_recorded(self):
        data = _simulated_pair([np.array([[0.4, 0.0], [0.0, 0.4]])],
                               seed=4, n_obs=400)
        selection = select_lag(data, max_p=6)
        assert selection.trail[-1].passed
        assert selection.trail[-1].p == selection.p
        assert set(selection.criterion_choices) == {"aic", "sc", "hq"}

    def test_no_admissible_lag_reports_trail(self):
        # strong MA(1) data keeps the serial-correlation check failing for
        # every small lag order
        rng = np.random.default_rng(17)
        eps = rng.standard_normal((501, 2))
        values = eps[1:] + 0.9 * eps[:-1]
        data = make_pair(values)
        with pytest.raises(NoAdmissibleLagError) as excinfo:
            select_lag(data, max_p=2)
        assert len(excinfo.value.trail) >= 1
        assert not excinfo.value.trail[-1].passed

    @pytest.mark.parametrize("month", [4, 8])
    def test_break_date_inside_first_max_p_months(self, fixture_panel, month):
        # the lag search trims max_p rows, but the break date is still
        # inside the sample that fit_var accepts
        data = transform_pair(fixture_panel, "C00")
        pulse = DummySpec("activity", Month(2009, month), form="pulse")
        selection = select_lag(data, max_p=12, dummies=(pulse,))
        assert fit_var(data, selection.p, (pulse,)).dummies == (pulse,)


def per_order_information_criteria(data, max_p, dummies):
    """The lag search as one lstsq fit per order on the common sample: the
    oracle for the nested search in ``_information_criteria``."""
    y, dates = _check_pair(data)
    t_common = y.shape[0] - max_p
    penalties = {"aic": 2.0, "sc": float(np.log(t_common)),
                 "hq": 2.0 * float(np.log(np.log(t_common)))}
    dummy_cols = _dummy_columns(dummies, dates)
    values = {c: [] for c in penalties}
    for p in range(1, max_p + 1):
        offset = max_p - p
        X, z = _design(y[offset:], p, dummy_cols[offset:])
        beta, *_ = np.linalg.lstsq(X, z, rcond=None)
        resid = z - X @ beta
        _, logdet = np.linalg.slogdet(resid.T @ resid / t_common)
        n_params = N_VARS * (1 + N_VARS * p + len(dummies))
        for c in penalties:
            values[c].append(logdet + penalties[c] * n_params / t_common)
    return {c: int(np.argmin(values[c])) + 1 for c in penalties}


# a break offset relative to max_p, where the common sample starts
_DUMMY = st.tuples(st.sampled_from(VARIABLES), st.integers(-3, 18),
                   st.sampled_from(["step", "pulse"]))


class TestInformationCriteria:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), max_p=st.integers(1, 12),
           n_obs=st.sampled_from([60, 132, 240]), ar=st.floats(-0.9, 0.9),
           collinear=st.sampled_from([None, 1e-2, 1e-3, 1e-4]),
           dummies=st.lists(_DUMMY, max_size=3, unique_by=lambda d: d[1:]))
    def test_picks_equal_per_order_fits(self, seed, max_p, n_obs, ar, collinear, dummies):
        # break dates fall before, at and inside the common sample, which
        # starts max_p months in; a step there, or a pulse before it, is
        # constant on it, and a pulse at its first month plus a step at the
        # next add up to the intercept.  ``collinear`` makes price a near copy
        # of activity, and log det(sigma) then carries a rounding error of
        # about cond(sigma) * eps, so two orders' criteria can tie within it
        # and either search may rank them either way: at 1e-5 cond(sigma) is
        # 5e10, and HQ at p = 1 and p = 3 differ by 2e-5 (seed 24, max_p 6,
        # 132 rows, ar 0.6035, a step 24 months in); at 1e-6 the errors reach
        # 1e-3.  Hence the fixed examples (derandomize) at the levels down to 1e-4.
        rng = np.random.default_rng(seed)
        eps = rng.standard_normal((n_obs, 2))
        values = np.empty_like(eps)
        values[0] = eps[0]
        for t in range(1, n_obs):
            values[t] = ar * values[t - 1] + eps[t]
        if collinear is not None:
            values[:, 1] = values[:, 0] + collinear * eps[:, 1]
        data = make_pair(values)
        specs = tuple(DummySpec(v, data[0].dates[max(max_p + offset, 0)], form)
                      for v, offset, form in dummies)
        assert (_information_criteria(data, max_p, specs)
                == per_order_information_criteria(data, max_p, specs))

    @pytest.mark.parametrize("form", ["step", "pulse"])
    @pytest.mark.parametrize("month", [Month(2009, 4), Month(2010, 1), Month(2010, 2),
                                       Month(2010, 3), Month(2012, 6)])
    def test_picks_equal_per_order_fits_on_the_fixture(self, fixture_panel, form, month):
        # with max_p 12 the common sample starts at 2010-02
        for country in fixture_panel.countries:
            data = transform_pair(fixture_panel, country)
            dummy = (DummySpec("activity", month, form),)
            assert (_information_criteria(data, 12, dummy)
                    == per_order_information_criteria(data, 12, dummy))

    def test_step_before_the_common_sample_is_left_out(self):
        # the step is constant on the common sample; kept in the QR it would
        # make the design rank-deficient and the AIC pick 2
        data = transform_pair(synthetic_panel(20260404, 1, 133), "C00")
        step = (DummySpec("activity", Month(2009, 4), "step"),)
        assert per_order_information_criteria(data, 12, step)["aic"] == 8
        assert _information_criteria(data, 12, step) == {"aic": 8, "sc": 1, "hq": 1}

    def test_pulse_and_step_that_add_up_to_the_intercept(self, fixture_panel):
        # on the common sample a pulse at its first month plus a step at the
        # next is a column of ones: both dummies vary, yet the pair lies in
        # the intercept's span.  Kept in the QR, they would leave R singular
        # and the HQ pick 2 here
        data = transform_pair(synthetic_panel(20260404, 7, 133), "C01")
        pair = (DummySpec("activity", Month(2009, 10), "pulse"),
                DummySpec("price", Month(2009, 11), "step"))
        assert per_order_information_criteria(data, 8, pair) == {"aic": 3, "sc": 1, "hq": 1}
        assert _information_criteria(data, 8, pair) == {"aic": 3, "sc": 1, "hq": 1}
        pair = (DummySpec("activity", Month(2010, 2), "pulse"),
                DummySpec("activity", Month(2010, 3), "step"))
        for country in fixture_panel.countries:
            data = transform_pair(fixture_panel, country)
            assert (_information_criteria(data, 12, pair)
                    == per_order_information_criteria(data, 12, pair))

    def test_no_least_squares_fit(self, fixture_panel, monkeypatch):
        fits, lstsq = [], np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *args, **kwargs: fits.append(args) or lstsq(*args, **kwargs))
        data = transform_pair(fixture_panel, "C00")
        _information_criteria(data, 12, (DummySpec("price", Month(2012, 6)),))
        assert fits == []
