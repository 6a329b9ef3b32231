import numpy as np
import pytest

from ocametrics.errors import DateRangeError, UnstableModelError
from ocametrics.identification import StructuralModel, identify_bq
from ocametrics.months import Month, month_range
from ocametrics.panel import panel_to_csv
from ocametrics.simulate import (
    BURN_IN,
    Dgp,
    RecoveryReport,
    panel_from_diffs,
    random_dgp,
    recovery_report,
    simulate,
    synthetic_panel,
    var_simulate,
)
from ocametrics.var import fit_var

from .conftest import count_calls, make_pair


class TestDgp:
    def test_identity_dgp_passes_shocks_through(self):
        dgp = Dgp(coefs=np.zeros((1, 2, 2)), impact=np.eye(2),
                  intercept=np.zeros(2), n_obs=200, seed=9)
        sample = simulate(dgp)
        np.testing.assert_array_equal(sample.diffs, sample.shocks)

    def test_same_seed_bit_identical(self):
        dgp = random_dgp(31, p=2, n_obs=300)
        a = simulate(dgp)
        b = simulate(dgp)
        assert np.array_equal(a.diffs, b.diffs)
        assert np.array_equal(a.shocks, b.shocks)

    def test_different_seeds_differ(self):
        a = simulate(random_dgp(1, p=1, n_obs=100))
        b = simulate(random_dgp(2, p=1, n_obs=100))
        assert not np.array_equal(a.diffs, b.diffs)

    def test_innovation_covariance_matches_impact(self):
        dgp = random_dgp(55, p=1, n_obs=100_000)
        sample = simulate(dgp)
        # reduced-form innovations of the zero-lag part: u = impact @ shocks
        u = sample.shocks @ np.asarray(dgp.impact).T
        target = np.asarray(dgp.impact) @ np.asarray(dgp.impact).T
        np.testing.assert_allclose(u.T @ u / u.shape[0], target, atol=0.02)

    def test_unstable_dgp_rejected(self):
        with pytest.raises(UnstableModelError):
            Dgp(coefs=np.eye(2)[None, :, :], impact=np.eye(2),
                intercept=np.zeros(2), n_obs=100, seed=0)

    def test_restriction_violation_rejected(self):
        with pytest.raises(ValueError):
            Dgp(coefs=np.zeros((1, 2, 2)), impact=np.array([[1.0, 0.5], [0.0, 1.0]]),
                intercept=np.zeros(2), n_obs=100, seed=0)

    def test_burn_in_discarded(self):
        dgp = random_dgp(8, p=1, n_obs=50)
        sample = simulate(dgp)
        assert sample.diffs.shape == (50, 2)
        assert BURN_IN == 500


def _identity_dgp(**changes):
    return Dgp(**{"coefs": np.zeros((1, 2, 2)), "impact": np.eye(2),
                  "intercept": np.zeros(2), "n_obs": 100, **changes})


@pytest.mark.parametrize("call, message", [
    (lambda: _identity_dgp(coefs=np.zeros((2, 2))), "coefs must have shape (p, 2, 2)"),
    (lambda: _identity_dgp(n_obs=0), "n_obs must be >= 1"),
    (lambda: _identity_dgp(impact=-np.eye(2)), "long-run diagonal must be positive"),
    (lambda: random_dgp(0, p=7), "p must be in 1..6"),
    (lambda: panel_from_diffs({"AAA": np.zeros((3, 2)), "BBB": np.zeros((4, 2))},
                              Month(2009, 1)),
     "all countries must have the same number of observations"),
    (lambda: synthetic_panel(0, 2, 1), "n_months must be >= 2"),
], ids=["dgp-coefs", "dgp-n-obs", "dgp-long-run-sign", "random-dgp-p", "diffs-lengths",
        "synthetic-months"])
def test_entry_point_refuses_bad_arguments(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


class TestRecoveryReport:
    def test_perfect_recovery(self):
        dgp = random_dgp(21, p=1, n_obs=400)
        sample = simulate(dgp)
        fitted = StructuralModel(
            a0=np.asarray(dgp.impact), long_run=np.asarray(dgp.long_run_impact),
            shocks=sample.shocks,
            dates=month_range(Month(2009, 2), dgp.n_obs))
        report = recovery_report(dgp, fitted)
        assert report.a0_error_max == 0.0
        assert report.supply_correlation == pytest.approx(1.0)
        assert report.demand_correlation == pytest.approx(1.0)
        assert report.sign_agreement

    def test_fitted_round_trip_quality(self):
        dgp = random_dgp(77, p=2, n_obs=10_000)
        data = make_pair(simulate(dgp).diffs)
        svar = identify_bq(fit_var(data, p=2))
        report = recovery_report(dgp, svar)
        assert report.a0_error_max < 0.05
        assert report.supply_correlation > 0.95
        assert report.demand_correlation > 0.95
        assert report.sign_agreement

    def test_reads_the_draws_without_simulating(self, monkeypatch):
        dgp = random_dgp(77, p=2, n_obs=2_000)
        svar = identify_bq(fit_var(make_pair(simulate(dgp).diffs), p=2))
        sims = count_calls(monkeypatch, var_simulate)
        report = recovery_report(dgp, svar)
        assert sims == []
        truth = simulate(dgp).shocks[2:]
        supply = float(np.corrcoef(svar.shocks[:, 0], truth[:, 0])[0, 1])
        demand = float(np.corrcoef(svar.shocks[:, 1], truth[:, 1])[0, 1])
        assert report == RecoveryReport(
            a0_error_max=float(np.max(np.abs(np.asarray(svar.a0) - np.asarray(dgp.impact)))),
            supply_correlation=supply, demand_correlation=demand, sign_agreement=True)

    def test_transposed_impact_flips_sign_agreement(self):
        impact = np.array([[1.0, 0.0], [-2.0, 1.0]])
        dgp = Dgp(coefs=np.zeros((1, 2, 2)), impact=impact,
                  intercept=np.zeros(2), n_obs=2000, seed=3)
        sample = simulate(dgp)
        wrong_a0 = impact.T
        shocks = np.linalg.solve(wrong_a0, (sample.shocks @ impact.T).T).T
        fitted = StructuralModel(a0=wrong_a0, long_run=wrong_a0,
                                 shocks=shocks,
                                 dates=month_range(Month(2009, 2), dgp.n_obs))
        report = recovery_report(dgp, fitted)
        assert not report.sign_agreement

    def test_calendar_mismatch(self):
        dgp = random_dgp(5, p=1, n_obs=100)
        fitted = StructuralModel(
            a0=np.eye(2), long_run=np.eye(2),
            shocks=np.zeros((150, 2)), dates=month_range(Month(2000, 1), 150))
        with pytest.raises(DateRangeError):
            recovery_report(dgp, fitted)


class TestPanelExport:
    def test_panel_from_diffs_round_trips_growth(self):
        rng = np.random.default_rng(4)
        diffs = {"AAA": rng.normal(0, 0.01, size=(24, 2))}
        panel = panel_from_diffs(diffs, start=Month(2015, 1))
        assert panel.n_months == 25
        logs = np.log(panel.series("AAA", "activity"))
        np.testing.assert_allclose(np.diff(logs), diffs["AAA"][:, 0], atol=1e-12)

    def test_synthetic_panel_shape_and_determinism(self):
        a = synthetic_panel(123, 3, 40)
        b = synthetic_panel(123, 3, 40)
        assert a.countries == ("C00", "C01", "C02")
        assert a.n_months == 40
        assert panel_to_csv(a) == panel_to_csv(b)

    def test_synthetic_panel_derived_seeds_differ_by_country(self):
        panel = synthetic_panel(5, 2, 30)
        assert not np.array_equal(panel.series("C00", "activity"),
                                  panel.series("C01", "activity"))
