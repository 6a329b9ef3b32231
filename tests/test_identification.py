import json
import math

import numpy as np
import pytest

from ocametrics.errors import SigmaNotPositiveDefiniteError, UnstableModelError, ZeroLongRunError
from ocametrics.identification import (
    SHOCK_KINDS,
    StructuralModel,
    _coefficient_sum_inverse,
    identify_bq,
    irf_structural,
    size_and_speed,
)
from ocametrics.months import Month, month_range
from ocametrics.panel import VARIABLES
from ocametrics.pipeline import PipelineConfig, run_pipeline
from ocametrics.simulate import Dgp, simulate
from ocametrics.var import VarModel, fit_var, stability

from .conftest import make_pair


def _model(coefs, residuals, sigma=None):
    coefs = np.asarray(coefs, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    if sigma is None:
        sigma = residuals.T @ residuals / residuals.shape[0]
    dates = month_range(Month(2010, 1), residuals.shape[0])
    return VarModel(p=coefs.shape[0], intercept=np.zeros(2), coefs=coefs,
                    dummies=(), exog_coefficients=np.zeros((2, 0)),
                    residuals=residuals, sigma=np.asarray(sigma, dtype=float),
                    effective_dates=dates)


def _assert_long_run(model, d1):
    """``_coefficient_sum_inverse`` gives ``d1``, and identify_bq's long-run
    matrix F satisfies ``F F' = d1 sigma d1'``."""
    np.testing.assert_allclose(_coefficient_sum_inverse(model), d1, atol=1e-12)
    long_run = identify_bq(model).long_run
    np.testing.assert_allclose(long_run @ long_run.T, d1 @ model.sigma @ d1.T, atol=1e-12)


class TestLongRunMatrix:
    def test_no_dynamics_is_identity(self):
        model = _model(np.zeros((1, 2, 2)), np.random.default_rng(0).standard_normal((60, 2)))
        _assert_long_run(model, np.eye(2))

    def test_diagonal_half_doubles(self):
        model = _model([[[0.5, 0.0], [0.0, 0.5]]],
                       np.random.default_rng(1).standard_normal((60, 2)))
        _assert_long_run(model, 2.0 * np.eye(2))

    def test_hand_inverted_triangular_case(self):
        model = _model([[[0.2, 0.1], [0.0, 0.4]]],
                       np.random.default_rng(2).standard_normal((60, 2)))
        _assert_long_run(model, np.array([[1.25, 0.1 / 0.48], [0.0, 1.0 / 0.6]]))

    def test_unstable_model_refused(self):
        model = _model(np.eye(2)[None, :, :],
                       np.random.default_rng(3).standard_normal((60, 2)))
        with pytest.raises(UnstableModelError):
            identify_bq(model)


class TestIdentifyBq:
    def test_identity_case(self):
        residuals = np.random.default_rng(4).standard_normal((100, 2))
        model = _model(np.zeros((1, 2, 2)), residuals, sigma=np.eye(2))
        svar = identify_bq(model)
        np.testing.assert_allclose(svar.a0, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(svar.long_run, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(svar.shocks, residuals, atol=1e-14)
        assert svar.dates == model.effective_dates

    def test_hand_cholesky_case(self):
        residuals = np.random.default_rng(5).standard_normal((100, 2))
        sigma = np.array([[2.0, 1.0], [1.0, 2.0]])
        model = _model(np.zeros((1, 2, 2)), residuals, sigma=sigma)
        svar = identify_bq(model)
        expected = np.array([[math.sqrt(2.0), 0.0],
                             [1.0 / math.sqrt(2.0), math.sqrt(1.5)]])
        np.testing.assert_allclose(svar.a0, expected, atol=1e-12)
        np.testing.assert_allclose(svar.long_run, expected, atol=1e-12)

    def test_reconstruction_and_restriction_invariants(self):
        for seed in range(10):
            dgp = _random_valid_dgp(seed)
            data = make_pair(simulate(dgp).diffs)
            model = fit_var(data, p=dgp.p)
            svar = identify_bq(model)
            assert np.abs(svar.a0 @ svar.a0.T - model.sigma).max() < 1e-10
            assert abs(svar.long_run[0, 1]) < 1e-8
            assert svar.long_run[0, 0] > 0 and svar.long_run[1, 1] > 0

    def test_round_trip_recovery(self):
        dgp = _random_valid_dgp(42, n_obs=10_000)
        data = make_pair(simulate(dgp).diffs)
        model = fit_var(data, p=dgp.p)
        svar = identify_bq(model)
        assert np.abs(svar.a0 - dgp.impact).max() < 0.05

    def test_shock_orthogonality_at_scale(self):
        dgp = _random_valid_dgp(7, n_obs=10_000)
        data = make_pair(simulate(dgp).diffs)
        svar = identify_bq(fit_var(data, p=dgp.p))
        n = svar.shocks.shape[0]
        r = np.corrcoef(svar.shocks[:, 0], svar.shocks[:, 1])[0, 1]
        assert abs(r) < 2.0 / math.sqrt(n)
        for col in range(2):
            assert abs(svar.shocks[:, col].var() - 1.0) < 5.0 / math.sqrt(n)

    def test_scale_invariance_through_the_pipeline(self, fixture_panel):
        from ocametrics.panel import Panel, transform_pair

        scaled = Panel(
            countries=fixture_panel.countries, dates=fixture_panel.dates,
            values={k: 100.0 * v for k, v in fixture_panel.values.items()})
        base = identify_bq(fit_var(transform_pair(fixture_panel, "C01"), p=2))
        other = identify_bq(fit_var(transform_pair(scaled, "C01"), p=2))
        np.testing.assert_allclose(other.shocks, base.shocks, atol=1e-10)

    def test_bit_stable_across_runs(self):
        dgp = _random_valid_dgp(11, n_obs=2000)
        data = make_pair(simulate(dgp).diffs)
        model = fit_var(data, p=dgp.p)
        first = identify_bq(model)
        second = identify_bq(model)
        assert np.array_equal(first.a0, second.a0)
        assert np.array_equal(first.shocks, second.shocks)

    def test_near_unit_root_refused(self):
        model = _model([[[0.99995, 0.0], [0.0, 0.2]]],
                       np.random.default_rng(6).standard_normal((100, 2)))
        assert stability(model).stable  # inside the unit circle, yet refused
        with pytest.raises(UnstableModelError):
            identify_bq(model)

    def test_ill_conditioned_coefficient_sum_refused(self):
        # a nilpotent B has companion modulus 0, yet cond(I - B) is about 1e14
        model = _model([[[0.0, 1e7], [0.0, 0.0]]],
                       np.random.default_rng(8).standard_normal((100, 2)))
        assert stability(model).max_modulus == 0.0
        with pytest.raises(UnstableModelError, match="numerically singular"):
            identify_bq(model)

    def test_singular_sigma_refused(self):
        model = _model(np.zeros((1, 2, 2)),
                       np.random.default_rng(7).standard_normal((100, 2)),
                       sigma=np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SigmaNotPositiveDefiniteError):
            identify_bq(model)


def _random_valid_dgp(seed, n_obs=3000, p=None):
    from ocametrics.simulate import random_dgp

    return random_dgp(seed, p=p or (seed % 3) + 1, n_obs=n_obs)


class TestIrf:
    def test_no_propagation_is_flat(self):
        residuals = np.random.default_rng(8).standard_normal((80, 2))
        sigma = np.array([[1.3, 0.4], [0.4, 0.9]])
        model = _model(np.zeros((1, 2, 2)), residuals, sigma=sigma)
        svar = identify_bq(model)
        irf = irf_structural(svar.a0, model.coefs, horizon=24)
        assert irf.shape == (25, 2, 2) and irf.dtype == np.float64
        assert not irf.flags.writeable
        # every (variable, shock) cell stays at its impact response
        np.testing.assert_allclose(irf, np.broadcast_to(svar.a0, irf.shape), atol=1e-13)

    def test_demand_activity_cell_converges_to_zero(self):
        dgp = _random_valid_dgp(13, n_obs=4000)
        data = make_pair(simulate(dgp).diffs)
        model = fit_var(data, p=dgp.p)
        svar = identify_bq(model)
        irf = irf_structural(svar.a0, model.coefs, horizon=500)
        series = irf[:, 0, 1]  # (activity, demand)
        peak = np.abs(series).max()
        assert abs(series[-1]) < 1e-6 * max(peak, 1e-30)

    def test_cumulative_response_reaches_long_run(self):
        dgp = _random_valid_dgp(14, n_obs=4000)
        data = make_pair(simulate(dgp).diffs)
        model = fit_var(data, p=dgp.p)
        svar = identify_bq(model)
        rho = stability(model).max_modulus
        horizon = max(200, int(math.ceil(math.log(1e-10) / math.log(rho))))
        irf = irf_structural(svar.a0, model.coefs, horizon=horizon)
        assert np.abs(irf[-1] - svar.long_run).max() < 1e-8

    def test_report_rebuilds_the_responses(self, fixture_panel_path, fixture_weights_path,
                                           tmp_path):
        # a country's var.coefs and identification.a0 in report.json give its
        # responses at any horizon; at the run's own horizon they are its rows
        config = PipelineConfig(panel_path=str(fixture_panel_path),
                                weights_path=str(fixture_weights_path), output_dir=str(tmp_path))
        run_pipeline(config)
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        for country, block in report["countries"].items():
            listed = block["irf"]
            rebuilt = irf_structural(np.array(block["identification"]["a0"]),
                                     np.array(block["var"]["coefs"]), listed["horizon"])
            assert len(rebuilt) == 49, country
            for s, shock in enumerate(SHOCK_KINDS):
                for v, variable in enumerate(VARIABLES):
                    cell = listed["cumulative_responses"][f"{shock}_{variable}"]
                    assert rebuilt[:, v, s].tolist() == cell, (country, shock, variable)

    def test_horizon_must_cover_a_year(self):
        dgp = _random_valid_dgp(15, n_obs=2000)
        data = make_pair(simulate(dgp).diffs)
        model = fit_var(data, p=dgp.p)
        svar = identify_bq(model)
        with pytest.raises(ValueError):
            irf_structural(svar.a0, model.coefs, horizon=6)


def _geometric_irf(ratio=0.5, limit=2.0, horizon=48):
    """A structural model and its responses: (activity, supply) rises
    geometrically to ``limit``, every other cell sits at its long-run value."""
    long_run = np.array([[limit, 0.0], [1.0, 1.0]])
    responses = np.tile(long_run, (horizon + 1, 1, 1))
    responses[:, 0, 0] = limit * (1.0 - ratio ** (np.arange(horizon + 1) + 1))
    svar = StructuralModel(a0=np.eye(2), long_run=long_run, shocks=np.zeros((1, 2)),
                           dates=month_range(Month(2010, 1), 1))
    return svar, responses


class TestSizeSpeed:
    def test_flat_irf_has_unit_speed(self):
        residuals = np.random.default_rng(9).standard_normal((80, 2))
        sigma = np.array([[1.3, 0.4], [0.4, 0.9]])
        model = _model(np.zeros((1, 2, 2)), residuals, sigma=sigma)
        svar = identify_bq(model)
        ss = size_and_speed(svar, irf_structural(svar.a0, model.coefs, horizon=24))
        assert ss["supply_speed"] == pytest.approx(1.0, abs=1e-12)
        assert ss["demand_speed"] == pytest.approx(1.0, abs=1e-12)
        assert ss["supply_size"] == pytest.approx(abs(svar.long_run[0, 0]))
        assert ss["demand_size"] == pytest.approx(abs(svar.long_run[1, 1]))

    def test_geometric_irf_speed(self):
        ss = size_and_speed(*_geometric_irf())
        assert ss["supply_speed"] == pytest.approx(1.0 - 0.5 ** 13, abs=1e-12)

    def test_persistent_dynamics_slow_the_adjustment(self):
        # diagonal AR coefficients 0.9 / 0.5 imply one-year shares of
        # 1 - 0.9^13 and 1 - 0.5^13 for the matching cells
        coefs = np.array([[[0.9, 0.0], [0.0, 0.5]]])
        impact = (np.eye(2) - coefs.sum(axis=0)) @ np.eye(2)
        dgp = Dgp(coefs=coefs, impact=impact, intercept=np.zeros(2),
                  n_obs=20_000, seed=1)
        data = make_pair(simulate(dgp).diffs)
        model = fit_var(data, p=1)
        svar = identify_bq(model)
        ss = size_and_speed(svar, irf_structural(svar.a0, model.coefs, 48))
        assert ss["supply_speed"] == pytest.approx(1.0 - 0.9 ** 13, abs=0.02)
        assert ss["demand_speed"] == pytest.approx(1.0 - 0.5 ** 13, abs=0.02)

    def test_zero_long_run_rejected(self):
        with pytest.raises(ZeroLongRunError):
            size_and_speed(*_geometric_irf(limit=0.0))
