"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import json
import time

import numpy as np
import pytest
from scipy import stats as sstats

from ocametrics.cointegration import MAXEIG_CV_5PCT, TRACE_CV_5PCT, johansen_test
from ocametrics.errors import (
    CalendarGapError,
    SigmaNotPositiveDefiniteError,
    UnstableModelError,
)
from ocametrics.identification import identify_bq
from ocametrics.metrics import (
    correlation_matrix,
    cost_of_inclusion,
    dispersion_index,
    hp_filter,
    load_weights,
    significance_stars,
)
from ocametrics.metrics import build_weight_table
from ocametrics.months import Month, month_range
from ocametrics.pipeline import PipelineConfig, run_pipeline
from ocametrics.simulate import random_dgp, recovery_report, simulate
from ocametrics.unit_root import adf_batch, critical_values
from ocametrics.var import fit_var

from .conftest import make_pair, panel_from_rows


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): {status}{suffix}")


@pytest.fixture(scope="session")
def roundtrip():
    """100 seeded DGP recoveries shared by criteria 1 and 2."""
    t0 = time.perf_counter()
    errors, correlations, models = [], [], []
    for i in range(100):
        dgp = random_dgp(seed=1_000 + i, p=(i % 3) + 1, n_obs=10_000)
        data = make_pair(simulate(dgp).diffs)
        model = fit_var(data, p=dgp.p)
        svar = identify_bq(model)
        rec = recovery_report(dgp, svar)
        errors.append(rec.a0_error_max)
        correlations.append(min(rec.supply_correlation, rec.demand_correlation))
        models.append((model, svar))
    elapsed = time.perf_counter() - t0
    return {"errors": errors, "correlations": correlations,
            "models": models, "elapsed": elapsed}


def test_criterion_1_identification_round_trip(roundtrip):
    med_err = float(np.median(roundtrip["errors"]))
    med_corr = float(np.median(roundtrip["correlations"]))
    ok = med_err < 0.05 and med_corr > 0.95 and roundtrip["elapsed"] < 60.0
    _report(1, "identification round trip", ok,
            f"median a0 error {med_err:.4f}, median shock corr {med_corr:.4f}, "
            f"{roundtrip['elapsed']:.1f}s")
    assert med_err < 0.05
    assert med_corr > 0.95
    assert roundtrip["elapsed"] < 60.0


def test_criterion_2_algebraic_invariants(roundtrip):
    worst_recon = 0.0
    worst_f12 = 0.0
    for model, svar in roundtrip["models"]:
        recon = float(np.abs(svar.a0 @ svar.a0.T - model.sigma).max())
        worst_recon = max(worst_recon, recon)
        worst_f12 = max(worst_f12, abs(float(svar.long_run[0, 1])))
    ok = worst_recon < 1e-10 and worst_f12 < 1e-8
    _report(2, "impact-matrix algebra", ok,
            f"max |A0 A0' - sigma| {worst_recon:.2e}, max |F12| {worst_f12:.2e}")
    assert worst_recon < 1e-10
    assert worst_f12 < 1e-8


def test_criterion_3_adf_monte_carlo_size():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20_260_809)
    paths = rng.standard_normal((10_000, 200)).cumsum(axis=1)
    stats, _, nobs = adf_batch(paths, det=1, max_lags=0, autolag=False)
    cv5 = critical_values("constant", int(nobs[0]))[0.05]
    rate = float(np.mean(stats < cv5))
    elapsed = time.perf_counter() - t0
    ok = 0.03 <= rate <= 0.07 and elapsed < 120.0
    _report(3, "unit-root Monte Carlo size", ok,
            f"rejection rate {rate:.4f}, {elapsed:.1f}s")
    assert 0.03 <= rate <= 0.07
    assert elapsed < 120.0


def test_criterion_4_johansen_critical_values_and_power():
    cvs_ok = (TRACE_CV_5PCT == (25.32, 12.25) and MAXEIG_CV_5PCT == (18.96, 12.25))
    rng = np.random.default_rng(42)
    hits = 0
    reps = 1_000
    for _ in range(reps):
        walk = rng.standard_normal(500).cumsum()
        y2 = 2.0 * walk + rng.standard_normal(500)
        res = johansen_test((walk, y2), lag_order=2)
        hits += res["selected_rank"] == 1
    share = hits / reps
    ok = cvs_ok and share >= 0.90
    _report(4, "cointegration constants and rank power", ok,
            f"rank-1 share {share:.3f}")
    assert cvs_ok
    assert share >= 0.90


def test_criterion_5_dispersion_and_cost_hand_oracles():
    dates = month_range(Month(2012, 1), 1)
    table = build_weight_table({2012: {"AAA": 0.5, "BBB": 0.3, "CCC": 0.2}})
    shocks = {"AAA": np.array([1.0]), "BBB": np.array([2.0]), "CCC": np.array([3.0])}
    s = dispersion_index(shocks, dates, table).values[0]
    c = cost_of_inclusion(shocks, dates, table, "CCC").values[0]
    ok = abs(s - 0.99191) <= 1e-5 and abs(c - (-0.2871)) <= 1e-4
    _report(5, "weighted dispersion hand oracle", ok,
            f"S {s:.6f} vs 0.99191, C {c:.6f} vs -0.2871")
    assert abs(s - 0.99191) <= 1e-5
    assert abs(c - (-0.2871)) <= 1e-4


def test_criterion_6_hp_filter_oracles():
    y_linear = 1.0 + 0.3 * np.arange(124)
    _, cycle = hp_filter(y_linear, 14_400.0)
    linear_ok = float(np.abs(cycle).max()) < 1e-10

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        y = rng.standard_normal(124)
        trend, _ = hp_filter(y, 14_400.0)
        n = y.size
        d = np.zeros((n - 2, n))
        for i in range(n - 2):
            d[i, i:i + 3] = (1.0, -2.0, 1.0)
        dense = np.linalg.solve(np.eye(n) + 14_400.0 * d.T @ d, y)
        worst = max(worst, float(np.abs(trend - dense).max()))
    ok = linear_ok and worst < 1e-9
    _report(6, "trend filter oracles", ok,
            f"linear cycle max {np.abs(cycle).max():.2e}, dense diff {worst:.2e}")
    assert linear_ok
    assert worst < 1e-9


def test_criterion_7_correlation_significance():
    # two 124-month series whose sample correlation is the published 0.335
    rng = np.random.default_rng(7)
    x, e = rng.standard_normal((2, 124))
    x -= x.mean()
    e -= e.mean()
    e -= (e @ x) / (x @ x) * x
    y = 0.335 * x / np.linalg.norm(x) + np.sqrt(1.0 - 0.335 ** 2) * e / np.linalg.norm(e)
    report = correlation_matrix({"AAA": x, "BBB": y})
    r, p = float(report.r[0, 1]), float(report.p[0, 1])
    t = r * np.sqrt(122 / (1.0 - r * r))
    oracle = float(2.0 * sstats.t.sf(abs(t), 122))
    ok = abs(r - 0.335) < 1e-12 and p == oracle and p < 0.01 and significance_stars(p) == "***"
    _report(7, "correlation significance mechanics", ok, f"r {r:.6f}, two-sided p {p:.6f}")
    assert abs(r - 0.335) < 1e-12
    assert p == oracle
    assert p < 0.01
    assert significance_stars(p) == "***"


def test_criterion_8_weight_table_hygiene(weights_path):
    table = load_weights(weights_path)
    raw_ok = all(abs(table.raw_sums[y] - 1.0) <= 0.005 for y in table.years)
    renorm_ok = all(abs(sum(table.weights[y].values()) - 1.0) < 1e-12
                    for y in table.years)
    ok = raw_ok and renorm_ok and len(table.years) == 12
    worst_raw = max(abs(table.raw_sums[y] - 1.0) for y in table.years)
    _report(8, "weight table hygiene", ok, f"worst raw deviation {worst_raw:.4f}")
    assert raw_ok
    assert renorm_ok


def test_criterion_9_end_to_end_determinism(fixture_panel_path, fixture_weights_path,
                                            tmp_path):
    out = tmp_path / "bundle"
    config = PipelineConfig(
        panel_path=str(fixture_panel_path), weights_path=str(fixture_weights_path),
        output_dir=str(out))
    t0 = time.perf_counter()
    run_pipeline(config)
    elapsed = time.perf_counter() - t0
    first = (out / "report.json").read_bytes()

    run_pipeline(config)
    second = (out / "report.json").read_bytes()

    threaded = PipelineConfig(
        panel_path=config.panel_path, weights_path=config.weights_path,
        output_dir=config.output_dir, threads=3)
    run_pipeline(threaded)
    third = (out / "report.json").read_bytes()

    ok = first == second == third and elapsed < 10.0
    _report(9, "pipeline determinism", ok,
            f"{elapsed:.2f}s, {len(first)} bytes, identical across reruns and threads")
    assert first == second
    assert first == third
    assert elapsed < 10.0

    report = json.loads(first)
    for country, block in report["countries"].items():
        a0 = np.array(block["identification"]["a0"])
        sigma = np.array(block["var"]["sigma"])
        f = np.array(block["identification"]["long_run"])
        assert np.abs(a0 @ a0.T - sigma).max() < 1e-10, country
        assert abs(f[0, 1]) < 1e-8, country


def test_criterion_10_degenerate_input_contracts():
    rng = np.random.default_rng(0)
    dates = month_range(Month(2010, 1), 100)

    from ocametrics.var import VarModel
    unstable = VarModel(p=1, intercept=np.zeros(2), coefs=np.eye(2)[None, :, :],
                        dummies=(), exog_coefficients=np.zeros((2, 0)),
                        residuals=rng.standard_normal((100, 2)),
                        sigma=np.eye(2), effective_dates=dates)
    with pytest.raises(UnstableModelError):
        identify_bq(unstable)

    singular = VarModel(p=1, intercept=np.zeros(2), coefs=np.zeros((1, 2, 2)),
                        dummies=(), exog_coefficients=np.zeros((2, 0)),
                        residuals=rng.standard_normal((100, 2)),
                        sigma=np.array([[1.0, 1.0], [1.0, 1.0]]),
                        effective_dates=dates)
    with pytest.raises(SigmaNotPositiveDefiniteError):
        identify_bq(singular)

    rows = []
    for month in ("2015-04", "2015-05", "2015-07"):
        rows.append(("AAA", month, "MEAI", 100.0))
        rows.append(("AAA", month, "CPI", 100.0))
    with pytest.raises(CalendarGapError):
        panel_from_rows(rows)

    _report(10, "degenerate-input contracts", True,
            "unstable model, singular covariance, calendar gap all refused")
