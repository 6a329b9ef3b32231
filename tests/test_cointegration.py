import json

import numpy as np
import pytest

from ocametrics import cointegration, pipeline
from ocametrics.cointegration import (
    MAXEIG_CV_5PCT,
    TRACE_CV_5PCT,
    johansen_test,
)
from ocametrics.errors import SingularMomentMatrixError, TooShortError


def _pair(y):
    return (y[:, 0], y[:, 1])


class TestCriticalValues:
    def test_embedded_constants(self):
        assert TRACE_CV_5PCT == (25.32, 12.25)
        assert MAXEIG_CV_5PCT == (18.96, 12.25)


class TestAlgebra:
    def test_statistic_identities_and_ranges(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            y = rng.standard_normal((200, 2)).cumsum(axis=0)
            res = johansen_test(_pair(y), lag_order=3)
            lam = res["eigenvalues"]
            assert 0.0 <= lam[1] <= lam[0] < 1.0
            assert res["trace_stats"][0] >= res["max_eig_stats"][0] >= 0.0
            assert res["trace_stats"][1] >= res["max_eig_stats"][1] >= 0.0
            # trace(r) - maxeig(r) telescopes to trace(r+1)
            assert abs(res["trace_stats"][0] - res["max_eig_stats"][0]
                       - res["trace_stats"][1]) < 1e-9
            assert abs(res["trace_stats"][1] - res["max_eig_stats"][1]) < 1e-12

    def test_eigenvalues_invariant_to_nonsingular_rescaling(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal((300, 2)).cumsum(axis=0)
        base = johansen_test(_pair(y), lag_order=2)
        m = np.array([[2.0, 0.3], [-0.5, 1.5]])
        transformed = johansen_test(_pair(y @ m.T), lag_order=2)
        np.testing.assert_allclose(transformed["eigenvalues"], base["eigenvalues"],
                                   atol=1e-8)

    def test_selection_rule_on_published_shape(self):
        # statistics below both critical values select rank 0
        stats = (19.956, 4.139)
        selected = next((r for r in range(2) if stats[r] <= TRACE_CV_5PCT[r]), 2)
        assert selected == 0
        # first hypothesis rejected, second not -> rank 1
        stats = (31.4, 4.139)
        selected = next((r for r in range(2) if stats[r] <= TRACE_CV_5PCT[r]), 2)
        assert selected == 1

    def test_result_serialization(self):
        y = np.random.default_rng(10).standard_normal((132, 2)).cumsum(axis=0)
        res = johansen_test(_pair(y), lag_order=8)
        assert set(res) == {"eigenvalues", "trace_stats", "max_eig_stats",
                            "critical_values_trace", "critical_values_maxeig",
                            "selected_rank", "lag_order", "nobs"}
        assert (res["lag_order"], res["nobs"]) == (8, 124)
        assert json.loads(pipeline.render_json({"johansen": res}))["johansen"] == res
        assert res["critical_values_trace"] == [25.32, 12.25]


def _johansen_oracle(y, k):
    """Trace and max-eigenvalue statistics by a second route (Johansen 1988;
    Lütkepohl 2005, section 7.2): partial out [1, dy_{t-1}, ..., dy_{t-k+1}]
    by a QR projection, then take the two largest real eigenvalues of
    S11^-1 S10 S00^-1 S01, with levels plus the restricted trend in S11."""
    n = y.shape[0]
    t = n - k
    dy = np.diff(y, axis=0)
    z0 = dy[k - 1:]
    z2 = np.column_stack([np.ones(t)] + [dy[k - 1 - i:n - 1 - i] for i in range(1, k)])
    z1 = np.column_stack([y[k - 1:n - 1], np.arange(1.0, t + 1.0)])
    q, _ = np.linalg.qr(z2)
    r0, r1 = z0 - q @ (q.T @ z0), z1 - q @ (q.T @ z1)
    s00, s01, s11 = r0.T @ r0 / t, r0.T @ r1 / t, r1.T @ r1 / t
    lam = np.linalg.eigvals(np.linalg.solve(s11, s01.T) @ np.linalg.solve(s00, s01))
    log1m = np.log(1.0 - np.sort(lam.real)[::-1][:2])
    return -t * np.array([log1m.sum(), log1m[1]]), -t * log1m


def _assert_matches_oracle(y, k, rtol):
    res = johansen_test(_pair(y), lag_order=k)
    trace, maxeig = _johansen_oracle(y, k)
    np.testing.assert_allclose(res["trace_stats"], trace, rtol=rtol, atol=0)
    np.testing.assert_allclose(res["max_eig_stats"], maxeig, rtol=rtol, atol=0)


class TestOracle:
    @pytest.mark.parametrize("n", [60, 133, 241])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_statistics_match_a_second_route(self, n, k):
        rng = np.random.default_rng(100 * n + k)
        for _ in range(3):
            _assert_matches_oracle(rng.standard_normal((n, 2)).cumsum(axis=0), k, 1e-10)
            walk = rng.standard_normal(n).cumsum()
            _assert_matches_oracle(np.column_stack([walk, 0.5 * walk + rng.standard_normal(n)]),
                                   k, 1e-10)

    def test_near_collinear_pairs_match_a_second_route(self):
        # the two routes agree to about 1e-8 at b = a + 0.01e, but the gap
        # grows with the conditioning of S11 (about 1e-6 at 0.001e, 1e-4 at
        # 1e-4e), so a tighter pair measures round-off, not the statistics
        rng = np.random.default_rng(12)
        for i in range(100):
            n, k = (60, 133, 241)[i % 3], 2 + i % 4
            walk = rng.standard_normal(n).cumsum()
            _assert_matches_oracle(
                np.column_stack([walk, walk + 0.01 * rng.standard_normal(n)]), k, 1e-7)


class TestMonteCarlo:
    def test_independent_walks_select_rank_zero(self):
        rng = np.random.default_rng(31)
        hits = 0
        reps = 500
        for _ in range(reps):
            y = rng.standard_normal((500, 2)).cumsum(axis=0)
            hits += johansen_test(_pair(y), lag_order=2)["selected_rank"] == 0
        assert hits / reps >= 0.90

    def test_cointegrated_pair_selects_rank_one(self):
        rng = np.random.default_rng(32)
        hits = 0
        reps = 500
        for _ in range(reps):
            walk = rng.standard_normal(500).cumsum()
            noise = rng.standard_normal(500)
            y = np.column_stack([walk, 2.0 * walk + noise])
            hits += johansen_test(_pair(y), lag_order=2)["selected_rank"] == 1
        assert hits / reps >= 0.90


class TestErrors:
    def test_too_short(self):
        y = np.random.default_rng(0).standard_normal((25, 2)).cumsum(axis=0)
        with pytest.raises(TooShortError):
            johansen_test(_pair(y), lag_order=2)

    def test_lag_order_must_be_at_least_two(self):
        y = np.random.default_rng(0).standard_normal((100, 2)).cumsum(axis=0)
        with pytest.raises(ValueError):
            johansen_test(_pair(y), lag_order=1)

    def test_exactly_two_series(self):
        y = np.random.default_rng(0).standard_normal((100, 3)).cumsum(axis=0)
        with pytest.raises(ValueError, match="^exactly two series required$"):
            johansen_test(tuple(y.T), lag_order=2)

    def test_singular_moment_matrix(self):
        walk = np.random.default_rng(1).standard_normal(100).cumsum()
        with pytest.raises(SingularMomentMatrixError):
            johansen_test((walk, 2.0 * walk), lag_order=2)

    def test_unit_eigenvalue_is_refused(self, monkeypatch):
        # a squared canonical correlation of 1 would put log(0) into the
        # statistics; no float pair reaches it reliably, so a patched
        # eigen-solver returns it
        walk = np.random.default_rng(1).standard_normal((100, 2)).cumsum(axis=0)
        monkeypatch.setattr(cointegration.np.linalg, "eigvalsh",
                            lambda m: np.array([0.25, 1.0]))
        with pytest.raises(SingularMomentMatrixError, match="^degenerate eigenvalue >= 1$"):
            johansen_test(_pair(walk), lag_order=2)
