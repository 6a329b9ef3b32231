import io
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from ocametrics.errors import (
    DateRangeError,
    DegenerateWeightsError,
    GroupTooSmallError,
    InsufficientOverlapError,
    MissingWeightYearError,
    TooShortError,
    ZeroBaseError,
    ZeroDispersionError,
    ZeroVarianceError,
)
from ocametrics.metrics import (
    MAX_HP_SMOOTHING,
    CorrelationReport,
    WeightTable,
    build_weight_table,
    classify_symmetry,
    correlation_matrix,
    cost_of_inclusion,
    dispersion_index,
    group_dispersion,
    hp_filter,
    load_weights,
    significance_stars,
    trend_change,
)
from ocametrics.metrics import _pvalues
from ocametrics.months import Month, month_range


# --------------------------------------------------------------------------
# correlations
# --------------------------------------------------------------------------

class TestCorrelation:
    def test_self_correlation_diagonal(self):
        rng = np.random.default_rng(0)
        shocks = {"AAA": rng.standard_normal(50), "BBB": rng.standard_normal(50)}
        report = correlation_matrix(shocks)
        assert report.r[0, 0] == 1.0 and report.r[1, 1] == 1.0
        assert report.p[0, 0] == 0.0 and report.p[1, 1] == 0.0
        np.testing.assert_allclose(report.r, report.r.T)
        np.testing.assert_allclose(report.p, report.p.T)

    def test_published_cell_significance_mechanics(self):
        # hand t-statistic: t = r sqrt((n-2)/(1-r^2))
        r, n = 0.335, 124
        t_hand = r * math.sqrt((n - 2) / (1.0 - r * r))
        assert abs(t_hand - 3.93) < 0.01
        p = float(_pvalues(np.float64(r), n))
        assert abs(p - 2.0 * sstats.t.sf(t_hand, n - 2)) < 1e-15
        assert p < 0.01
        assert significance_stars(p) == "***"

    def test_size_of_significance_calls(self):
        rng = np.random.default_rng(123)
        n, reps = 124, 5000
        x = rng.standard_normal((reps, n))
        y = rng.standard_normal((reps, n))
        xc = x - x.mean(axis=1, keepdims=True)
        yc = y - y.mean(axis=1, keepdims=True)
        r = (xc * yc).sum(axis=1) / np.sqrt((xc * xc).sum(axis=1) * (yc * yc).sum(axis=1))
        p = 2.0 * sstats.t.sf(np.abs(r) * np.sqrt((n - 2) / (1 - r * r)), n - 2)
        rate = float(np.mean(p < 0.05))
        assert 0.03 <= rate <= 0.07
        # spot-check the library against the vectorized oracle
        for i in range(5):
            report = correlation_matrix({"AAA": x[i], "BBB": y[i]})
            assert abs(report.p[0, 1] - p[i]) < 1e-12

    @given(st.floats(min_value=-0.999999, max_value=0.999999), st.integers(3, 5000))
    def test_pvalue_equals_scipy_stats(self, r, n):
        assert float(_pvalues(np.float64(r), n)) == _scipy_pvalue(r, n)

    def test_perfect_correlation_p_zero(self):
        assert (_pvalues(np.array([1.0, -1.0]), 50) == 0.0).all()

    def test_errors(self):
        rng = np.random.default_rng(1)
        with pytest.raises(GroupTooSmallError):
            correlation_matrix({"AAA": rng.standard_normal(30)})
        with pytest.raises(InsufficientOverlapError):
            correlation_matrix({"AAA": rng.standard_normal(5),
                                "BBB": rng.standard_normal(5)})
        with pytest.raises(ZeroVarianceError):
            correlation_matrix({"AAA": np.ones(30), "BBB": rng.standard_normal(30)})

    def test_unequal_lengths_are_refused(self):
        rng = np.random.default_rng(2)
        with pytest.raises(InsufficientOverlapError, match="^shock series must share a common"):
            correlation_matrix({"AAA": rng.standard_normal(30), "BBB": rng.standard_normal(31)})

    def test_matrix_matches_pairwise_computation(self):
        rng = np.random.default_rng(8)
        common = rng.standard_normal(120)
        shocks = {f"C{i:02d}": 0.4 * i * common + rng.standard_normal(120)
                  for i in range(9)}
        shocks["C09"] = -shocks["C03"]  # r = -1 exactly on one pair
        report = correlation_matrix(shocks)
        assert (report.r == report.r.T).all() and (report.p == report.p.T).all()
        assert (np.diag(report.r) == 1.0).all() and (np.diag(report.p) == 0.0).all()
        for i, j in itertools.combinations(range(len(report.countries)), 2):
            a, b = (shocks[report.countries[k]] for k in (i, j))
            assert abs(report.r[i, j] - np.corrcoef(a, b)[0, 1]) < 1e-15
            assert report.p[i, j] == _scipy_pvalue(float(report.r[i, j]), report.n)


def _scipy_pvalue(r: float, n: int) -> float:
    """Two-sided p of a Pearson ``r`` under the zero null, from scipy.stats."""
    if abs(r) == 1.0:
        return 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return float(2.0 * sstats.t.sf(abs(t), n - 2))


def _report_from_r(countries, r_values, n):
    k = len(countries)
    r = np.eye(k)
    p = np.zeros((k, k))
    for (a, b), val in r_values.items():
        i, j = countries.index(a), countries.index(b)
        r[i, j] = r[j, i] = val
        p[i, j] = p[j, i] = _pvalues(np.float64(val), n)
    return CorrelationReport(countries=tuple(countries), r=r, p=p, n=n,
                             shock_kind="supply")


COUNTRIES7 = ["CRI", "DOM", "GTM", "HND", "NIC", "PAN", "SLV"]

# published-shape correlation patterns used as format/logic fixtures
SUPPLY_R = {
    ("CRI", "DOM"): 0.140, ("CRI", "GTM"): 0.051, ("CRI", "HND"): 0.031,
    ("CRI", "NIC"): 0.335, ("CRI", "PAN"): 0.074, ("CRI", "SLV"): -0.063,
    ("DOM", "GTM"): 0.177, ("DOM", "HND"): -0.194, ("DOM", "NIC"): 0.103,
    ("DOM", "PAN"): 0.080, ("DOM", "SLV"): 0.139,
    ("GTM", "HND"): 0.101, ("GTM", "NIC"): 0.198, ("GTM", "PAN"): -0.085,
    ("GTM", "SLV"): 0.269,
    ("HND", "NIC"): 0.228, ("HND", "PAN"): -0.037, ("HND", "SLV"): 0.085,
    ("NIC", "PAN"): 0.067, ("NIC", "SLV"): 0.074,
    ("PAN", "SLV"): -0.241,
}
DEMAND_R = {
    ("CRI", "DOM"): 0.197, ("CRI", "GTM"): 0.193, ("CRI", "HND"): 0.130,
    ("CRI", "NIC"): 0.026, ("CRI", "PAN"): 0.066, ("CRI", "SLV"): 0.047,
    ("DOM", "GTM"): 0.119, ("DOM", "HND"): 0.279, ("DOM", "NIC"): -0.048,
    ("DOM", "PAN"): 0.242, ("DOM", "SLV"): 0.223,
    ("GTM", "HND"): 0.163, ("GTM", "NIC"): 0.178, ("GTM", "PAN"): 0.003,
    ("GTM", "SLV"): 0.251,
    ("HND", "NIC"): -0.091, ("HND", "PAN"): 0.096, ("HND", "SLV"): 0.227,
    ("NIC", "PAN"): -0.066, ("NIC", "SLV"): 0.051,
    ("PAN", "SLV"): 0.272,
}


class TestClassifySymmetry:
    def test_complete_graph_single_group(self):
        r_values = {(a, b): 0.9 for i, a in enumerate(COUNTRIES7)
                    for b in COUNTRIES7[i + 1:]}
        report = _report_from_r(COUNTRIES7, r_values, n=124)
        result = classify_symmetry(report, alpha=0.05)
        assert result.groups == (tuple(COUNTRIES7),)

    def test_hub_pattern_has_no_group(self):
        r_values = {("AAA", c): 0.9 for c in ["BBB", "CCC", "DDD"]}
        report = _report_from_r(["AAA", "BBB", "CCC", "DDD"], r_values, n=124)
        assert classify_symmetry(report, alpha=0.05).groups == ()

    def test_supply_shaped_matrix_has_no_group(self):
        report = _report_from_r(COUNTRIES7, SUPPLY_R, n=124)
        result = classify_symmetry(report, alpha=0.05)
        assert result.groups == ()
        assert result.symmetric_pairs[("CRI", "NIC")]
        assert not result.symmetric_pairs[("DOM", "HND")]  # negative and significant

    def test_demand_shaped_matrix_groups(self):
        report = _report_from_r(COUNTRIES7, DEMAND_R, n=124)
        result = classify_symmetry(report, alpha=0.05)
        assert result.groups == (("DOM", "HND", "SLV"), ("DOM", "PAN", "SLV"))

    def test_reordering_countries_leaves_output_invariant(self):
        base = classify_symmetry(_report_from_r(COUNTRIES7, DEMAND_R, n=124))
        # same correlations presented with the country axis reversed
        reversed_names = list(reversed(COUNTRIES7))
        reordered = classify_symmetry(_report_from_r(reversed_names, DEMAND_R, n=124))
        assert base.groups == reordered.groups
        assert base.symmetric_pairs == reordered.symmetric_pairs

    def test_stars_thresholds(self):
        assert significance_stars(0.005) == "***"
        assert significance_stars(0.03) == "**"
        assert significance_stars(0.08) == "*"
        assert significance_stars(0.2) == ""


def _subset_scan_groups(countries, adjacency):
    """The exhaustive 2^k scan the clique search replaced: every clique of
    size >= 3 not inside a larger one already found, largest first."""
    k = len(countries)
    cliques = []
    for size in range(k, 2, -1):
        for combo in itertools.combinations(range(k), size):
            if not all(adjacency[a, b] for a, b in itertools.combinations(combo, 2)):
                continue
            if any(set(combo) <= set(big) for big in cliques):
                continue
            cliques.append(combo)
    return tuple(sorted((tuple(sorted(countries[i] for i in c)) for c in cliques),
                        key=lambda g: (-len(g), g)))


def _report_from_graph(k, edges):
    countries = [f"C{i:02d}" for i in range(k)]
    r_values = {(countries[i], countries[j]): 0.9 if edge else 0.0
                for (i, j), edge in zip(itertools.combinations(range(k), 2), edges)}
    return _report_from_r(countries, r_values, n=124)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(st.booleans(), min_size=k * (k - 1) // 2,
                                             max_size=k * (k - 1) // 2))))
def test_clique_search_matches_subset_scan(graph):
    k, edges = graph
    report = _report_from_graph(k, edges)
    adjacency = (report.r > 0.0) & (report.p < 0.05)
    np.fill_diagonal(adjacency, False)
    assert classify_symmetry(report).groups == _subset_scan_groups(report.countries, adjacency)


def test_clique_search_scales_to_27_countries():
    report = _report_from_graph(27, [True] * (27 * 26 // 2))
    t0 = time.perf_counter()
    groups = classify_symmetry(report).groups
    assert time.perf_counter() - t0 < 1.0
    assert groups == (report.countries,)


# --------------------------------------------------------------------------
# weights
# --------------------------------------------------------------------------

class TestWeights:
    def test_bundled_fixture_hygiene(self, weights_path):
        table = load_weights(weights_path)
        assert table.years == tuple(range(2009, 2021))
        for year in table.years:
            assert abs(table.raw_sums[year] - 1.0) <= 0.005
            renormalized = sum(table.weights[year].values())
            assert abs(renormalized - 1.0) < 1e-12

    def test_for_group_renormalizes_subsets(self, weights_path):
        table = load_weights(weights_path)
        full = table.for_group(2015, COUNTRIES7)
        assert abs(full.sum() - 1.0) < 1e-12
        sub = table.for_group(2015, [c for c in COUNTRIES7 if c != "PAN"])
        assert abs(sub.sum() - 1.0) < 1e-12
        assert len(sub) == 6

    def test_sum_out_of_tolerance_rejected(self):
        with pytest.raises(DegenerateWeightsError):
            build_weight_table({2010: {"AAA": 0.6, "BBB": 0.5}})

    def test_weight_out_of_range_rejected(self):
        with pytest.raises(DegenerateWeightsError):
            build_weight_table({2010: {"AAA": 1.2, "BBB": -0.2}})

    def test_missing_year_and_country(self, weights_path):
        table = load_weights(weights_path)
        with pytest.raises(MissingWeightYearError):
            table.for_group(1999, COUNTRIES7)
        with pytest.raises(MissingWeightYearError):
            table.for_group(2015, ["CRI", "XXX"])

    def test_for_group_refuses_a_year_summing_to_zero(self):
        # build_weight_table refuses such a year; a table built directly is not checked
        table = WeightTable(weights={2010: {"AAA": 0.0, "BBB": 0.0}}, raw_sums={2010: 0.0})
        with pytest.raises(DegenerateWeightsError, match="^weights for 2010 sum to 0.0$"):
            table.for_group(2010, ["AAA", "BBB"])

    def test_csv_parse_errors(self):
        with pytest.raises(DegenerateWeightsError):
            load_weights(io.StringIO("anno,pais,peso\n"))
        with pytest.raises(DegenerateWeightsError):
            load_weights(io.StringIO("year,country,weight\n2010,AAA,0.5\n2010,AAA,0.5\n"))

    @pytest.mark.parametrize("rows, message", [
        ("2010,AAA,0.5\n2010.5,BBB,0.5\n", "line 3: malformed row"),
        ("2010,AAA,0.5\n2010,BBB,half\n", "line 3: malformed row"),
        ("2010,AAA,0.5\n2010,BBB,0.5\n2011,AAA,0.5\n", "year 2011 needs at least 2 countries"),
        ("", "empty weight table"),
    ], ids=["year-text", "weight-text", "one-country-year", "header-only"])
    def test_weights_file_refusals(self, rows, message):
        with pytest.raises(DegenerateWeightsError) as excinfo:
            load_weights(io.StringIO("year,country,weight\n" + rows))
        assert type(excinfo.value) is DegenerateWeightsError and str(excinfo.value) == message


# --------------------------------------------------------------------------
# dispersion and cost
# --------------------------------------------------------------------------

def _equal_weights(countries, years):
    share = 1.0 / len(countries)
    return build_weight_table({y: {c: share for c in countries} for y in years})


def _table_503020(years):
    return build_weight_table(
        {y: {"AAA": 0.5, "BBB": 0.3, "CCC": 0.2} for y in years})


def _dispersion_oracle(x, w):
    """Straight transcription of the weighted-dispersion formula."""
    mean = sum(wi * xi for wi, xi in zip(w, x))
    num = sum(wi * (xi - mean) ** 2 for wi, xi in zip(w, x))
    den = 1.0 - sum(wi * wi for wi in w)
    return math.sqrt(num / den)


class TestDispersion:
    def test_identical_values_give_zero(self):
        dates = month_range(Month(2012, 1), 3)
        shocks = {c: np.full(3, 1.7) for c in ("AAA", "BBB", "CCC")}
        series = dispersion_index(shocks, dates, _table_503020([2012]))
        np.testing.assert_array_equal(series.values, np.zeros(3))

    def test_hand_example(self):
        dates = month_range(Month(2012, 1), 1)
        shocks = {"AAA": np.array([1.0]), "BBB": np.array([2.0]), "CCC": np.array([3.0])}
        series = dispersion_index(shocks, dates, _table_503020([2012]))
        assert abs(series.values[0] - 0.99191) < 1e-5
        assert abs(series.values[0] - math.sqrt(0.61 / 0.62)) < 1e-12

    def test_matches_bruteforce_oracle_on_random_data(self):
        rng = np.random.default_rng(77)
        dates = month_range(Month(2011, 10), 30)
        countries = ["AAA", "BBB", "CCC", "DDD"]
        years = sorted({d.year for d in dates})
        table = build_weight_table(
            {y: dict(zip(countries, (0.4, 0.3, 0.2, 0.1))) for y in years})
        shocks = {c: rng.standard_normal(30) for c in countries}
        series = dispersion_index(shocks, dates, table)
        for t, date in enumerate(dates):
            x = [shocks[c][t] for c in countries]
            w = [table.weights[date.year][c] for c in countries]
            assert abs(series.values[t] - _dispersion_oracle(x, w)) < 1e-12

    def test_translation_invariance_and_scaling(self):
        dates = month_range(Month(2012, 1), 5)
        rng = np.random.default_rng(3)
        base = {c: rng.standard_normal(5) for c in ("AAA", "BBB", "CCC")}
        table = _table_503020([2012])
        s0 = dispersion_index(base, dates, table).values
        shifted = {c: v + 4.2 for c, v in base.items()}
        np.testing.assert_allclose(dispersion_index(shifted, dates, table).values,
                                   s0, atol=1e-12)
        scaled = {c: 3.0 * v for c, v in base.items()}
        np.testing.assert_allclose(dispersion_index(scaled, dates, table).values,
                                   3.0 * s0, atol=1e-12)

    def test_two_country_closed_form(self):
        dates = month_range(Month(2012, 1), 1)
        w = 0.7
        table = build_weight_table({2012: {"AAA": w, "BBB": 1.0 - w}})
        x1, x2 = 1.3, -0.4
        shocks = {"AAA": np.array([x1]), "BBB": np.array([x2])}
        series = dispersion_index(shocks, dates, table)
        closed = abs(x1 - x2) * math.sqrt(w * (1 - w) / (1 - w**2 - (1 - w) ** 2))
        assert abs(series.values[0] - closed) < 1e-12

    def test_missing_weight_year(self):
        dates = month_range(Month(2013, 1), 2)
        shocks = {c: np.zeros(2) for c in ("AAA", "BBB", "CCC")}
        with pytest.raises(MissingWeightYearError):
            dispersion_index(shocks, dates, _table_503020([2012]))

    def test_series_not_matching_the_calendar_is_refused(self):
        dates = month_range(Month(2012, 1), 3)
        shocks = {"AAA": np.zeros(3), "BBB": np.zeros(3), "CCC": np.zeros(4)}
        with pytest.raises(InsufficientOverlapError, match="^shock series must match the calendar"):
            group_dispersion(shocks, dates, _table_503020([2012]))

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        dates = month_range(Month(2012, 1), 1)
        table = _table_503020([2012])
        x = rng.standard_normal(3)
        x[1] = x[0] + 1e-3
        shocks = {"AAA": x[:1], "BBB": x[1:2], "CCC": x[2:3]}
        assert dispersion_index(shocks, dates, table).values[0] > 0.0


class TestCostOfInclusion:
    def test_hand_example(self):
        dates = month_range(Month(2012, 1), 1)
        shocks = {"AAA": np.array([1.0]), "BBB": np.array([2.0]), "CCC": np.array([3.0])}
        cost = cost_of_inclusion(shocks, dates, _table_503020([2012]), "CCC")
        assert abs(cost.values[0] - (-0.2871)) < 1e-4
        expected = (math.sqrt(0.234375 / 0.46875) - math.sqrt(0.61 / 0.62)) \
            / math.sqrt(0.61 / 0.62)
        assert abs(cost.values[0] - expected) < 1e-12

    def test_sign_convention(self):
        # an outlier raises dispersion: its cost is negative; a country at
        # the group mean reduces it: positive cost
        dates = month_range(Month(2012, 1), 1)
        table = _equal_weights(["AAA", "BBB", "CCC"], [2012])
        shocks = {"AAA": np.array([0.0]), "BBB": np.array([0.0]),
                  "CCC": np.array([10.0])}
        outlier = cost_of_inclusion(shocks, dates, table, "CCC")
        assert outlier.values[0] < 0.0
        central = cost_of_inclusion(shocks, dates, table, "AAA")
        assert central.values[0] > 0.0

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(13)
        dates = month_range(Month(2014, 11), 20)
        countries = ["AAA", "BBB", "CCC", "DDD", "EEE"]
        years = sorted({d.year for d in dates})
        table = _equal_weights(countries, years)
        shocks = {c: rng.standard_normal(20) for c in countries}
        for excluded in countries:
            cost = cost_of_inclusion(shocks, dates, table, excluded)
            rest = [c for c in countries if c != excluded]
            for t, date in enumerate(dates):
                w_full = [table.weights[date.year][c] for c in countries]
                s_full = _dispersion_oracle([shocks[c][t] for c in countries], w_full)
                w_raw = [table.weights[date.year][c] for c in rest]
                w_sub = [w / sum(w_raw) for w in w_raw]
                s_sub = _dispersion_oracle([shocks[c][t] for c in rest], w_sub)
                assert abs(cost.values[t] - (s_sub - s_full) / s_full) < 1e-10

    def test_group_too_small(self):
        dates = month_range(Month(2012, 1), 1)
        table = build_weight_table({2012: {"AAA": 0.6, "BBB": 0.4}})
        shocks = {"AAA": np.array([1.0]), "BBB": np.array([2.0])}
        with pytest.raises(GroupTooSmallError):
            cost_of_inclusion(shocks, dates, table, "AAA")

    def test_zero_dispersion_rejected(self):
        dates = month_range(Month(2012, 1), 1)
        shocks = {c: np.array([5.0]) for c in ("AAA", "BBB", "CCC")}
        with pytest.raises(ZeroDispersionError):
            cost_of_inclusion(shocks, dates, _table_503020([2012]), "AAA")

    def test_unknown_country(self):
        dates = month_range(Month(2012, 1), 1)
        shocks = {c: np.array([float(i)]) for i, c in enumerate(("AAA", "BBB", "CCC"))}
        with pytest.raises(DateRangeError):
            cost_of_inclusion(shocks, dates, _table_503020([2012]), "ZZZ")


def _dispersion_rows(x, dates, countries, weights):
    """The per-row dispersion loop the closed-form pass replaced."""
    out = np.empty(len(dates))
    years = dates.years
    for year in np.unique(years).tolist():
        w = weights.for_group(year, countries)
        denom = 1.0 - float(w @ w)
        if denom <= 0.0:
            raise DegenerateWeightsError(
                f"weight concentration leaves no cross-country variance in {year}")
        for t in np.flatnonzero(years == year).tolist():
            dev = x[t] - float(w @ x[t])
            out[t] = math.sqrt(max(float(w @ (dev * dev)) / denom, 0.0))
    return out


def _uneven_table(countries, years, rng):
    # an extra country outside the group, so for_group renormalizes
    members = list(countries) + ["ZZZ"]
    rows = {}
    for year in years:
        raw = rng.uniform(0.2, 10.0, size=len(members))
        rows[year] = dict(zip(members, raw / raw.sum()))
    return build_weight_table(rows)


class TestClosedFormLeaveOneOut:
    @pytest.mark.parametrize("n_countries", range(3, 31))
    def test_matches_per_row_oracle(self, n_countries):
        rng = np.random.default_rng(n_countries)
        dates = month_range(Month(2010, 7), 40)
        countries = [f"C{i:02d}" for i in range(n_countries)]
        table = _uneven_table(countries, sorted(set(dates.years.tolist())), rng)
        shocks = {c: rng.standard_normal(40) * rng.uniform(0.5, 2.0) for c in countries}
        disp, costs = group_dispersion(shocks, dates, table, countries)
        x = np.column_stack([shocks[c] for c in countries])
        full = _dispersion_rows(x, dates, countries, table)
        assert disp.dtype == np.float64 and disp.flags.writeable is False
        assert np.abs(disp - full).max() < 1e-12
        assert (dispersion_index(shocks, dates, table).values == disp).all()
        assert list(costs) == countries
        for j, country in enumerate(countries):
            cost = costs[country]
            assert cost.dtype == np.float64 and cost.flags.writeable is False
            rest = [c for c in countries if c != country]
            sub = _dispersion_rows(np.delete(x, j, axis=1), dates, rest, table)
            assert np.abs(cost - (sub - full) / full).max() < 1e-12
            single = cost_of_inclusion(shocks, dates, table, country).values
            assert (single == cost).all()

    def test_concentrated_weights_name_the_year(self):
        dates = month_range(Month(2012, 11), 4)
        shocks = {c: np.arange(1.0, 5.0) * (i + 1) for i, c in enumerate(("AAA", "BBB", "CCC"))}
        x = np.column_stack([shocks[c] for c in ("AAA", "BBB", "CCC")])
        spread = {"AAA": 0.5, "BBB": 0.3, "CCC": 0.2}
        whole = WeightTable(weights={2012: spread, 2013: {"AAA": 1.0, "BBB": 0.0, "CCC": 0.0}},
                            raw_sums={2012: 1.0, 2013: 1.0})
        with pytest.raises(DegenerateWeightsError, match="in 2013$"):
            _dispersion_rows(x, dates, ("AAA", "BBB", "CCC"), whole)
        with pytest.raises(DegenerateWeightsError, match="in 2013$"):
            dispersion_index(shocks, dates, whole)
        # only the group without AAA is concentrated, and only in 2013
        pair = WeightTable(weights={2012: spread, 2013: {"AAA": 0.5, "BBB": 0.5, "CCC": 0.0}},
                           raw_sums={2012: 1.0, 2013: 1.0})
        dispersion_index(shocks, dates, pair)
        with pytest.raises(DegenerateWeightsError, match="in 2013$"):
            _dispersion_rows(x[:, 1:], dates, ("BBB", "CCC"), pair)
        with pytest.raises(DegenerateWeightsError, match="in 2013$"):
            cost_of_inclusion(shocks, dates, pair, "AAA")
        cost_of_inclusion(shocks, dates, pair, "CCC")


# --------------------------------------------------------------------------
# HP filter and trend change
# --------------------------------------------------------------------------

def _hp_dense_oracle(y, lam):
    n = y.size
    d = np.zeros((n - 2, n))
    for i in range(n - 2):
        d[i, i:i + 3] = (1.0, -2.0, 1.0)
    return np.linalg.solve(np.eye(n) + lam * d.T @ d, y)


def _hp_exact_oracle(y, lam):
    """The HP trend by banded Gaussian elimination in exact rational arithmetic."""
    n, lam = y.size, Fraction(lam)
    a = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n - 2):  # a += lam * D'D, row k of D is (1, -2, 1) from column k
        for i, di in zip(range(k, k + 3), (1, -2, 1)):
            for j, dj in zip(range(k, k + 3), (1, -2, 1)):
                a[i][j] += lam * di * dj
    x = [Fraction(v) for v in y.tolist()]
    for k in range(n):
        for i in range(k + 1, min(n, k + 3)):
            f = a[i][k] / a[k][k]
            for j in range(k, min(n, k + 3)):
                a[i][j] -= f * a[k][j]
            x[i] -= f * x[k]
    for i in reversed(range(n)):
        x[i] = (x[i] - sum(a[i][j] * x[j] for j in range(i + 1, min(n, i + 3)))) / a[i][i]
    return np.array([float(v) for v in x])


class TestHpFilter:
    def test_linear_series_is_fixed_point(self):
        y = 3.0 + 0.5 * np.arange(60)
        trend, cycle = hp_filter(y, 14400.0)
        assert np.abs(cycle).max() < 1e-10
        np.testing.assert_allclose(trend, y, atol=1e-10)

    def test_zero_smoothing_returns_input(self):
        y = np.random.default_rng(0).standard_normal(40)
        trend, cycle = hp_filter(y, 0.0)
        np.testing.assert_array_equal(trend, y)
        np.testing.assert_array_equal(cycle, np.zeros(40))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            y = rng.standard_normal(124)
            lam = float(rng.uniform(10.0, 20000.0))
            trend, cycle = hp_filter(y, lam)
            np.testing.assert_allclose(trend, _hp_dense_oracle(y, lam), atol=1e-9)
            np.testing.assert_allclose(trend + cycle, y, atol=1e-12)

    def test_small_sizes_against_oracle(self):
        rng = np.random.default_rng(1)
        for n in (4, 5, 6, 7):
            y = rng.standard_normal(n)
            trend, _ = hp_filter(y, 1600.0)
            np.testing.assert_allclose(trend, _hp_dense_oracle(y, 1600.0), atol=1e-9)

    def test_matches_statsmodels_hpfilter(self):
        hpfilter = pytest.importorskip("statsmodels.tsa.filters.hp_filter").hpfilter
        y = np.random.default_rng(9).standard_normal(124)
        cycle_sm, trend_sm = hpfilter(y, 14400.0)
        trend, cycle = hp_filter(y, 14400.0)
        np.testing.assert_allclose(trend, np.asarray(trend_sm), atol=1e-9)
        np.testing.assert_allclose(cycle, np.asarray(cycle_sm), atol=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(124)
        y = rng.standard_normal(124)
        a, b = 2.5, -1.25
        tx, _ = hp_filter(x, 14400.0)
        ty, _ = hp_filter(y, 14400.0)
        txy, _ = hp_filter(a * x + b * y, 14400.0)
        np.testing.assert_allclose(txy, a * tx + b * ty, atol=1e-9)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            hp_filter(np.ones(3), 1600.0)

    @pytest.mark.parametrize("n", [4, 5, 12, 133])
    def test_matches_exact_rational_solve(self, n):
        rng = np.random.default_rng(n)
        for lam in (1600.0, 14400.0):
            y = rng.standard_normal(n).cumsum()
            trend, _ = hp_filter(y, lam)
            assert np.abs(trend - _hp_exact_oracle(y, lam)).max() <= 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_are_refused(self, bad):
        y = np.random.default_rng(3).standard_normal(20).cumsum()
        y[7] = bad
        with pytest.raises(ValueError):
            hp_filter(y, 1600.0)

    def test_values_must_be_one_series(self):
        with pytest.raises(ValueError, match="^values must be 1-D$"):
            hp_filter(np.ones((20, 2)), 1600.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_zero_smoothing_refuses_non_finite_values(self, bad):
        y = np.random.default_rng(3).standard_normal(20).cumsum()
        y[7] = bad
        with pytest.raises(ValueError):
            hp_filter(y, 0.0)

    def test_smoothing_bound(self):
        # at the bound the trend still matches the exact solve to 1e-6 of its
        # scale; just above it, and at 1e16 where the factor breaks down, the
        # smoothing is refused
        y = np.random.default_rng(4).standard_normal(133).cumsum()
        trend, _ = hp_filter(y, MAX_HP_SMOOTHING)
        oracle = _hp_exact_oracle(y, MAX_HP_SMOOTHING)
        assert np.abs(trend - oracle).max() <= 1e-6 * np.abs(oracle).max()
        for smoothing in (np.nextafter(MAX_HP_SMOOTHING, np.inf), 1e16):
            with pytest.raises(ValueError, match=r"^smoothing must be in \[0, 1e\+10\]"):
                hp_filter(y, smoothing)

    @pytest.mark.parametrize("smoothing", [np.inf, np.nan, 1e308])
    def test_non_finite_smoothing_is_refused(self, smoothing):
        # 1e308: above the bound, where the matrix entry 1 + 6 * smoothing overflows
        with pytest.raises(ValueError):
            hp_filter(np.arange(20.0), smoothing)


class TestTrendChange:
    def test_constant_trend_is_zero(self):
        dates = month_range(Month(2010, 10), 12)
        assert trend_change(dates, np.full(12, 5.0), dates[0], dates[-1]) == 0.0

    def test_hand_percentage(self):
        dates = month_range(Month(2010, 10), 2)
        trend = np.array([2.0, 1.43])
        assert abs(trend_change(dates, trend, dates[0], dates[1]) - (-28.5)) < 1e-12

    def test_out_of_range(self):
        dates = month_range(Month(2010, 10), 12)
        with pytest.raises(DateRangeError):
            trend_change(dates, np.ones(12), Month(2000, 1), dates[-1])

    def test_zero_base(self):
        dates = month_range(Month(2010, 10), 4)
        with pytest.raises(ZeroBaseError):
            trend_change(dates, np.zeros(4), dates[0], dates[-1])


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=3),
       st.floats(min_value=-50, max_value=50))
def test_dispersion_translation_property(values, shift):
    dates = month_range(Month(2012, 1), 1)
    table = _table_503020([2012])
    shocks = {c: np.array([v]) for c, v in zip(("AAA", "BBB", "CCC"), values)}
    shifted = {c: v + shift for c, v in shocks.items()}
    s0 = dispersion_index(shocks, dates, table).values[0]
    s1 = dispersion_index(shifted, dates, table).values[0]
    assert abs(s0 - s1) < 1e-9
