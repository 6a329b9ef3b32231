import io
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from ocametrics import metrics, panel, pipeline, unit_root, var
from ocametrics.errors import ConfigError, OcaError
from ocametrics.months import Month, month_range
from ocametrics.pipeline import (
    SHOCK_KINDS,
    PipelineConfig,
    _adf_dict,
    _pretests,
    analyze_country,
    build_report,
)
from ocametrics.simulate import equal_weights_csv, synthetic_panel
from ocametrics.unit_root import adf_test

from .conftest import count_calls

CONFIG = PipelineConfig(panel_path="-", weights_path="-", output_dir="-")

# each bounded setting: the values at its bounds (or just inside an open one)
# and the values just outside them
RANGES = {
    "alpha": ([1e-9, 1 - 1e-9], [0.0, 1.0, float("nan")]),
    "max_lags": ([1, 24], [0, 25]),
    "hp_lambda": ([0.0, metrics.MAX_HP_SMOOTHING],
                  [-1e-9, np.nextafter(metrics.MAX_HP_SMOOTHING, np.inf), float("nan"),
                   float("inf")]),
    "portmanteau_h": ([2], [1, float("inf")]),
    "arch_q": ([1], [0, float("inf")]),
    "threads": ([1], [0, float("inf")]),
}


def test_every_bounded_setting_is_checked():
    assert {f.name for f in fields(PipelineConfig) if "bounds" in f.metadata} == set(RANGES)


@pytest.mark.parametrize("name", list(RANGES))
def test_config_refuses_a_setting_out_of_range(name):
    accepted, refused = RANGES[name]
    for value in accepted:
        assert getattr(replace(CONFIG, **{name: value}), name) == value
    for value in refused:
        with pytest.raises(ConfigError, match=f"^{name} must be "):
            replace(CONFIG, **{name: value})


@pytest.mark.parametrize("name", ["panel_path", "weights_path", "output_dir"])
def test_config_refuses_an_empty_path(name):
    with pytest.raises(ConfigError, match="must be set"):
        replace(CONFIG, **{name: ""})


def test_country_chain_estimates_once(fixture_panel, monkeypatch):
    fits = count_calls(monkeypatch, var.fit_var)
    logs = count_calls(monkeypatch, panel.log_level_series)
    stabilities = count_calls(monkeypatch, var.stability)
    for country in fixture_panel.countries:
        del fits[:], logs[:], stabilities[:]
        trail = len(analyze_country(fixture_panel, country, CONFIG)["var"]["gate_trail"])
        assert len(fits) == trail, country
        assert len(logs) == 2, country
        # one per gate step, one in identify_bq
        assert len(stabilities) == trail + 1, country


def test_selection_carries_the_accepted_model(fixture_panel):
    _, data, dummies = pipeline.country_series(fixture_panel, "C00", CONFIG)
    selection = pipeline.gated_lag(data, dummies, CONFIG)
    refit = var.fit_var(panel.transform_pair(fixture_panel, "C00"), selection.p)
    assert (refit.coefs == selection.model.coefs).all()
    assert (refit.residuals == selection.model.residuals).all()
    assert selection.diagnostics == var.diagnose(refit, 12, 4)


def test_group_dispersion_once_per_country(fixture_panel, fixture_weights_path, monkeypatch):
    passes = count_calls(monkeypatch, metrics._dispersion_pass)
    build_report(fixture_panel, metrics.load_weights(fixture_weights_path), CONFIG)
    # one pass per shock kind gives the full group and every country left out
    assert len(passes) == len(SHOCK_KINDS)


def test_country_block_is_the_report_block(fixture_panel, fixture_weights_path):
    report = build_report(fixture_panel, metrics.load_weights(fixture_weights_path), CONFIG)
    for country in fixture_panel.countries:
        assert analyze_country(fixture_panel, country, CONFIG) == report["countries"][country]


def test_report_reads_back_from_its_json(fixture_panel, fixture_weights_path):
    # every array is a list, so the report equals the report.json it writes
    report = build_report(fixture_panel, metrics.load_weights(fixture_weights_path), CONFIG)
    assert json.loads(pipeline.render_json(report)) == report


def _leaves(node, path=()):
    """Each ``(path, value)`` leaf of a report's nested dicts and lists."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, (*path, i))
    else:
        yield path, node


def test_scaling_a_country_index_moves_no_decision(fixture_panel, fixture_weights_path):
    # an index's base only shifts its log: the differences drop the shift and
    # every pretest's intercept absorbs it, so only round-off moves: at 7.3
    # the largest is 7.1e-13 (a trend_change_pct), bounded here at 1e-11
    weights = metrics.load_weights(fixture_weights_path)
    values = dict(fixture_panel.values)
    values["C03", "activity"] = 7.3 * values["C03", "activity"]
    scaled = panel.Panel(fixture_panel.countries, fixture_panel.dates, values)
    reports = [build_report(p, weights, CONFIG) for p in (fixture_panel, scaled)]
    base, other = (dict(_leaves(report)) for report in reports)
    floats = {path for path, value in base.items() if isinstance(value, float)}
    assert {path for path, value in other.items() if isinstance(value, float)} == floats
    assert ({k: v for k, v in base.items() if k not in floats}
            == {k: v for k, v in other.items() if k not in floats})
    assert max(abs(base[path] - other[path]) for path in floats) < 1e-11
    base, other = (pipeline._render_tables(report) for report in reports)
    assert base.keys() == other.keys()
    for name in base:
        if not name.startswith("shocks_"):  # the one table at 15 digits
            assert base[name] == other[name], name


def _pretest_oracle(series, max_lags):
    """One country's pretests the way they ran before batching: each series
    tested on its own, and the second difference only when still needed."""
    def rejects(result):
        return result["reject_at"] is not None and result["reject_at"] <= 0.05

    trail = [adf_test(series, spec="trend", max_lags=max_lags),
             adf_test(np.diff(series), spec="trend", max_lags=max_lags)]
    if not any(map(rejects, trail)):
        try:
            trail.append(adf_test(np.diff(np.diff(series)), spec="trend", max_lags=max_lags))
        except OcaError:
            pass
    order = next((i for i, result in enumerate(trail) if rejects(result)), None)
    return trail[0], trail[1], "inconclusive" if order is None else f"I({order})"


@pytest.mark.parametrize("max_lags", [12, 4])
def test_panel_pretests_match_per_series_tests(fixture_panel, max_lags):
    rng = np.random.default_rng(4)
    logs = {c: tuple(panel.log_level_series(fixture_panel, c, v)
                     for v in panel.VARIABLES) for c in fixture_panel.countries}
    noise = rng.standard_normal((4, 133))
    logs["I2X"] = (noise[0].cumsum().cumsum(), 0.1 * np.arange(133) + noise[1])
    logs["STX"] = (noise[2], np.r_[np.zeros(110), noise[3, :23]].cumsum().cumsum())
    conclusions = set()
    for country, adf in _pretests(logs, max_lags).items():
        for variable, series in zip(panel.VARIABLES, logs[country]):
            level, diff, conclusion = _pretest_oracle(series, max_lags)
            assert adf[variable] == {"level": _adf_dict(level), "first_difference": _adf_dict(diff),
                                     "conclusion": conclusion}
            conclusions.add(conclusion)
    assert {"I(0)", "I(1)", "I(2)"} <= conclusions


def test_every_pretest_uses_the_lag_cap(monkeypatch):
    calls = []

    def spy(series, **kwargs):
        calls.append(kwargs.get("max_lags", 12))
        return unit_root.adf_panel(series, **kwargs)

    monkeypatch.setattr(pipeline, "adf_panel", spy)
    noise = np.random.default_rng(4).standard_normal((2, 133))
    # an I(2) series keeps the second-difference call in play
    logs = {"I2X": (noise[0].cumsum().cumsum(), noise[1].cumsum())}
    assert _pretests(logs, 4)["I2X"]["activity"]["conclusion"] == "I(2)"
    assert calls == [4, 4]


def test_pretests_conclude_inconclusive():
    # an I(3) series rejects a unit root at no order up to the second difference
    for seed in range(5):
        noise = np.random.default_rng(seed).standard_normal((2, 133))
        logs = {"I3X": (noise[0].cumsum().cumsum().cumsum(), noise[1].cumsum())}
        adf = _pretests(logs, 12)["I3X"]
        conclusions = {variable: cell["conclusion"] for variable, cell in adf.items()}
        assert conclusions == {"activity": "inconclusive", "price": "I(1)"}, seed
        for key in ("level", "first_difference"):
            reject_at = adf["activity"][key]["reject_at"]
            assert reject_at is None or reject_at > 0.05


def test_constant_series_names_its_country():
    # the ADF refuses a constant series and its differences: each refusal is
    # the finding of its own country's cell, and every other cell is tested
    walk = np.random.default_rng(2).standard_normal(133).cumsum()
    logs = {"AAA": (walk, 2.0 * walk), "BBB": (walk, np.full(133, 4.6)),
            "CCC": (np.full(133, 4.6), walk)}
    adf = _pretests(logs, 12)
    refused = {"error": "DegenerateRegressorError", "message": "series is constant"}
    constant = {("BBB", "price"), ("CCC", "activity")}
    for country, cells in adf.items():
        for variable, cell in cells.items():
            if (country, variable) in constant:
                assert cell == {"level": refused, "first_difference": refused,
                                "conclusion": "inconclusive"}
            else:
                assert "statistic" in cell["level"] and "statistic" in cell["first_difference"]
    assert adf["AAA"] == _pretests({"AAA": logs["AAA"]}, 12)["AAA"]


# the seed fixture, and a 23-month panel that refuses every first-difference
# ADF and every Johansen test at these settings
GROUP_PANELS = {
    "seed": ((20260401, 7, 133), {}),
    "short": ((1, 4, 23), {"max_lags": 2, "arch_q": 2, "portmanteau_h": 4}),
}


@pytest.mark.parametrize("name", list(GROUP_PANELS))
def test_group_block_equals_the_chain_only_series(name):
    # the dispersion of the whole group, and each country's cost of inclusion
    # left out on its own, from the report's own shock series on the common
    # calendar: the shock chain alone decides them, so even where every
    # Johansen test is refused the pretests move nothing
    args, settings = GROUP_PANELS[name]
    fixture = synthetic_panel(*args)
    weights = metrics.load_weights(io.StringIO(equal_weights_csv(fixture)))
    config = replace(CONFIG, **settings)
    report = build_report(fixture, weights, config)
    if name == "short":
        assert all("error" in block["johansen"] for block in report["countries"].values())
    group = report["group"]
    common = group["common_calendar"]
    dates = month_range(Month.parse(common["start"]), common["n"])
    shocks = {kind: {} for kind in SHOCK_KINDS}
    for c, block in report["shocks"].items():
        first = block["dates"].index(common["start"])
        for kind in SHOCK_KINDS:
            shocks[kind][c] = np.array(block[kind][first:first + len(dates)])
    for kind in SHOCK_KINDS:
        values, _ = metrics.group_dispersion(shocks[kind], dates, weights)
        trend, _ = metrics.hp_filter(values, config.hp_lambda)
        assert group["dispersion"][kind]["dates"] == dates.labels()
        assert group["dispersion"][kind]["values"] == values.tolist()
        assert group["dispersion"][kind]["trend"] == trend.tolist()
        assert group["cost"][kind] == {
            c: metrics.group_dispersion(shocks[kind], dates, weights, (c,))[1][c].tolist()
            for c in fixture.countries}


@pytest.fixture(scope="module")
def relabelled_reports(fixture_panel):
    """``build_report`` of the seed fixture, with and without three planted
    copies of C00, then of the same panel with each code C0k renamed to
    X(n-1-k), which reverses the sort order; the weights follow their country."""
    values = dict(fixture_panel.values)
    for code, scale in (("C07", 2.0), ("C08", 0.5), ("C09", 3.0)):
        values.update({(code, v): scale * values[("C00", v)] for v in panel.VARIABLES})
    planted = panel.Panel((*fixture_panel.countries, "C07", "C08", "C09"),
                          fixture_panel.dates, values)
    out = {}
    for name, base in (("seed", fixture_panel), ("planted", planted)):
        n = len(base.countries)
        names = {c: f"X{n - 1 - k}" for k, c in enumerate(base.countries)}
        renamed = panel.Panel(tuple(sorted(names.values())), base.dates,
                              {(names[c], v): a for (c, v), a in base.values.items()})
        weights = equal_weights_csv(base)
        renamed_weights = "".join(f"{y},{names.get(c, c)},{w}\n" for y, c, w in
                                  (line.split(",") for line in weights.splitlines()))
        out[name] = names, *(build_report(p, metrics.load_weights(io.StringIO(w)), CONFIG)
                             for p, w in ((base, weights), (renamed, renamed_weights)))
    return out


# the largest difference a relabelling may make to each group float: the
# weighted sums run in another country order (4.4e-16 at most, measured), and
# the HP trend amplifies a last-bit move about 30-fold
RELABEL_TOLERANCE = {"values": 2e-15, "cost": 2e-15, "trend": 6e-14, "trend_change_pct": 1e-11}

# how far a planted copy of C00 may read from C00 itself: a scale only shifts
# the logs, which moves the growth rates' last bits (measured: |r - 1| <= 4.4e-16,
# p = 0, shocks of size about 4 apart by at most 1.9e-13)
COPY_TOLERANCE = {"r": 2e-15, "p": 1e-15, "shocks": 1e-12}


@pytest.mark.parametrize("name", ["seed", "planted"])
def test_relabelling_countries_maps_every_result(relabelled_reports, name):
    names, base, other = relabelled_reports[name]
    for c, x in names.items():
        # the lag picks, the pretests and the shocks are each country's own
        assert other["countries"][x] == base["countries"][c]
        assert other["shocks"][x] == base["shocks"][c]
    for kind in SHOCK_KINDS:
        symmetry, relabelled = base["group"]["symmetry"][kind], other["group"]["symmetry"][kind]
        assert sorted(sorted(names[c] for c in g) for g in symmetry["groups"]) == sorted(
            relabelled["groups"])
        assert {frozenset(names[c] for c in pair.split("|")): flag
                for pair, flag in symmetry["symmetric_pairs"].items()} == {
            frozenset(pair.split("|")): flag
            for pair, flag in relabelled["symmetric_pairs"].items()}
        disp, moved = base["group"]["dispersion"][kind], other["group"]["dispersion"][kind]
        assert moved["dates"] == disp["dates"]
        for key in ("values", "trend"):
            gap = np.abs(np.subtract(moved[key], disp[key])).max()
            assert gap <= RELABEL_TOLERANCE[key], (kind, key, gap)
        assert (abs(moved["trend_change_pct"] - disp["trend_change_pct"])
                <= RELABEL_TOLERANCE["trend_change_pct"])
        cost, relabelled_cost = base["group"]["cost"][kind], other["group"]["cost"][kind]
        gap = max(np.abs(np.subtract(relabelled_cost[names[c]], cost[c])).max() for c in cost)
        assert gap <= RELABEL_TOLERANCE["cost"], (kind, gap)
    if name == "planted":
        groups = {kind: other["group"]["symmetry"][kind]["groups"] for kind in SHOCK_KINDS}
        assert all(any({"X9", "X2", "X1", "X0"} <= set(g) for g in groups[k]) for k in groups)
        for kind in SHOCK_KINDS:
            corr = base["group"]["correlations"][kind]
            i = corr["countries"].index("C00")
            for copy in ("C07", "C08", "C09"):
                j = corr["countries"].index(copy)
                assert corr["r"][i][j] == corr["r"][j][i]
                assert corr["p"][i][j] == corr["p"][j][i]
                assert abs(corr["r"][i][j] - 1.0) <= COPY_TOLERANCE["r"], (kind, copy)
                assert corr["p"][i][j] <= COPY_TOLERANCE["p"], (kind, copy)
                assert base["group"]["symmetry"][kind]["symmetric_pairs"][f"C00|{copy}"]
                gap = np.abs(np.subtract(base["shocks"][copy][kind],
                                         base["shocks"]["C00"][kind])).max()
                assert gap <= COPY_TOLERANCE["shocks"], (kind, copy, gap)
