import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from ocametrics import var
from ocametrics.cli import _series_from_csv, main
from ocametrics.errors import ConfigError, DegenerateWeightsError, PanelError
from ocametrics.metrics import MAX_HP_SMOOTHING, load_weights, significance_stars
from ocametrics.months import Month
from ocametrics.panel import VARIABLES, Panel, load_panel, panel_to_csv
from ocametrics.pipeline import PipelineConfig, _render_tables, country_series
from ocametrics.simulate import equal_weights_csv, synthetic_panel

from .conftest import count_calls


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def bundle(runner, tmp_path_factory):
    """One full CLI pipeline run shared by the inspection tests."""
    root = tmp_path_factory.mktemp("cli_bundle")
    panel = root / "panel.csv"
    weights = root / "weights.csv"
    out = root / "out"
    res = runner.invoke(main, ["simulate", "--seed", "42", "--t", "133",
                               "--countries", "7", "--output", str(panel),
                               "--weights-output", str(weights)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, [
        "run", "--panel", str(panel), "--weights", str(weights),
        "--output-dir", str(out)])
    assert res.exit_code == 0, res.output
    return {"panel": panel, "weights": weights, "out": out}


# gate settings at which the seed fixture's lags are [1, 6, 1, 2, 1, 1, 1],
# against [1, 5, 1, 3, 1, 1, 1] at the defaults
GATE = ["--alpha", "0.1", "--portmanteau-h", "6", "--arch-q", "2"]


@pytest.fixture(scope="module")
def seed_bundle(runner, fixture_panel_path, fixture_weights_path, tmp_path_factory):
    """The output directory of ``run`` on the seed fixture with the given flags;
    each set of flags runs once per module."""
    outs = {}

    def make(*flags):
        if flags not in outs:
            out = tmp_path_factory.mktemp("seed_bundle") / "out"
            res = runner.invoke(main, ["run", "--panel", str(fixture_panel_path), "--weights",
                                       str(fixture_weights_path), "--output-dir", str(out),
                                       *flags])
            assert res.exit_code == 0, res.output
            outs[flags] = out
        return outs[flags]
    return make


@pytest.fixture
def series_path(tmp_path):
    path = tmp_path / "series.csv"
    walk = np.random.default_rng(1).standard_normal(100).cumsum()
    path.write_text("date,value\n" + "\n".join(
        f"{Month(2009, 1) + i},{v}" for i, v in enumerate(walk)) + "\n")
    return path


class TestSimulate:
    def test_stdout_panel_parses_and_is_deterministic(self, runner, tmp_path):
        a = runner.invoke(main, ["simulate", "--seed", "1", "--t", "24",
                                 "--countries", "2"])
        b = runner.invoke(main, ["simulate", "--seed", "1", "--t", "24",
                                 "--countries", "2"])
        assert a.exit_code == 0 and a.output == b.output
        import io
        panel = load_panel(io.StringIO(a.output))
        assert panel.n_months == 24
        assert panel.countries == ("C00", "C01")
        # stdout is the text --output writes, byte for byte
        path = tmp_path / "panel.csv"
        res = runner.invoke(main, ["simulate", "--seed", "1", "--t", "24", "--countries", "2",
                                   "--output", str(path)])
        assert res.exit_code == 0 and res.stdout == ""
        assert path.read_bytes() == a.stdout_bytes

    def test_weights_output_is_loadable(self, bundle):
        table = load_weights(bundle["weights"])
        assert len(table.years) >= 11

    @pytest.mark.parametrize("n_countries", range(2, 101))
    def test_weights_output_sums_to_one(self, runner, tmp_path, n_countries):
        from fractions import Fraction

        weights = tmp_path / "weights.csv"
        res = runner.invoke(main, ["simulate", "--t", "13", "--countries", str(n_countries),
                                   "--output", str(tmp_path / "panel.csv"),
                                   "--weights-output", str(weights)])
        assert res.exit_code == 0, res.output
        table = load_weights(weights)
        assert table.years == (2009, 2010)
        rows = [line.split(",") for line in weights.read_text().splitlines()[1:]]
        for year in ("2009", "2010"):
            shares = [Fraction(w) for y, _, w in rows if y == year]
            assert len(shares) == n_countries and sum(shares) == 1

    @pytest.mark.parametrize("flags", [
        ["--output", "TARGET"],
        ["--output", "PANEL", "--weights-output", "TARGET"],
        ["--output", "TARGET", "--weights-output", "WEIGHTS"],
        ["--weights-output", "TARGET"],
    ], ids=["output", "weights-output", "output-with-weights", "weights-before-stdout"])
    def test_unwritable_output_is_a_named_error(self, runner, tmp_path, flags):
        target = tmp_path / "nodir" / "out.csv"
        paths = {"TARGET": str(target), "PANEL": str(tmp_path / "panel.csv"),
                 "WEIGHTS": str(tmp_path / "weights.csv")}
        res = runner.invoke(main, ["simulate", "--t", "24", "--countries", "2",
                                   *(paths.get(f, f) for f in flags)])
        assert res.exit_code == 1
        assert res.stderr == f"error: cannot write {target}: No such file or directory\n"
        assert isinstance(res.exception, SystemExit)
        # a failed write leaves neither file and prints no panel
        assert list(tmp_path.iterdir()) == [] and res.stdout == ""

    @pytest.mark.parametrize("kept, flags", [
        ("WEIGHTS", ["--output", "TARGET", "--weights-output", "WEIGHTS"]),
        ("PANEL", ["--output", "PANEL", "--weights-output", "TARGET"]),
    ], ids=["weights", "panel"])
    def test_failed_write_keeps_a_file_that_was_there(self, runner, tmp_path, kept, flags):
        paths = {"TARGET": str(tmp_path / "nodir" / "out.csv"),
                 "PANEL": str(tmp_path / "panel.csv"), "WEIGHTS": str(tmp_path / "weights.csv")}
        there = Path(paths[kept])
        there.write_text("kept\n")
        res = runner.invoke(main, ["simulate", "--t", "24", "--countries", "2",
                                   *(paths.get(f, f) for f in flags)])
        assert res.exit_code == 1
        assert list(tmp_path.iterdir()) == [there]
        if kept == "WEIGHTS":
            # the panel write failed first, so the weights were never touched
            assert there.read_text() == "kept\n"
        else:
            # overwritten before the weights write failed, but not removed
            assert load_panel(there).countries == ("C00", "C01")

    def test_output_and_weights_output_must_differ(self, runner, tmp_path):
        res = runner.invoke(main, ["simulate", "--t", "24", "--countries", "2",
                                   "--output", str(tmp_path / "same.csv"), "--weights-output",
                                   str(tmp_path / "nodir" / ".." / "same.csv")])
        assert res.exit_code == 2 and "'--weights-output'" in res.stderr
        assert list(tmp_path.iterdir()) == []

    def test_calendar_past_9999_12_is_refused(self, runner, tmp_path, monkeypatch):
        out = tmp_path / "p.csv"
        draws = count_calls(monkeypatch, synthetic_panel)
        res = runner.invoke(main, ["simulate", "--start", "9999-06", "--t", "12",
                                   "--output", str(out)])
        assert res.exit_code == 1
        assert res.stderr == "error: a calendar of 12 months from 9999-06 ends after 9999-12\n"
        assert draws == [] and not out.exists()
        # a panel that ends in 9999-12 is written and read back
        res = runner.invoke(main, ["simulate", "--start", "9999-01", "--t", "12",
                                   "--countries", "2", "--output", str(out)])
        assert res.exit_code == 0
        assert str(load_panel(out).dates) == "9999-01..9999-12"


def test_cli_import_leaves_out_scipy_stats_and_signal():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, ocametrics.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'signal']))); "
            "print('ocametrics.simulate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    # only the simulate subcommand imports the simulate module
    assert out.split("\n")[:2] == ["[]", "False"]


def test_round_trip_leaves_out_scipy(tmp_path, series_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    panel = tmp_path / "panel.csv"
    commands = [["simulate", "--t", "61", "--countries", "2", "--output", str(panel)],
                ["johansen", "--panel", str(panel), "--country", "C00", "--lag-order", "2"],
                ["adf", "--series", str(series_path)]]
    code = f"""
import sys, ocametrics, ocametrics.cli
from click.testing import CliRunner
from ocametrics.identification import identify_bq
from ocametrics.months import Month, month_range
from ocametrics.panel import TransformedSeries
from ocametrics.simulate import random_dgp, recovery_report, simulate
from ocametrics.var import fit_var, portmanteau_test

for args in {commands!r}:
    assert CliRunner().invoke(ocametrics.cli.main, args).exit_code == 0, args
for seed in range(3):
    dgp = random_dgp(seed, p=seed + 1, n_obs=500)
    diffs = simulate(dgp).diffs
    dates = month_range(Month(2009, 2), diffs.shape[0])
    pair = tuple(TransformedSeries(country="AAA", variable=v, dates=dates,
                                   values=diffs[:, i].copy())
                 for i, v in enumerate(("activity", "price")))
    model = fit_var(pair, dgp.p)
    recovery_report(dgp, identify_bq(model))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
portmanteau_test(model, 12)
print("scipy.special._ufuncs" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split("\n")[:2] == ["[]", "True"]


@pytest.mark.parametrize("command", ["run"])
def test_hp_trend_leaves_out_scipy_linalg(tmp_path, fixture_panel_path, fixture_weights_path,
                                          command):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    args = [command, "--panel", str(fixture_panel_path), "--weights", str(fixture_weights_path),
            "--output-dir", str(tmp_path / "out")]
    code = f"""
import sys, ocametrics.cli
from click.testing import CliRunner
assert CliRunner().invoke(ocametrics.cli.main, {args!r}).exit_code == 0
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["scipy", "linalg"]))
print(*(m in sys.modules for m in ("scipy.special._ufuncs", "scipy", "scipy._lib",
                                    "scipy.special", "concurrent.futures")))
print("numpy.ma" in sys.modules, "ocametrics.simulate" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    # the p-values ran on scipy's compiled ufuncs without any scipy package
    # init, no thread pool loaded concurrent.futures, and the run imported
    # neither numpy.ma (np.unique loads it) nor simulate
    assert out.split("\n")[:3] == ["[]", "True False False False False", "False False"]


class TestRunPipeline:
    def test_bundle_files_exist(self, bundle):
        names = {p.name for p in bundle["out"].iterdir()}
        expected = {"report.json", "adf.csv", "johansen.csv", "var_summary.csv",
                    "correlation_supply.csv", "correlation_demand.csv",
                    "size_speed.csv", "dispersion_supply.csv", "dispersion_demand.csv",
                    "cost_supply.csv", "cost_demand.csv", "groups.csv"}
        assert names == expected | {f"shocks_C0{i}.csv" for i in range(7)}

    def test_every_table_row_has_its_header_width(self, bundle):
        for path in sorted(bundle["out"].glob("*.csv")):
            header, *rows = csv.reader(path.read_text(encoding="utf-8").splitlines())
            assert {len(row) for row in rows} <= {len(header)}, path.name

    def test_country_code_that_breaks_the_bundle_is_refused(self, runner, bundle, tmp_path,
                                                            monkeypatch):
        panel = tmp_path / "panel.csv"
        panel.write_text(bundle["panel"].read_text().replace("\nC00,", "\n../C00,"))
        fits = count_calls(monkeypatch, var.select_lag)
        out = tmp_path / "out"
        res = runner.invoke(main, ["run", "--panel", str(panel), "--weights",
                                   str(bundle["weights"]), "--output-dir", str(out)])
        assert res.exit_code == 1
        assert res.stderr.startswith("error: line 2: country code '../C00' must be non-empty")
        assert fits == [] and not out.exists()

    def test_tables_round_json_values_half_even(self, bundle):
        """Every cell of every table is its ``report.json`` value: 3 decimals,
        half to even, except the shocks at 15 significant digits."""
        out = bundle["out"]
        report = json.loads((out / "report.json").read_text())
        countries, group = report["countries"], report["group"]

        def table(name):
            text = (out / name).read_text(encoding="utf-8")
            assert text.endswith("\n") and "\r" not in text and '"' not in text, name
            rows = list(csv.DictReader(text.splitlines()))
            assert all(None not in row and None not in row.values() for row in rows), name
            return rows

        def f3(value):
            return format(value, ".3f")

        rows = table("adf.csv")
        assert [(r["country"], r["variable"]) for r in rows] == [
            (c, v) for c in countries for v in ("activity", "price")]
        for row in rows:
            cell = countries[row["country"]]["adf"][row["variable"]]
            for test in ("level", "first_difference"):
                assert row[test] == f3(cell[test]["statistic"])
                assert row[f"{test}_stars"] == cell[test]["stars"]
            assert row["conclusion"] == cell["conclusion"]

        rows = table("johansen.csv")
        assert len(rows) == 2 * len(countries)
        for i, row in enumerate(rows):
            jo, r = countries[row["country"]]["johansen"], i % 2
            assert row["hypothesis"] == ("r = 0", "r <= 1")[r]
            assert [row["trace_statistic"], row["trace_cv_5pct"], row["maxeig_statistic"],
                    row["maxeig_cv_5pct"]] == [
                f3(jo[key][r]) for key in ("trace_stats", "critical_values_trace",
                                           "max_eig_stats", "critical_values_maxeig")]
            assert row["selected_rank"] == str(jo["selected_rank"])

        rows = table("var_summary.csv")
        assert [row["country"] for row in rows] == list(countries)
        for row in rows:
            block = countries[row["country"]]["var"]
            assert row == {
                "country": row["country"], "p": str(block["p"]),
                "stable": str(block["stable"]).lower(),
                "max_modulus": f3(block["max_modulus"]),
                "portmanteau_h": str(block["portmanteau"]["h"]),
                "portmanteau_pvalue": f3(block["portmanteau"]["p_value"]),
                "arch_q": str(block["arch"]["activity"]["q"]),
                "arch_pvalue_activity": f3(block["arch"]["activity"]["p_value"]),
                "arch_pvalue_price": f3(block["arch"]["price"]["p_value"])}

        sizes = {c: block["size_speed"] for c, block in countries.items()}
        sizes["average"] = group["size_speed"]["average"]
        rows = table("size_speed.csv")
        assert [row["country"] for row in rows] == list(sizes)
        for row in rows:
            values = sizes[row["country"]]
            assert row == {"country": row["country"], **{k: f3(v) for k, v in values.items()}}

        for kind in ("supply", "demand"):
            disp = group["dispersion"][kind]
            assert table(f"dispersion_{kind}.csv") == [
                {"date": d, "value": f3(v), "trend": f3(t)}
                for d, v, t in zip(disp["dates"], disp["values"], disp["trend"])]
            cost = group["cost"][kind]
            assert table(f"cost_{kind}.csv") == [
                {"date": d, **{c: f3(cost[c][t]) for c in countries}}
                for t, d in enumerate(disp["dates"])]
            corr = group["correlations"][kind]
            rows = table(f"correlation_{kind}.csv")
            assert [row["country"] for row in rows] == corr["countries"]
            for i, row in enumerate(rows):
                for j, b in enumerate(corr["countries"]):
                    digits = row[b].rstrip("*")
                    assert digits == ("" if j > i else f3(corr["r"][i][j]))
                    if j < i:
                        assert row[b][len(digits):] == significance_stars(corr["p"][i][j])

        assert table("groups.csv") == [
            {"kind": kind, "members": ";".join(members)}
            for kind in ("supply", "demand") for members in group["symmetry"][kind]["groups"]]
        # the fixture has no symmetric group; one written into the report gets its row
        group["symmetry"]["demand"]["groups"] = [["C00", "C03"], ["C01", "C02", "C05"]]
        assert _render_tables(report)["groups.csv"] == (
            "kind,members\ndemand,C00;C03\ndemand,C01;C02;C05\n")

        for c in countries:
            shocks = report["shocks"][c]
            assert table(f"shocks_{c}.csv") == [
                {"country": c, "date": d, "supply_shock": format(s, ".15g"),
                 "demand_shock": format(m, ".15g")}
                for d, s, m in zip(shocks["dates"], shocks["supply"], shocks["demand"])]

    def test_report_config_holds_every_setting_but_threads(self, bundle):
        report = json.loads((bundle["out"] / "report.json").read_text())
        names = {f.name for f in dataclasses.fields(PipelineConfig)}
        assert set(report["metadata"]["config"]) == names - {"threads"}

    def test_report_carries_cumulative_irfs(self, bundle):
        report = json.loads((bundle["out"] / "report.json").read_text())
        irf = report["countries"]["C00"]["irf"]
        assert irf["horizon"] == 48
        assert len(irf["cumulative_responses"]["supply_activity"]) == 49
        # the identifying restriction: demand -> activity heads to zero
        long_run = report["countries"]["C00"]["identification"]["long_run"]
        assert abs(long_run[0][1]) < 1e-8

    def test_stage_failure_leaves_no_outputs(self, runner, bundle, tmp_path):
        # weights without the first year pass the up-front check, which covers
        # only the months every common shock calendar holds, so the group
        # stage fails after estimation, and nothing may be written
        short_weights = tmp_path / "short.csv"
        lines = bundle["weights"].read_text().splitlines(keepends=True)
        short_weights.write_text("".join(line for line in lines if not line.startswith("2009,")))
        out = tmp_path / "partial"
        res = runner.invoke(main, [
            "run", "--panel", str(bundle["panel"]), "--weights", str(short_weights),
            "--output-dir", str(out)])
        assert res.exit_code != 0
        assert "group" in res.output
        assert "no weights for year 2009" in res.output
        assert not out.exists()

    def test_two_country_panel_is_refused_before_estimation(self, runner, tmp_path,
                                                            monkeypatch):
        panel = synthetic_panel(20260401, 2, 133)
        panel_path, weights_path = tmp_path / "panel.csv", tmp_path / "weights.csv"
        panel_path.write_text(panel_to_csv(panel), encoding="utf-8")
        weights_path.write_text(equal_weights_csv(panel), encoding="utf-8")
        fits = count_calls(monkeypatch, var.select_lag)
        out = tmp_path / "never"
        res = runner.invoke(main, [
            "run", "--panel", str(panel_path), "--weights", str(weights_path),
            "--output-dir", str(out)])
        assert res.exit_code == 1
        assert "run needs at least 3 countries, the panel has 2" in res.stderr
        assert fits == []
        assert not out.exists()

    def test_refused_pretests_are_findings(self, runner, tmp_path):
        # at --max-lags 2, 23 months are too few for every first-difference
        # ADF and every Johansen test, while the level ADFs and the shock chain run
        panel, weights, out = tmp_path / "panel.csv", tmp_path / "weights.csv", tmp_path / "out"
        res = runner.invoke(main, ["simulate", "--seed", "1", "--t", "23", "--countries", "4",
                                   "--output", str(panel), "--weights-output", str(weights)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["run", "--panel", str(panel), "--weights", str(weights),
                                   "--output-dir", str(out), "--max-lags", "2", "--arch-q", "2",
                                   "--portmanteau-h", "4"])
        assert res.exit_code == 0, res.output
        countries = json.loads((out / "report.json").read_text())["countries"]
        assert list(countries) == ["C00", "C01", "C02", "C03"]
        conclusions = []
        for block in countries.values():
            assert block["johansen"] == {
                "error": "TooShortError",
                "message": "need >= 32 observations for lag order 2, have 23"}
            for cell in block["adf"].values():
                assert cell["first_difference"] == {
                    "error": "TooShortError",
                    "message": "need >= 23 observations with 2 lags, have 22"}
                assert cell["level"]["nobs"] > 0
                conclusions.append(cell["conclusion"])
        # a level rejection still decides its conclusion
        assert sorted(conclusions) == ["I(0)"] + ["inconclusive"] * 7

        rows = list(csv.DictReader((out / "adf.csv").read_text().splitlines()))
        assert len(rows) == 8
        for row in rows:
            cell = countries[row["country"]]["adf"][row["variable"]]
            assert (row["first_difference"], row["first_difference_stars"]) == ("refused", "")
            assert row["level"] == format(cell["level"]["statistic"], ".3f")
        rows = list(csv.DictReader((out / "johansen.csv").read_text().splitlines()))
        assert len(rows) == 8
        for row in rows:
            assert list(row.values())[2:] == ["refused"] * 5

    def test_shock_csv_precision_round_trips(self, bundle):
        report = json.loads((bundle["out"] / "report.json").read_text())
        lines = (bundle["out"] / "shocks_C00.csv").read_text().splitlines()
        assert lines[0] == "country,date,supply_shock,demand_shock"
        first = lines[1].split(",")
        assert first[0] == "C00"
        assert abs(float(first[2]) - report["shocks"]["C00"]["supply"][0]) < 1e-12

    def test_repeat_run_is_byte_identical(self, runner, bundle, tmp_path):
        before = (bundle["out"] / "report.json").read_bytes()
        res = runner.invoke(main, [
            "run", "--panel", str(bundle["panel"]), "--weights", str(bundle["weights"]),
            "--output-dir", str(bundle["out"])])
        assert res.exit_code == 0
        assert (bundle["out"] / "report.json").read_bytes() == before

    def test_input_row_order_moves_no_byte(self, runner, seed_bundle, fixture_panel_path,
                                           fixture_weights_path, tmp_path):
        rng = np.random.default_rng(0)
        shuffled = {}
        for name, path in (("panel", fixture_panel_path), ("weights", fixture_weights_path)):
            header, *rows = path.read_text(encoding="utf-8").splitlines()
            order = rng.permutation(len(rows))
            assert (order != np.arange(len(rows))).any()
            shuffled[name] = tmp_path / path.name
            shuffled[name].write_text("\n".join([header, *(rows[i] for i in order), ""]),
                                      encoding="utf-8")
        out = tmp_path / "out"
        res = runner.invoke(main, ["run", "--panel", str(shuffled["panel"]), "--weights",
                                   str(shuffled["weights"]), "--output-dir", str(out)])
        assert res.exit_code == 0, res.output
        base = seed_bundle()
        names = sorted(p.name for p in base.iterdir())
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            if name != "report.json":
                assert (out / name).read_bytes() == (base / name).read_bytes(), name
        # the report differs only in the paths its config records
        reports = [json.loads((d / "report.json").read_text()) for d in (base, out)]
        for report in reports:
            for key in ("panel_path", "weights_path", "output_dir"):
                del report["metadata"]["config"][key]
        assert reports[0] == reports[1]

    def test_invalid_alpha_fails_without_outputs(self, runner, bundle, tmp_path):
        out = tmp_path / "never"
        res = runner.invoke(main, [
            "run", "--panel", str(bundle["panel"]), "--weights", str(bundle["weights"]),
            "--output-dir", str(out), "--alpha", "1.5"])
        assert res.exit_code != 0
        assert not out.exists()

    def test_two_month_panel_ends_in_a_named_error(self, runner, tmp_path, monkeypatch):
        panel, weights, out = tmp_path / "p.csv", tmp_path / "w.csv", tmp_path / "never"
        res = runner.invoke(main, ["simulate", "--t", "2", "--countries", "3",
                                   "--output", str(panel), "--weights-output", str(weights)])
        assert res.exit_code == 0
        fits = count_calls(monkeypatch, var.select_lag)
        res = runner.invoke(main, [
            "run", "--panel", str(panel), "--weights", str(weights), "--output-dir", str(out)])
        assert res.exit_code == 1
        assert res.stderr == ("error: portmanteau_h=12 needs more than 12 residuals, but no "
                              "lag order leaves more than 0 on a 2-month panel\n")
        assert fits == []
        assert not out.exists()

    @pytest.mark.parametrize("months, flags, fits", [
        (40, [], "the largest that fits is 9"),
        # the lag search of the country with the most dummies needs the longest sample
        (40, ["--max-lags", "9", "--dummy", "C00:2010-06", "--dummy", "C00:2011-02:pulse",
              "--dummy", "C01:2010-06"], "the largest that fits is 8"),
        (14, ["--max-lags", "1", "--portmanteau-h", "2", "--arch-q", "1"], "none fits"),
    ], ids=["default", "dummies", "none"])
    def test_max_lags_the_panel_cannot_search_is_refused_up_front(
            self, runner, tmp_path, monkeypatch, months, flags, fits):
        panel, weights, out = tmp_path / "p.csv", tmp_path / "w.csv", tmp_path / "never"
        res = runner.invoke(main, ["simulate", "--t", str(months), "--countries", "3",
                                   "--output", str(panel), "--weights-output", str(weights)])
        assert res.exit_code == 0
        calls = count_calls(monkeypatch, var.select_lag)
        res = runner.invoke(main, ["run", "--panel", str(panel), "--weights", str(weights),
                                   "--output-dir", str(out), *flags])
        max_lags = flags[1] if flags else "12"
        assert res.exit_code == 1
        assert res.stderr == (f"error: max_lags={max_lags} leaves too short a sample for the "
                              f"lag search on a {months}-month panel; {fits}\n")
        assert calls == []
        assert not out.exists()

    def test_max_lags_that_fits_the_panel_runs(self, runner, tmp_path):
        panel, weights, out = tmp_path / "p.csv", tmp_path / "w.csv", tmp_path / "out"
        res = runner.invoke(main, ["simulate", "--t", "40", "--countries", "3",
                                   "--output", str(panel), "--weights-output", str(weights)])
        assert res.exit_code == 0
        res = runner.invoke(main, ["run", "--panel", str(panel), "--weights", str(weights),
                                   "--output-dir", str(out), "--max-lags", "9"])
        assert res.exit_code == 0, res.output
        assert res.stdout == f"wrote 15 files to {out}\n"
        # a fixed order runs no lag search, so the default max_lags does not refuse it
        view = ["--country", "C00", "--panel", str(panel)]
        assert runner.invoke(main, ["var", "--p", "2", *view]).exit_code == 0
        res = runner.invoke(main, ["var", *view])
        assert res.exit_code == 1
        assert "max_lags=12 leaves too short a sample" in res.stderr

    def test_output_dir_naming_a_file_is_refused_before_estimation(self, runner, bundle,
                                                                   tmp_path, monkeypatch):
        out = tmp_path / "taken"
        out.write_text("kept\n")
        fits = count_calls(monkeypatch, var.select_lag)
        res = runner.invoke(main, [
            "run", "--panel", str(bundle["panel"]), "--weights", str(bundle["weights"]),
            "--output-dir", str(out)])
        assert res.exit_code == 1
        assert res.stderr == f"error: output directory {out} is not a directory\n"
        assert fits == []
        assert out.read_text() == "kept\n"

    def test_unwritable_output_dir_is_a_named_error(self, runner, bundle, tmp_path):
        # the parent is a file: mkdir fails in the write phase, after estimation
        (tmp_path / "file").write_text("kept\n")
        out = tmp_path / "file" / "out"
        res = runner.invoke(main, [
            "run", "--panel", str(bundle["panel"]), "--weights", str(bundle["weights"]),
            "--output-dir", str(out)])
        assert res.exit_code == 1
        assert res.stderr.startswith(f"error: cannot write output directory {out}: ")
        assert res.stderr.count("\n") == 1 and isinstance(res.exception, SystemExit)

    def test_unknown_dummy_country_fails(self, runner, bundle, tmp_path):
        res = runner.invoke(main, [
            "run", "--panel", str(bundle["panel"]), "--weights", str(bundle["weights"]),
            "--output-dir", str(tmp_path / "x"),
            "--dummy", "ZZZ:2012-06:step"])
        assert res.exit_code != 0

    def test_malformed_dummy_flag_fails(self, runner, bundle, tmp_path):
        res = runner.invoke(main, [
            "run", "--panel", str(bundle["panel"]), "--weights", str(bundle["weights"]),
            "--output-dir", str(tmp_path / "x"), "--dummy", "C00/2012-06"])
        assert res.exit_code != 0

    def test_dummy_flag_reaches_model(self, runner, bundle, tmp_path):
        out = tmp_path / "dummy_run"
        res = runner.invoke(main, [
            "run", "--panel", str(bundle["panel"]), "--weights", str(bundle["weights"]),
            "--output-dir", str(out), "--dummy", "C00:2012-06:step"])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "report.json").read_text())
        assert report["countries"]["C00"]["var"]["dummies"] == ["2012-06:step"]
        assert report["countries"]["C01"]["var"]["dummies"] == []

    def test_dummy_labels_round_trip_through_the_flag(self, runner, fixture_panel_path,
                                                      fixture_weights_path, tmp_path):
        def config_dummies(flags, out):
            res = runner.invoke(main, [
                "run", "--panel", str(fixture_panel_path), "--weights", str(fixture_weights_path),
                "--output-dir", str(tmp_path / out), *(a for f in flags for a in ("--dummy", f))])
            assert res.exit_code == 0, res.output
            report = json.loads((tmp_path / out / "report.json").read_text())
            return report["metadata"]["config"]["dummies"]

        labels = config_dummies(["C01:2012-03", "C02:2013-01:pulse"], "first")
        assert labels == ["C01:2012-03:step", "C02:2013-01:pulse"]
        assert config_dummies(labels, "again") == labels

    def test_missing_panel_file_fails(self, runner, tmp_path):
        res = runner.invoke(main, ["run", "--panel", str(tmp_path / "nope.csv"),
                                   "--weights", str(tmp_path / "nope2.csv"),
                                   "--output-dir", str(tmp_path / "o")])
        assert res.exit_code != 0
        assert "error:" in res.output

    def test_seasonal_adjust_flag(self, runner, bundle, tmp_path):
        out = tmp_path / "seasonal"
        res = runner.invoke(main, [
            "run", "--panel", str(bundle["panel"]), "--weights", str(bundle["weights"]),
            "--output-dir", str(out), "--seasonal-adjust"])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "report.json").read_text())
        assert report["metadata"]["config"]["seasonal_adjust"] is True

    def test_run_takes_one_flag_per_config_field(self):
        params = main.commands["run"].params
        assert sorted(p.name for p in params) == sorted(
            f.name for f in dataclasses.fields(PipelineConfig))
        assert all(len(p.opts) == 1 and not p.secondary_opts for p in params)

    def test_report_config_reruns_as_flags(self, runner, fixture_panel_path,
                                           fixture_weights_path, tmp_path):
        # every setting off its default; the report's config, read back as
        # flags, writes the same report
        out = tmp_path / "out"
        res = runner.invoke(main, [
            "run", "--panel", str(fixture_panel_path), "--weights", str(fixture_weights_path),
            "--output-dir", str(out), "--alpha", "0.01", "--max-lags", "14",
            "--hp-lambda", "1600", "--dummy", "C00:2012-06", "--dummy", "C02:2013-01:pulse",
            "--seasonal-adjust", "--portmanteau-h", "14", "--arch-q", "3", "--threads", "2"])
        assert res.exit_code == 0, res.output
        report = (out / "report.json").read_bytes()
        shutil.rmtree(out)
        flags = {p.name: p.opts[0] for p in main.commands["run"].params}
        args = []
        for name, value in json.loads(report)["metadata"]["config"].items():
            if value is True:
                args.append(flags[name])
            elif isinstance(value, list):
                args += [a for item in value for a in (flags[name], item)]
            else:
                args += [flags[name], str(value)]
        res = runner.invoke(main, ["run", *args])
        assert res.exit_code == 0, res.output
        assert (out / "report.json").read_bytes() == report

    def test_missing_path_is_a_usage_error(self, runner, bundle):
        res = runner.invoke(main, ["run", "--panel", str(bundle["panel"]),
                                   "--weights", str(bundle["weights"])])
        assert res.exit_code == 2
        assert "Missing option '--output-dir'" in res.stderr

    @pytest.mark.parametrize("key", ["seed", "base_year", "snapshot_dates", "irf_horizon",
                                     "config"])
    def test_seed_is_not_a_run_setting(self, runner, bundle, tmp_path, key):
        report = json.loads((bundle["out"] / "report.json").read_text())
        assert key not in report["metadata"]["config"]
        flag = "--" + key.replace("_", "-")
        out = tmp_path / "seeded"
        res = runner.invoke(main, [
            "run", "--panel", str(bundle["panel"]), "--weights", str(bundle["weights"]),
            "--output-dir", str(out), flag, "7"])
        assert res.exit_code == 2
        assert f"No such option '{flag}'" in res.output
        assert not out.exists()


def _var_view(report: dict) -> list[dict]:
    block = report["countries"]["C03"]
    var_block = block["var"]
    return [{
        "country": "C03", "p": var_block["p"], "stable": var_block["stable"],
        "max_modulus": var_block["max_modulus"],
        "portmanteau_pvalue": var_block["portmanteau"]["p_value"],
        "arch_pvalue_activity": var_block["arch"]["activity"]["p_value"],
        "arch_pvalue_price": var_block["arch"]["price"]["p_value"],
        "nobs": block["identification"]["n_shocks"],
    }]


def _johansen_view(report: dict) -> list[dict]:
    res = report["countries"]["C03"]["johansen"]
    return [{
        "country": "C03", "hypothesis": label, "eigenvalue": res["eigenvalues"][r],
        "trace_statistic": res["trace_stats"][r],
        "trace_cv_5pct": res["critical_values_trace"][r],
        "maxeig_statistic": res["max_eig_stats"][r],
        "maxeig_cv_5pct": res["critical_values_maxeig"][r],
        "selected_rank": res["selected_rank"],
    } for r, label in enumerate(("r = 0", "r <= 1"))]


def _identify_view(report: dict) -> dict:
    block = report["countries"]["C03"]
    return {"country": "C03", "p": block["var"]["p"], "a0": block["identification"]["a0"],
            "long_run": block["identification"]["long_run"], **block["size_speed"]}


# each subcommand's --json output, as its bundle's report.json holds it
REPORT_VIEWS = {
    "var": (["var", "--country", "C03"], _var_view),
    "johansen": (["johansen", "--country", "C03"], _johansen_view),
    "identify": (["identify", "--country", "C03"], _identify_view),
}


class TestThinWrappers:
    def test_adf_row(self, runner, tmp_path):
        series = tmp_path / "series.csv"
        rng = np.random.default_rng(0)
        dates = [Month(2009, 1) + i for i in range(120)]
        walk = rng.standard_normal(120).cumsum()
        series.write_text("date,value\n" + "\n".join(
            f"{d},{v}" for d, v in zip(dates, walk)))
        res = runner.invoke(main, ["adf", "--series", str(series), "--spec", "trend"])
        assert res.exit_code == 0, res.output
        lines = res.output.strip().splitlines()
        assert lines[0].startswith("statistic,lags_used,spec,nobs,cv_1pct")
        res_json = runner.invoke(main, ["adf", "--series", str(series),
                                        "--spec", "trend", "--json"])
        payload = json.loads(res_json.output)[0]
        assert payload["spec"] == "trend"

    def test_adf_fixed_lag_rule(self, runner, tmp_path):
        series = tmp_path / "series.csv"
        walk = np.random.default_rng(1).standard_normal(100).cumsum()
        series.write_text("date,value\n" + "\n".join(
            f"{Month(2009, 1) + i},{v}" for i, v in enumerate(walk)))
        res = runner.invoke(main, ["adf", "--series", str(series), "--lag-rule", "2"])
        assert res.exit_code == 0
        assert ",2,trend," in res.output

    def test_adf_singular_design_is_a_named_error(self, runner, tmp_path):
        # the line's design has rank 2 whatever the lag count; at a fixed
        # count no solver fails, so the refit's rank check refuses it
        series = tmp_path / "linear.csv"
        series.write_text("date,value\n" + "\n".join(
            f"{Month(2009, 1) + i},{4.6 + 0.01 * i}" for i in range(133)) + "\n")
        for lag_rule in ("aic", "12", "2"):
            res = runner.invoke(main, ["adf", "--series", str(series), "--lag-rule", lag_rule])
            assert res.exit_code == 1, lag_rule
            # the message alone: no numpy warning before it
            assert res.stderr == "error: regression is numerically degenerate\n", lag_rule
            assert isinstance(res.exception, SystemExit)  # not a numpy traceback

    def test_adf_exact_fit_is_a_named_error(self, runner, tmp_path):
        # on 2^t the difference is the lagged level: with no deterministic
        # terms and no lags the fit leaves no residual to scale a t-ratio
        series = tmp_path / "doubling.csv"
        series.write_text("date,value\n" + "".join(
            f"{Month(2009, 1) + i},{2.0 ** i}\n" for i in range(60)))
        res = runner.invoke(main, ["adf", "--series", str(series), "--spec", "none",
                                   "--lag-rule", "0"])
        assert res.exit_code == 1
        assert res.stderr == "error: regression is numerically degenerate\n"
        assert isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("rows", [0, 1])
    def test_adf_too_short_series_is_refused(self, runner, tmp_path, rows):
        series = tmp_path / "short.csv"
        series.write_text("date,value\n" + "".join(
            f"{Month(2009, 1) + i},4.6\n" for i in range(rows)))
        res = runner.invoke(main, ["adf", "--series", str(series)])
        assert res.exit_code == 1
        assert res.stderr == f"error: need >= 33 observations with 12 lags, have {rows}\n"
        assert isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("row, message", [
        ("{date},nan", "non-finite value 'nan'"),
        ("{date},-inf", "non-finite value '-inf'"),
        ("{date},abc", "could not convert string to float: 'abc'"),
        ("2020-1x,2.0", "expected YYYY-MM date, got '2020-1x'"),
    ], ids=["nan", "-inf", "abc", "2020-1x"])
    def test_adf_non_finite_value_names_its_line(self, runner, series_path, row, message):
        lines = series_path.read_text().splitlines()
        lines[5] = row.format(date=lines[5].split(",")[0])
        series_path.write_text("\n".join(lines) + "\n")
        res = runner.invoke(main, ["adf", "--series", str(series_path)])
        assert res.exit_code == 1
        assert res.stderr == f"error: {series_path}:6: {message}\n"
        assert isinstance(res.exception, SystemExit)

    def test_johansen_rows(self, runner, bundle):
        res = runner.invoke(main, ["johansen", "--panel", str(bundle["panel"]),
                                   "--country", "C00", "--lag-order", "2"])
        assert res.exit_code == 0, res.output
        lines = res.output.strip().splitlines()
        assert len(lines) == 3
        assert "r = 0" in lines[1] and "r <= 1" in lines[2]

    def test_johansen_too_long_lag_states_the_counts(self, runner, bundle):
        res = runner.invoke(main, ["johansen", "--panel", str(bundle["panel"]),
                                   "--country", "C00", "--lag-order", "200"])
        assert res.exit_code == 1
        assert res.output == "error: need >= 230 observations for lag order 200, have 133\n"

    def test_johansen_default_order_is_the_var_order_plus_one(self, runner, bundle):
        def output(command, *extra):
            res = runner.invoke(main, [command, "--panel", str(bundle["panel"]),
                                       "--country", "C00", "--json", *extra])
            assert res.exit_code == 0, res.output
            return res.output

        p = json.loads(output("var"))[0]["p"]
        assert output("johansen") == output("johansen", "--lag-order", str(p + 1))
        assert output("johansen") != output("johansen", "--lag-order", str(p + 2))

    def test_var_fixed_p_row(self, runner, bundle):
        res = runner.invoke(main, ["var", "--panel", str(bundle["panel"]),
                                   "--country", "C02", "--p", "2", "--json"])
        assert res.exit_code == 0, res.output
        config = PipelineConfig(panel_path="-", weights_path="-", output_dir="-")
        _, data, dummies = country_series(load_panel(bundle["panel"]), "C02", config)
        model = var.fit_var(data, 2, dummies)
        diag = var.diagnose(model, config.portmanteau_h, config.arch_q)
        assert json.loads(res.output) == [{
            "country": "C02", "p": 2, "stable": diag.stability.stable,
            "max_modulus": diag.stability.max_modulus,
            "portmanteau_pvalue": diag.portmanteau["p_value"],
            "arch_pvalue_activity": diag.arch[0]["p_value"],
            "arch_pvalue_price": diag.arch[1]["p_value"],
            "nobs": model.nobs,
        }]

    def test_rescaled_copies_form_a_bundle_group(self, runner, fixture_panel, tmp_path):
        # C07..C09 rescale C00's series, so the four share C00's shocks and
        # form a symmetric group of each kind
        values = dict(fixture_panel.values)
        for code, scale in (("C07", 2.0), ("C08", 0.5), ("C09", 3.0)):
            values.update({(code, v): scale * values[("C00", v)] for v in VARIABLES})
        panel = Panel(countries=(*fixture_panel.countries, "C07", "C08", "C09"),
                      dates=fixture_panel.dates, values=values)
        panel_path, weights_path = tmp_path / "panel.csv", tmp_path / "weights.csv"
        panel_path.write_text(panel_to_csv(panel))
        weights_path.write_text(equal_weights_csv(panel))
        res = runner.invoke(main, ["run", "--panel", str(panel_path), "--weights",
                                   str(weights_path), "--output-dir", str(tmp_path / "out")])
        assert res.exit_code == 0, res.output
        symmetry = json.loads((tmp_path / "out" / "report.json").read_text())["group"]["symmetry"]
        for kind in ("supply", "demand"):
            groups = symmetry[kind]["groups"]
            assert any({"C00", "C07", "C08", "C09"} <= set(g) for g in groups), kind

    def test_var_row(self, runner, bundle):
        res = runner.invoke(main, ["var", "--panel", str(bundle["panel"]),
                                   "--country", "C02"])
        assert res.exit_code == 0, res.output
        assert res.output.startswith("country,p,stable")

    def test_identify_shock_csv(self, runner, bundle):
        res = runner.invoke(main, ["identify", "--panel", str(bundle["panel"]),
                                   "--country", "C01"])
        assert res.exit_code == 0, res.output
        lines = res.output.strip().splitlines()
        assert lines[0] == "country,date,supply_shock,demand_shock"
        assert lines[1].split(",")[0] == "C01"
        assert len(lines) > 100

    def test_identify_json_summary(self, runner, bundle):
        res = runner.invoke(main, ["identify", "--panel", str(bundle["panel"]),
                                   "--country", "C01", "--json"])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert set(payload) >= {"a0", "long_run", "supply_size", "demand_speed"}
        assert abs(payload["long_run"][0][1]) < 1e-8

    def test_identify_takes_no_irf_horizon(self, runner, bundle):
        # identify --json reads the responses at SPEED_MONTH only
        res = runner.invoke(main, ["identify", "--panel", str(bundle["panel"]),
                                   "--country", "C01", "--irf-horizon", "48", "--json"])
        assert res.exit_code == 2
        assert "No such option '--irf-horizon'" in res.stderr

    def test_adf_bad_lag_rule_fails(self, runner, tmp_path):
        series = tmp_path / "s.csv"
        series.write_text("date,value\n" + "\n".join(
            f"{Month(2009, 1) + i},{v}" for i, v in enumerate(range(100))))
        res = runner.invoke(main, ["adf", "--series", str(series),
                                   "--lag-rule", "bic"])
        assert res.exit_code != 0
        assert "lag-rule" in res.output

    def test_group_dispersion_and_cost_have_no_view(self, runner):
        # they are run's group.dispersion and group.cost blocks, as the
        # correlations and symmetric groups are its group.correlations and
        # group.symmetry blocks
        assert sorted(main.commands) == ["adf", "identify", "johansen", "run", "simulate", "var"]
        for name in ("disperse", "cost", "correlate"):
            res = runner.invoke(main, [name])
            assert res.exit_code == 2
            assert f"No such command '{name}'" in res.stderr

    @pytest.mark.parametrize("country, flags", [
        pytest.param("C01", None, id="C01"),
        pytest.param("C04", None, id="C04"),
        pytest.param("C03", GATE, id="C03-gate"),
    ])
    def test_identify_prints_the_bundle_table(self, runner, bundle, seed_bundle,
                                              fixture_panel_path, country, flags):
        panel, out = bundle["panel"], bundle["out"]
        if flags is not None:
            panel, out = fixture_panel_path, seed_bundle(*flags)
        res = runner.invoke(main, ["identify", "--panel", str(panel), "--country", country,
                                   *(flags or [])])
        assert res.exit_code == 0, res.output
        assert res.output == (out / f"shocks_{country}.csv").read_text()

    def test_gate_flags_move_the_seed_lags(self, seed_bundle):
        def lags(*flags):
            report = json.loads((seed_bundle(*flags) / "report.json").read_text())
            return [block["var"]["p"] for block in report["countries"].values()]

        assert lags() == [1, 5, 1, 3, 1, 1, 1]
        assert lags(*GATE) == [1, 6, 1, 2, 1, 1, 1]

    def test_conventions_hold_at_every_gate_level(self, seed_bundle):
        metadata = json.loads((seed_bundle("--alpha", "0.10") / "report.json").read_text())[
            "metadata"]
        assert metadata["config"]["alpha"] == 0.1
        # Johansen's rank rule is the one convention fixed at 5%, whatever --alpha is
        conventions = metadata["conventions"]
        assert [k for k, text in conventions.items() if "5%" in text] == [
            "johansen_rejection_rule"]
        assert "metadata.config.alpha" in conventions["lag_selection"]

    @pytest.mark.parametrize("flags", [(), tuple(GATE)], ids=["defaults", "gate"])
    @pytest.mark.parametrize("command", list(REPORT_VIEWS))
    def test_json_view_equals_the_bundle_report(self, runner, seed_bundle, fixture_panel_path,
                                                command, flags):
        args, expected = REPORT_VIEWS[command]
        res = runner.invoke(main, [*args, "--panel", str(fixture_panel_path), *flags, "--json"])
        assert res.exit_code == 0, res.output
        report = json.loads((seed_bundle(*flags) / "report.json").read_text())
        assert json.loads(res.output) == expected(report)


SUBCOMMANDS = {
    "var": ["var", "--country", "C00"],
    "identify": ["identify", "--country", "C00"],
    "johansen": ["johansen", "--country", "C00"],
}


# the fixture's weights with one edit per row: ``None`` drops the row
UNCOVERED_WEIGHTS = {
    "no weights for year 2019":
        lambda row: None if row[0] in ("2019", "2020") else row,
    "no weight for country C03 in year 2015":
        lambda row: ["2015", "ZZZ", row[2]] if row[:2] == ["2015", "C03"] else row,
}


@pytest.mark.parametrize("message", list(UNCOVERED_WEIGHTS), ids=["year", "country"])
@pytest.mark.parametrize("args", [
    ["run", "--weights", "WEIGHTS", "--output-dir", "OUT"],
], ids=lambda args: args[0])
def test_weights_not_covering_the_panel_are_refused_before_estimation(
        runner, fixture_panel, fixture_panel_path, tmp_path, monkeypatch, message, args):
    header, *lines = equal_weights_csv(fixture_panel).splitlines()
    rows = (UNCOVERED_WEIGHTS[message](line.split(",")) for line in lines)
    weights_path = tmp_path / "weights.csv"
    weights_path.write_text("\n".join([header, *(",".join(r) for r in rows if r)]) + "\n")
    files = {"WEIGHTS": str(weights_path), "OUT": str(tmp_path / "never")}
    fits = count_calls(monkeypatch, var.select_lag)
    res = runner.invoke(main, [files.get(a, a) for a in args] +
                        ["--panel", str(fixture_panel_path)])
    assert res.exit_code == 1
    assert res.stderr == f"error: {message}\n"
    assert fits == []
    assert not (tmp_path / "never").exists()


# order p leaves 133 - 1 - p residuals of the seed fixture, so no order leaves more than 131
_WINDOW = "but no lag order leaves more than 131 on a 133-month panel"


class TestInputContracts:
    def invoke(self, runner, bundle, name, *extra):
        return runner.invoke(main, SUBCOMMANDS[name] + ["--panel", str(bundle["panel"]), *extra])

    @pytest.mark.parametrize("name", list(SUBCOMMANDS))
    def test_unknown_dummy_country_fails(self, runner, bundle, name):
        res = self.invoke(runner, bundle, name, "--dummy", "ZZZ:2012-06:step")
        assert res.exit_code == 1
        assert "unknown country 'ZZZ'" in res.stderr

    @pytest.mark.parametrize("args", [
        ["run", "--weights", "WEIGHTS", "--output-dir", "OUT"],
    ], ids=lambda args: args[0])
    def test_a_panel_simulate_writes_from_any_start_runs(self, runner, tmp_path, args):
        panel, weights = tmp_path / "p.csv", tmp_path / "w.csv"
        res = runner.invoke(main, ["simulate", "--seed", "3", "--countries", "5",
                                   "--start", "2012-01", "--output", str(panel),
                                   "--weights-output", str(weights)])
        assert res.exit_code == 0
        files = {"WEIGHTS": str(weights), "OUT": str(tmp_path / "out")}
        res = runner.invoke(main, [files.get(a, a) for a in args] + ["--panel", str(panel)])
        assert res.exit_code == 0, res.output
        assert res.stderr == ""

    @pytest.mark.parametrize("name", ["var", "identify", "johansen"])
    def test_country_not_in_panel_is_refused(self, runner, bundle, name):
        res = runner.invoke(main, [name, "--panel", str(bundle["panel"]), "--country", "ZZ"])
        assert res.exit_code == 1
        countries = tuple(f"C0{i}" for i in range(7))
        assert res.stderr == f"error: country 'ZZ' not in panel {countries}\n"

    @pytest.mark.parametrize("name", list(SUBCOMMANDS))
    def test_zero_max_lags_is_a_usage_error(self, runner, bundle, name):
        res = self.invoke(runner, bundle, name, "--max-lags", "0")
        assert res.exit_code != 0
        assert isinstance(res.exception, SystemExit)
        assert "--max-lags" in res.stderr and "Traceback" not in res.output

    @pytest.mark.parametrize("flag, label", [
        ("C02:2009-02:pulse", "2009-02:pulse"),
        ("C00:2009-03:step", "2009-03:step"),
    ])
    def test_dummy_in_lag_rows_is_refused(self, runner, fixture_panel_path,
                                          fixture_weights_path, tmp_path, flag, label):
        out = tmp_path / "never"
        res = runner.invoke(main, [
            "run", "--panel", str(fixture_panel_path), "--weights", str(fixture_weights_path),
            "--output-dir", str(out), "--dummy", flag])
        assert res.exit_code == 1
        assert label in res.stderr and "rank-deficient" not in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["run", "--weights", "WEIGHTS", "--output-dir", "OUT"],
        ["var", "--country", "C01"],
    ], ids=["run-flag", "var-flag"])
    def test_dummy_naming_a_variable_is_a_usage_error(
            self, runner, fixture_panel_path, fixture_weights_path, tmp_path, monkeypatch,
            args):
        # the column enters both equations, so a dummy names no variable
        dummy = "C01:CPI:2012-03:step"
        files = {"WEIGHTS": str(fixture_weights_path), "OUT": str(tmp_path / "never")}
        fits = count_calls(monkeypatch, var.select_lag)
        res = runner.invoke(main, [files.get(a, a) for a in args] +
                            ["--panel", str(fixture_panel_path), "--dummy", dummy])
        assert res.exit_code == 2
        assert ("Invalid value for '--dummy': dummy must be COUNTRY:YYYY-MM[:step|pulse], "
                f"got {dummy!r}") in res.stderr
        assert res.stdout == "" and "Traceback" not in res.output
        assert fits == []
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("args", [
        ["run", "--weights", "WEIGHTS", "--output-dir", "OUT"],
        ["var", "--country", "C00"],
    ], ids=lambda args: args[0])
    @pytest.mark.parametrize("flags, message", [
        (["C03:2030-01"],
         "dummy C03:2030-01:step is dated outside the growth calendar 2009-02..2020-01"),
        (["C03:2009-01:pulse"],
         "dummy C03:2009-01:pulse is dated outside the growth calendar 2009-02..2020-01"),
        (["C00:2012-06:pulse", "C00:2012-06", "C00:2012-06:pulse"],
         "dummy C00:2012-06:pulse is repeated"),
        (["C00:2012-06", "C00:2012-06:step"],
         "dummy C00:2012-06:step is repeated"),
    ], ids=["after-the-panel", "first-month", "repeated-pulse", "repeated"])
    def test_unusable_dummy_is_refused_before_estimation(
            self, runner, fixture_panel_path, fixture_weights_path, tmp_path, monkeypatch,
            args, flags, message):
        files = {"WEIGHTS": str(fixture_weights_path), "OUT": str(tmp_path / "never")}
        fits = count_calls(monkeypatch, var.select_lag)
        res = runner.invoke(main, [files.get(a, a) for a in args] + [
            "--panel", str(fixture_panel_path), *(f for flag in flags for f in ("--dummy", flag))])
        assert res.exit_code == 1
        assert res.stderr == f"error: {message}\n"
        assert fits == []
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("flag, value, message, fits_made", [
        ("--portmanteau-h", 131, "portmanteau_h=131 needs more than 131 residuals, " + _WINDOW, 0),
        ("--arch-q", 27, "arch_q=27 needs more than 135 residuals, " + _WINDOW, 0),
        # order 1 leaves 131 residuals, but C01's gate starts at order 2
        ("--portmanteau-h", 130, "[country C01] h=130 must be below the residual count 130", 2),
        ("--arch-q", 26, "[country C01] need more than 130 residuals, have 130", 2),
    ], ids=["portmanteau-131", "arch-27", "portmanteau-130", "arch-26"])
    def test_gate_window_is_refused_up_front_when_no_lag_order_serves(
            self, runner, fixture_panel_path, fixture_weights_path, tmp_path, monkeypatch,
            flag, value, message, fits_made):
        out = tmp_path / "never"
        fits = count_calls(monkeypatch, var.select_lag)
        res = runner.invoke(main, [
            "run", "--panel", str(fixture_panel_path), "--weights", str(fixture_weights_path),
            "--output-dir", str(out), flag, str(value)])
        assert res.exit_code == 1
        assert res.stderr == f"error: {message}\n"
        assert len(fits) == fits_made
        assert not out.exists()

    @pytest.mark.parametrize("args, code", [
        (["identify", "--p", "2", "--portmanteau-h", "131"], 0),
        (["johansen", "--lag-order", "3", "--arch-q", "27"], 0),
        (["identify", "--portmanteau-h", "131"], 1),
        (["johansen", "--arch-q", "27"], 1),
        (["var", "--p", "2", "--portmanteau-h", "131"], 1),
    ], ids=["identify-p", "johansen-lag-order", "identify", "johansen", "var-p"])
    def test_views_check_the_gate_window_only_where_residuals_are_tested(
            self, runner, fixture_panel_path, args, code):
        res = runner.invoke(main, [*args, "--panel", str(fixture_panel_path),
                                   "--country", "C00"])
        assert res.exit_code == code, res.output
        assert (_WINDOW in res.stderr) == (code == 1)


INPUT_HEADERS = {"panel": "country,date,variable,value", "weights": "year,country,weight",
                 "series": "date,value"}
INPUT_LOADERS = {"panel": (load_panel, PanelError),
                 "weights": (load_weights, DegenerateWeightsError),
                 "series": (_series_from_csv, ConfigError)}
INPUT_FAULTS = {
    "missing": lambda path, header: None,
    "directory": lambda path, header: path.mkdir(),
    "non-utf8": lambda path, header: path.write_bytes(b"\xff\xfe" + header.encode() + b"\n"),
    "wrong-header": lambda path, header: path.write_text("a,b\n"),
    "field-count": lambda path, header: path.write_text(f"{header}\n{header},extra\n"),
}


def _refusal(what, fault, path):
    """The text of the refusal of a ``what`` input file with ``fault``."""
    header = INPUT_HEADERS[what]
    if fault == "wrong-header":
        return f"expected header {header}, got a,b"
    if fault == "field-count":
        n = header.count(",") + 1
        return f"line 2: expected {n} fields, got {n + 1}"
    return f"cannot read {what} {path}: "


def _input_args(what, path, panel, weights, out):
    if what == "series":
        return ["adf", "--series", str(path)]
    files = {"panel": panel, "weights": weights, what: path}
    return ["run", "--panel", str(files["panel"]), "--weights", str(files["weights"]),
            "--output-dir", str(out)]


@pytest.mark.parametrize("fault", list(INPUT_FAULTS))
@pytest.mark.parametrize("what", list(INPUT_HEADERS))
def test_unreadable_or_malformed_input_is_refused_by_name(runner, fixture_panel_path,
                                                          fixture_weights_path, tmp_path,
                                                          monkeypatch, what, fault):
    path, out = tmp_path / f"{what}.csv", tmp_path / "out"
    INPUT_FAULTS[fault](path, INPUT_HEADERS[what])
    message = _refusal(what, fault, path)
    loader, error = INPUT_LOADERS[what]
    with pytest.raises(error) as excinfo:
        loader(str(path))
    assert str(excinfo.value).startswith(message)
    fits = count_calls(monkeypatch, var.select_lag)
    res = runner.invoke(main, _input_args(what, path, fixture_panel_path,
                                          fixture_weights_path, out))
    assert res.exit_code == 1
    assert res.stderr.startswith(f"error: {message}") and res.stderr.count("\n") == 1
    assert isinstance(res.exception, SystemExit) and "Traceback" not in res.output
    assert fits == []
    assert not out.exists()


@pytest.mark.parametrize("months, line, expected, got", [
    (["2009-01", "2009-03", "2009-02"], 3, "2009-02", "2009-03"),
    (["2009-01", "2009-01", "2009-02"], 3, "2009-02", "2009-01"),
    (["2009-01", "2009-02", "2009-04"], 4, "2009-03", "2009-04"),
], ids=["out-of-order", "duplicate", "skipped"])
def test_series_dates_must_be_consecutive_months(runner, tmp_path, months, line, expected, got):
    path = tmp_path / "series.csv"
    path.write_text("date,value\n" + "".join(f"{m},4.6\n" for m in months))
    message = f"{path}:{line}: expected {expected}, got {got}"
    with pytest.raises(ConfigError) as excinfo:
        _series_from_csv(str(path))
    assert str(excinfo.value) == message
    res = runner.invoke(main, ["adf", "--series", str(path)])
    assert res.exit_code == 1
    assert res.stderr == f"error: {message}\n"


def _range_args(args, panel, weights, series, tmp_path):
    where = {"PANEL": ["--panel", str(panel)], "SERIES": ["--series", str(series)],
             "OUT": ["--output", str(tmp_path / "panel.csv")],
             "RUN": ["--panel", str(panel), "--weights", str(weights),
                     "--output-dir", str(tmp_path / "out")]}
    files = {"WEIGHTS": str(weights), "WOUT": str(tmp_path / "weights.csv")}
    head, *rest = args
    return [files.get(a, a) for a in rest] + where[head]




OUT_OF_RANGE = [
    (["PANEL", "var", "--country", "C00", "--p", "0"], "--p"),
    (["PANEL", "identify", "--country", "C00", "--p", "0"], "--p"),
    (["PANEL", "johansen", "--country", "C00", "--lag-order", "1"], "--lag-order"),
    (["PANEL", "var", "--country", "C00", "--arch-q", "0"], "--arch-q"),
    (["PANEL", "var", "--country", "C00", "--portmanteau-h", "1"], "--portmanteau-h"),
    (["PANEL", "var", "--country", "C00", "--alpha", "0"], "--alpha"),
    (["PANEL", "var", "--country", "C00", "--alpha", "1"], "--alpha"),
    (["SERIES", "adf", "--max-lags", "-1"], "--max-lags"),
    (["SERIES", "adf", "--lag-rule", "-1"], "--lag-rule"),
    (["SERIES", "adf", "--lag-rule", "bic"], "--lag-rule"),
    (["OUT", "simulate", "--t", "1"], "--t"),
    (["OUT", "simulate", "--countries", "0"], "--countries"),
    (["OUT", "simulate", "--seed", "-1"], "--seed"),
    (["OUT", "simulate", "--countries", "1", "--weights-output", "WOUT"], "--countries"),
    (["RUN", "run", "--alpha", "1.5"], "--alpha"),
    (["RUN", "run", "--max-lags", "0"], "--max-lags"),
    (["RUN", "run", "--portmanteau-h", "1"], "--portmanteau-h"),
    (["RUN", "run", "--arch-q", "0"], "--arch-q"),
    (["RUN", "run", "--hp-lambda", "-1"], "--hp-lambda"),
    (["RUN", "run", "--hp-lambda", "inf"], "--hp-lambda"),
    (["RUN", "run", "--hp-lambda", "1e16"], "--hp-lambda"),
    (["RUN", "run", "--threads", "0"], "--threads"),
    (["RUN", "run", "--max-lags", "25"], "--max-lags"),
    (["PANEL", "var", "--country", "C00", "--max-lags", "25"], "--max-lags"),
]


@pytest.mark.parametrize("args, option", OUT_OF_RANGE,
                         ids=[" ".join(a[1:]) for a, _ in OUT_OF_RANGE])
def test_out_of_range_option_is_a_usage_error(runner, fixture_panel_path,
                                              fixture_weights_path, series_path,
                                              tmp_path, args, option):
    res = runner.invoke(main, _range_args(args, fixture_panel_path, fixture_weights_path,
                                          series_path, tmp_path))
    assert res.exit_code == 2
    assert f"Invalid value for '{option}'" in res.stderr
    assert "Traceback" not in res.output and res.stdout == ""
    assert not (tmp_path / "panel.csv").exists() and not (tmp_path / "weights.csv").exists()
    assert not (tmp_path / "out").exists()


NAN_SETTINGS = [
    (["RUN", "run", "--hp-lambda", "nan"], f"hp_lambda must be in [0.0, {MAX_HP_SMOOTHING}]"),
    (["RUN", "run", "--alpha", "nan"], "alpha must be in (0.0, 1.0)"),
]


@pytest.mark.parametrize("args, message", NAN_SETTINGS,
                         ids=[" ".join(a[1:]) for a, _ in NAN_SETTINGS])
def test_nan_setting_is_refused_by_the_config(runner, fixture_panel_path, fixture_weights_path,
                                              series_path, tmp_path, args, message):
    # click's float ranges let NaN through; PipelineConfig refuses it
    res = runner.invoke(main, _range_args(args, fixture_panel_path, fixture_weights_path,
                                          series_path, tmp_path))
    assert res.exit_code == 1
    assert res.stderr == f"error: {message}, got nan\n"
    assert res.stdout == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["PANEL", "identify", "--country", "C00", "--p", "1", "--portmanteau-h", "2", "--arch-q", "1",
     "--json"],
    ["RUN", "run", "--hp-lambda", "0"],
    ["RUN", "run", "--hp-lambda", "1e10"],
    ["PANEL", "var", "--country", "C00", "--max-lags", "24"],
    ["SERIES", "adf", "--max-lags", "0"],
    ["SERIES", "adf", "--lag-rule", "0"],
    ["OUT", "simulate", "--t", "2", "--countries", "1", "--seed", "0"],
    ["OUT", "simulate", "--t", "2", "--countries", "2", "--weights-output", "WOUT"],
], ids=lambda a: " ".join(a[1:]))
def test_range_bounds_are_accepted(runner, fixture_panel_path, fixture_weights_path,
                                   series_path, tmp_path, args):
    res = runner.invoke(main, _range_args(args, fixture_panel_path, fixture_weights_path,
                                          series_path, tmp_path))
    assert res.exit_code == 0, res.output
