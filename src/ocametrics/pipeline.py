"""End-to-end orchestration: per-country estimation, group analytics, reports.

``run_pipeline`` drives the whole flow for a panel: unit-root pretests on
log levels, cointegration pretests, lag selection with a diagnostics gate,
VAR estimation with optional break dummies, long-run identification,
impulse-response summaries, then the cross-country layer (correlations,
symmetry groups, dispersion with its trend, cost of inclusion).

Everything is computed before anything is written, so a failing stage
leaves no partial output.  Reports are deterministic: same configuration
and inputs produce byte-identical ``report.json`` regardless of the thread
count used for the per-country stage.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Mapping

import numpy as np

from .cointegration import JohansenResult, johansen_test
from .errors import ConfigError, DateRangeError, OcaError
from .identification import (SHOCK_KINDS, IrfSet, SizeSpeed, StructuralModel, identify_bq,
                             irf_structural, size_and_speed)
from .metrics import (
    STARS,
    CorrelationReport,
    SymmetryReport,
    WeightTable,
    check_group,
    classify_symmetry,
    correlation_matrix,
    group_dispersion,
    hp_filter,
    load_weights,
    significance_stars,
    trend_change,
)
from .months import Month, month_range
from .panel import VARIABLES, Panel, growth_pair, load_panel, log_level_series
from .unit_root import AdfResult, adf_panel, rejection_order
from .var import DummySpec, LagSelection, select_lag


@dataclass(frozen=True)
class Bounds:
    """The range of a numeric setting: ``[low, high]``, or ``(low, high)`` when
    ``open``; no ``high`` leaves it unbounded above."""

    low: float
    high: float | None = None
    open: bool = False

    def __contains__(self, value) -> bool:
        if self.open:
            return self.low < value and (self.high is None or value < self.high)
        return self.low <= value and (self.high is None or value <= self.high)

    def __str__(self) -> str:
        if self.high is None:
            return f"{'>' if self.open else '>='} {self.low}"
        left, right = "()" if self.open else "[]"
        return f"in {left}{self.low}, {self.high}{right}"


def _bounded(default, low, high=None, open=False):
    """A ``PipelineConfig`` field whose value must lie in ``Bounds(low, high, open)``."""
    return field(default=default, metadata={"bounds": Bounds(low, high, open)})


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting of a run; a value out of its field's ``Bounds`` or infinite,
    or an empty path, is refused when the config is built."""

    panel_path: str
    weights_path: str
    output_dir: str
    base_year: int = 2010
    alpha: float = _bounded(0.05, 0.0, 1.0, open=True)
    max_lags: int = _bounded(12, 1, 24)
    hp_lambda: float = _bounded(14400.0, 0.0)
    irf_horizon: int = _bounded(48, 12)
    seasonal_adjust: bool = False
    snapshot_dates: tuple[Month, ...] = ()
    dummies: tuple[tuple[str, DummySpec], ...] = ()
    portmanteau_h: int = _bounded(12, 2)
    arch_q: int = _bounded(4, 1)
    threads: int = _bounded(1, 1)

    def __post_init__(self):
        for name, what in (("panel_path", "panel path"), ("weights_path", "weights path"),
                           ("output_dir", "output directory")):
            if not getattr(self, name):
                raise ConfigError(f"{what} must be set")
        for f in fields(self):
            bounds, value = f.metadata.get("bounds"), getattr(self, f.name)
            if bounds is not None and value not in bounds:
                raise ConfigError(f"{f.name} must be {bounds}, got {value!r}")
            if bounds is not None and value == np.inf:  # NaN is out of every range
                raise ConfigError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class CountryAnalysis:
    country: str
    adf: Mapping[str, Mapping[str, AdfResult]]
    conclusions: Mapping[str, str]
    johansen: JohansenResult
    lag_selection: LagSelection
    svar: StructuralModel
    irf: IrfSet
    size_speed: SizeSpeed


@dataclass(frozen=True)
class PipelineResult:
    report: dict
    output_dir: Path
    files: tuple[str, ...]

    @property
    def report_path(self) -> Path:
        return self.output_dir / "report.json"


def country_series(panel: Panel, country: str, config: PipelineConfig):
    """Log levels -> growth rates, with the country's own break dummies.

    Returns the (activity, price) log levels, the growth-rate pair and the
    country's dummies.
    """
    logs = tuple(log_level_series(panel, country, variable, base_year=config.base_year,
                                  seasonal=config.seasonal_adjust)
                 for variable in VARIABLES)
    dummies = tuple(spec for c, spec in config.dummies if c == country)
    return logs, growth_pair(country, panel.dates, logs), dummies


def gated_lag(data, dummies, config: PipelineConfig) -> LagSelection:
    """``select_lag`` under the configured lag cap and diagnostic gate."""
    return select_lag(data, max_p=config.max_lags, dummies=dummies,
                      portmanteau_h=config.portmanteau_h, arch_q=config.arch_q,
                      alpha=config.alpha)


def _shock_chain(panel: Panel, country: str, config: PipelineConfig):
    """``country_series`` -> gated lag selection -> long-run identification.

    Returns the (activity, price) log levels, the lag selection (which holds
    the accepted model) and the structural model.
    """
    logs, data, dummies = country_series(panel, country, config)
    selection = gated_lag(data, dummies, config)
    return logs, selection, identify_bq(selection.model)


def _estimate(panel: Panel, country: str, config: PipelineConfig):
    """The shock chain, then the Johansen pretest and the structural IRFs."""
    logs, selection, svar = _shock_chain(panel, country, config)
    johansen = johansen_test(logs, lag_order=selection.p + 1)
    irf = irf_structural(svar, selection.model, config.irf_horizon)
    return logs, dict(country=country, johansen=johansen, lag_selection=selection,
                      svar=svar, irf=irf, size_speed=size_and_speed(irf))


def _pretests(logs: Mapping[str, tuple[np.ndarray, ...]], max_lags: int):
    """Level and first-difference ADFs of every country's log levels in one
    panel call, then one call for the second differences that the
    integration conclusions still need.

    Returns ``{country: (adf, conclusions)}``; a refused level or difference
    raises a ``StageError`` naming its country.
    """
    keys = [(c, v) for c in logs for v in range(len(VARIABLES))]
    levels = [logs[c][v] for c, v in keys]
    tests = adf_panel(levels + [np.diff(s) for s in levels], spec="trend", max_lags=max_lags)
    pairs = dict(zip(keys, zip(tests[:len(keys)], tests[len(keys):])))
    for (country, _), pair in pairs.items():
        for result in pair:
            if isinstance(result, OcaError):
                raise StageError(f"country {country}", result) from result

    undecided = [key for key, pair in pairs.items() if rejection_order(pair) is None]
    second = dict(zip(undecided, adf_panel([np.diff(np.diff(logs[c][v])) for c, v in undecided],
                                           spec="trend", max_lags=max_lags)))
    out = {}
    for country in logs:
        adf, conclusions = {}, {}
        for v, variable in enumerate(VARIABLES):
            level, diff = pairs[(country, v)]
            adf[variable] = {"level": level, "first_difference": diff}
            order = rejection_order((level, diff, second.get((country, v))))
            conclusions[variable] = "inconclusive" if order is None else f"I({order})"
        out[country] = adf, conclusions
    return out


def _with_pretests(estimates: Mapping[str, tuple], max_lags: int) -> dict[str, CountryAnalysis]:
    """``_estimate`` results completed by one panel run of the pretests."""
    pretests = _pretests({c: logs for c, (logs, _) in estimates.items()}, max_lags)
    return {c: CountryAnalysis(adf=pretests[c][0], conclusions=pretests[c][1], **fields)
            for c, (_, fields) in estimates.items()}


def analyze_country(panel: Panel, country: str, config: PipelineConfig) -> CountryAnalysis:
    """Run the full single-country estimation chain."""
    return _with_pretests({country: _estimate(panel, country, config)}, config.max_lags)[country]


class StageError(OcaError):
    """Wraps a failure with the country/stage that produced it."""

    def __init__(self, stage: str, original: Exception):
        super().__init__(f"[{stage}] {original}")
        self.stage = stage
        self.original = original


def check_panel_settings(panel: Panel, config: PipelineConfig) -> None:
    """Refuse settings that cannot fit ``panel``: a dummy for a country it does
    not hold, or a base year or snapshot date outside its calendar."""
    for country, _ in config.dummies:
        if country not in panel.countries:
            raise ConfigError(f"dummy references unknown country {country!r}")
    first, last = panel.dates[0].year, panel.dates[-1].year
    if not first <= config.base_year <= last:
        raise ConfigError(f"base year {config.base_year} is outside the panel's years "
                          f"{first}-{last}")
    for date in config.snapshot_dates:
        if date not in panel.dates:
            raise ConfigError(f"snapshot date {date} is outside the panel's calendar {panel.dates}")


def _per_country(panel: Panel, config: PipelineConfig, analyze) -> dict:
    check_panel_settings(panel, config)

    def work(country: str):
        try:
            return analyze(panel, country, config)
        except OcaError as exc:
            raise StageError(f"country {country}", exc) from exc

    if config.threads == 1:
        return {c: work(c) for c in panel.countries}
    with concurrent.futures.ThreadPoolExecutor(max_workers=config.threads) as pool:
        futures = {c: pool.submit(work, c) for c in panel.countries}
        return {c: futures[c].result() for c in panel.countries}


def _common_shocks(svars: Mapping[str, StructuralModel]):
    start = max(svar.dates.start for svar in svars.values())
    end = min(svar.dates[-1] for svar in svars.values())
    if end < start:
        raise DateRangeError("countries share no common shock calendar")
    dates = month_range(start, end - start + 1)
    shocks = {kind: {} for kind in SHOCK_KINDS}
    for country, svar in svars.items():
        offset = svar.dates.offset(start)
        for k_idx, kind in enumerate(SHOCK_KINDS):
            shocks[kind][country] = svar.shocks[offset:offset + len(dates), k_idx]
    return dates, shocks


def group_shocks(panel: Panel, config: PipelineConfig):
    """``build_report``'s common-calendar shocks, from the shock chain alone (no pretests)."""
    chains = _per_country(panel, config, _shock_chain)
    return _common_shocks({c: svar for c, (_, _, svar) in chains.items()})


def _adf_dict(result: AdfResult) -> dict:
    out = result.as_dict()
    out["stars"] = STARS.get(result.reject_at, "")
    return out


def _matrix(a: np.ndarray) -> list:
    return [[float(v) for v in row] for row in np.asarray(a)]


def _country_report(result: CountryAnalysis) -> dict:
    model = result.lag_selection.model
    diag = result.lag_selection.diagnostics
    return {
        "adf": {
            variable: {
                "level": _adf_dict(result.adf[variable]["level"]),
                "first_difference": _adf_dict(result.adf[variable]["first_difference"]),
                "conclusion": result.conclusions[variable],
            } for variable in VARIABLES
        },
        "johansen": asdict(result.johansen),
        "var": {
            "p": model.p,
            "criterion_choices": dict(result.lag_selection.criterion_choices),
            "gate_trail": [asdict(a) for a in result.lag_selection.trail],
            "intercept": [float(v) for v in model.intercept],
            "coefs": [_matrix(b) for b in model.coefs],
            "sigma": _matrix(model.sigma),
            "dummies": [d.label() for d in model.dummies],
            "exog_coefficients": _matrix(model.exog_coefficients),
            "stable": diag.stability.stable,
            "max_modulus": float(diag.stability.max_modulus),
            "moduli": [float(m) for m in diag.stability.moduli],
            "portmanteau": {"h": diag.portmanteau_h, **asdict(diag.portmanteau)},
            "arch": {
                variable: {
                    "q": arch.df,
                    "statistic": arch.statistic,
                    "p_value": arch.p_value,
                } for variable, arch in zip(VARIABLES, diag.arch)
            },
        },
        "identification": {
            "a0": _matrix(result.svar.a0),
            "long_run": _matrix(result.svar.long_run),
            "n_shocks": int(result.svar.shocks.shape[0]),
            "first_shock_date": str(result.svar.dates[0]),
            "last_shock_date": str(result.svar.dates[-1]),
        },
        "irf": {
            "horizon": result.irf.horizon,
            "cumulative_responses": {
                f"{shock}_{variable}": [float(v) for v in series]
                for (shock, variable), series in sorted(result.irf.responses.items())
            },
            "long_run": {
                f"{shock}_{variable}": value
                for (shock, variable), value in sorted(result.irf.long_run.items())
            },
        },
        "size_speed": asdict(result.size_speed),
    }


def _conventions() -> dict:
    return {
        "backend": "numpy",
        "transform_order": "rebase -> log -> optional seasonal dummy adjustment -> first difference",
        "rebase": "arithmetic base-year mean rescaled to 100",
        "adf_lag_rule": "aic over 0..max_lags",
        "adf_critical_values": "response surface in the effective sample size",
        "adf_spec": "linear trend for level and first-difference pretests",
        "johansen_deterministics": "unrestricted constant, trend restricted to the cointegrating relation",
        "johansen_rejection_rule": "reject iff statistic > 5% critical value",
        "johansen_lag_rule": "levels order = selected difference-VAR order + 1",
        "sigma_divisor": "residual row count (T - p)",
        "lag_selection": "minimum of AIC/SC/HQ picks, incremented until stability and 5% diagnostics pass",
        "dummy_default": "step form, both equations",
        "sign_normalization": "long-run diagonal positive",
        "long_run_values": "closed form from the coefficient sum, not truncated sums",
        "significance_stars": "* p<0.10, ** p<0.05, *** p<0.01",
        "table_rounding": "half-to-even, 3 decimals",
        "hp_lambda_convention": "14400 for monthly data",
        "shock_csv_precision": "15 significant digits",
    }


def _config_dict(config: PipelineConfig) -> dict:
    """``metadata.config``: every setting, with the snapshot dates and dummies
    in their flag text, except ``threads``, which changes no reported number."""
    out = {f.name: getattr(config, f.name) for f in fields(config) if f.name != "threads"}
    out["snapshot_dates"] = [str(d) for d in config.snapshot_dates]
    out["dummies"] = [f"{c}:{spec.label()}" for c, spec in config.dummies]
    return out


def build_report(panel: Panel, weights: WeightTable, config: PipelineConfig) -> dict:
    """Compute every number in the bundle; pure and deterministic."""
    check_group(panel.countries, panel.countries, "run")  # every country's cost of inclusion
    results = _with_pretests(_per_country(panel, config, _estimate), config.max_lags)
    dates, shocks = _common_shocks({c: r.svar for c, r in results.items()})

    correlations: dict[str, CorrelationReport] = {}
    symmetry: dict[str, SymmetryReport] = {}
    dispersion: dict[str, dict] = {}
    cost: dict[str, dict] = {}
    for kind in SHOCK_KINDS:
        try:
            report = correlation_matrix(shocks[kind], kind=kind)
            correlations[kind] = report
            symmetry[kind] = classify_symmetry(report, config.alpha)
            disp, cost[kind] = group_dispersion(shocks[kind], dates, weights,
                                                panel.countries, kind)
            trend, _cycle = hp_filter(disp.values, config.hp_lambda)
            dispersion[kind] = {
                "values": disp.values,
                "trend": trend,
                "trend_change_pct": trend_change(dates, trend, dates[0], dates[-1]),
            }
        except OcaError as exc:
            raise StageError(f"group {kind}", exc) from exc

    snapshots: dict[str, dict[str, dict[str, float]]] = {}
    if config.snapshot_dates:
        try:
            rows = {str(s): dates.offset(s) for s in config.snapshot_dates}
        except DateRangeError as exc:
            raise StageError("group snapshots", exc) from exc
        for kind in SHOCK_KINDS:
            snapshots[kind] = {
                country: {s: float(cost[kind][country].values[t]) for s, t in rows.items()}
                for country in panel.countries
            }

    sizes = {c: asdict(results[c].size_speed) for c in panel.countries}
    averages = {f.name: float(np.mean([s[f.name] for s in sizes.values()]))
                for f in fields(SizeSpeed)}

    report = {
        "metadata": {
            "config": _config_dict(config),
            "conventions": _conventions(),
            "panel": {
                "countries": list(panel.countries),
                "start": str(panel.dates[0]),
                "end": str(panel.dates[-1]),
                "n_months": panel.n_months,
            },
            "weights": {
                "years": list(weights.years),
                "raw_sums": {str(y): weights.raw_sums[y] for y in weights.years},
            },
        },
        "countries": {c: _country_report(results[c]) for c in panel.countries},
        "group": {
            "common_calendar": {"start": str(dates[0]), "end": str(dates[-1]),
                                "n": len(dates)},
            "correlations": {kind: correlation_dict(correlations[kind])
                             for kind in SHOCK_KINDS},
            "symmetry": {
                kind: {
                    "alpha": symmetry[kind].alpha,
                    "symmetric_pairs": {
                        f"{a}|{b}": flag
                        for (a, b), flag in sorted(symmetry[kind].symmetric_pairs.items())
                    },
                    "groups": [list(g) for g in symmetry[kind].groups],
                } for kind in SHOCK_KINDS
            },
            "size_speed": {"per_country": sizes, "average": averages},
            "dispersion": {
                kind: {
                    "dates": dates.labels(),
                    "values": [float(v) for v in dispersion[kind]["values"]],
                    "trend": [float(v) for v in dispersion[kind]["trend"]],
                    "trend_change_pct": float(dispersion[kind]["trend_change_pct"]),
                } for kind in SHOCK_KINDS
            },
            "cost": {
                kind: {
                    country: [float(v) for v in cost[kind][country].values]
                    for country in panel.countries
                } for kind in SHOCK_KINDS
            },
            "cost_snapshots": snapshots,
        },
        "shocks": {c: shock_dict(results[c].svar) for c in panel.countries},
    }
    return report


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False, allow_nan=False) + "\n"


def _fmt3(value: float) -> str:
    return format(float(value), ".3f")


def correlation_dict(report: CorrelationReport) -> dict:
    """The ``report.json`` block of one correlation matrix."""
    return {"countries": list(report.countries), "n": report.n,
            "r": _matrix(report.r), "p": _matrix(report.p)}


def correlation_table(corr: dict) -> str:
    """Lower-triangular CSV of a ``correlation_dict`` block, with significance stars."""
    lines = [",".join(["country"] + corr["countries"])]
    for i, a in enumerate(corr["countries"]):
        row = [a]
        for j in range(len(corr["countries"])):
            if j > i:
                row.append("")
            else:
                stars = "" if i == j else significance_stars(corr["p"][i][j])
                row.append(_fmt3(corr["r"][i][j]) + stars)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def shock_dict(svar: StructuralModel) -> dict:
    """The ``report.json`` block of one country's structural shocks."""
    return {"dates": svar.dates.labels(),
            **{kind: [float(v) for v in svar.shocks[:, k]] for k, kind in enumerate(SHOCK_KINDS)}}


def shock_table(country: str, shocks: dict) -> str:
    """CSV of a ``shock_dict`` block, each shock at 15 significant digits."""
    lines = ["country,date,supply_shock,demand_shock"]
    for d, s, dm in zip(shocks["dates"], shocks["supply"], shocks["demand"]):
        lines.append(f"{country},{d},{format(s, '.15g')},{format(dm, '.15g')}")
    return "\n".join(lines) + "\n"


def _render_tables(report: dict) -> dict[str, str]:
    """Human-readable CSV tables; every figure is the JSON value at 3 decimals."""
    countries = report["metadata"]["panel"]["countries"]
    tables: dict[str, str] = {}

    lines = ["country,variable,level,level_stars,first_difference,first_difference_stars,conclusion"]
    for c in countries:
        for variable in VARIABLES:
            cell = report["countries"][c]["adf"][variable]
            lines.append(",".join([
                c, variable,
                _fmt3(cell["level"]["statistic"]), cell["level"]["stars"],
                _fmt3(cell["first_difference"]["statistic"]),
                cell["first_difference"]["stars"], cell["conclusion"],
            ]))
    tables["adf.csv"] = "\n".join(lines) + "\n"

    lines = ["country,hypothesis,trace_statistic,trace_cv_5pct,maxeig_statistic,maxeig_cv_5pct,selected_rank"]
    for c in countries:
        jo = report["countries"][c]["johansen"]
        for r, label in enumerate(("r = 0", "r <= 1")):
            lines.append(",".join([
                c, label,
                _fmt3(jo["trace_stats"][r]), _fmt3(jo["critical_values_trace"][r]),
                _fmt3(jo["max_eig_stats"][r]), _fmt3(jo["critical_values_maxeig"][r]),
                str(jo["selected_rank"]),
            ]))
    tables["johansen.csv"] = "\n".join(lines) + "\n"

    lines = ["country,p,stable,max_modulus,portmanteau_h,portmanteau_pvalue,arch_q,arch_pvalue_activity,arch_pvalue_price"]
    for c in countries:
        var_block = report["countries"][c]["var"]
        lines.append(",".join([
            c, str(var_block["p"]), str(var_block["stable"]).lower(),
            _fmt3(var_block["max_modulus"]),
            str(var_block["portmanteau"]["h"]), _fmt3(var_block["portmanteau"]["p_value"]),
            str(var_block["arch"]["activity"]["q"]),
            _fmt3(var_block["arch"]["activity"]["p_value"]),
            _fmt3(var_block["arch"]["price"]["p_value"]),
        ]))
    tables["var_summary.csv"] = "\n".join(lines) + "\n"

    for kind in SHOCK_KINDS:
        tables[f"correlation_{kind}.csv"] = correlation_table(
            report["group"]["correlations"][kind])

    names = [f.name for f in fields(SizeSpeed)]
    lines = [",".join(["country", *names])]
    size_speed = report["group"]["size_speed"]
    for c, row in [*size_speed["per_country"].items(), ("average", size_speed["average"])]:
        lines.append(",".join([c, *(_fmt3(row[name]) for name in names)]))
    tables["size_speed.csv"] = "\n".join(lines) + "\n"

    for kind in SHOCK_KINDS:
        disp = report["group"]["dispersion"][kind]
        lines = ["date,value,trend"]
        for d, v, t in zip(disp["dates"], disp["values"], disp["trend"]):
            lines.append(f"{d},{_fmt3(v)},{_fmt3(t)}")
        tables[f"dispersion_{kind}.csv"] = "\n".join(lines) + "\n"

        cost = report["group"]["cost"][kind]
        lines = ["date," + ",".join(countries)]
        disp_dates = disp["dates"]
        for t, d in enumerate(disp_dates):
            lines.append(d + "," + ",".join(_fmt3(cost[c][t]) for c in countries))
        tables[f"cost_{kind}.csv"] = "\n".join(lines) + "\n"

    snaps = report["group"]["cost_snapshots"]
    if snaps:
        snap_dates = report["metadata"]["config"]["snapshot_dates"]
        lines = ["kind,country," + ",".join(snap_dates)]
        for kind in SHOCK_KINDS:
            for c in countries:
                lines.append(",".join([kind, c] + [_fmt3(snaps[kind][c][d]) for d in snap_dates]))
        tables["cost_snapshots.csv"] = "\n".join(lines) + "\n"

    lines = ["kind,members"]
    for kind in SHOCK_KINDS:
        for group in report["group"]["symmetry"][kind]["groups"]:
            lines.append(f"{kind},{';'.join(group)}")
    tables["groups.csv"] = "\n".join(lines) + "\n"

    for c in countries:
        tables[f"shocks_{c}.csv"] = shock_table(c, report["shocks"][c])

    return tables


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Compute and write the full report bundle."""
    output_dir = Path(config.output_dir)
    if output_dir.exists() and not output_dir.is_dir():
        raise ConfigError(f"output directory {output_dir} is not a directory")
    panel = load_panel(config.panel_path)
    weights = load_weights(config.weights_path)

    report = build_report(panel, weights, config)
    tables = _render_tables(report)

    written: list[Path] = []
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
        for name in sorted(tables):
            path = output_dir / name
            path.write_text(tables[name], encoding="utf-8")
            written.append(path)
        report_path = output_dir / "report.json"
        report_path.write_text(render_json(report), encoding="utf-8")
        written.append(report_path)
    except OSError as exc:
        for path in written:
            with contextlib.suppress(OSError):
                path.unlink()
        raise ConfigError(f"cannot write output directory {output_dir}: {exc}") from None
    return PipelineResult(report=report, output_dir=output_dir,
                          files=tuple(sorted(p.name for p in written)))
