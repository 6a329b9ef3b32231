"""End-to-end orchestration: per-country estimation, group analytics, reports.

``run_pipeline`` drives the whole flow for a panel: unit-root pretests on
log levels, cointegration pretests, lag selection with a diagnostics gate,
VAR estimation with optional break dummies, long-run identification,
impulse-response summaries, then the cross-country layer (correlations,
symmetry groups, dispersion with its trend, cost of inclusion).

The pretests enter no shock or group figure, so a pretest that refuses its
input is a finding: its report block holds the error's class and message
(``_refused``).  A refusal in the shock chain or the group layer aborts the
run.  Everything is computed before anything is written, so a failing stage
leaves no partial output.  Reports are deterministic: same configuration
and inputs produce byte-identical ``report.json`` regardless of the thread
count used for the per-country stage.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from .cointegration import johansen_test
from .errors import ConfigError, OcaError, checked
from .identification import (IRF_HORIZON, SHOCK_KINDS, StructuralModel, identify_bq,
                             irf_structural, size_and_speed)
from .metrics import (
    MAX_HP_SMOOTHING,
    STARS,
    CorrelationReport,
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
from .months import month_range
from .panel import (SEASONAL_MIN_MONTHS, VARIABLES, Panel, csv_text, growth_pair, load_panel,
                    log_level_series)
from .unit_root import adf_panel, rejection_order
from .var import DummySpec, LagSelection, select_lag


class Bounds(NamedTuple):
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


# each numeric PipelineConfig setting, in field order, and the range it must lie in
SETTING_BOUNDS = {
    "alpha": Bounds(0.0, 1.0, open=True),
    "max_lags": Bounds(1, 24),
    "hp_lambda": Bounds(0.0, MAX_HP_SMOOTHING),
    "portmanteau_h": Bounds(2),
    "arch_q": Bounds(1),
    "threads": Bounds(1),
}


@checked
class PipelineConfig(NamedTuple):
    """Every setting of a run; a value out of its ``SETTING_BOUNDS`` or infinite,
    or an empty path, is refused when the config is built."""

    panel_path: str
    weights_path: str
    output_dir: str
    alpha: float = 0.05
    max_lags: int = 12
    hp_lambda: float = 14400.0
    seasonal_adjust: bool = False
    dummies: tuple[tuple[str, DummySpec], ...] = ()
    portmanteau_h: int = 12
    arch_q: int = 4
    threads: int = 1

    def _check(self):
        for name, what in (("panel_path", "panel path"), ("weights_path", "weights path"),
                           ("output_dir", "output directory")):
            if not getattr(self, name):
                raise ConfigError(f"{what} must be set")
        for name, bounds in SETTING_BOUNDS.items():
            value = getattr(self, name)
            if value not in bounds:
                raise ConfigError(f"{name} must be {bounds}, got {value!r}")
            if value == np.inf:  # NaN is out of every range
                raise ConfigError(f"{name} must be finite, got {value!r}")


def country_series(panel: Panel, country: str, config: PipelineConfig):
    """Log levels -> growth rates, with the country's own break dummies.

    Returns the (activity, price) log levels, the growth-rate pair and the
    country's dummies.
    """
    logs = tuple(log_level_series(panel, country, variable, seasonal=config.seasonal_adjust)
                 for variable in VARIABLES)
    dummies = tuple(spec for c, spec in config.dummies if c == country)
    return logs, growth_pair(country, panel.dates, logs), dummies


def gated_lag(data, dummies, config: PipelineConfig) -> LagSelection:
    """``select_lag`` under the configured lag cap and diagnostic gate."""
    return select_lag(data, max_p=config.max_lags, dummies=dummies,
                      portmanteau_h=config.portmanteau_h, arch_q=config.arch_q,
                      alpha=config.alpha)


def _estimate(panel: Panel, country: str, config: PipelineConfig):
    """The shock chain (``country_series`` -> gated lag selection -> long-run
    identification), then the Johansen pretest and the structural IRFs: the
    log levels, the structural model and the report block without its ``adf``.
    A refused Johansen test is recorded, not raised."""
    logs, data, dummies = country_series(panel, country, config)
    selection = gated_lag(data, dummies, config)
    svar = identify_bq(selection.model)
    try:
        johansen = johansen_test(logs, lag_order=selection.p + 1)
    except OcaError as exc:
        johansen = _refused(exc)
    responses = irf_structural(svar.a0, selection.model.coefs, IRF_HORIZON)
    return logs, svar, _country_report(johansen, selection, svar, responses)


def _pretests(logs: Mapping[str, tuple[np.ndarray, ...]], max_lags: int):
    """Level and first-difference ADFs of every country's log levels in one
    panel call, then one call for the second differences that the
    integration conclusions still need.

    Returns each country's ``adf`` report block, where a refused level or
    difference is its ``_refused`` block and rejects no unit root.
    """
    keys = [(c, v) for c in logs for v in range(len(VARIABLES))]
    levels = [logs[c][v] for c, v in keys]
    tests = adf_panel(levels + [np.diff(s) for s in levels], spec="trend", max_lags=max_lags)
    pairs = dict(zip(keys, zip(tests[:len(keys)], tests[len(keys):])))
    undecided = [key for key, pair in pairs.items() if rejection_order(pair) is None]
    second = dict(zip(undecided, adf_panel([np.diff(np.diff(logs[c][v])) for c, v in undecided],
                                           spec="trend", max_lags=max_lags)))
    out = {country: {} for country in logs}
    for (country, v), (level, diff) in pairs.items():
        order = rejection_order((level, diff, second.get((country, v))))
        out[country][VARIABLES[v]] = {
            "level": _adf_dict(level), "first_difference": _adf_dict(diff),
            "conclusion": "inconclusive" if order is None else f"I({order})"}
    return out


def analyze_country(panel: Panel, country: str, config: PipelineConfig) -> dict:
    """The full single-country estimation chain: the country's report block."""
    logs, _, block = _estimate(panel, country, config)
    return {**block, "adf": _pretests({country: logs}, config.max_lags)[country]}


class StageError(OcaError):
    """Wraps a failure with the country/stage that produced it."""

    def __init__(self, stage: str, original: Exception):
        super().__init__(f"[{stage}] {original}")
        self.stage = stage
        self.original = original


def check_panel_settings(panel: Panel, config: PipelineConfig, search: bool = True,
                         gate: bool = False) -> None:
    """Refuse settings that cannot fit ``panel``: ``seasonal_adjust`` on fewer
    than ``SEASONAL_MIN_MONTHS`` months; a repeated dummy, or one for a
    country it does not hold, dated outside its growth calendar or in the lag
    rows of every order (as ``fit_var`` at p=1 would); with ``gate``
    or ``search`` (the lag search runs the gate), a diagnostic window that no lag
    order's ``n_months - 1 - p`` residuals hold; with ``search``, a ``max_lags``
    whose common sample of ``n_months - 1 - max_lags`` rows is shorter than the
    ``11 + 2 max_lags + d`` that ``select_lag`` needs, ``d`` the most dummies of
    any one country."""
    if config.seasonal_adjust and panel.n_months < SEASONAL_MIN_MONTHS:
        raise ConfigError(f"seasonal_adjust needs at least {SEASONAL_MIN_MONTHS} months, "
                          f"but the panel has {panel.n_months}")
    growth = panel.dates[1:]
    for i, (country, spec) in enumerate(config.dummies):
        label = f"{country}:{spec.label()}"
        if (country, spec) in config.dummies[:i]:
            raise ConfigError(f"dummy {label} is repeated")
        if country not in panel.countries:
            raise ConfigError(f"dummy references unknown country {country!r}")
        if spec.break_date not in growth:
            raise ConfigError(f"dummy {label} is dated outside the growth calendar {growth}")
        earliest = growth.start + 1 + (spec.form == "step")
        if spec.break_date < earliest:
            raise ConfigError(f"dummy {label} falls in the lag rows of every order; "
                              f"the earliest usable {spec.form} is {earliest}")
    most = max(panel.n_months - 2, 0)
    for name, value, needed in (("portmanteau_h", config.portmanteau_h, config.portmanteau_h),
                                ("arch_q", config.arch_q, 5 * config.arch_q)):
        if (gate or search) and needed >= most:
            raise ConfigError(f"{name}={value} needs more than {needed} residuals, but no lag "
                              f"order leaves more than {most} on a {panel.n_months}-month panel")
    dummied = [country for country, _ in config.dummies]
    fits = (panel.n_months - 12 - max(map(dummied.count, panel.countries), default=0)) // 3
    if search and config.max_lags > fits:
        raise ConfigError(f"max_lags={config.max_lags} leaves too short a sample for the lag "
                          f"search on a {panel.n_months}-month panel; "
                          + (f"the largest that fits is {fits}" if fits >= 1 else "none fits"))


def check_weights(weights: WeightTable, panel: Panel, config: PipelineConfig) -> None:
    """Refuse weights that miss a panel country in a year of the growth months
    after the first ``max_lags``: every common shock calendar holds them,
    because no country's shocks start later."""
    for year in sorted(set(panel.dates[1 + config.max_lags:].years.tolist())):
        weights.for_group(year, panel.countries)


def _per_country(panel: Panel, config: PipelineConfig) -> dict:
    check_panel_settings(panel, config)

    def work(country: str):
        try:
            return _estimate(panel, country, config)
        except OcaError as exc:
            raise StageError(f"country {country}", exc) from exc

    if config.threads == 1:
        return {c: work(c) for c in panel.countries}
    import concurrent.futures

    with concurrent.futures.ThreadPoolExecutor(max_workers=config.threads) as pool:
        futures = {c: pool.submit(work, c) for c in panel.countries}
        return {c: futures[c].result() for c in panel.countries}


def _common_shocks(svars: Mapping[str, StructuralModel]):
    start = max(svar.dates.start for svar in svars.values())
    end = min(svar.dates[-1] for svar in svars.values())
    dates = month_range(start, end - start + 1)
    shocks = {kind: {} for kind in SHOCK_KINDS}
    for country, svar in svars.items():
        offset = svar.dates.offset(start)
        for k_idx, kind in enumerate(SHOCK_KINDS):
            shocks[kind][country] = svar.shocks[offset:offset + len(dates), k_idx]
    return dates, shocks


def _refused(exc: OcaError) -> dict:
    """The report block of a pretest that refused its input."""
    return {"error": type(exc).__name__, "message": str(exc)}


def _adf_dict(result: dict | OcaError) -> dict:
    if isinstance(result, OcaError):
        return _refused(result)
    return {**result, "stars": STARS.get(result["reject_at"], ""),
            "critical_values": {f"{int(level * 100)}%": cv
                                for level, cv in result["critical_values"].items()}}


# each report key of the irf block with its (variable, shock) cell
_IRF_CELLS = [(f"{shock}_{variable}", v, s) for s, shock in enumerate(SHOCK_KINDS)
              for v, variable in enumerate(VARIABLES)]


def _country_report(johansen: dict, selection: LagSelection, svar: StructuralModel,
                    responses: np.ndarray) -> dict:
    """A country's report block without its ``adf`` entry."""
    model = selection.model
    return {
        "johansen": johansen,
        "var": {
            "p": model.p,
            "criterion_choices": dict(selection.criterion_choices),
            "gate_trail": list(selection.trail),
            "intercept": model.intercept.tolist(),
            "coefs": model.coefs.tolist(),
            "sigma": model.sigma.tolist(),
            "dummies": [d.label() for d in model.dummies],
            "exog_coefficients": model.exog_coefficients.tolist(),
            **selection.diagnostics,
        },
        "identification": {
            "a0": svar.a0.tolist(),
            "long_run": svar.long_run.tolist(),
            "n_shocks": svar.shocks.shape[0],
            "first_shock_date": str(svar.dates[0]),
            "last_shock_date": str(svar.dates[-1]),
        },
        "irf": {
            "horizon": len(responses) - 1,
            "cumulative_responses": {key: responses[:, v, s].tolist() for key, v, s in _IRF_CELLS},
        },
        "size_speed": size_and_speed(svar, responses),
    }


def _conventions() -> dict:
    return {
        "transform_order": "log -> optional seasonal dummy adjustment -> first difference",
        "adf_lag_rule": "aic over 0..max_lags",
        "adf_critical_values": "response surface in the effective sample size",
        "adf_spec": "linear trend for level and first-difference pretests",
        "johansen_deterministics": "unrestricted constant, trend restricted to the cointegrating relation",
        "johansen_rejection_rule": "reject iff statistic > 5% critical value",
        "johansen_lag_rule": "levels order = selected difference-VAR order + 1",
        "sigma_divisor": "residual row count (T - p)",
        "lag_selection": ("minimum of AIC/SC/HQ picks, incremented until stability and the "
                          "diagnostics pass at metadata.config.alpha"),
        "dummy_default": "step form, both equations",
        "sign_normalization": "long-run diagonal positive",
        "long_run_values": "closed form from the coefficient sum, not truncated sums",
        "significance_stars": "* p<0.10, ** p<0.05, *** p<0.01",
        "table_rounding": "half-to-even, 3 decimals",
        "hp_lambda_convention": "14400 for monthly data",
        "shock_csv_precision": "15 significant digits",
    }


def _config_dict(config: PipelineConfig) -> dict:
    """``metadata.config``: every setting, with the dummies in their flag text,
    except ``threads``, which changes no reported number."""
    out = {name: value for name, value in config._asdict().items() if name != "threads"}
    out["dummies"] = [f"{c}:{spec.label()}" for c, spec in config.dummies]
    return out


def build_report(panel: Panel, weights: WeightTable, config: PipelineConfig) -> dict:
    """Compute every number in the bundle; pure and deterministic."""
    check_group(panel.countries, panel.countries, "run")  # every country's cost of inclusion
    check_weights(weights, panel, config)
    estimates = _per_country(panel, config)
    adf = _pretests({c: logs for c, (logs, _, _) in estimates.items()}, config.max_lags)
    blocks = {c: {**block, "adf": adf[c]} for c, (_, _, block) in estimates.items()}
    svars = {c: svar for c, (_, svar, _) in estimates.items()}
    dates, shocks = _common_shocks(svars)

    group = {block: {} for block in ("correlations", "symmetry", "dispersion", "cost")}
    for kind in SHOCK_KINDS:
        try:
            correlations = correlation_matrix(shocks[kind], kind=kind)
            symmetry = classify_symmetry(correlations, config.alpha)
            disp, cost = group_dispersion(shocks[kind], dates, weights, panel.countries)
            trend, _cycle = hp_filter(disp, config.hp_lambda)
            change = trend_change(dates, trend, dates[0], dates[-1])
        except OcaError as exc:
            raise StageError(f"group {kind}", exc) from exc
        group["correlations"][kind] = correlation_dict(correlations)
        group["symmetry"][kind] = {
            "alpha": symmetry.alpha,
            "symmetric_pairs": {f"{a}|{b}": flag
                                for (a, b), flag in sorted(symmetry.symmetric_pairs.items())},
            "groups": [list(g) for g in symmetry.groups],
        }
        group["dispersion"][kind] = {"dates": dates.labels(), "values": disp.tolist(),
                                     "trend": trend.tolist(), "trend_change_pct": change}
        group["cost"][kind] = {c: cost[c].tolist() for c in panel.countries}

    sizes = [block["size_speed"] for block in blocks.values()]
    averages = {key: float(np.mean([s[key] for s in sizes])) for key in sizes[0]}

    return {
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
        "countries": blocks,
        "group": {
            "common_calendar": {"start": str(dates[0]), "end": str(dates[-1]),
                                "n": len(dates)},
            "size_speed": {"average": averages},
            **group,
        },
        "shocks": {c: shock_dict(svars[c]) for c in panel.countries},
    }


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False, allow_nan=False) + "\n"


def _fmt3(value: float) -> str:
    return format(float(value), ".3f")


def correlation_dict(report: CorrelationReport) -> dict:
    """The ``report.json`` block of one correlation matrix."""
    return {"countries": list(report.countries), "n": report.n,
            "r": report.r.tolist(), "p": report.p.tolist()}


def correlation_table(corr: dict) -> str:
    """Lower-triangular CSV of a ``correlation_dict`` block, with significance stars."""
    countries, r, p = corr["countries"], corr["r"], corr["p"]
    return csv_text(["country", *countries], (
        [a, *(_fmt3(r[i][j]) + ("" if i == j else significance_stars(p[i][j]))
              for j in range(i + 1)), *[""] * (len(countries) - i - 1)]
        for i, a in enumerate(countries)))


def shock_dict(svar: StructuralModel) -> dict:
    """The ``report.json`` block of one country's structural shocks."""
    return {"dates": svar.dates.labels(),
            **dict(zip(SHOCK_KINDS, svar.shocks.T.tolist()))}


def shock_table(country: str, shocks: dict) -> str:
    """CSV of a ``shock_dict`` block, each shock at 15 significant digits."""
    return csv_text(("country", "date", "supply_shock", "demand_shock"), (
        (country, d, format(s, ".15g"), format(dm, ".15g"))
        for d, s, dm in zip(shocks["dates"], shocks["supply"], shocks["demand"])))


def _adf_cells(test: dict) -> list[str]:
    """An ``adf.csv`` statistic and its stars, or ``refused`` and no stars."""
    return ["refused", ""] if "error" in test else [_fmt3(test["statistic"]), test["stars"]]


def _johansen_cells(johansen: dict, r: int) -> list[str]:
    """The figures of one ``johansen.csv`` row, each ``refused`` when the test was."""
    columns = ("trace_stats", "critical_values_trace", "max_eig_stats", "critical_values_maxeig")
    if "error" in johansen:
        return ["refused"] * (len(columns) + 1)
    return [*(_fmt3(johansen[key][r]) for key in columns), str(johansen["selected_rank"])]


def _render_tables(report: dict) -> dict[str, str]:
    """Human-readable CSV tables; every figure is the JSON value at 3 decimals,
    and a refused pretest's figures read ``refused``."""
    countries = report["metadata"]["panel"]["countries"]
    per_country, group = report["countries"].items(), report["group"]
    tables: dict[str, str] = {}

    tables["adf.csv"] = csv_text(
        ("country", "variable", "level", "level_stars", "first_difference",
         "first_difference_stars", "conclusion"),
        ([c, variable, *_adf_cells(cell["level"]), *_adf_cells(cell["first_difference"]),
          cell["conclusion"]]
         for c, block in per_country for variable, cell in block["adf"].items()))

    tables["johansen.csv"] = csv_text(
        ("country", "hypothesis", "trace_statistic", "trace_cv_5pct", "maxeig_statistic",
         "maxeig_cv_5pct", "selected_rank"),
        ([c, label, *_johansen_cells(block["johansen"], r)]
         for c, block in per_country for r, label in enumerate(("r = 0", "r <= 1"))))

    var_blocks = {c: block["var"] for c, block in per_country}
    tables["var_summary.csv"] = csv_text(
        ("country", "p", "stable", "max_modulus", "portmanteau_h", "portmanteau_pvalue",
         "arch_q", "arch_pvalue_activity", "arch_pvalue_price"),
        ([c, str(v["p"]), str(v["stable"]).lower(), _fmt3(v["max_modulus"]),
          str(v["portmanteau"]["h"]), _fmt3(v["portmanteau"]["p_value"]),
          str(v["arch"]["activity"]["q"]), _fmt3(v["arch"]["activity"]["p_value"]),
          _fmt3(v["arch"]["price"]["p_value"])] for c, v in var_blocks.items()))

    sizes = {c: block["size_speed"] for c, block in per_country}
    average = group["size_speed"]["average"]
    tables["size_speed.csv"] = csv_text(["country", *average], (
        [c, *map(_fmt3, row.values())] for c, row in [*sizes.items(), ("average", average)]))

    for kind in SHOCK_KINDS:
        tables[f"correlation_{kind}.csv"] = correlation_table(group["correlations"][kind])
        disp, cost = group["dispersion"][kind], group["cost"][kind]
        tables[f"dispersion_{kind}.csv"] = csv_text(("date", "value", "trend"), (
            (d, _fmt3(v), _fmt3(t))
            for d, v, t in zip(disp["dates"], disp["values"], disp["trend"])))
        tables[f"cost_{kind}.csv"] = csv_text(["date", *countries], (
            [d, *map(_fmt3, values)]
            for d, *values in zip(disp["dates"], *(cost[c] for c in countries))))

    tables["groups.csv"] = csv_text(("kind", "members"), (
        (kind, ";".join(members))
        for kind in SHOCK_KINDS for members in group["symmetry"][kind]["groups"]))

    for c in countries:
        tables[f"shocks_{c}.csv"] = shock_table(c, report["shocks"][c])

    return tables


def write_texts(texts: Mapping[Path, str]) -> None:
    """Write each text to its path as UTF-8, in order.  On an ``OSError`` the
    files this call created are removed before it propagates with the failed
    path as its ``filename``.  A path that existed before (a file of an earlier
    run, a device) is never removed; if its turn came, it keeps the new text."""
    created: list[Path] = []
    try:
        for path, text in texts.items():
            if not os.path.lexists(path):
                created.append(path)
            path.write_text(text, encoding="utf-8")
    except OSError as exc:
        exc.filename = exc.filename or str(path)
        for done in created:
            with contextlib.suppress(OSError):
                done.unlink()
        raise


def run_pipeline(config: PipelineConfig) -> list[str]:
    """Compute and write the full report bundle; return its file names, sorted."""
    output_dir = Path(config.output_dir)
    if output_dir.exists() and not output_dir.is_dir():
        raise ConfigError(f"output directory {output_dir} is not a directory")
    panel = load_panel(config.panel_path)
    weights = load_weights(config.weights_path)

    report = build_report(panel, weights, config)
    texts = {output_dir / name: text for name, text in sorted(_render_tables(report).items())}
    texts[output_dir / "report.json"] = render_json(report)
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
        write_texts(texts)
    except OSError as exc:
        raise ConfigError(f"cannot write output directory {output_dir}: {exc}") from None
    return sorted(path.name for path in texts)
