"""Command-line front end.

``ocametrics run`` drives the full pipeline from a panel CSV and a weights
CSV to a report bundle.  The remaining subcommands are thin wrappers over
single library operations and write CSV to standard output (JSON with
``--json``).
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click
import numpy as np

from .errors import ConfigError, OcaError
from .identification import identify_bq, irf_structural, size_and_speed
from .metrics import (
    classify_symmetry,
    correlation_matrix,
    cost_of_inclusion,
    dispersion_index,
    hp_filter,
    load_weights,
)
from .months import Month
from .panel import dump_panel, growth_pair, load_panel, log_level_series
from .pipeline import (
    PipelineConfig,
    check_dummy_countries,
    correlation_dict,
    correlation_table,
    group_shocks,
    run_pipeline,
)
from .simulate import synthetic_panel, write_equal_weights
from .unit_root import adf_test
from .var import DummySpec, diagnose, fit_var, select_lag

_VARIABLE_ALIASES = {"meai": "activity", "activity": "activity",
                     "cpi": "price", "price": "price"}


def _parse_dummy(text: str) -> tuple[str, DummySpec]:
    parts = text.split(":")
    if len(parts) == 3:
        parts.append("step")
    if len(parts) != 4:
        raise ConfigError(f"dummy must be COUNTRY:VAR:YYYY-MM:step|pulse, got {text!r}")
    country, variable, date_text, form = (p.strip() for p in parts)
    variable = _VARIABLE_ALIASES.get(variable.lower())
    if variable is None:
        raise ConfigError(f"dummy variable must be MEAI or CPI, got {parts[1]!r}")
    try:
        break_date = Month.parse(date_text)
        spec = DummySpec(variable=variable, break_date=break_date, form=form)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return country, spec


def _parse_snapshots(text: str) -> tuple[Month, ...]:
    try:
        return tuple(Month.parse(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


_CONFIG_KEYS = frozenset({
    "panel", "weights", "output_dir", "base_year", "alpha", "max_lags", "hp_lambda",
    "irf_horizon", "snapshot_dates", "dummy", "seasonal_adjust", "portmanteau_h",
    "arch_q", "threads"})


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a flat JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r} in {path}")
    return raw


def _fail(exc: Exception) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(1)


def _domain_errors(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except OcaError as exc:
            _fail(exc)
    return wrapper


def _series_from_csv(path: str) -> np.ndarray:
    """The value column of a ``date,value`` CSV, after checking every date parses."""
    values: list[float] = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != "date,value":
        raise ConfigError(f"{path}: expected header date,value")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            date_text, value_text = line.split(",")
            Month.parse(date_text)
            values.append(float(value_text))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return np.array(values)


@click.group()
def main():
    """Structural shock extraction and currency-area feasibility metrics."""


@main.command("run")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Flat key-value JSON config; flags override it.")
@click.option("--panel", "panel_path", type=click.Path(), default=None)
@click.option("--weights", "weights_path", type=click.Path(), default=None)
@click.option("--output-dir", type=click.Path(), default=None)
@click.option("--base-year", type=int, default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--max-lags", type=int, default=None)
@click.option("--hp-lambda", type=float, default=None)
@click.option("--irf-horizon", type=int, default=None)
@click.option("--snapshot-dates", type=str, default=None,
              help="Comma-separated YYYY-MM dates for the cost table.")
@click.option("--dummy", "dummy_flags", multiple=True,
              help="COUNTRY:VAR:YYYY-MM:step|pulse break dummy (repeatable).")
@click.option("--seasonal-adjust", is_flag=True, default=None,
              help="Apply the month-dummy seasonal adjustment to log levels.")
@click.option("--portmanteau-h", type=int, default=None)
@click.option("--arch-q", type=int, default=None)
@click.option("--threads", type=int, default=None)
@_domain_errors
def run_command(config_path, panel_path, weights_path, output_dir, base_year,
                alpha, max_lags, hp_lambda, irf_horizon, snapshot_dates,
                dummy_flags, seasonal_adjust, portmanteau_h, arch_q, threads):
    """Run the full pipeline and write the report bundle."""
    raw = _load_config_file(config_path) if config_path else {}

    def pick(flag, key, fallback):
        if flag is not None:
            return flag
        return raw.get(key, fallback)

    dummy_texts = list(raw.get("dummy", []) or [])
    if isinstance(dummy_texts, str):
        dummy_texts = [dummy_texts]
    if dummy_flags:
        dummy_texts = list(dummy_flags)
    snapshot_text = pick(snapshot_dates, "snapshot_dates", "")
    if isinstance(snapshot_text, list):
        snapshot_text = ",".join(snapshot_text)

    config = PipelineConfig(
        panel_path=str(pick(panel_path, "panel", "")),
        weights_path=str(pick(weights_path, "weights", "")),
        output_dir=str(pick(output_dir, "output_dir", "")),
        base_year=int(pick(base_year, "base_year", 2010)),
        alpha=float(pick(alpha, "alpha", 0.05)),
        max_lags=int(pick(max_lags, "max_lags", 12)),
        hp_lambda=float(pick(hp_lambda, "hp_lambda", 14400.0)),
        irf_horizon=int(pick(irf_horizon, "irf_horizon", 48)),
        seasonal_adjust=bool(pick(seasonal_adjust, "seasonal_adjust", False)),
        snapshot_dates=_parse_snapshots(snapshot_text) if snapshot_text else (),
        dummies=tuple(_parse_dummy(t) for t in dummy_texts),
        portmanteau_h=int(pick(portmanteau_h, "portmanteau_h", 12)),
        arch_q=int(pick(arch_q, "arch_q", 4)),
        threads=int(pick(threads, "threads", 1)),
    )
    result = run_pipeline(config)
    click.echo(f"wrote {len(result.files)} files to {result.output_dir}")


def _emit(rows: list[dict], as_json: bool) -> None:
    if as_json:
        click.echo(json.dumps(rows, sort_keys=True))
        return
    if not rows:
        return
    header = list(rows[0])
    click.echo(",".join(header))
    for row in rows:
        click.echo(",".join(str(row[h]) for h in header))


def _lag_rule(ctx, param, value: str) -> int | str:
    if value == "aic":
        return value
    try:
        lags = int(value)
    except ValueError:
        lags = None
    if lags is None or lags < 0:
        raise click.BadParameter(f'must be "aic" or an integer >= 0, got {value!r}')
    return lags


_ALPHA = click.FloatRange(0.0, 1.0, min_open=True, max_open=True)


@main.command("adf")
@click.option("--series", "series_path", type=click.Path(), required=True,
              help="CSV with header date,value.")
@click.option("--spec", type=click.Choice(["none", "constant", "trend"]),
              default="trend")
@click.option("--max-lags", type=click.IntRange(min=0), default=12)
@click.option("--lag-rule", type=str, default="aic", callback=_lag_rule,
              help='"aic" or an integer >= 0 fixing the lag count.')
@click.option("--json", "as_json", is_flag=True, default=False)
@_domain_errors
def adf_command(series_path, spec, max_lags, lag_rule, as_json):
    """Unit-root test on one series."""
    values = _series_from_csv(series_path)
    res = adf_test(values, spec=spec, max_lags=max_lags, lag_rule=lag_rule)
    row = {
        "statistic": res.statistic, "lags_used": res.lags_used, "spec": res.spec,
        "nobs": res.nobs,
        "cv_1pct": res.critical_values[0.01], "cv_5pct": res.critical_values[0.05],
        "cv_10pct": res.critical_values[0.10],
        "reject_at": "" if res.reject_at is None else res.reject_at,
    }
    _emit([row], as_json)


def _options(*options):
    def decorate(func):
        for option in reversed(options):
            func = option(func)
        return func
    return decorate


_PANEL_OPTION = click.option("--panel", "panel_path", type=click.Path(), required=True)
_CHAIN_OPTIONS = (
    click.option("--base-year", type=int, default=2010),
    click.option("--max-lags", type=click.IntRange(min=1), default=12),
    click.option("--seasonal-adjust", is_flag=True, default=False),
    click.option("--dummy", "dummy_flags", multiple=True),
)
_country_options = _options(_PANEL_OPTION, click.option("--country", type=str, required=True),
                            *_CHAIN_OPTIONS)
_group_options = _options(_PANEL_OPTION, *_CHAIN_OPTIONS)


def _country_inputs(panel_path, country, base_year, seasonal_adjust, dummy_flags):
    panel = load_panel(panel_path)
    if country not in panel.countries:
        raise ConfigError(f"country {country!r} not in panel {panel.countries}")
    pairs = [_parse_dummy(t) for t in dummy_flags]
    check_dummy_countries(pairs, panel.countries)
    dummies = tuple(spec for c, spec in pairs if c == country)
    logs = tuple(log_level_series(panel, country, variable, base_year=base_year,
                                  seasonal=seasonal_adjust)
                 for variable in ("activity", "price"))
    return logs, growth_pair(country, panel.dates, logs), dummies


@main.command("johansen")
@_country_options
@click.option("--lag-order", type=click.IntRange(min=2), default=None,
              help="Levels-VAR order; defaults to the selected lag + 1.")
@click.option("--json", "as_json", is_flag=True, default=False)
@_domain_errors
def johansen_command(panel_path, country, base_year, max_lags, seasonal_adjust,
                     dummy_flags, lag_order, as_json):
    """Cointegration test on one country's (log activity, log price) pair."""
    from .cointegration import johansen_test

    logs, data, dummies = _country_inputs(panel_path, country, base_year,
                                          seasonal_adjust, dummy_flags)
    if lag_order is None:
        lag_order = select_lag(data, max_p=max_lags, dummies=dummies).p + 1
    res = johansen_test(logs, lag_order=lag_order)
    rows = []
    for r, label in enumerate(("r = 0", "r <= 1")):
        rows.append({
            "country": country, "hypothesis": label,
            "eigenvalue": res.eigenvalues[r],
            "trace_statistic": res.trace_stats[r],
            "trace_cv_5pct": res.critical_values_trace[r],
            "maxeig_statistic": res.max_eig_stats[r],
            "maxeig_cv_5pct": res.critical_values_maxeig[r],
            "selected_rank": res.selected_rank,
        })
    _emit(rows, as_json)


@main.command("var")
@_country_options
@click.option("--p", "fixed_p", type=click.IntRange(min=1), default=None,
              help="Fit this lag order instead of selecting one.")
@click.option("--portmanteau-h", type=click.IntRange(min=2), default=12)
@click.option("--arch-q", type=click.IntRange(min=1), default=4)
@click.option("--alpha", type=_ALPHA, default=0.05)
@click.option("--json", "as_json", is_flag=True, default=False)
@_domain_errors
def var_command(panel_path, country, base_year, max_lags, seasonal_adjust,
                dummy_flags, fixed_p, portmanteau_h, arch_q, alpha, as_json):
    """Lag selection, estimation and diagnostics for one country."""
    _, data, dummies = _country_inputs(panel_path, country, base_year,
                                       seasonal_adjust, dummy_flags)
    if fixed_p is None:
        selection = select_lag(data, max_p=max_lags, dummies=dummies,
                               portmanteau_h=portmanteau_h, arch_q=arch_q,
                               alpha=alpha)
        model, diag = selection.model, selection.diagnostics
    else:
        model = fit_var(data, fixed_p, dummies)
        diag = diagnose(model, portmanteau_h, arch_q)
    _emit([{
        "country": country, "p": model.p, "stable": diag.stability.stable,
        "max_modulus": diag.stability.max_modulus,
        "portmanteau_pvalue": diag.portmanteau.p_value,
        "arch_pvalue_activity": diag.arch[0].p_value,
        "arch_pvalue_price": diag.arch[1].p_value,
        "nobs": model.nobs,
    }], as_json)


@main.command("identify")
@_country_options
@click.option("--p", "fixed_p", type=click.IntRange(min=1), default=None)
@click.option("--irf-horizon", type=click.IntRange(min=12), default=48)
@click.option("--json", "as_json", is_flag=True, default=False)
@_domain_errors
def identify_command(panel_path, country, base_year, max_lags, seasonal_adjust,
                     dummy_flags, fixed_p, irf_horizon, as_json):
    """Structural shocks for one country, 15-significant-digit CSV."""
    _, data, dummies = _country_inputs(panel_path, country, base_year,
                                       seasonal_adjust, dummy_flags)
    if fixed_p is None:
        model = select_lag(data, max_p=max_lags, dummies=dummies).model
    else:
        model = fit_var(data, fixed_p, dummies)
    p = model.p
    svar = identify_bq(model)
    if as_json:
        irf = irf_structural(svar, model, irf_horizon)
        ss = size_and_speed(irf)
        click.echo(json.dumps({
            "country": country, "p": p,
            "a0": [[float(v) for v in row] for row in svar.a0],
            "long_run": [[float(v) for v in row] for row in svar.long_run],
            "supply_size": ss.supply_size, "supply_speed": ss.supply_speed,
            "demand_size": ss.demand_size, "demand_speed": ss.demand_speed,
        }, sort_keys=True))
        return
    click.echo("country,date,supply_shock,demand_shock")
    for date, (supply, demand) in zip(svar.dates.labels(), svar.shocks):
        click.echo(f"{country},{date},{format(supply, '.15g')},{format(demand, '.15g')}")


def _group_config(panel_path, base_year, seasonal_adjust, max_lags, dummy_flags):
    return PipelineConfig(panel_path=panel_path, weights_path="-", output_dir="-",
                          base_year=base_year, max_lags=max_lags,
                          seasonal_adjust=seasonal_adjust,
                          dummies=tuple(_parse_dummy(t) for t in dummy_flags))


@main.command("correlate")
@_group_options
@click.option("--alpha", type=_ALPHA, default=0.05)
@click.option("--kind", type=click.Choice(["supply", "demand"]), default="supply")
@click.option("--json", "as_json", is_flag=True, default=False)
@_domain_errors
def correlate_command(panel_path, base_year, max_lags, seasonal_adjust,
                      dummy_flags, alpha, kind, as_json):
    """Cross-country shock correlation matrix with significance stars."""
    _, shocks = group_shocks(load_panel(panel_path), _group_config(
        panel_path, base_year, seasonal_adjust, max_lags, dummy_flags))
    report = correlation_matrix(shocks[kind], kind=kind)
    symmetry = classify_symmetry(report, alpha)
    if as_json:
        click.echo(json.dumps({**correlation_dict(report),
                               "groups": [list(g) for g in symmetry.groups]},
                              sort_keys=True))
        return
    click.echo(correlation_table(correlation_dict(report)), nl=False)


@main.command("disperse")
@_group_options
@click.option("--weights", "weights_path", type=click.Path(), required=True)
@click.option("--hp-lambda", type=click.FloatRange(min=0.0), default=14400.0)
@click.option("--kind", type=click.Choice(["supply", "demand"]), default="supply")
@click.option("--json", "as_json", is_flag=True, default=False)
@_domain_errors
def disperse_command(panel_path, weights_path, base_year, max_lags,
                     seasonal_adjust, dummy_flags, hp_lambda, kind, as_json):
    """Weighted cross-country dispersion index and its trend."""
    dates, shocks = group_shocks(load_panel(panel_path), _group_config(
        panel_path, base_year, seasonal_adjust, max_lags, dummy_flags))
    weights = load_weights(weights_path)
    series = dispersion_index(shocks[kind], dates, weights, kind=kind)
    trend, _ = hp_filter(series.values, hp_lambda)
    rows = [{"date": d, "value": float(v), "trend": float(t)}
            for d, v, t in zip(dates.labels(), series.values, trend)]
    _emit(rows, as_json)


@main.command("cost")
@_group_options
@click.option("--weights", "weights_path", type=click.Path(), required=True)
@click.option("--exclude", "excluded", type=str, required=True,
              help="Country whose cost-of-inclusion series to compute.")
@click.option("--json", "as_json", is_flag=True, default=False)
@_domain_errors
def cost_command(panel_path, weights_path, excluded, base_year, max_lags,
                 seasonal_adjust, dummy_flags, as_json):
    """Leave-one-out cost-of-inclusion series for one country."""
    dates, shocks = group_shocks(load_panel(panel_path), _group_config(
        panel_path, base_year, seasonal_adjust, max_lags, dummy_flags))
    weights = load_weights(weights_path)
    series = {kind: cost_of_inclusion(shocks[kind], dates, weights, excluded, kind=kind)
              for kind in ("supply", "demand")}
    rows = [{"country": excluded, "date": d, "supply": float(s), "demand": float(m)}
            for d, s, m in zip(dates.labels(), series["supply"].values,
                               series["demand"].values)]
    _emit(rows, as_json)


@main.command("simulate")
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--t", "n_months", type=click.IntRange(min=2), default=133,
              help="Number of months in the fixture panel.")
@click.option("--countries", "n_countries", type=click.IntRange(min=1), default=7)
@click.option("--start", type=str, default="2009-01")
@click.option("--output", type=click.Path(), default=None,
              help="Panel CSV destination (stdout when omitted).")
@click.option("--weights-output", type=click.Path(), default=None,
              help="Also write a near-equal weights CSV for the fixture.")
@_domain_errors
def simulate_command(seed, n_months, n_countries, start, output, weights_output):
    """Generate a reproducible synthetic fixture panel."""
    if weights_output and n_countries < 2:
        # load_weights needs at least 2 countries a year
        raise click.BadParameter("must be >= 2 with --weights-output",
                                 param_hint="'--countries'")
    try:
        first = Month.parse(start)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    panel = synthetic_panel(seed, n_countries, n_months, start=first)
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            dump_panel(panel, fh)
    else:
        dump_panel(panel, sys.stdout)
    if weights_output:
        write_equal_weights(panel, weights_output)


if __name__ == "__main__":
    main()
