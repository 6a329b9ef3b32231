"""Command-line front end.

``ocametrics run`` drives the full pipeline from a panel CSV and a weights
CSV to a report bundle, and is the one entry point for every group figure
(the shock correlations and symmetric groups, the dispersion and its trend,
each country's cost of inclusion).  The remaining subcommands are thin
wrappers over single library operations and write CSV to standard output
(JSON with ``--json``).

Each ``PipelineConfig`` setting is one click option, with the field's
default and its ``SETTING_BOUNDS`` as a click range, shared by ``run`` and the
chain subcommands.  Every country subcommand takes ``_CHAIN``, the settings
that decide a country's shocks, so it reproduces what ``run`` writes for the
same panel and settings.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from pathlib import Path

import click
import numpy as np

from .cointegration import johansen_test
from .errors import ConfigError, OcaError
from .identification import SPEED_MONTH, identify_bq, irf_structural, size_and_speed
from .months import Month, month_range
from .panel import _read_rows, csv_text, load_panel, panel_to_csv
from .pipeline import (
    SETTING_BOUNDS,
    PipelineConfig,
    check_panel_settings,
    country_series,
    gated_lag,
    run_pipeline,
    shock_dict,
    shock_table,
    write_texts,
)
from .unit_root import adf_test
from .var import DummySpec, diagnose, fit_var


def _parse_dummy(text: str) -> tuple[str, DummySpec]:
    country, *fields = (part.strip() for part in text.split(":"))
    if len(fields) not in (1, 2):
        raise ValueError(f"dummy must be COUNTRY:YYYY-MM[:step|pulse], got {text!r}")
    return country, DummySpec(Month.parse(fields[0]), *fields[1:])


class _Text(click.ParamType):
    """Option text read by ``parse``, whose ``ValueError`` is a usage error."""

    def __init__(self, name, parse):
        self.name, self.parse = name, parse

    def convert(self, value, param, ctx):
        try:
            return self.parse(value)
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


def _setting(field: str, flag: str, **attrs):
    """The click option of ``PipelineConfig.<field>``, passed as ``field``.
    Its default is the field's, and a field in ``SETTING_BOUNDS`` gets its
    bounds as a click range; a field without a default makes a required option."""
    if field not in PipelineConfig._field_defaults:
        return click.option(flag, field, required=True, **attrs)
    default, bounds = PipelineConfig._field_defaults[field], SETTING_BOUNDS.get(field)
    if bounds is not None:
        kind = click.FloatRange if isinstance(default, float) else click.IntRange
        attrs["type"] = kind(bounds.low, bounds.high, min_open=bounds.open, max_open=bounds.open)
    return click.option(flag, field, default=default, **attrs)


_PANEL = _setting("panel_path", "--panel", type=click.Path())
_WEIGHTS = _setting("weights_path", "--weights", type=click.Path())
_OUTPUT_DIR = _setting("output_dir", "--output-dir", type=click.Path())
_ALPHA = _setting("alpha", "--alpha")
_MAX_LAGS = _setting("max_lags", "--max-lags")
_HP_LAMBDA = _setting("hp_lambda", "--hp-lambda")
_DUMMY = _setting("dummies", "--dummy", type=_Text("dummy", _parse_dummy), multiple=True,
                  help="COUNTRY:YYYY-MM[:step|pulse] break dummy, step by default (repeatable).")
_SEASONAL_ADJUST = _setting("seasonal_adjust", "--seasonal-adjust", is_flag=True,
                            help="Apply the month-dummy seasonal adjustment to log levels.")
_PORTMANTEAU_H = _setting("portmanteau_h", "--portmanteau-h")
_ARCH_Q = _setting("arch_q", "--arch-q")
_THREADS = _setting("threads", "--threads")


def _options(*options):
    def decorate(func):
        for option in reversed(options):
            func = option(func)
        return func
    return decorate


def _config(settings: dict) -> PipelineConfig:
    """The ``PipelineConfig`` of a command's settings; a chain subcommand
    writes no bundle, so the paths it does not take read ``-``."""
    return PipelineConfig(**{"weights_path": "-", "output_dir": "-", **settings})


def _domain_errors(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except OcaError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
    return wrapper


def _series_from_csv(path: str) -> np.ndarray:
    """The value column of a ``date,value`` CSV, after checking that its dates
    are consecutive months in file order and every value is finite."""
    values: list[float] = []
    prev = None
    for lineno, (date_text, value_text) in _read_rows(path, ("date", "value"),
                                                      ConfigError, "series"):
        try:
            month = Month.parse(date_text)
            value = float(value_text)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        if prev is not None and month != prev + 1:
            raise ConfigError(f"{path}:{lineno}: expected {prev + 1}, got {month}")
        if not math.isfinite(value):
            raise ConfigError(f"{path}:{lineno}: non-finite value {value_text!r}")
        values.append(value)
        prev = month
    return np.array(values)


@click.group()
def main():
    """Structural shock extraction and currency-area feasibility metrics."""


@main.command("run")
@_options(_PANEL, _WEIGHTS, _OUTPUT_DIR, _ALPHA, _MAX_LAGS, _HP_LAMBDA, _DUMMY,
          _SEASONAL_ADJUST, _PORTMANTEAU_H, _ARCH_Q, _THREADS)
@_domain_errors
def run_command(**settings):
    """Run the full pipeline and write the report bundle."""
    config = _config(settings)
    files = run_pipeline(config)
    click.echo(f"wrote {len(files)} files to {Path(config.output_dir)}")


def _emit(rows: list[dict], as_json: bool) -> None:
    if as_json:
        click.echo(json.dumps(rows, sort_keys=True))
    elif rows:
        header = list(rows[0])
        click.echo(csv_text(header, ([str(row[h]) for h in header] for row in rows)), nl=False)


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
    cvs = res["critical_values"]
    row = {
        "statistic": res["statistic"], "lags_used": res["lags_used"], "spec": res["spec"],
        "nobs": res["nobs"], "cv_1pct": cvs[0.01], "cv_5pct": cvs[0.05], "cv_10pct": cvs[0.10],
        "reject_at": "" if res["reject_at"] is None else res["reject_at"],
    }
    _emit([row], as_json)


# the settings of the shock chain: country_series's three, then gated_lag's four
_CHAIN = (_PANEL, _SEASONAL_ADJUST, _DUMMY, _MAX_LAGS, _ALPHA, _PORTMANTEAU_H, _ARCH_Q)
_country_options = _options(click.option("--country", type=str, required=True), *_CHAIN)


def _country_series(country: str, settings: dict, search: bool, gate: bool = False):
    """The settings' ``PipelineConfig``, then ``pipeline.country_series`` of
    ``country``: its log levels, growth pair and own dummies.  ``search`` says
    whether the command selects a lag order and ``gate`` whether it tests the
    residuals of a fixed one, so ``check_panel_settings`` checks what runs."""
    config = _config(settings)
    panel = load_panel(config.panel_path)
    if country not in panel.countries:
        raise ConfigError(f"country {country!r} not in panel {panel.countries}")
    check_panel_settings(panel, config, search=search, gate=gate)
    return (config, *country_series(panel, country, config))


@main.command("johansen")
@_country_options
@click.option("--lag-order", type=click.IntRange(min=2), default=None,
              help="Levels-VAR order; defaults to the selected lag + 1.")
@click.option("--json", "as_json", is_flag=True, default=False)
@_domain_errors
def johansen_command(country, lag_order, as_json, **settings):
    """Cointegration test on one country's (log activity, log price) pair."""
    config, logs, data, dummies = _country_series(country, settings, search=lag_order is None)
    if lag_order is None:
        lag_order = gated_lag(data, dummies, config).p + 1
    res = johansen_test(logs, lag_order=lag_order)
    _emit([{
        "country": country, "hypothesis": label,
        "eigenvalue": res["eigenvalues"][r],
        "trace_statistic": res["trace_stats"][r],
        "trace_cv_5pct": res["critical_values_trace"][r],
        "maxeig_statistic": res["max_eig_stats"][r],
        "maxeig_cv_5pct": res["critical_values_maxeig"][r],
        "selected_rank": res["selected_rank"],
    } for r, label in enumerate(("r = 0", "r <= 1"))], as_json)


@main.command("var")
@_country_options
@click.option("--p", "fixed_p", type=click.IntRange(min=1), default=None,
              help="Fit this lag order instead of selecting one.")
@click.option("--json", "as_json", is_flag=True, default=False)
@_domain_errors
def var_command(country, fixed_p, as_json, **settings):
    """Lag selection, estimation and diagnostics for one country."""
    config, _, data, dummies = _country_series(country, settings, search=fixed_p is None,
                                                 gate=True)
    if fixed_p is None:
        selection = gated_lag(data, dummies, config)
        model, diag = selection.model, selection.diagnostics
    else:
        model = fit_var(data, fixed_p, dummies)
        diag = diagnose(model, config.portmanteau_h, config.arch_q)
    _emit([{
        "country": country, "p": model.p, "stable": diag["stable"],
        "max_modulus": diag["max_modulus"], "portmanteau_pvalue": diag["portmanteau"]["p_value"],
        **{f"arch_pvalue_{v}": arch["p_value"] for v, arch in diag["arch"].items()},
        "nobs": model.nobs,
    }], as_json)


@main.command("identify")
@_country_options
@click.option("--p", "fixed_p", type=click.IntRange(min=1), default=None)
@click.option("--json", "as_json", is_flag=True, default=False)
@_domain_errors
def identify_command(country, fixed_p, as_json, **settings):
    """Structural shocks for one country, 15-significant-digit CSV."""
    config, _, data, dummies = _country_series(country, settings, search=fixed_p is None)
    if fixed_p is None:
        model = gated_lag(data, dummies, config).model
    else:
        model = fit_var(data, fixed_p, dummies)
    svar = identify_bq(model)
    if as_json:
        responses = irf_structural(svar.a0, model.coefs, SPEED_MONTH)
        click.echo(json.dumps({
            "country": country, "p": model.p,
            "a0": svar.a0.tolist(),
            "long_run": svar.long_run.tolist(),
            **size_and_speed(svar, responses),
        }, sort_keys=True))
        return
    click.echo(shock_table(country, shock_dict(svar)), nl=False)


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
    from .simulate import equal_weights_csv, synthetic_panel  # only this command needs it

    if weights_output and n_countries < 2:
        # load_weights needs at least 2 countries a year
        raise click.BadParameter("must be >= 2 with --weights-output",
                                 param_hint="'--countries'")
    if output and weights_output and Path(output).resolve() == Path(weights_output).resolve():
        raise click.BadParameter("must differ from --output",
                                 param_hint="'--weights-output'")
    try:
        first = month_range(Month.parse(start), n_months).start
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    panel = synthetic_panel(seed, n_countries, n_months, start=first)
    # the files before stdout: a failed write prints no panel
    texts = {Path(output): panel_to_csv(panel)} if output else {}
    if weights_output:
        texts[Path(weights_output)] = equal_weights_csv(panel)
    try:
        write_texts(texts)
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename}: {exc.strerror or exc}") from None
    if not output:
        click.echo(panel_to_csv(panel), nl=False)


def entry() -> None:
    """Run ``main`` as a process: ``python -m ocametrics.cli`` and the
    ``ocametrics`` console script.  Once ``main`` has finished, flush stdout
    and stderr and end the process with ``os._exit``, skipping the
    interpreter's teardown (a full GC pass, clearing every module and freeing
    every array), which writes nothing.  Nothing in the process needs it:
    every bundle and view file is written through ``Path.write_text``, which
    closes it, and ``--threads`` > 1 shuts its pool down in a ``with`` block
    before ``main`` returns.  Library callers and ``CliRunner`` call ``main``.

    A ``SystemExit`` code of ``None`` is 0 and an int is the exit status; any
    other code is re-raised, so Python prints it and exits 1.  Any other
    exception propagates with its traceback.  If a flush fails, as on a
    closed pipe, the process exits through ``sys.exit`` as ``main`` would."""
    try:
        main()
        code = 0
    except SystemExit as exc:
        if exc.code is not None and not isinstance(exc.code, int):
            raise
        code = exc.code or 0
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the process started with it closed
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
