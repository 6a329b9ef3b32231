from ocametrics import metrics, panel, var
from ocametrics.pipeline import PipelineConfig, analyze_country, build_report

from .conftest import count_calls

CONFIG = PipelineConfig(panel_path="-", weights_path="-", output_dir="-")


def test_country_chain_estimates_once(fixture_panel, monkeypatch):
    fits = count_calls(monkeypatch, var.fit_var)
    logs = count_calls(monkeypatch, panel.log_level_series)
    stabilities = count_calls(monkeypatch, var.stability)
    for country in fixture_panel.countries:
        del fits[:], logs[:], stabilities[:]
        trail = len(analyze_country(fixture_panel, country, CONFIG).lag_selection.trail)
        assert len(fits) == trail, country
        assert len(logs) == 2, country
        # one per gate step, one in identify_bq
        assert len(stabilities) == trail + 1, country


def test_selection_carries_the_accepted_model(fixture_panel):
    selection = analyze_country(fixture_panel, "C00", CONFIG).lag_selection
    refit = var.fit_var(panel.transform_pair(fixture_panel, "C00", base_year=2010),
                        selection.p)
    assert (refit.coefs == selection.model.coefs).all()
    assert (refit.residuals == selection.model.residuals).all()
    assert selection.diagnostics == var.diagnose(refit, 12, 4)


def test_group_dispersion_once_per_country(fixture_panel, fixture_weights_path, monkeypatch):
    passes = count_calls(monkeypatch, metrics._dispersion_values)
    build_report(fixture_panel, metrics.load_weights(fixture_weights_path), CONFIG)
    # per shock kind: the full group once, then each country left out once
    assert len(passes) == 2 * (len(fixture_panel.countries) + 1)
