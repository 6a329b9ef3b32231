import dataclasses
import importlib
import pkgutil
import types

import ocametrics
from ocametrics import (cli, cointegration, errors, identification, metrics, panel, pipeline,
                        unit_root, var)

# second copies of run's integration-order, growth-rate and long-run paths,
# the second ADF serializer, the stream twin of panel_to_csv, an unused path
# property, the per-country record between the estimates and the report
# block, the one-value twin of the correlation p-values and the keyed copy
# of the cumulative responses, by module or class; the package keeps one
# entry point for each capability.  The index rebase and its error went with
# --base-year: an index's base only shifts the log levels.  The group's
# dispersion, cost and correlation views went once run recorded a refused
# pretest, and with the last of them the chain-only path to the group shocks.
# run's JSON config file went: every setting is a flag.  The records that only
# became report blocks went with the pass that turned them back into dicts:
# each test result is its report block, and run_pipeline returns the file names
DELETED = {
    cli: ("disperse_command", "cost_command", "_group_shocks", "correlate_command",
          "_load_config", "_flag_text", "_fail"),
    unit_root: ("integration_order", "IntegrationResult", "_SPEC_ALIASES", "AdfResult"),
    cointegration: ("JohansenResult",),
    var: ("ChiSquareResult", "LagAudit", "StabilityResult", "Diagnostics"),
    panel: ("log_diff", "dump_panel", "rebase"),
    identification: ("long_run_matrix", "IrfSet", "SizeSpeed"),
    errors: ("InconclusiveIntegrationError", "BaseYearAbsentError"),
    pipeline: ("CountryAnalysis", "_with_pretests", "group_shocks", "_shock_chain",
               "PipelineResult", "_listed"),
    metrics: ("correlation_pvalue",),
}


def test_deleted_names_are_gone():
    for owner, names in DELETED.items():
        for name in names:
            assert not hasattr(ocametrics, name), name
            assert not hasattr(owner, name), (owner.__name__, name)


def test_package_namespace_is_its_modules():
    # each name has one import path, the module that defines it; a re-export
    # would also shadow a submodule of the same name
    for info in pkgutil.iter_modules(ocametrics.__path__):
        importlib.import_module(f"ocametrics.{info.name}")
    import ocametrics.simulate as sim
    assert isinstance(sim, types.ModuleType)
    for name, value in vars(ocametrics).items():
        if not name.startswith("_"):
            assert isinstance(value, types.ModuleType), name
    assert not hasattr(ocametrics, "__all__")
    assert ocametrics.__version__


def test_group_series_hold_only_values():
    for cls in (metrics.DispersionSeries, metrics.CostSeries):
        assert cls._fields == ("values",)


def test_no_record_is_a_dataclass():
    # run pays for no generated record code at start-up
    for info in pkgutil.iter_modules(ocametrics.__path__):
        module = importlib.import_module(f"ocametrics.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                assert not dataclasses.is_dataclass(value), value
