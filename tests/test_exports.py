import dataclasses
import importlib
import pkgutil
import types

import ocametrics
from ocametrics import cli, errors, identification, metrics, panel, pipeline, unit_root
from ocametrics.pipeline import PipelineResult
from ocametrics.unit_root import AdfResult

# second copies of run's integration-order, growth-rate and long-run paths,
# the second ADF serializer, the stream twin of panel_to_csv, an unused path
# property, the per-country record between the estimates and the report
# block, the one-value twin of the correlation p-values and the keyed copy
# of the cumulative responses, by module or class; the package keeps one
# entry point for each capability.  The index rebase and its error went with
# --base-year: an index's base only shifts the log levels.  The group's
# dispersion and cost views went once run recorded a refused pretest
DELETED = {
    cli: ("disperse_command", "cost_command", "_group_shocks"),
    unit_root: ("integration_order", "IntegrationResult", "_SPEC_ALIASES"),
    panel: ("log_diff", "dump_panel", "rebase"),
    identification: ("long_run_matrix", "IrfSet"),
    errors: ("InconclusiveIntegrationError", "BaseYearAbsentError"),
    pipeline: ("CountryAnalysis", "_with_pretests"),
    metrics: ("correlation_pvalue",),
    AdfResult: ("as_dict",),
    PipelineResult: ("report_path",),
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
    # hasattr cannot see a dataclass field that has no default
    for cls in (metrics.DispersionSeries, metrics.CostSeries):
        assert [f.name for f in dataclasses.fields(cls)] == ["values"]
