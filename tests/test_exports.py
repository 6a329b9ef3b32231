import dataclasses

import ocametrics
from ocametrics import errors, identification, metrics, panel, pipeline, unit_root
from ocametrics.pipeline import PipelineResult
from ocametrics.unit_root import AdfResult

# second copies of run's integration-order, growth-rate and long-run paths,
# the second ADF serializer, the stream twin of panel_to_csv, an unused path
# property, the per-country record between the estimates and the report
# block, the one-value twin of the correlation p-values and the keyed copy
# of the cumulative responses, by module or class; the package keeps one
# entry point for each capability
DELETED = {
    unit_root: ("integration_order", "IntegrationResult", "_SPEC_ALIASES"),
    panel: ("log_diff", "dump_panel"),
    identification: ("long_run_matrix", "IrfSet"),
    errors: ("InconclusiveIntegrationError",),
    pipeline: ("CountryAnalysis", "_with_pretests"),
    metrics: ("correlation_pvalue",),
    AdfResult: ("as_dict",),
    PipelineResult: ("report_path",),
}


def test_every_export_resolves():
    assert len(set(ocametrics.__all__)) == len(ocametrics.__all__)
    for name in ocametrics.__all__:
        assert hasattr(ocametrics, name), name


def test_deleted_names_are_gone():
    for owner, names in DELETED.items():
        for name in names:
            assert name not in ocametrics.__all__
            assert not hasattr(ocametrics, name), name
            assert not hasattr(owner, name), (owner.__name__, name)


def test_group_series_hold_only_values():
    # hasattr cannot see a dataclass field that has no default
    for cls in (metrics.DispersionSeries, metrics.CostSeries):
        assert [f.name for f in dataclasses.fields(cls)] == ["values"]
