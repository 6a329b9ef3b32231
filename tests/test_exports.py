import ocametrics
from ocametrics import errors, identification, panel, unit_root

# second copies of run's integration-order, growth-rate and long-run paths;
# the package keeps one entry point for each capability
DELETED = {
    unit_root: ("integration_order", "IntegrationResult", "_SPEC_ALIASES"),
    panel: ("log_diff",),
    identification: ("long_run_matrix",),
    errors: ("InconclusiveIntegrationError",),
}


def test_every_export_resolves():
    assert len(set(ocametrics.__all__)) == len(ocametrics.__all__)
    for name in ocametrics.__all__:
        assert hasattr(ocametrics, name), name


def test_deleted_names_are_gone():
    for module, names in DELETED.items():
        for name in names:
            assert name not in ocametrics.__all__
            assert not hasattr(ocametrics, name), name
            assert not hasattr(module, name), (module.__name__, name)
