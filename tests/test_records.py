"""Record contracts: every record is a named tuple, compared by its field
values; a record with invariants refuses a bad value on every construction
path, with the message its constructor gives."""

import pickle

import numpy as np
import pytest

from ocametrics.errors import ConfigError, PanelError
from ocametrics.months import Calendar, Month, month_range
from ocametrics.pipeline import Bounds, PipelineConfig
from ocametrics.simulate import RecoveryReport, random_dgp
from ocametrics.var import DummySpec

from .conftest import make_pair, panel_from_rows

DATES = month_range(Month(2009, 1), 3)
PANEL = panel_from_rows([(c, str(m), v, 100.0 + i) for c in ("A", "B")
                         for i, m in enumerate(DATES) for v in ("MEAI", "CPI")])
SERIES = make_pair(np.zeros((3, 2)))[0]
CONFIG = PipelineConfig(panel_path="p.csv", weights_path="w.csv", output_dir="out")

# each invariant carrier, one bad field value and what its constructor says
CARRIERS = {
    "Month": (Month(2009, 1), {"month": 13}, ValueError, "month out of range: 13"),
    "DummySpec": (DummySpec(Month(2009, 6)), {"form": "ramp"}, ValueError,
                  "unknown dummy form 'ramp'"),
    "Panel": (PANEL, {"countries": ("B", "A")}, PanelError,
              "countries must be sorted and unique"),
    "TransformedSeries": (SERIES, {"variable": "wage"}, PanelError, "unknown variable 'wage'"),
    "Dgp": (random_dgp(1), {"n_obs": 0}, ValueError, "n_obs must be >= 1"),
    "PipelineConfig": (CONFIG, {"alpha": 1.0}, ConfigError,
                       "alpha must be in (0.0, 1.0), got 1.0"),
}


@pytest.mark.parametrize("name", list(CARRIERS))
def test_bad_value_is_refused_on_every_construction_path(name):
    record, bad, error, message = CARRIERS[name]
    cls, fields = type(record), {**record._asdict(), **bad}
    builds = {"constructor": lambda: cls(**fields), "_make": lambda: cls._make(fields.values()),
              "_replace": lambda: record._replace(**bad)}
    for path, build in builds.items():
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message, path
    assert cls._make(record) == cls(*record) == record._replace()


@pytest.mark.parametrize("record", [*(c[0] for c in CARRIERS.values()), Bounds(1),
                                    DATES, RecoveryReport(0.1, 0.9, 0.8, True)],
                         ids=[*CARRIERS, "Bounds", "Calendar", "RecoveryReport"])
def test_records_refuse_assignment(record):
    name = record._fields[0] if hasattr(record, "_fields") else "n"
    for target in (name, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, target, None)
    with pytest.raises(AttributeError):
        delattr(record, name)


def test_month_orders_and_hashes_as_its_fields():
    months = [Month(2010, 1), Month(2009, 12), Month(2009, 2)]
    assert sorted(months) == [Month(2009, 2), Month(2009, 12), Month(2010, 1)]
    assert max(months) == Month(2010, 1) and Month(2009, 2) <= months[2]
    assert hash(Month(2009, 2)) == hash((2009, 2))
    assert {Month(2009, 2): "x"}[Month.parse("2009-02")] == "x"


def test_calendar_compares_start_and_length():
    same = Calendar(start=Month(2009, 1), n=3)
    assert DATES == same and hash(DATES) == hash(same)
    assert DATES != month_range(Month(2009, 1), 4) and DATES != month_range(Month(2009, 2), 3)
    assert DATES != (Month(2009, 1), 3)
    assert repr(DATES) == "Calendar(start=Month(year=2009, month=1), n=3)"
    assert pickle.loads(pickle.dumps(DATES)) == DATES


def test_result_records_compare_by_field_values():
    report = RecoveryReport(0.1, 0.9, 0.8, True)
    assert report == RecoveryReport(a0_error_max=0.1, supply_correlation=0.9,
                                    demand_correlation=0.8, sign_agreement=True)
    assert report != report._replace(sign_agreement=False)
