import io
import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads: the suite's matrices are small, and
# a multi-threaded BLAS runs them several times slower on a shared host.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import pytest

from ocametrics.months import Month, month_range
from ocametrics.panel import Panel, TransformedSeries, load_panel, panel_to_csv
from ocametrics.simulate import equal_weights_csv, synthetic_panel

DATA_DIR = Path(__file__).parent / "data"

FIXTURE_SEED = 20260401
FIXTURE_COUNTRIES = 7
FIXTURE_MONTHS = 133


@pytest.fixture(scope="session")
def weights_path() -> Path:
    return DATA_DIR / "group_weights.csv"


@pytest.fixture(scope="session")
def fixture_panel() -> Panel:
    return synthetic_panel(FIXTURE_SEED, FIXTURE_COUNTRIES, FIXTURE_MONTHS,
                           start=Month(2009, 1))


@pytest.fixture(scope="session")
def fixture_panel_path(fixture_panel, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("fixture") / "panel.csv"
    path.write_text(panel_to_csv(fixture_panel), encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def fixture_weights_path(fixture_panel, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("fixture_weights") / "weights.csv"
    path.write_text(equal_weights_csv(fixture_panel), encoding="utf-8")
    return path


def make_pair(values: np.ndarray, start: Month = Month(2009, 2),
              country: str = "AAA") -> tuple[TransformedSeries, TransformedSeries]:
    """Wrap a (T, 2) array as the (activity, price) TransformedSeries pair."""
    values = np.asarray(values, dtype=np.float64)
    dates = month_range(start, values.shape[0])
    return (
        TransformedSeries(country=country, variable="activity", dates=dates,
                          values=values[:, 0].copy()),
        TransformedSeries(country=country, variable="price", dates=dates,
                          values=values[:, 1].copy()),
    )


def panel_from_rows(rows: list[tuple[str, str, str, float]]) -> Panel:
    buf = io.StringIO()
    buf.write("country,date,variable,value\n")
    for country, date, variable, value in rows:
        buf.write(f"{country},{date},{variable},{value}\n")
    buf.seek(0)
    return load_panel(buf)


def replace_everywhere(monkeypatch, func, replacement) -> None:
    """Swap ``func`` for ``replacement`` in every ocametrics module that holds it."""
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "ocametrics":
            continue
        for attr, value in list(vars(module).items()):
            if value is func:
                monkeypatch.setattr(module, attr, replacement)


def count_calls(monkeypatch, func) -> list:
    """Record one entry per call of ``func``, wherever ocametrics calls it from."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(func.__name__)
        return func(*args, **kwargs)

    replace_everywhere(monkeypatch, func, counted)
    return calls
