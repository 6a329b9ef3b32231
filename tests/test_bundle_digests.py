"""Every bundle and view stays byte-identical to ``tests/data/bundle_digests.txt``.

The file is the output of ``tools/bundle_digests.py``: a ``# field: value``
header recording the environment the bytes depend on, then one
``sha256  label`` line per output.  In another environment the digests may
move for reasons outside the source, so the test skips there and names the
field that differs, or that the tool cannot read, as the statsmodels
cross-checks skip without statsmodels.  The header holds the run-time OpenBLAS
core and numpy's SIMD dispatch targets as well as the builds: with the same
wheels, forcing the ``Haswell`` core moves 68 of the 148 digests.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "tests" / "data" / "bundle_digests.txt"


def _tool():
    spec = importlib.util.spec_from_file_location("bundle_digests",
                                                  ROOT / "tools" / "bundle_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _label(line: str) -> str:
    return line.split("  ", 1)[1]


def test_bundles_and_views_match_the_recorded_digests():
    tool = _tool()
    lines = EXPECTED.read_text(encoding="utf-8").splitlines()
    header = dict(line[2:].split(": ", 1) for line in lines if line.startswith("# "))
    expected = [line for line in lines if not line.startswith("# ")]
    for field, value in tool.environment().items():
        if value == "unknown" or header.get(field) != value:
            pytest.skip(f"digests recorded at {field} {header.get(field)!r}, running {value!r}")

    actual = tool.digests()
    moved = sorted({_label(line) for line in set(actual) ^ set(expected)})
    assert actual == expected, "outputs that moved: " + "; ".join(moved)
