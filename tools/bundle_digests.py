"""Print one SHA-256 digest per output of a fixed set of ``ocametrics`` commands.

Run it in two checkouts and ``diff`` the results; equal output means the two
trees write byte-identical bundles and print byte-identical views:

    PYTHONPATH=src python tools/bundle_digests.py > digests.txt

``tests/data/bundle_digests.txt`` holds the expected output, and
``tests/test_bundle_digests.py`` compares against it. A change that moves bytes
on purpose regenerates it with the command above and names the moved labels.

Every command runs in-process through click's ``CliRunner`` inside one fresh
temporary directory, under fixed relative names, so the paths that
``report.json`` records in ``metadata.config`` match across trees.  Each line
reads ``sha256  label``: one per file written (simulated panels and weights,
every file of each ``run`` bundle) and one per command's stdout, with the
exit code in the label.  The output opens with ``# field: value`` lines that
record what the bytes depend on besides the source (``environment()``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sys
from pathlib import Path

# one BLAS thread before numpy loads, so the digests do not depend on the host
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from click.testing import CliRunner  # noqa: E402

from ocametrics.cli import main  # noqa: E402

FIXTURES = {
    "seed": ["--seed", "20260401", "--t", "133", "--countries", "7"],
    "wide": ["--seed", "5", "--t", "241", "--countries", "12"],
    "late": ["--seed", "3", "--t", "133", "--countries", "5", "--start", "2012-01"],
    # too short for every first-difference ADF and every Johansen test at --max-lags 2
    "short": ["--seed", "1", "--t", "23", "--countries", "4"],
}

RUNS = {
    "seed-defaults": ("seed", []),
    "seed-options": ("seed", ["--dummy", "C01:2012-03:step", "--seasonal-adjust",
                              "--alpha", "0.1"]),
    "seed-gate": ("seed", ["--alpha", "0.1", "--portmanteau-h", "6", "--arch-q", "2"]),
    "wide-defaults": ("wide", []),
    "late-defaults": ("late", []),
    "short-pretests": ("short", ["--max-lags", "2", "--arch-q", "2", "--portmanteau-h", "4"]),
}

# the views of the seed fixture, each printed plain and with --json
VIEWS = [
    ["var", "--panel", "seed/panel.csv", "--country", "C03"],
    ["var", "--panel", "seed/panel.csv", "--country", "C03", "--p", "2"],
    ["var", "--panel", "seed/panel.csv", "--country", "C01", "--dummy", "C01:2012-03:pulse"],
    ["identify", "--panel", "seed/panel.csv", "--country", "C01"],
    ["identify", "--panel", "seed/panel.csv", "--country", "C01", "--p", "2"],
    ["johansen", "--panel", "seed/panel.csv", "--country", "C00"],
    ["johansen", "--panel", "seed/panel.csv", "--country", "C00", "--lag-order", "3"],
    ["adf", "--series", "seed/series.csv"],
]


def environment() -> dict[str, str]:
    """The interpreter, numpy and scipy versions, numpy's BLAS build, and the
    two run-time choices that move last bits on the same build: the OpenBLAS
    kernel set and numpy's enabled SIMD dispatch targets."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas.get("openblas configuration") or f"{blas['name']} {blas['version']}",
            "openblas_core": _openblas_core(), "cpu_dispatch": _cpu_dispatch()}


def _openblas_core() -> str:
    """The core that ``DYNAMIC_ARCH`` picked in the OpenBLAS of the numpy wheel
    (``OPENBLAS_CORETYPE`` overrides it), or ``unknown``."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas*.so")):
        try:  # RTLD_NOLOAD: only the copy numpy already loaded
            corename = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _cpu_dispatch() -> str:
    """numpy's enabled SIMD dispatch targets (``NPY_DISABLE_CPU_FEATURES``
    turns some off), or ``unknown``."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return "unknown"
    return " ".join(sorted(name for name in __cpu_dispatch__ if __cpu_features__.get(name)))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _invoke(runner: CliRunner, args: list[str]) -> str:
    """``sha256  label`` of one command's stdout."""
    result = runner.invoke(main, args)
    return f"{_digest(result.stdout_bytes)}  {' '.join(args)} [exit {result.exit_code}]"


def _series_csv(panel_csv: str, country: str, variable: str) -> str:
    """The ``date,value`` CSV of one panel series, as ``adf --series`` reads it."""
    rows = [line.split(",") for line in panel_csv.splitlines()[1:]]
    return "date,value\n" + "".join(f"{d},{v}\n" for c, d, var, v in rows
                                    if (c, var) == (country, variable))


def digests() -> list[str]:
    runner = CliRunner()
    lines = []
    with runner.isolated_filesystem():
        for name, args in FIXTURES.items():
            Path(name).mkdir()
            lines.append(_invoke(runner, ["simulate", *args, "--output", f"{name}/panel.csv",
                                          "--weights-output", f"{name}/weights.csv"]))
            for file in ("panel.csv", "weights.csv"):
                lines.append(f"{_digest(Path(name, file).read_bytes())}  {name}/{file}")
        Path("seed/series.csv").write_text(
            _series_csv(Path("seed/panel.csv").read_text(), "C00", "MEAI"))

        for out, (fixture, extra) in RUNS.items():
            lines.append(_invoke(runner, ["run", "--panel", f"{fixture}/panel.csv",
                                          "--weights", f"{fixture}/weights.csv",
                                          "--output-dir", out, *extra]))
            for path in sorted(Path(out).iterdir()):
                lines.append(f"{_digest(path.read_bytes())}  {out}/{path.name}")

        for args in VIEWS:
            lines.append(_invoke(runner, args))
            lines.append(_invoke(runner, [*args, "--json"]))
    return lines


if __name__ == "__main__":
    header = [f"# {field}: {value}" for field, value in environment().items()]
    sys.stdout.write("".join(f"{line}\n" for line in header + digests()))
