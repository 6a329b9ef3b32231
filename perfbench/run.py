"""Pipeline benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
Workloads are ``cli_seed``, ``panel_long``, ``roundtrip`` and
``group_dense`` (see ``workloads.py`` for why each exists).

A run sets up five times (inputs from the seed, then one warm-up pass),
then repeats passes, one at a time, until S seconds have passed.  Every
pass is checked; a refused input, a non-zero exit or a failed check counts
as a failed pass.  With ``--trace 0`` the end-to-end metrics are measured
with tracing off, on one CPU: each timed step sits between two runs of a
fixed reference job of the same kind that uses no package code, and is
scaled to the host speed at which that job takes the workload's nominal
time (see ``harness.HostSpeed``); the unscaled median is printed beside
it.  A child process is started through ``launch.py``, which reports the
child's own wall time and peak memory.  With ``--trace 1`` untraced and
traced passes alternate:
the traced ones give per-layer self times and counts, their difference
gives the tracing overhead, and all spans are written to
``perfbench/work/<workload>/spans.jsonl``.  A layer the workload does not
reach reports 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric with its unit.  BLAS runs on one thread, so a run uses
at most two (``build_report`` at ``threads=2`` in the traced ``cli_seed``
and ``panel_long`` runs).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    t_origin = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_seed", "panel_long", "roundtrip", "group_dense"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ocametrics" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'ocametrics'}", file=sys.stderr)
        return 2
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    import ocametrics

    if Path(ocametrics.__file__).resolve().parent != ROOT / "src" / "ocametrics":
        print(f"perfbench: imported ocametrics from {ocametrics.__file__}", file=sys.stderr)
        return 2
    from harness import run_workload

    run_workload(args.workload, args.seed, args.seconds, bool(args.trace), t_origin)
    return 0


if __name__ == "__main__":
    sys.exit(main())
