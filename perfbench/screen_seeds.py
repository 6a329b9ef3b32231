"""Screen synthetic_panel seeds for the pools in workloads.py.

    python3 perfbench/screen_seeds.py panel_long 1 41

Runs the per-country chain of every candidate seed in [FIRST, STOP) at the
workload's panel size and prints the countries each seed's panel refuses.
A pool holds the seeds with no refusal, in order.  The screen looks at
refusals only, never at timings.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from ocametrics.errors import OcaError
    from ocametrics.pipeline import PipelineConfig, analyze_country
    from workloads import START, WORKLOADS, simulate

    name, first, stop = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    wl = WORKLOADS[name]
    config = PipelineConfig(panel_path="-", weights_path="-", output_dir="-")
    admissible = []
    for seed in range(first, stop):
        data = simulate.synthetic_panel(seed, wl.n_countries, wl.n_months, start=START)
        refused = []
        for country in data.countries:
            try:
                analyze_country(data, country, config)
            except OcaError as exc:
                refused.append(f"{country} {type(exc).__name__}")
        print(seed, "; ".join(refused) or "admissible", flush=True)
        if not refused:
            admissible.append(seed)
    print("pool", tuple(admissible))
