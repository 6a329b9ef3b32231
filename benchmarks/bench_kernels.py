"""Time the two numeric kernels: batched unit-root regressions and the VAR
simulation scan.

    python benchmarks/bench_kernels.py
"""

import time

import numpy as np


def bench_adf(reps=2000, n_obs=200, max_lags=12):
    from ocametrics._kernels import adf_batch

    rng = np.random.default_rng(0)
    paths = rng.standard_normal((reps, n_obs)).cumsum(axis=1)
    adf_batch(paths[:2], 1, max_lags, True)  # warm up
    t0 = time.perf_counter()
    stats, _, _ = adf_batch(paths, 1, max_lags, True)
    elapsed = time.perf_counter() - t0
    return elapsed, float(stats.mean())


def bench_var_sim(n_obs=10_500, repeats=50):
    from ocametrics._kernels import var_simulate

    rng = np.random.default_rng(1)
    coefs = np.array([[[0.4, 0.1], [0.0, 0.3]], [[0.1, 0.0], [0.05, 0.1]]])
    intercept = np.array([0.01, -0.02])
    shocks = rng.standard_normal((n_obs, 2))
    var_simulate(coefs, intercept, shocks[:10])  # warm up
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(repeats):
        acc += var_simulate(coefs, intercept, shocks)[-1, 0]
    elapsed = time.perf_counter() - t0
    return elapsed, acc / repeats


def run_current():
    from ocametrics._kernels import BACKEND

    adf_time, adf_mean = bench_adf()
    sim_time, sim_val = bench_var_sim()
    print(f"backend={BACKEND}")
    print(f"adf_batch   2000 reps x T=200 autolag(0..12): {adf_time:8.3f} s "
          f"(mean stat {adf_mean:+.4f})")
    print(f"var_simulate 50 paths x T=10500 VAR(2):       {sim_time:8.3f} s "
          f"(check {sim_val:+.4f})")


if __name__ == "__main__":
    run_current()
