"""Measurement loops of the pipeline benchmark (see ``run.py``)."""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

from ocametrics.errors import OcaError
from tracer import SELF_TIME, Tracer, layer_metrics, spans_from_json
from workloads import ROOT, WORKLOADS, Outcome

SETUP_REPS = 5
MIN_PASSES = 3
MIN_TRACED_ROUNDS = 2
# stop starting passes past this, whatever --seconds says: with a child that
# hits CHILD_TIMEOUT_S the run still ends within 180 s
HARD_LIMIT_S = 140.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_floor_s": "s",
    "panel.load_panel_s": "s",
    "panel.transform_s": "s",
    "panel.log_level_calls": "count",
    "months.month_range_s": "s",
    "unit_root.adf_s": "s",
    "unit_root.adf_calls": "count",
    "unit_root.adf_lag_mean": "lags",
    "var.select_lag_s": "s",
    "var.fit_s": "s",
    "var.fit_calls": "count",
    "var.diag_s": "s",
    "var.gate_trail_len": "count",
    "var.gate_accept_ratio": "ratio",
    "var.accepted_p_mean": "lags",
    "var.modulus_gap_min": "abs",
    "var.sigma_eig_min": "abs",
    "cointegration.johansen_s": "s",
    "identification.identify_s": "s",
    "identification.irf_s": "s",
    "identification.cond_max": "ratio",
    "metrics.correlation_s": "s",
    "metrics.symmetry_s": "s",
    "metrics.dispersion_s": "s",
    "metrics.hp_s": "s",
    "metrics.cost_s": "s",
    "metrics.load_weights_s": "s",
    "metrics.edges": "count",
    "metrics.groups": "count",
    "metrics.symmetry_k": "count",
    "simulate.simulate_s": "s",
    "simulate.simulate_calls": "count",
    "simulate.steps": "count",
    "simulate.recovery_s": "s",
    "simulate.synthetic_panel_s": "s",
    "pipeline.analyze_country_self_s": "s",
    "pipeline.build_report_self_s": "s",
    "pipeline.write_s": "s",
    "pipeline.run_pipeline_s": "s",
    "pipeline.build_report_threads1_s": "s",
    "pipeline.build_report_threads2_s": "s",
    "a0_err": "abs",
    "shock_corr": "corr",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class HostSpeed:
    """Scales a timed step to the workload's nominal host speed.

    A shared host's speed can drift by a fifth or more within minutes,
    alike for the program and for other work of the same kind.  A step is
    timed between two runs of the workload's reference job, which uses no
    package code, and its time is multiplied by the job's nominal time over
    their mean, so such drift cancels and a change to the program still
    shows in full.
    """

    def __init__(self, workload):
        self.reference, self.nominal_s = workload.reference_s, workload.reference_nominal_s
        self.last = self.reference()
        self.refs = [self.last]

    def scale(self, seconds: float) -> float:
        now = self.reference()
        self.refs.append(now)
        ref, self.last = (self.last + now) / 2.0, now
        return seconds * self.nominal_s / ref


class Run:
    """Passes of one workload, with the failures they produced."""

    def __init__(self, workload, tracer=None):
        self.wl = workload
        self.tracer = tracer
        self.attempted = 0
        self.errors: list[str] = []
        self.failed = 0
        self.stats: dict[str, float] = {}

    def one_pass(self, traced: bool = False):
        self.wl.prepare()
        in_process = traced and not self.wl.traces_in_child
        if in_process:
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            outcome = self.wl.run(traced)
        except OcaError as exc:
            outcome = Outcome(errors=[f"{type(exc).__name__}: {exc}"])
        finally:
            wall = time.perf_counter() - t0
            if in_process:
                self.tracer.uninstall()
        if outcome.wall_s is not None:
            wall = outcome.wall_s
        if traced and outcome.spans:
            self.tracer.spans += spans_from_json(outcome.spans, self.tracer.trace)
        self.wl.check(outcome)
        self.attempted += 1
        if outcome.errors:
            self.failed += 1
            self.errors += outcome.errors
        self.stats.update(outcome.stats)
        return wall, outcome


def measure(run: Run, seconds: float, t_origin: float) -> dict[str, float]:
    """End-to-end metrics, tracing off; times are scaled by ``HostSpeed``.

    The run and its children are held to one CPU, so the reference job and
    the timed steps share it.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    host = HostSpeed(run.wl)
    setups, walls, raw_walls, rss = [], [], [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        run.wl.setup()
        generate = time.perf_counter() - t0
        setups.append(host.scale(generate + run.one_pass()[0]))
    start = time.perf_counter()
    while ((time.perf_counter() - start < seconds or len(walls) < MIN_PASSES)
           and time.perf_counter() - t_origin < HARD_LIMIT_S):
        wall, outcome = run.one_pass()
        raw_walls.append(wall)
        walls.append(host.scale(wall))
        if outcome.rss_mb is not None:
            rss.append(outcome.rss_mb)
    peak = (statistics.median(rss) if rss
            else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    run.stats["passes"] = len(walls)
    run.stats["raw_wall_s"] = statistics.median(raw_walls)
    run.stats["reference_s"] = statistics.median(host.refs)
    return {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
            "peak_rss_mb": peak}


def measure_layers(run: Run, seconds: float, t_origin: float) -> dict[str, float]:
    """Per-layer metrics from traced passes that alternate with untraced ones."""
    tracer, wl = run.tracer, run.wl
    setup_panel_s = []
    for rep in range(SETUP_REPS):
        tracer.trace = f"setup{rep}"
        tracer.install()
        try:
            wl.setup()
        finally:
            tracer.uninstall()
        setup_spans = [s for s in tracer.spans if s.trace == tracer.trace]
        setup_panel_s.append(layer_metrics(setup_spans)["simulate.synthetic_panel_s"])
        run.one_pass()

    traced_walls, untraced_walls, per_pass = [], [], []
    extra: dict[str, list[float]] = {}
    start = time.perf_counter()
    rounds = 0
    while ((time.perf_counter() - start < seconds or rounds < MIN_TRACED_ROUNDS)
           and time.perf_counter() - t_origin < HARD_LIMIT_S):
        for traced in ((False, True) if rounds % 2 == 0 else (True, False)):
            tracer.trace = f"pass{rounds}"
            wall, outcome = run.one_pass(traced)
            if not traced:
                untraced_walls.append(wall)
                continue
            traced_walls.append(wall)
            per_pass.append(layer_metrics([s for s in tracer.spans if s.trace == tracer.trace]))
            if outcome.import_s is not None:
                extra.setdefault("cli.import_s", []).append(outcome.import_s)
        samples, errors = wl.extra_layers(rounds)
        run.errors += errors
        for name, value in samples.items():
            extra.setdefault(name, []).append(value)
        rounds += 1

    times = set(SELF_TIME) | {"pipeline.run_pipeline_s"}
    out = {}
    for name in PER_LAYER:
        values = [m[name] for m in per_pass if name in m]
        if not values:
            continue
        if name in times:
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                run.errors.append(f"{name} differs between traced passes: {values}")
    out.update({name: statistics.median(v) for name, v in extra.items()})
    out["simulate.synthetic_panel_s"] = statistics.median(setup_panel_s)
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    for name in ("a0_err", "shock_corr"):
        out[name] = run.stats.get(name, 0.0)
    run.stats["passes"] = len(traced_walls) + len(untraced_walls)

    spans_path = wl.work_dir / "spans.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for row in tracer.to_json():
            fh.write(json.dumps(row) + "\n")
    print(f"spans: {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    return {name: out.get(name, 0.0) for name in PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, trace: bool, t_origin: float) -> None:
    """Measure one workload and print its metrics, the JSON result last."""
    workload = WORKLOADS[name](seed)
    run = Run(workload, Tracer() if trace else None)
    if trace:
        values, units = measure_layers(run, seconds, t_origin), PER_LAYER
    else:
        values, units = measure(run, seconds, t_origin), END_TO_END

    for error in run.errors[:20]:
        print(f"perfbench: {error}", file=sys.stderr)
    print(f"workload {name}  seed {seed}  {workload.describe()}")
    print(f"passes {run.stats['passes']} timed, {run.attempted} attempted, {run.failed} failed "
          f"(fail_frac {run.failed / run.attempted:.4f} ratio)")
    for metric, value in values.items():
        print(f"  {metric:36s} {value:14.6g} {units[metric]}")
    if not trace:
        print(f"  unscaled wall {run.stats['raw_wall_s']:.6g} s, reference job "
              f"{run.stats['reference_s']:.6g} s (nominal {run.wl.reference_nominal_s} s)")
    if not trace and "a0_err" in run.stats:
        print(f"  {'a0_err':36s} {run.stats['a0_err']:14.6g} abs")
        print(f"  {'shock_corr':36s} {run.stats['shock_corr']:14.6g} corr")
    print(json.dumps({
        "correct": run.failed == 0 and not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in values.items()},
    }))
